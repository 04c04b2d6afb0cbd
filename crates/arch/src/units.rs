//! Physical-quantity newtypes used throughout the workspace.
//!
//! All simulator arithmetic flows through these types so that a byte count
//! can never be accidentally added to a time, and so that unit conversions
//! (`TB/s`, `GiB`, `ms`, …) live in exactly one place.
//!
//! The types are thin `f64`/`u64` wrappers with the arithmetic that makes
//! dimensional sense: `Bytes / Bandwidth = Time`, `Flops / FlopRate = Time`,
//! and so on.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A number of bytes (memory capacity or traffic volume).
///
/// ```
/// use wsc_arch::units::Bytes;
/// let cap = Bytes::gib(96);
/// assert_eq!(cap.as_u64(), 96 * 1024 * 1024 * 1024);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// Zero bytes.
    pub const ZERO: Bytes = Bytes(0);

    /// Construct from a raw byte count.
    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// `n` kibibytes.
    pub const fn kib(n: u64) -> Self {
        Bytes(n * 1024)
    }

    /// `n` mebibytes.
    pub const fn mib(n: u64) -> Self {
        Bytes(n * 1024 * 1024)
    }

    /// `n` gibibytes.
    pub const fn gib(n: u64) -> Self {
        Bytes(n * 1024 * 1024 * 1024)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte count as `f64` (for rate arithmetic).
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Capacity in gibibytes.
    pub fn as_gib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0 * 1024.0)
    }

    /// Capacity in mebibytes.
    pub fn as_mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction: memory headroom computations never underflow.
    pub fn saturating_sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }

    /// Multiply by a dimensionless factor, rounding to the nearest byte.
    pub fn scale(self, f: f64) -> Bytes {
        Bytes((self.0 as f64 * f).round().max(0.0) as u64)
    }

    /// Minimum of two byte counts.
    pub fn min(self, other: Bytes) -> Bytes {
        Bytes(self.0.min(other.0))
    }

    /// Maximum of two byte counts.
    pub fn max(self, other: Bytes) -> Bytes {
        Bytes(self.0.max(other.0))
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Sub for Bytes {
    type Output = Bytes;
    fn sub(self, rhs: Bytes) -> Bytes {
        Bytes(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Bytes {
    fn sub_assign(&mut self, rhs: Bytes) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Div<u64> for Bytes {
    type Output = Bytes;
    fn div(self, rhs: u64) -> Bytes {
        Bytes(self.0 / rhs.max(1))
    }
}

impl Div<Bandwidth> for Bytes {
    type Output = Time;
    fn div(self, rhs: Bandwidth) -> Time {
        if rhs.0 <= 0.0 {
            Time::INFINITY
        } else {
            Time(self.0 as f64 / rhs.0)
        }
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        iter.fold(Bytes::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", self.as_gib())
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", self.as_mib())
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A data-movement rate in bytes per second.
///
/// ```
/// use wsc_arch::units::{Bandwidth, Bytes};
/// let bw = Bandwidth::tb_per_s(2.0);
/// let t = Bytes::gib(2) / bw;
/// assert!(t.as_secs() > 0.001 && t.as_secs() < 0.002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth (an unusable link).
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Construct from raw bytes/second.
    pub const fn bytes_per_s(b: f64) -> Self {
        Bandwidth(b)
    }

    /// `g` gigabytes (1e9 bytes) per second.
    pub fn gb_per_s(g: f64) -> Self {
        Bandwidth(g * 1e9)
    }

    /// `t` terabytes (1e12 bytes) per second.
    pub fn tb_per_s(t: f64) -> Self {
        Bandwidth(t * 1e12)
    }

    /// Rate in raw bytes/second.
    pub fn as_bytes_per_s(self) -> f64 {
        self.0
    }

    /// Rate in GB/s.
    pub fn as_gb_per_s(self) -> f64 {
        self.0 / 1e9
    }

    /// Rate in TB/s.
    pub fn as_tb_per_s(self) -> f64 {
        self.0 / 1e12
    }

    /// Scale by a dimensionless factor (e.g. a de-rating).
    pub fn scale(self, f: f64) -> Bandwidth {
        Bandwidth((self.0 * f).max(0.0))
    }

    /// Minimum of two bandwidths (bottleneck rule).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Maximum of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// True when this bandwidth cannot move any data.
    pub fn is_zero(self) -> bool {
        self.0 <= 0.0
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e12 {
            write!(f, "{:.2} TB/s", self.as_tb_per_s())
        } else {
            write!(f, "{:.2} GB/s", self.as_gb_per_s())
        }
    }
}

/// A count of floating-point operations.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Flops(f64);

impl Flops {
    /// Zero FLOPs.
    pub const ZERO: Flops = Flops(0.0);

    /// Construct from a raw operation count.
    pub const fn new(f: f64) -> Self {
        Flops(f)
    }

    /// `g` GFLOPs.
    pub fn gflops(g: f64) -> Self {
        Flops(g * 1e9)
    }

    /// `t` TFLOPs.
    pub fn tflops(t: f64) -> Self {
        Flops(t * 1e12)
    }

    /// Raw count.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Count in TFLOPs.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Scale by a dimensionless factor.
    pub fn scale(self, f: f64) -> Flops {
        Flops(self.0 * f)
    }
}

impl Add for Flops {
    type Output = Flops;
    fn add(self, rhs: Flops) -> Flops {
        Flops(self.0 + rhs.0)
    }
}

impl AddAssign for Flops {
    fn add_assign(&mut self, rhs: Flops) {
        self.0 += rhs.0;
    }
}

impl Sub for Flops {
    type Output = Flops;
    fn sub(self, rhs: Flops) -> Flops {
        Flops((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Flops {
    type Output = Flops;
    fn mul(self, rhs: f64) -> Flops {
        Flops(self.0 * rhs)
    }
}

impl Div<FlopRate> for Flops {
    type Output = Time;
    fn div(self, rhs: FlopRate) -> Time {
        if rhs.0 <= 0.0 {
            Time::INFINITY
        } else {
            Time(self.0 / rhs.0)
        }
    }
}

impl Div<Time> for Flops {
    type Output = FlopRate;
    fn div(self, rhs: Time) -> FlopRate {
        if rhs.0 <= 0.0 {
            FlopRate(f64::INFINITY)
        } else {
            FlopRate(self.0 / rhs.0)
        }
    }
}

impl Sum for Flops {
    fn sum<I: Iterator<Item = Flops>>(iter: I) -> Flops {
        iter.fold(Flops::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Flops {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} TFLOP", self.as_tflops())
    }
}

/// A compute rate in FLOP/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct FlopRate(f64);

impl FlopRate {
    /// Zero throughput.
    pub const ZERO: FlopRate = FlopRate(0.0);

    /// `t` TFLOP/s.
    pub fn tflops(t: f64) -> Self {
        FlopRate(t * 1e12)
    }

    /// `g` GFLOP/s.
    pub fn gflops(g: f64) -> Self {
        FlopRate(g * 1e9)
    }

    /// Raw FLOP/s.
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// Rate in TFLOP/s.
    pub fn as_tflops(self) -> f64 {
        self.0 / 1e12
    }

    /// Scale by a dimensionless factor (utilization de-rating).
    pub fn scale(self, f: f64) -> FlopRate {
        FlopRate((self.0 * f).max(0.0))
    }
}

impl Add for FlopRate {
    type Output = FlopRate;
    fn add(self, rhs: FlopRate) -> FlopRate {
        FlopRate(self.0 + rhs.0)
    }
}

impl Mul<f64> for FlopRate {
    type Output = FlopRate;
    fn mul(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 * rhs)
    }
}

impl Div<f64> for FlopRate {
    type Output = FlopRate;
    fn div(self, rhs: f64) -> FlopRate {
        FlopRate(self.0 / rhs)
    }
}

impl Sum for FlopRate {
    fn sum<I: Iterator<Item = FlopRate>>(iter: I) -> FlopRate {
        iter.fold(FlopRate::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for FlopRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} TFLOPS", self.as_tflops())
    }
}

/// A duration in seconds.
///
/// Negative durations are not representable through the public
/// constructors; subtraction saturates at zero.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Time(f64);

impl Time {
    /// Zero duration.
    pub const ZERO: Time = Time(0.0);

    /// Unreachable / infeasible duration.
    pub const INFINITY: Time = Time(f64::INFINITY);

    /// Construct from seconds.
    pub fn from_secs(s: f64) -> Self {
        Time(s.max(0.0))
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Time((ms / 1e3).max(0.0))
    }

    /// Construct from microseconds.
    pub fn from_micros(us: f64) -> Self {
        Time((us / 1e6).max(0.0))
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: f64) -> Self {
        Time((ns / 1e9).max(0.0))
    }

    /// Duration in seconds.
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Duration in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// Duration in microseconds.
    pub fn as_micros(self) -> f64 {
        self.0 * 1e6
    }

    /// True when the duration is finite.
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Minimum of two durations.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Maximum of two durations.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// Scale by a dimensionless factor.
    pub fn scale(self, f: f64) -> Time {
        Time((self.0 * f).max(0.0))
    }

    /// Saturating subtraction (never negative).
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Time {
    type Output = Time;
    fn mul(self, rhs: f64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<f64> for Time {
    type Output = Time;
    fn div(self, rhs: f64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Div<Time> for Time {
    type Output = f64;
    fn div(self, rhs: Time) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Time {
    type Output = Time;
    fn neg(self) -> Time {
        Time(0.0f64.max(-self.0))
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.0.is_finite() {
            write!(f, "inf")
        } else if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else if self.0 >= 1e-3 {
            write!(f, "{:.3} ms", self.as_millis())
        } else {
            write!(f, "{:.3} us", self.as_micros())
        }
    }
}

/// A length in millimetres (die edges, wafer edges).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Mm(f64);

impl Mm {
    /// Construct from millimetres.
    pub const fn new(mm: f64) -> Self {
        Mm(mm)
    }

    /// Length in millimetres.
    pub fn as_f64(self) -> f64 {
        self.0
    }
}

impl Add for Mm {
    type Output = Mm;
    fn add(self, rhs: Mm) -> Mm {
        Mm(self.0 + rhs.0)
    }
}

impl Sub for Mm {
    type Output = Mm;
    fn sub(self, rhs: Mm) -> Mm {
        Mm((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Mm {
    type Output = Mm;
    fn mul(self, rhs: f64) -> Mm {
        Mm(self.0 * rhs)
    }
}

impl Mul<Mm> for Mm {
    type Output = Area;
    fn mul(self, rhs: Mm) -> Area {
        Area(self.0 * rhs.0)
    }
}

impl fmt::Display for Mm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} mm", self.0)
    }
}

/// An area in square millimetres.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Area(f64);

impl Area {
    /// Zero area.
    pub const ZERO: Area = Area(0.0);

    /// Construct from mm².
    pub const fn from_mm2(a: f64) -> Self {
        Area(a)
    }

    /// Area in mm².
    pub fn as_mm2(self) -> f64 {
        self.0
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area(self.0 + rhs.0)
    }
}

impl AddAssign for Area {
    fn add_assign(&mut self, rhs: Area) {
        self.0 += rhs.0;
    }
}

impl Sub for Area {
    type Output = Area;
    fn sub(self, rhs: Area) -> Area {
        Area((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area(self.0 * rhs)
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mm^2", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_constructors_and_display() {
        assert_eq!(Bytes::kib(1).as_u64(), 1024);
        assert_eq!(Bytes::mib(2).as_u64(), 2 * 1024 * 1024);
        assert_eq!(Bytes::gib(1).as_gib(), 1.0);
        assert_eq!(format!("{}", Bytes::gib(3)), "3.00 GiB");
        assert_eq!(format!("{}", Bytes::new(12)), "12 B");
    }

    #[test]
    fn bytes_saturating_sub_never_underflows() {
        let a = Bytes::mib(1);
        let b = Bytes::mib(2);
        assert_eq!(a - b, Bytes::ZERO);
        assert_eq!(a.saturating_sub(b), Bytes::ZERO);
    }

    #[test]
    fn bytes_over_bandwidth_is_time() {
        let t = Bytes::new(2_000_000_000_000) / Bandwidth::tb_per_s(2.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_bandwidth_yields_infinite_time() {
        let t = Bytes::gib(1) / Bandwidth::ZERO;
        assert!(!t.is_finite());
    }

    #[test]
    fn flops_over_rate_is_time() {
        let t = Flops::tflops(708.0) / FlopRate::tflops(708.0);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn flop_rate_zero_divisor_is_infinite() {
        assert!(!(Flops::tflops(1.0) / FlopRate::ZERO).is_finite());
    }

    #[test]
    fn time_subtraction_saturates() {
        let a = Time::from_millis(1.0);
        let b = Time::from_millis(5.0);
        assert_eq!(a - b, Time::ZERO);
        assert_eq!((b - a).as_millis(), 4.0);
    }

    #[test]
    fn time_constructors_agree() {
        assert!((Time::from_millis(1500.0).as_secs() - 1.5).abs() < 1e-12);
        assert!((Time::from_micros(1500.0).as_millis() - 1.5).abs() < 1e-12);
        assert!((Time::from_nanos(1500.0).as_micros() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mm_times_mm_is_area() {
        let a = Mm::new(21.92) * Mm::new(22.81);
        assert!((a.as_mm2() - 499.9952).abs() < 1e-3);
    }

    #[test]
    fn sums_work() {
        let total: Bytes = (0..4).map(|_| Bytes::mib(1)).sum();
        assert_eq!(total, Bytes::mib(4));
        let t: Time = (0..4).map(|_| Time::from_millis(1.0)).sum();
        assert!((t.as_millis() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_display_units() {
        assert_eq!(format!("{}", Bandwidth::tb_per_s(4.5)), "4.50 TB/s");
        assert_eq!(format!("{}", Bandwidth::gb_per_s(160.0)), "160.00 GB/s");
    }

    #[test]
    fn bandwidth_bottleneck_min() {
        let d2d = Bandwidth::tb_per_s(4.0);
        let dram = Bandwidth::tb_per_s(2.0);
        assert_eq!(d2d.min(dram), dram);
    }
}
