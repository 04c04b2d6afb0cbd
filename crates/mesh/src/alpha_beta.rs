//! The α–β communication model (Eq. 1 of the paper).
//!
//! `t_comm = α + β / BW`, where α is link/startup latency and β the volume
//! moved. Collective volumes (the `2·(TP−1)/TP · BSH` term of Eq. 1) are
//! computed in [`crate::collective`].

use wsc_arch::units::{Bandwidth, Bytes, Time};

/// Time to move `bytes` over a channel of bandwidth `bw` with startup
/// latency `alpha`.
///
/// Zero-byte transfers still pay `alpha` (a real message header), except
/// that a fully zero transfer over a dead link is infinite.
pub fn transfer_time(alpha: Time, bytes: Bytes, bw: Bandwidth) -> Time {
    if bytes == Bytes::ZERO {
        return alpha;
    }
    alpha + bytes / bw
}

/// Time for a multi-hop point-to-point transfer: per-hop latency is paid
/// once per hop (wormhole pipelining amortizes payload across hops, so the
/// bandwidth term is paid once at the bottleneck link).
pub fn multi_hop_time(
    hop_alpha: Time,
    hops: usize,
    bytes: Bytes,
    bottleneck_bw: Bandwidth,
) -> Time {
    if hops == 0 {
        return Time::ZERO;
    }
    hop_alpha * hops as f64 + bytes / bottleneck_bw
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_bytes_costs_alpha() {
        let t = transfer_time(
            Time::from_micros(1.0),
            Bytes::ZERO,
            Bandwidth::tb_per_s(1.0),
        );
        assert!((t.as_micros() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_term_dominates_large_transfers() {
        let t = transfer_time(
            Time::from_nanos(50.0),
            Bytes::gib(1),
            Bandwidth::tb_per_s(1.0),
        );
        // ~1.07 ms >> 50 ns
        assert!(t.as_millis() > 1.0);
    }

    #[test]
    fn multi_hop_pays_alpha_per_hop() {
        let one = multi_hop_time(
            Time::from_nanos(50.0),
            1,
            Bytes::ZERO,
            Bandwidth::tb_per_s(1.0),
        );
        let six = multi_hop_time(
            Time::from_nanos(50.0),
            6,
            Bytes::ZERO,
            Bandwidth::tb_per_s(1.0),
        );
        assert!((six.as_secs() / one.as_secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn lower_bandwidth_slows_transfers() {
        let gib_at = |tbps| {
            multi_hop_time(
                Time::from_nanos(400.0),
                1,
                Bytes::gib(1),
                Bandwidth::tb_per_s(tbps),
            )
        };
        assert!(gib_at(0.4).as_secs() > gib_at(1.8).as_secs() * 4.0);
    }

    #[test]
    fn zero_hops_is_free() {
        let t = multi_hop_time(
            Time::from_nanos(50.0),
            0,
            Bytes::gib(1),
            Bandwidth::tb_per_s(1.0),
        );
        assert_eq!(t, Time::ZERO);
    }

    #[test]
    fn dead_link_is_infinite() {
        let t = transfer_time(Time::ZERO, Bytes::new(1), Bandwidth::ZERO);
        assert!(!t.is_finite());
    }
}
