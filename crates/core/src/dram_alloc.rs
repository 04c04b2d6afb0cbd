//! Location-aware DRAM capacity allocation (Alg. 3, §IV-C-2).
//!
//! Refines the coarse Sender/Helper pairing of GCMR into fine-grained
//! per-helper DRAM grants: each Sender's overflow is served from the
//! *nearest* helpers first (priority queue ordered by placement distance),
//! splitting grants when a helper's spare capacity runs out. Because D2D
//! bandwidth exceeds DRAM bandwidth on all presets, remote checkpoint
//! traffic is DRAM-bound and overlaps compute — distance only matters
//! through the Eq. 2 conflict/congestion cost, which is what this
//! allocation minimizes.
//!
//! One greedy loop serves every caller: [`allocate`] on a wafer
//! placement, the node-level pass of `crate::multiwafer` on the
//! seam-extended node distance, and the GA decode, which rotates each
//! sender's helper queue by the genome's Op4/Op5 bias.

use crate::placement::Placement;
use serde::{Deserialize, Serialize};
use wsc_arch::units::Bytes;

/// A fine-grained DRAM grant: `bytes` of `helper`'s DRAM serve `sender`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramGrant {
    /// Overflowing stage.
    pub sender: usize,
    /// Hosting stage.
    pub helper: usize,
    /// Granted bytes.
    pub bytes: Bytes,
    /// Center-to-center hop distance at grant time.
    pub hops: f64,
}

/// Result of the Alg. 3 allocation.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DramAllocation {
    /// All grants, in allocation order.
    pub grants: Vec<DramGrant>,
    /// Senders whose demand could not be fully served.
    pub unserved: Vec<(usize, Bytes)>,
}

impl DramAllocation {
    /// True when every sender's overflow found a home.
    pub fn complete(&self) -> bool {
        self.unserved.is_empty()
    }

    /// Total bytes hosted remotely.
    pub fn hosted_bytes(&self) -> Bytes {
        self.grants.iter().map(|g| g.bytes).sum()
    }

    /// Mean grant distance in hops (weighted by bytes).
    pub fn mean_hops(&self) -> f64 {
        let total = self.hosted_bytes().as_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.grants
            .iter()
            .map(|g| g.hops * g.bytes.as_f64())
            .sum::<f64>()
            / total
    }
}

/// Run the location-aware allocation.
///
/// `overflow[s]` is stage `s`'s demand; `spare[s]` its donatable DRAM.
/// Helpers are prioritized per sender by placement distance (the Alg. 3
/// `GlobalCost`-ordered queue `Q`), re-inserted with reduced capacity
/// after partial grants.
pub fn allocate(placement: &Placement, overflow: &[Bytes], spare: &[Bytes]) -> DramAllocation {
    assert_eq!(overflow.len(), spare.len(), "per-stage arrays must align");
    assert_eq!(
        overflow.len(),
        placement.stages.len(),
        "placement must cover every stage"
    );
    allocate_by(
        |s, h| placement.stages[s].dist(&placement.stages[h]),
        |_| 0,
        overflow,
        spare,
    )
}

/// The Alg. 3 allocation core, generic over the distance metric: `dist`
/// prices the Sender→Helper route the priority queue orders by (and the
/// grant's recorded `hops`), and `rotate(s)` rotates sender `s`'s
/// distance-sorted queue left by that many places (modulo its length)
/// before grants are taken. [`allocate`] passes the intra-wafer
/// `Rect::dist` and no rotation; the node-level pass the seam-extended
/// node distance, where a cross-seam helper is only chosen once every
/// nearer on-wafer helper's spare is exhausted; the GA each sender's
/// bias gene. The greedy loop (heaviest sender first, nearest helper
/// first, grants split on exhausted spare, stable tie order) is the same
/// for all of them.
pub(crate) fn allocate_by(
    dist: impl Fn(usize, usize) -> f64,
    rotate: impl Fn(usize) -> usize,
    overflow: &[Bytes],
    spare: &[Bytes],
) -> DramAllocation {
    assert_eq!(overflow.len(), spare.len(), "per-stage arrays must align");
    let mut remaining: Vec<Bytes> = spare.to_vec();
    let mut out = DramAllocation::default();

    // Serve the most-pressured senders first (DescendSort of Alg. 2).
    let mut senders: Vec<usize> = (0..overflow.len())
        .filter(|&s| overflow[s] > Bytes::ZERO)
        .collect();
    senders.sort_by(|&a, &b| overflow[b].cmp(&overflow[a]));

    for s in senders {
        let mut need = overflow[s];
        // Priority queue Q: helpers by distance from this sender.
        let mut q: Vec<usize> = (0..remaining.len())
            .filter(|&h| h != s && remaining[h] > Bytes::ZERO)
            .collect();
        q.sort_by(|&a, &b| dist(s, a).total_cmp(&dist(s, b)));
        if !q.is_empty() {
            let r = rotate(s) % q.len();
            q.rotate_left(r);
        }
        for h in q {
            if need == Bytes::ZERO {
                break;
            }
            let take = need.min(remaining[h]);
            if take == Bytes::ZERO {
                continue;
            }
            out.grants.push(DramGrant {
                sender: s,
                helper: h,
                bytes: take,
                hops: dist(s, h),
            });
            remaining[h] -= take;
            need -= take;
        }
        if need > Bytes::ZERO {
            out.unserved.push((s, need));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::NodeCostModel;
    use crate::placement::{serpentine, tile_slots};

    fn line_placement(pp: usize) -> Placement {
        serpentine(2 * pp, 1, pp, 2, 1).expect("fits")
    }

    #[test]
    fn nearest_helper_is_used_first() {
        let p = line_placement(4);
        // Stage 0 overflows; stages 1 and 3 have spare.
        let overflow = vec![Bytes::gib(4), Bytes::ZERO, Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(8), Bytes::ZERO, Bytes::gib(8)];
        let alloc = allocate(&p, &overflow, &spare);
        assert!(alloc.complete());
        assert_eq!(alloc.grants.len(), 1);
        assert_eq!(alloc.grants[0].helper, 1, "nearest helper wins");
    }

    #[test]
    fn grants_split_across_helpers() {
        let p = line_placement(4);
        let overflow = vec![Bytes::gib(10), Bytes::ZERO, Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(4), Bytes::gib(4), Bytes::gib(4)];
        let alloc = allocate(&p, &overflow, &spare);
        assert!(alloc.complete());
        assert_eq!(alloc.grants.len(), 3);
        assert_eq!(alloc.hosted_bytes(), Bytes::gib(10));
        // Ordered near → far.
        assert!(alloc.grants[0].hops <= alloc.grants[1].hops);
        assert!(alloc.grants[1].hops <= alloc.grants[2].hops);
    }

    #[test]
    fn insufficient_spare_reports_unserved() {
        let p = line_placement(3);
        let overflow = vec![Bytes::gib(8), Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(2), Bytes::gib(2)];
        let alloc = allocate(&p, &overflow, &spare);
        assert!(!alloc.complete());
        assert_eq!(alloc.unserved[0], (0, Bytes::gib(4)));
    }

    #[test]
    fn heaviest_sender_served_first() {
        let p = line_placement(4);
        // Stage 2 needs more than stage 0; only stage 1 has spare.
        let overflow = vec![Bytes::gib(2), Bytes::ZERO, Bytes::gib(6), Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(6), Bytes::ZERO, Bytes::ZERO];
        let alloc = allocate(&p, &overflow, &spare);
        // Stage 2 (heavier) claimed the helper; stage 0 starves.
        assert!(alloc
            .grants
            .iter()
            .any(|g| g.sender == 2 && g.bytes == Bytes::gib(6)));
        assert_eq!(alloc.unserved, vec![(0, Bytes::gib(2))]);
    }

    #[test]
    fn mean_hops_weighted() {
        let p = line_placement(4);
        let overflow = vec![Bytes::gib(4), Bytes::ZERO, Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(4), Bytes::ZERO, Bytes::ZERO];
        let alloc = allocate(&p, &overflow, &spare);
        assert!((alloc.mean_hops() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "align")]
    fn mismatched_arrays_panic() {
        let p = line_placement(2);
        let _ = allocate(&p, &[Bytes::ZERO], &[Bytes::ZERO, Bytes::ZERO]);
    }

    #[test]
    fn rotation_starts_the_queue_at_the_rth_nearest_helper_and_wraps() {
        // Stage 0 overflows by one helper's spare on a line of 5 stages:
        // helpers 1..=4 sit 2, 4, 6 and 8 hops away, so the grant goes to
        // the `(r mod 4)`-th nearest helper.
        let p = line_placement(5);
        let (two, z) = (Bytes::gib(2), Bytes::ZERO);
        let spare = vec![z, two, two, two, two];
        let dist = |s: usize, h: usize| p.stages[s].dist(&p.stages[h]);
        for (r, helper) in [(0, 1), (1, 2), (3, 4), (4, 1), (6, 3)] {
            let alloc = allocate_by(dist, |_| r, &[two, z, z, z, z], &spare);
            assert_eq!(alloc.grants.len(), 1, "rotation {r}");
            assert_eq!(alloc.grants[0].helper, helper, "rotation {r}");
        }
        // The queue wraps in distance order: rotation 3 drains the
        // farthest helper first, then the nearest.
        let alloc = allocate_by(dist, |_| 3, &[Bytes::gib(3), z, z, z, z], &spare);
        let order: Vec<usize> = alloc.grants.iter().map(|g| g.helper).collect();
        assert_eq!(order, vec![4, 1]);
    }

    /// 2 wafer groups of a 4x2 wafer tiled 2x2 → 2 slots per group; a
    /// seam crossing costs 10 intra-wafer hops.
    fn node_model(groups: usize) -> NodeCostModel {
        NodeCostModel::new(4, 2, 2, 2, groups, 10.0, 1.0).expect("tile fits")
    }

    /// The node-level pass's allocation: stage `s` sits on global node
    /// slot `stage_slots[s]`, priced by the seam-extended distance.
    fn allocate_node(
        model: &NodeCostModel,
        stage_slots: &[usize],
        overflow: &[Bytes],
        spare: &[Bytes],
    ) -> DramAllocation {
        allocate_by(
            |s, h| model.dist(stage_slots[s], stage_slots[h]),
            |_| 0,
            overflow,
            spare,
        )
    }

    #[test]
    fn node_borrowing_prefers_on_wafer_helpers_then_crosses_the_seam() {
        let model = node_model(2);
        // Stage 0 on group 0 slot 0; helper 1 on its own wafer, helper 2
        // across the seam at the *same local slot* as the sender
        // (local distance 0 < helper 1's 2 hops — without the seam
        // penalty the remote helper would win).
        let slots = [0usize, 1, 2];
        let overflow = vec![Bytes::gib(6), Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(4), Bytes::gib(8)];
        let alloc = allocate_node(&model, &slots, &overflow, &spare);
        assert!(alloc.complete());
        assert_eq!(alloc.grants[0].helper, 1, "on-wafer spare drains first");
        assert_eq!(alloc.grants[0].bytes, Bytes::gib(4));
        assert_eq!(alloc.grants[1].helper, 2, "overflow then crosses the seam");
        assert_eq!(alloc.grants[1].bytes, Bytes::gib(2));
        assert_eq!(alloc.grants[1].hops, 10.0, "seam priced into grant hops");
    }

    #[test]
    fn node_borrowing_never_violates_per_die_capacity() {
        let model = node_model(2);
        let slots = [0usize, 1, 2, 3];
        let overflow = vec![Bytes::gib(9), Bytes::gib(5), Bytes::ZERO, Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::ZERO, Bytes::gib(6), Bytes::gib(6)];
        let alloc = allocate_node(&model, &slots, &overflow, &spare);
        // Per-helper grant totals never exceed the helper's spare, even
        // with competing senders and split grants across the seam.
        for (h, &cap) in spare.iter().enumerate() {
            let hosted: Bytes = alloc
                .grants
                .iter()
                .filter(|g| g.helper == h)
                .map(|g| g.bytes)
                .sum();
            assert!(hosted <= cap, "helper {h} over-committed");
        }
        // Per-sender grant totals never exceed the demand.
        for (s, &want) in overflow.iter().enumerate() {
            let got: Bytes = alloc
                .grants
                .iter()
                .filter(|g| g.sender == s)
                .map(|g| g.bytes)
                .sum();
            assert!(got <= want, "sender {s} over-served");
        }
        // 14 GiB demanded, 12 GiB spare: exactly the gap goes unserved.
        let short: Bytes = alloc.unserved.iter().map(|&(_, b)| b).sum();
        assert_eq!(short, Bytes::gib(2));
    }

    #[test]
    fn intra_wafer_only_node_allocation_matches_allocate_bit_for_bit() {
        // One group: the seam never enters any distance, so the node
        // entry must reproduce today's single-wafer allocation exactly —
        // same grants, same order, same hops bits — including on
        // distance ties, where both fall back to stable index order.
        let model = node_model(1);
        let slots = [0usize, 1];
        let rects = tile_slots(4, 2, 2, 2);
        let placement = Placement {
            stages: slots.iter().map(|&s| rects[s]).collect(),
        };
        let overflow = vec![Bytes::gib(3), Bytes::ZERO];
        let spare = vec![Bytes::ZERO, Bytes::gib(5)];
        let node = allocate_node(&model, &slots, &overflow, &spare);
        let wafer = allocate(&placement, &overflow, &spare);
        assert_eq!(node, wafer);
        // And a tie-heavy case on a wider wafer: 4 stages, all helpers
        // equidistant in pairs.
        let model4 = NodeCostModel::new(8, 2, 2, 2, 1, 10.0, 1.0).expect("tile fits");
        let slots4 = [1usize, 0, 2, 3];
        let rects4 = tile_slots(8, 2, 2, 2);
        let placement4 = Placement {
            stages: slots4.iter().map(|&s| rects4[s]).collect(),
        };
        let overflow4 = vec![Bytes::gib(7), Bytes::ZERO, Bytes::ZERO, Bytes::ZERO];
        let spare4 = vec![Bytes::ZERO, Bytes::gib(2), Bytes::gib(2), Bytes::gib(2)];
        assert_eq!(
            allocate_node(&model4, &slots4, &overflow4, &spare4),
            allocate(&placement4, &overflow4, &spare4)
        );
    }
}
