//! Eq. 2 placement-cost tables (§IV-C/§IV-D hot path).
//!
//! Every hill-climb candidate and every GA genome decode needs the Eq. 2
//! `GlobalCost` of a placement. The naive path
//! ([`crate::placement::global_cost`]) re-derives every rectangle
//! distance and XY route and rebuilds the pipeline link `HashSet` per
//! call. A [`PlacementCostModel`] caches what depends only on the tile
//! slots, not on the placement:
//!
//! * the **slot-pair distance table** holds `Rect::dist` for every
//!   ordered pair of tile slots ([`degraded_rect_dist`] on a
//!   [`PlacementCostModel::with_faults`] model);
//! * **path-link fragments** memoize `path_links(xy_path(..))` per
//!   ordered slot pair, as dense directed-link ids (no hashing, no
//!   per-call path allocation).
//!
//! [`PlacementCostModel::cost_of_slots`] re-sums the whole cost of a
//! slot assignment from those tables: the pipeline links go into a
//! bitmap and each pair's γ is a scan of its route fragment. The hill
//! climb ([`crate::placement::optimize_with`]) and the GA
//! ([`crate::ga::refine_with_model`]) hold a placement as the slot id of
//! every stage. The GA prices every genome this way, and its Alg. 3
//! allocation orders helpers by [`PlacementCostModel::dist`]. The climb
//! re-sums the same terms in the same order, but keeps the pipeline
//! links as per-link window counts that each move updates for the
//! windows it touches, instead of rebuilding the bitmap.
//!
//! Results are **bit-identical** to the naive path: γ is an integer, the
//! per-term factors (`dist`, `volume`, `pp_volume`) are the exact same
//! `f64` values, and the terms are summed in the naive evaluation order.
//! `tests/ga_cost_equivalence.rs` pins the equivalence across random
//! meshes, overflows and seeds, and `bench_ga` measures the gap to the
//! naive path.

use crate::placement::{degraded_rect_dist, slot_is_dead, tile_slots, PairDemand, Placement, Rect};
use std::fmt;
use std::sync::OnceLock;
use wsc_arch::fault::FaultMap;
use wsc_mesh::routing::{path_links, xy_path};
use wsc_mesh::topology::{DirLink, Mesh2D};

/// Dense id of a directed mesh link: `4 * from + direction`.
///
/// # Panics
///
/// Debug-asserts that `l` joins mesh-adjacent dies.
pub(crate) fn link_id(mesh: &Mesh2D, l: DirLink) -> u32 {
    let (fx, fy) = mesh.pos(l.from);
    let (tx, ty) = mesh.pos(l.to);
    debug_assert!(mesh.adjacent(l.from, l.to), "link {l} is not a mesh edge");
    let dir = if tx == fx + 1 {
        0
    } else if fx == tx + 1 {
        1
    } else if ty == fy + 1 {
        2
    } else {
        3
    };
    (l.from.0 * 4 + dir) as u32
}

/// Number of directed-link ids a mesh needs (`4 * dies`; corner/edge ids
/// simply stay unused).
pub(crate) fn link_id_space(mesh: &Mesh2D) -> usize {
    4 * mesh.len()
}

/// A bitmap over directed-link ids — the allocation-free replacement for
/// the `HashSet<DirLink>` the naive path rebuilds per call.
pub(crate) struct LinkSet {
    words: Vec<u64>,
}

impl LinkSet {
    /// An empty set sized for `mesh`.
    pub(crate) fn new(mesh: &Mesh2D) -> Self {
        LinkSet {
            words: vec![0; link_id_space(mesh).div_ceil(64)],
        }
    }

    /// Insert a link id.
    pub(crate) fn insert(&mut self, id: u32) {
        self.words[id as usize / 64] |= 1u64 << (id % 64);
    }

    /// Membership test.
    pub(crate) fn contains(&self, id: u32) -> bool {
        self.words[id as usize / 64] & (1u64 << (id % 64)) != 0
    }
}

/// The memoized XY route between two slots, as directed-link ids.
struct PathFrag {
    /// Links of the route a→b, each once, in path order — what a
    /// Sender→Helper pair walks when counting conflicts.
    fwd: Vec<u32>,
    /// `fwd` plus every reversed id — the contribution one pipeline
    /// window makes to the (bidirectional) pipeline link set.
    both: Vec<u32>,
}

/// Shared, read-mostly Eq. 2 evaluation tables for one
/// `(mesh, tile shape, pp_volume)` context (see module docs).
///
/// The model is immutable after construction apart from the lazily
/// filled fragment table, whose entries are pure functions of their slot
/// pair — concurrent fills from parallel GA decodes are benign.
pub struct PlacementCostModel {
    mesh: Mesh2D,
    tile_w: usize,
    tile_h: usize,
    cols: usize,
    rows: usize,
    pp_volume: f64,
    slots: Vec<Rect>,
    /// `dist[a * slots + b]` = `slots[a].dist(&slots[b])`, exact bits —
    /// or [`degraded_rect_dist`] bits when built [`Self::with_faults`].
    dist: Vec<f64>,
    /// `frags[a * slots + b]` = XY route a→b, filled on first use.
    frags: Vec<OnceLock<PathFrag>>,
    /// `masked[s]` — slot `s` contains a dead die and must not host a
    /// stage (all-false for clean models).
    masked: Vec<bool>,
    /// Whether the model was built against a non-empty [`FaultMap`].
    faulted: bool,
}

impl fmt::Debug for PlacementCostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PlacementCostModel")
            .field("mesh", &self.mesh)
            .field("tile_w", &self.tile_w)
            .field("tile_h", &self.tile_h)
            .field("pp_volume", &self.pp_volume)
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl PlacementCostModel {
    /// Build the model for a tile grid on `mesh` with the Eq. 2
    /// inter-stage pipeline volume `pp_volume`.
    pub fn new(mesh: Mesh2D, tile_w: usize, tile_h: usize, pp_volume: f64) -> Self {
        Self::build(mesh, tile_w, tile_h, pp_volume, None)
    }

    /// [`Self::new`] against a degraded wafer: every distance-table
    /// entry is the [`degraded_rect_dist`] quality-weighted distance
    /// (clean links leave it untouched), and slots containing a dead die
    /// are masked out of the search space ([`Self::is_masked`]). Route
    /// fragments (and so the γ conflict counts) are unchanged — faults
    /// re-price links, they do not re-route the XY paths.
    pub fn with_faults(
        mesh: Mesh2D,
        tile_w: usize,
        tile_h: usize,
        pp_volume: f64,
        faults: &FaultMap,
    ) -> Self {
        Self::build(mesh, tile_w, tile_h, pp_volume, Some(faults))
    }

    fn build(
        mesh: Mesh2D,
        tile_w: usize,
        tile_h: usize,
        pp_volume: f64,
        faults: Option<&FaultMap>,
    ) -> Self {
        let slots = tile_slots(mesh.nx, mesh.ny, tile_w, tile_h);
        let n = slots.len();
        let mut dist = vec![0.0; n * n];
        for a in 0..n {
            for b in 0..n {
                dist[a * n + b] = match faults {
                    None => slots[a].dist(&slots[b]),
                    Some(f) => degraded_rect_dist(&mesh, f, &slots[a], &slots[b]),
                };
            }
        }
        let masked = match faults {
            None => vec![false; n],
            Some(f) => slots.iter().map(|s| slot_is_dead(&mesh, f, s)).collect(),
        };
        let faulted = faults.is_some_and(|f| !f.is_empty());
        PlacementCostModel {
            mesh,
            tile_w,
            tile_h,
            cols: mesh.nx / tile_w.max(1),
            rows: mesh.ny / tile_h.max(1),
            pp_volume,
            slots,
            dist,
            frags: (0..n * n).map(|_| OnceLock::new()).collect(),
            masked,
            faulted,
        }
    }

    /// Whether slot `id` contains a dead die and is excluded from
    /// placement (always `false` on clean models).
    pub fn is_masked(&self, id: u32) -> bool {
        self.masked[id as usize]
    }

    /// The per-slot dead-die mask, indexed by slot id.
    pub fn masked(&self) -> &[bool] {
        &self.masked
    }

    /// Whether any slot is masked.
    pub fn has_masked(&self) -> bool {
        self.masked.iter().any(|&m| m)
    }

    /// Whether the model was built against a non-empty fault map.
    pub fn faulted(&self) -> bool {
        self.faulted
    }

    /// The mesh the model routes on.
    pub fn mesh(&self) -> &Mesh2D {
        &self.mesh
    }

    /// Stage-tile width in dies.
    pub fn tile_w(&self) -> usize {
        self.tile_w
    }

    /// Stage-tile height in dies.
    pub fn tile_h(&self) -> usize {
        self.tile_h
    }

    /// The Eq. 2 inter-stage pipeline volume this model prices.
    pub fn pp_volume(&self) -> f64 {
        self.pp_volume
    }

    /// The tile slots, in [`tile_slots`] (row-major) order.
    pub fn slots(&self) -> &[Rect] {
        &self.slots
    }

    /// Number of tile slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot id of a rectangle, or `None` when it is not aligned to
    /// this model's tile grid.
    pub fn slot_id(&self, r: &Rect) -> Option<u32> {
        if r.w != self.tile_w || r.h != self.tile_h {
            return None;
        }
        if !r.x.is_multiple_of(self.tile_w) || !r.y.is_multiple_of(self.tile_h) {
            return None;
        }
        let c = r.x / self.tile_w;
        let row = r.y / self.tile_h;
        if c >= self.cols || row >= self.rows {
            return None;
        }
        Some((row * self.cols + c) as u32)
    }

    /// Slot ids of every stage, or `None` when any stage rectangle is
    /// off this model's grid.
    pub fn slot_ids(&self, placement: &Placement) -> Option<Vec<u32>> {
        placement.stages.iter().map(|r| self.slot_id(r)).collect()
    }

    /// The rectangle of a slot id.
    pub fn slot_rect(&self, id: u32) -> Rect {
        self.slots[id as usize]
    }

    /// Cached center distance between two slots — the exact
    /// `Rect::dist` bits.
    pub fn dist(&self, a: u32, b: u32) -> f64 {
        self.dist[a as usize * self.slots.len() + b as usize]
    }

    /// The memoized XY route a→b.
    fn frag(&self, a: u32, b: u32) -> &PathFrag {
        self.frags[a as usize * self.slots.len() + b as usize].get_or_init(|| {
            let from = self.slots[a as usize].center_node(&self.mesh);
            let to = self.slots[b as usize].center_node(&self.mesh);
            let links = path_links(&xy_path(&self.mesh, from, to));
            let mut fwd = Vec::with_capacity(links.len());
            let mut both = Vec::with_capacity(2 * links.len());
            for l in links {
                let id = link_id(&self.mesh, l);
                fwd.push(id);
                both.push(id);
                both.push(link_id(&self.mesh, l.reversed()));
            }
            PathFrag { fwd, both }
        })
    }

    /// Eq. 2 cost of a slot assignment, re-summed from the cached
    /// tables — the bit-identical equivalent of
    /// [`crate::placement::global_cost`] that prices every GA genome
    /// decode.
    pub fn cost_of_slots(&self, stage_slots: &[u32], pairs: &[PairDemand]) -> f64 {
        if pairs.is_empty() {
            return self.sum_cost(stage_slots, pairs, |_| false);
        }
        let mut member = LinkSet::new(&self.mesh);
        for w in stage_slots.windows(2) {
            for &id in &self.frag(w[0], w[1]).both {
                member.insert(id);
            }
        }
        self.sum_cost(stage_slots, pairs, |id| member.contains(id))
    }

    /// [`Self::cost_of_slots`] with the pipeline link set held as
    /// `counts`, the number of pipeline windows whose route uses each
    /// link id in either direction ([`Self::count_window`]). The hill
    /// climb keeps those counts across its moves instead of rebuilding
    /// the set per candidate.
    pub(crate) fn cost_with_window_counts(
        &self,
        stage_slots: &[u32],
        pairs: &[PairDemand],
        counts: &[u32],
    ) -> f64 {
        self.sum_cost(stage_slots, pairs, |id| counts[id as usize] > 0)
    }

    /// Add the route of the pipeline window `a → b` to `counts` (sized
    /// [`link_id_space`]), or with `add = false` take it away again.
    pub(crate) fn count_window(&self, counts: &mut [u32], a: u32, b: u32, add: bool) {
        for &id in &self.frag(a, b).both {
            if add {
                counts[id as usize] += 1;
            } else {
                counts[id as usize] -= 1;
            }
        }
    }

    /// The Eq. 2 sum in exactly the naive accumulation order: pipeline
    /// terms first, then one term per pair, whose γ counts the links of
    /// its route that `on_pipeline` holds.
    fn sum_cost(
        &self,
        stage_slots: &[u32],
        pairs: &[PairDemand],
        on_pipeline: impl Fn(u32) -> bool,
    ) -> f64 {
        let mut cost = 0.0;
        for w in stage_slots.windows(2) {
            cost += self.dist(w[0], w[1]) * self.pp_volume;
        }
        for pair in pairs {
            let (s, h) = (stage_slots[pair.sender], stage_slots[pair.helper]);
            let route = &self.frag(s, h).fwd;
            let gamma = route.iter().filter(|&&id| on_pipeline(id)).count() as f64;
            cost += self.dist(s, h) * pair.volume * (1.0 + gamma);
        }
        cost
    }

    /// The rectangle placement of a slot assignment.
    pub(crate) fn placement_of(&self, stage_slots: &[u32]) -> Placement {
        Placement {
            stages: stage_slots.iter().map(|&s| self.slot_rect(s)).collect(),
        }
    }
}

/// Seam-extended Eq. 2 distance/cost tables for the **node level**
/// (§VI-F): one wafer group per `StageMap` assignment target, the
/// wafer-local tile-slot grid replicated per group, and the W2W seam
/// folded into the distance table as a per-crossing hop penalty (one
/// W2W crossing's α–β transfer in D2D-hop equivalents, which the node
/// placement pass of `crate::multiwafer` prices).
///
/// Global slot ids are `group * slots_per_group + local`, with `local`
/// indexing the wafer-local [`tile_slots`] grid in row-major order.
/// `Dist(Sᵢ, Sⱼ)` = wafer-local `Rect::dist` of the local rectangles
/// plus `seam_penalty × |Δgroup|`, so intra-wafer and cross-seam
/// Sender→Helper pairs are priced on one axis. The γ conflict term of
/// the single-wafer engine is deliberately dropped here: the seam, not
/// intra-wafer link contention, dominates cross-group cost, and
/// conflict modeling stays a single-wafer refinement.
#[derive(Debug, Clone)]
pub(crate) struct NodeCostModel {
    groups: usize,
    slots_per_group: usize,
    cols: usize,
    /// `local[a * slots_per_group + b]` = `Rect::dist` between the
    /// wafer-local slots `a` and `b`, exact bits.
    local: Vec<f64>,
    seam_penalty: f64,
    pp_volume: f64,
}

impl NodeCostModel {
    /// Build the node-level tables: `groups` copies of the wafer's
    /// `tile_w × tile_h` slot grid joined by seams costing
    /// `seam_penalty` hops per crossing. `None` when the tile does not
    /// fit the wafer at all.
    pub fn new(
        nx: usize,
        ny: usize,
        tile_w: usize,
        tile_h: usize,
        groups: usize,
        seam_penalty: f64,
        pp_volume: f64,
    ) -> Option<Self> {
        if groups == 0 {
            return None;
        }
        let rects = tile_slots(nx, ny, tile_w, tile_h);
        if rects.is_empty() {
            return None;
        }
        Some(NodeCostModel {
            groups,
            slots_per_group: rects.len(),
            cols: nx / tile_w.max(1),
            local: rects
                .iter()
                .flat_map(|a| rects.iter().map(|b| a.dist(b)))
                .collect(),
            seam_penalty,
            pp_volume,
        })
    }

    /// Wafer groups joined by seams.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Tile slots on each group's wafer.
    pub fn slots_per_group(&self) -> usize {
        self.slots_per_group
    }

    /// Columns of the wafer-local slot grid (row-major ordering key).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total slots across the node.
    pub fn slot_count(&self) -> usize {
        self.groups * self.slots_per_group
    }

    /// The wafer group a global slot id lives on.
    pub fn group_of(&self, slot: usize) -> usize {
        slot / self.slots_per_group
    }

    /// Wafer-local center distance between two slots (seam excluded),
    /// read from the slot-pair distance table.
    pub fn local_dist(&self, a: usize, b: usize) -> f64 {
        let n = self.slots_per_group;
        self.local[(a % n) * n + b % n]
    }

    /// W2W crossings between two slots' groups.
    pub fn seam_hops(&self, a: usize, b: usize) -> usize {
        self.group_of(a).abs_diff(self.group_of(b))
    }

    /// Seam-extended distance: wafer-local hops plus
    /// `seam_penalty × crossings`.
    pub fn dist(&self, a: usize, b: usize) -> f64 {
        self.local_dist(a, b) + self.seam_penalty * self.seam_hops(a, b) as f64
    }

    /// Node-level Eq. 2 cost of a stage→slot assignment: pipeline terms
    /// first, then one seam-extended term per Sender→Helper pair
    /// (γ ≡ 0, see type docs).
    pub fn cost(&self, stage_slots: &[usize], pairs: &[PairDemand]) -> f64 {
        let mut cost = 0.0;
        for w in stage_slots.windows(2) {
            cost += self.dist(w[0], w[1]) * self.pp_volume;
        }
        for pair in pairs {
            cost += self.dist(stage_slots[pair.sender], stage_slots[pair.helper]) * pair.volume;
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{global_cost, serpentine};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn pairs_fig11() -> Vec<PairDemand> {
        vec![
            PairDemand {
                sender: 0,
                helper: 7,
                volume: 2.5,
            },
            PairDemand {
                sender: 1,
                helper: 6,
                volume: 1.0,
            },
        ]
    }

    #[test]
    fn slot_id_round_trips_and_rejects_offgrid() {
        let model = PlacementCostModel::new(Mesh2D::new(8, 4), 2, 2, 1.0);
        assert_eq!(model.slot_count(), 8);
        for id in 0..model.slot_count() as u32 {
            let r = model.slot_rect(id);
            assert_eq!(model.slot_id(&r), Some(id));
        }
        // Misaligned or mis-shaped rectangles are not slots.
        assert_eq!(
            model.slot_id(&Rect {
                x: 1,
                y: 0,
                w: 2,
                h: 2
            }),
            None
        );
        assert_eq!(
            model.slot_id(&Rect {
                x: 0,
                y: 0,
                w: 1,
                h: 2
            }),
            None
        );
    }

    #[test]
    fn one_shot_cost_matches_naive_global_cost() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 3.0);
        let p = serpentine(8, 4, 8, 2, 2).unwrap();
        let pairs = pairs_fig11();
        let naive = global_cost(&mesh, &p, 3.0, &pairs, None);
        let slots = model.slot_ids(&p).unwrap();
        assert_eq!(
            model.cost_of_slots(&slots, &pairs).to_bits(),
            naive.to_bits()
        );
    }

    #[test]
    fn state_cost_matches_naive_through_random_mutations() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 1.0);
        let base = serpentine(8, 4, 8, 2, 2).unwrap();
        let pairs = pairs_fig11();
        let mut slots = model.slot_ids(&base).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..200 {
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..8usize);
                let j = rng.gen_range(0..8usize);
                slots.swap(i, j);
            } else {
                let i = rng.gen_range(0..8usize);
                let slot = rng.gen_range(0..model.slot_count()) as u32;
                // Only move to genuinely free slots (occupied targets
                // would alias two stages onto one tile, which the search
                // never does).
                if !slots.contains(&slot) {
                    slots[i] = slot;
                }
            }
            let naive = global_cost(&mesh, &model.placement_of(&slots), 1.0, &pairs, None);
            assert_eq!(
                model.cost_of_slots(&slots, &pairs).to_bits(),
                naive.to_bits(),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn faulted_state_cost_matches_naive_through_random_mutations() {
        let mesh = Mesh2D::new(8, 4);
        let mut faults = FaultMap::none();
        faults.set_link_quality((3, 0), (4, 0), 0.3);
        faults.set_link_quality((1, 2), (1, 3), 0.0);
        faults.set_die_health((6, 3), 0.0);
        let model = PlacementCostModel::with_faults(mesh, 2, 2, 1.5, &faults);
        let base = serpentine(8, 4, 6, 2, 2).unwrap();
        let pairs = vec![
            PairDemand {
                sender: 0,
                helper: 5,
                volume: 2.5,
            },
            PairDemand {
                sender: 1,
                helper: 4,
                volume: 1.0,
            },
        ];
        let mut slots = model.slot_ids(&base).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..200 {
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..6usize);
                let j = rng.gen_range(0..6usize);
                slots.swap(i, j);
            } else {
                let i = rng.gen_range(0..6usize);
                let slot = rng.gen_range(0..model.slot_count()) as u32;
                if !slots.contains(&slot) {
                    slots[i] = slot;
                }
            }
            let placement = model.placement_of(&slots);
            let naive = global_cost(&mesh, &placement, 1.5, &pairs, Some(&faults));
            assert_eq!(
                model.cost_of_slots(&slots, &pairs).to_bits(),
                naive.to_bits(),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn empty_pairs_cost_is_pipeline_term_only() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 7.0);
        let p = serpentine(8, 4, 8, 2, 2).unwrap();
        let slots = model.slot_ids(&p).unwrap();
        assert_eq!(
            model.cost_of_slots(&slots, &[]).to_bits(),
            global_cost(&mesh, &p, 7.0, &[], None).to_bits()
        );
    }

    #[test]
    fn node_model_extends_distance_across_the_seam() {
        // 2 groups of a 4x2 wafer tiled 2x2 → 2 slots per group.
        let m = NodeCostModel::new(4, 2, 2, 2, 2, 5.0, 1.0).unwrap();
        assert_eq!(m.slot_count(), 4);
        assert_eq!(m.slots_per_group(), 2);
        // Same group: pure local distance.
        assert_eq!(m.dist(0, 1), m.local_dist(0, 1));
        assert_eq!(m.seam_hops(0, 1), 0);
        // Same local slot, one seam apart: penalty only.
        assert_eq!(m.dist(0, 2), 5.0);
        assert_eq!(m.seam_hops(0, 2), 1);
        // Different local slot and group: both terms.
        assert_eq!(m.dist(0, 3), m.local_dist(0, 1) + 5.0);
        // Two seams cost double.
        let m3 = NodeCostModel::new(4, 2, 2, 2, 3, 5.0, 1.0).unwrap();
        assert_eq!(m3.dist(0, 4), 10.0);
    }

    #[test]
    fn node_cost_sums_pipeline_and_pair_terms() {
        let m = NodeCostModel::new(4, 2, 2, 2, 2, 4.0, 3.0).unwrap();
        let slots = [0usize, 1, 2, 3];
        let pairs = vec![PairDemand {
            sender: 0,
            helper: 3,
            volume: 2.0,
        }];
        let pipeline = m.dist(0, 1) * 3.0 + m.dist(1, 2) * 3.0 + m.dist(2, 3) * 3.0;
        let pair = m.dist(0, 3) * 2.0;
        assert_eq!(m.cost(&slots, &pairs), pipeline + pair);
        // Degenerate tiles that do not fit the wafer are rejected.
        assert!(NodeCostModel::new(1, 1, 2, 2, 2, 1.0, 1.0).is_none());
        assert!(NodeCostModel::new(4, 2, 2, 2, 0, 1.0, 1.0).is_none());
    }

    #[test]
    fn link_ids_are_unique_per_directed_edge() {
        let mesh = Mesh2D::new(5, 3);
        let mut seen = std::collections::HashSet::new();
        for l in mesh.links() {
            let id = link_id(&mesh, l);
            assert!((id as usize) < link_id_space(&mesh));
            assert!(seen.insert(id), "duplicate id {id} for {l}");
        }
    }
}
