//! Incremental Eq. 2 placement-cost engine (§IV-C/§IV-D hot path).
//!
//! Every GA genome decode and every hill-climb swap candidate needs the
//! Eq. 2 `GlobalCost` of a placement. The naive path
//! ([`crate::placement::global_cost`]) rebuilds the pipeline link
//! `HashSet` and re-walks the XY route of every Sender→Helper pair from
//! scratch per call — O(whole placement) with a hash insert per link. A
//! [`PlacementCostModel`] makes the evaluation O(Δ):
//!
//! * the **slot-pair distance table** caches `Rect::dist` for every
//!   ordered pair of tile slots;
//! * **path-link fragments** memoize `path_links(xy_path(..))` per
//!   ordered slot pair, as dense directed-link ids (no hashing, no
//!   per-call path allocation);
//! * a [`CostState`] maintains the pipeline link **multiset** (window
//!   contributions counted per link) and each pair's conflict count γ
//!   through a link→pair reverse index, so a stage swap touches only the
//!   adjacent windows, the flipped links, and the pairs riding them.
//!
//! Results are **bit-identical** to the naive path: γ is an integer, the
//! per-term factors (`dist`, `volume`, `pp_volume`) are the exact same
//! `f64` values, and [`CostState::cost`] re-sums the terms in the naive
//! evaluation order — incremental bookkeeping only decides *which* terms
//! change, never how they are combined. `tests/ga_cost_equivalence.rs`
//! pins the equivalence across random meshes, overflows and seeds, and
//! `bench_ga` measures the win.

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

    /// One-shot Eq. 2 cost of a slot assignment — the memoized
    /// equivalent of [`crate::placement::global_cost`], used by GA
    /// genome decoding where the pair set changes per genome.
    pub fn cost_of_slots(&self, stage_slots: &[u32], pairs: &[PairDemand]) -> f64 {
        // Exactly the naive accumulation order: pipeline terms first,
        // then one term per pair.
        let mut cost = 0.0;
        for w in stage_slots.windows(2) {
            cost += self.dist(w[0], w[1]) * self.pp_volume;
        }
        if pairs.is_empty() {
            return cost;
        }
        let mut member = LinkSet::new(&self.mesh);
        for w in stage_slots.windows(2) {
            for &id in &self.frag(w[0], w[1]).both {
                member.insert(id);
            }
        }
        for pair in pairs {
            let frag = self.frag(stage_slots[pair.sender], stage_slots[pair.helper]);
            let gamma = frag.fwd.iter().filter(|&&id| member.contains(id)).count() as f64;
            cost += self.dist(stage_slots[pair.sender], stage_slots[pair.helper])
                * pair.volume
                * (1.0 + gamma);
        }
        cost
    }

    /// [`Self::cost_of_slots`] on a rectangle placement; falls back to
    /// the naive path when the placement is off this model's slot grid
    /// (same value either way).
    pub fn placement_cost(&self, placement: &Placement, pairs: &[PairDemand]) -> f64 {
        match self.slot_ids(placement) {
            Some(slots) => self.cost_of_slots(&slots, pairs),
            None => crate::placement::global_cost(&self.mesh, placement, self.pp_volume, pairs),
        }
    }

    /// An incremental cost state for a fixed pair set, or `None` when
    /// the placement is off this model's slot grid.
    pub fn state<'m>(
        &'m self,
        placement: &Placement,
        pairs: &[PairDemand],
    ) -> Option<CostState<'m>> {
        let stage_slot = self.slot_ids(placement)?;
        let ids = link_id_space(&self.mesh);
        let mut state = CostState {
            model: self,
            stage_slot,
            counts: vec![0; ids],
            pairs: pairs
                .iter()
                .map(|p| PairState {
                    sender: p.sender as u32,
                    helper: p.helper as u32,
                    volume: p.volume,
                    gamma: 0,
                })
                .collect(),
            link_pairs: vec![Vec::new(); ids],
        };
        // Windows first (no pair is indexed yet, so flips are silent),
        // then pairs compute γ against the settled counts.
        for w in 0..state.stage_slot.len().saturating_sub(1) {
            state.add_window(w);
        }
        for k in 0..state.pairs.len() {
            state.index_pair(k);
        }
        Some(state)
    }
}

/// Seam-extended Eq. 2 distance/cost tables for the **node level**
/// (§VI-F): one wafer group per `StageMap` assignment target, the
/// wafer-local tile-slot grid replicated per group, and the W2W seam
/// folded into the distance table as a per-crossing hop penalty
/// ([`wsc_mesh::multiwafer::MultiWaferFabric::seam_hop_penalty`]).
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
pub struct NodeCostModel {
    groups: usize,
    slots_per_group: usize,
    cols: usize,
    rects: Vec<Rect>,
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
            rects,
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

    /// Seam-crossing price in intra-wafer hop equivalents.
    pub fn seam_penalty(&self) -> f64 {
        self.seam_penalty
    }

    /// The wafer group a global slot id lives on.
    pub fn group_of(&self, slot: usize) -> usize {
        slot / self.slots_per_group
    }

    /// The wafer-local rectangle of a global slot id.
    pub fn local_rect(&self, slot: usize) -> Rect {
        self.rects[slot % self.slots_per_group]
    }

    /// Wafer-local center distance between two slots (seam excluded).
    pub fn local_dist(&self, a: usize, b: usize) -> f64 {
        self.rects[a % self.slots_per_group].dist(&self.rects[b % self.slots_per_group])
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

/// Per-pair incremental state: endpoints, Eq. 2 volume, and the
/// maintained conflict count γ.
struct PairState {
    sender: u32,
    helper: u32,
    volume: f64,
    gamma: u32,
}

/// Incrementally maintained Eq. 2 cost of one placement against a fixed
/// Sender→Helper pair set.
///
/// Invariants (checked by the costmodel unit tests):
/// * `counts[l] > 0` ⇔ link `l` is on some pipeline window's route
///   (either direction) — exactly the naive `pipeline_link_set`;
/// * `pairs[k].gamma` = number of links on pair `k`'s route with
///   `counts > 0` — exactly the naive `pair_conflicts`;
/// * [`CostState::cost`] equals [`crate::placement::global_cost`] to the
///   last bit for the equivalent placement.
pub struct CostState<'m> {
    model: &'m PlacementCostModel,
    stage_slot: Vec<u32>,
    /// Pipeline-window contributions per directed link id.
    counts: Vec<u32>,
    pairs: Vec<PairState>,
    /// Reverse index: link id → pairs whose route crosses it.
    link_pairs: Vec<Vec<u32>>,
}

impl<'m> CostState<'m> {
    /// The model this state prices against.
    pub fn model(&self) -> &'m PlacementCostModel {
        self.model
    }

    /// Current slot of every stage.
    pub fn stage_slots(&self) -> &[u32] {
        &self.stage_slot
    }

    /// The current placement as stage rectangles.
    pub fn placement(&self) -> Placement {
        Placement {
            stages: self
                .stage_slot
                .iter()
                .map(|&s| self.model.slot_rect(s))
                .collect(),
        }
    }

    /// The Eq. 2 cost — terms re-summed in the naive evaluation order
    /// from exact cached factors, so the result is bit-identical to
    /// [`crate::placement::global_cost`].
    pub fn cost(&self) -> f64 {
        let mut cost = 0.0;
        for w in self.stage_slot.windows(2) {
            cost += self.model.dist(w[0], w[1]) * self.model.pp_volume;
        }
        if self.pairs.is_empty() {
            return cost;
        }
        for p in &self.pairs {
            cost += self.model.dist(
                self.stage_slot[p.sender as usize],
                self.stage_slot[p.helper as usize],
            ) * p.volume
                * (1.0 + p.gamma as f64);
        }
        cost
    }

    fn add_window(&mut self, w: usize) {
        let model = self.model;
        let (a, b) = (self.stage_slot[w], self.stage_slot[w + 1]);
        for &id in &model.frag(a, b).both {
            let c = &mut self.counts[id as usize];
            *c += 1;
            if *c == 1 {
                for &k in &self.link_pairs[id as usize] {
                    self.pairs[k as usize].gamma += 1;
                }
            }
        }
    }

    fn remove_window(&mut self, w: usize) {
        let model = self.model;
        let (a, b) = (self.stage_slot[w], self.stage_slot[w + 1]);
        for &id in &model.frag(a, b).both {
            let c = &mut self.counts[id as usize];
            *c -= 1;
            if *c == 0 {
                for &k in &self.link_pairs[id as usize] {
                    self.pairs[k as usize].gamma -= 1;
                }
            }
        }
    }

    /// Register pair `k`'s route in the reverse index and compute its γ
    /// from the settled link counts.
    fn index_pair(&mut self, k: usize) {
        let model = self.model;
        let (s, h) = (
            self.stage_slot[self.pairs[k].sender as usize],
            self.stage_slot[self.pairs[k].helper as usize],
        );
        let mut gamma = 0;
        for &id in &model.frag(s, h).fwd {
            self.link_pairs[id as usize].push(k as u32);
            if self.counts[id as usize] > 0 {
                gamma += 1;
            }
        }
        self.pairs[k].gamma = gamma;
    }

    /// Remove pair `k`'s (old) route from the reverse index.
    fn unindex_pair(&mut self, k: usize) {
        let model = self.model;
        let (s, h) = (
            self.stage_slot[self.pairs[k].sender as usize],
            self.stage_slot[self.pairs[k].helper as usize],
        );
        for &id in &model.frag(s, h).fwd {
            let list = &mut self.link_pairs[id as usize];
            if let Some(pos) = list.iter().position(|&x| x == k as u32) {
                list.swap_remove(pos);
            }
        }
    }

    /// Apply a batch of stage→slot changes, updating only the adjacent
    /// windows, the flipped links, and the pairs whose endpoints or
    /// crossed links changed.
    fn apply_changes(&mut self, changes: &[(usize, u32)]) {
        let pp = self.stage_slot.len();
        let mut windows: Vec<usize> = Vec::with_capacity(2 * changes.len());
        for &(s, _) in changes {
            if s > 0 {
                windows.push(s - 1);
            }
            if s + 1 < pp {
                windows.push(s);
            }
        }
        windows.sort_unstable();
        windows.dedup();
        let touched: Vec<usize> = (0..self.pairs.len())
            .filter(|&k| {
                changes.iter().any(|&(s, _)| {
                    self.pairs[k].sender as usize == s || self.pairs[k].helper as usize == s
                })
            })
            .collect();
        for &k in &touched {
            self.unindex_pair(k);
        }
        for &w in &windows {
            self.remove_window(w);
        }
        for &(s, slot) in changes {
            self.stage_slot[s] = slot;
        }
        for &w in &windows {
            self.add_window(w);
        }
        for &k in &touched {
            self.index_pair(k);
        }
    }

    /// Commit a stage↔stage slot swap (§IV-D Op3; its own inverse).
    pub fn apply_swap(&mut self, i: usize, j: usize) {
        if i == j {
            return;
        }
        let (si, sj) = (self.stage_slot[i], self.stage_slot[j]);
        self.apply_changes(&[(i, sj), (j, si)]);
    }

    /// Commit moving stage `i` to `slot`.
    pub fn apply_move(&mut self, i: usize, slot: u32) {
        if self.stage_slot[i] == slot {
            return;
        }
        self.apply_changes(&[(i, slot)]);
    }

    /// Cost change a stage↔stage swap would cause (negative = cheaper),
    /// leaving the state unchanged.
    ///
    /// Exact, not approximate: implemented as apply → re-sum → undo, so
    /// the γ bookkeeping is O(Δ) but each probe still pays two
    /// O(pp + pairs) term re-sums. Callers that commit on improvement
    /// (like [`crate::placement::optimize_with`]) should instead
    /// [`Self::apply_swap`], compare [`Self::cost`] against their
    /// incumbent, and undo on rejection — one re-sum per probe and
    /// exact-comparison semantics on the full cost value.
    pub fn swap_delta(&mut self, i: usize, j: usize) -> f64 {
        let before = self.cost();
        self.apply_swap(i, j);
        let after = self.cost();
        self.apply_swap(i, j);
        after - before
    }

    /// Cost change moving stage `i` to `slot` would cause, leaving the
    /// state unchanged (same cost profile and caveats as
    /// [`Self::swap_delta`]).
    pub fn move_delta(&mut self, i: usize, slot: u32) -> f64 {
        let before = self.cost();
        let old = self.stage_slot[i];
        self.apply_move(i, slot);
        let after = self.cost();
        self.apply_move(i, old);
        after - before
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
        let naive = global_cost(&mesh, &p, 3.0, &pairs);
        let slots = model.slot_ids(&p).unwrap();
        assert_eq!(
            model.cost_of_slots(&slots, &pairs).to_bits(),
            naive.to_bits()
        );
        assert_eq!(model.placement_cost(&p, &pairs).to_bits(), naive.to_bits());
    }

    #[test]
    fn state_cost_matches_naive_through_random_mutations() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 1.0);
        let base = serpentine(8, 4, 8, 2, 2).unwrap();
        let pairs = pairs_fig11();
        let mut state = model.state(&base, &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for step in 0..200 {
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..8);
                let j = rng.gen_range(0..8);
                state.apply_swap(i, j);
            } else {
                let i = rng.gen_range(0..8);
                let slot = rng.gen_range(0..model.slot_count()) as u32;
                // Only move to genuinely free slots (occupied targets
                // would alias two stages onto one tile, which the search
                // never does).
                if !state.stage_slots().contains(&slot) {
                    state.apply_move(i, slot);
                }
            }
            let naive = global_cost(&mesh, &state.placement(), 1.0, &pairs);
            assert_eq!(
                state.cost().to_bits(),
                naive.to_bits(),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn faulted_state_cost_matches_naive_through_random_mutations() {
        use crate::placement::degraded_global_cost;
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
        let mut state = model.state(&base, &pairs).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for step in 0..200 {
            if rng.gen_bool(0.5) {
                let i = rng.gen_range(0..6);
                let j = rng.gen_range(0..6);
                state.apply_swap(i, j);
            } else {
                let i = rng.gen_range(0..6);
                let slot = rng.gen_range(0..model.slot_count()) as u32;
                if !state.stage_slots().contains(&slot) {
                    state.apply_move(i, slot);
                }
            }
            let naive = degraded_global_cost(&mesh, &state.placement(), 1.5, &pairs, &faults);
            assert_eq!(
                state.cost().to_bits(),
                naive.to_bits(),
                "divergence at step {step}"
            );
        }
    }

    #[test]
    fn deltas_leave_state_unchanged_and_predict_cost() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 2.0);
        let base = serpentine(8, 4, 8, 2, 2).unwrap();
        let pairs = pairs_fig11();
        let mut state = model.state(&base, &pairs).unwrap();
        let c0 = state.cost();
        let d = state.swap_delta(0, 5);
        assert_eq!(state.cost().to_bits(), c0.to_bits(), "swap_delta must undo");
        state.apply_swap(0, 5);
        assert_eq!(state.cost().to_bits(), (c0 + d).to_bits());
        state.apply_swap(0, 5);
        // 8 stages fill all 8 slots on 8x4/2x2 — the move test needs a
        // free slot, so shrink to 6 stages.
        let base6 = serpentine(8, 4, 6, 2, 2).unwrap();
        let pairs6 = vec![PairDemand {
            sender: 0,
            helper: 5,
            volume: 1.0,
        }];
        let mut s6 = model.state(&base6, &pairs6).unwrap();
        let c0 = s6.cost();
        let free = (0..model.slot_count() as u32)
            .find(|s| !s6.stage_slots().contains(s))
            .unwrap();
        let d = s6.move_delta(2, free);
        assert_eq!(s6.cost().to_bits(), c0.to_bits(), "move_delta must undo");
        s6.apply_move(2, free);
        assert_eq!(s6.cost().to_bits(), (c0 + d).to_bits());
    }

    #[test]
    fn empty_pairs_cost_is_pipeline_term_only() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 7.0);
        let p = serpentine(8, 4, 8, 2, 2).unwrap();
        let state = model.state(&p, &[]).unwrap();
        assert_eq!(
            state.cost().to_bits(),
            global_cost(&mesh, &p, 7.0, &[]).to_bits()
        );
    }

    #[test]
    fn off_grid_placement_cost_falls_back_to_naive() {
        let mesh = Mesh2D::new(8, 4);
        let model = PlacementCostModel::new(mesh, 2, 2, 1.0);
        let mut p = serpentine(8, 4, 8, 2, 2).unwrap();
        p.stages[3].x = 1; // off the tile grid
        let pairs = pairs_fig11();
        assert!(model.slot_ids(&p).is_none());
        assert_eq!(
            model.placement_cost(&p, &pairs).to_bits(),
            global_cost(&mesh, &p, 1.0, &pairs).to_bits()
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
