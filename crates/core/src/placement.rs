//! Spatial location-aware resource placement (§IV-C-1, Fig. 11, Eq. 2).
//!
//! Pipeline stages are rectangles of `tp` dies tiled onto the wafer mesh.
//! The traditional serpentine placement keeps consecutive stages adjacent
//! but puts `Mem_pair` partners far apart; the location-aware strategy
//! minimizes the Eq. 2 `GlobalCost`:
//!
//! ```text
//! GlobalCost = Σ Dist(Sᵢ, Sᵢ₊₁)·Comm_PP  +  Σ Dist(Sₛ, Sₕ)·Comm_pair·(1 + γ)
//! ```
//!
//! where γ counts routing conflicts between activation-balance paths and
//! pipeline paths.
//!
//! [`optimize_with`] hill-climbs over stage↔slot moves and prices every
//! candidate from a [`PlacementCostModel`]'s cached tables;
//! [`optimize_naive`] is its from-scratch reference on [`global_cost`].

use crate::costmodel::{link_id_space, NodeCostModel, PlacementCostModel};
use crate::dram_alloc::DramGrant;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use wsc_arch::fault::FaultMap;
use wsc_mesh::routing::{path_links, xy_path};
use wsc_mesh::topology::{DirLink, Mesh2D, NodeId};
use wsc_pipeline::gcmr::MemPair;

/// Link qualities are floored here when inverting, so a dead link prices
/// as a `1/0.05 = 20×` detour incentive instead of an infinity that
/// would poison every downstream sum.
pub const MIN_LINK_QUALITY: f64 = 0.05;

/// An axis-aligned rectangle of dies assigned to one pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Left die column.
    pub x: usize,
    /// Top die row.
    pub y: usize,
    /// Width in dies.
    pub w: usize,
    /// Height in dies.
    pub h: usize,
}

impl Rect {
    /// Die-grid center (continuous coordinates).
    pub fn center(&self) -> (f64, f64) {
        (
            self.x as f64 + (self.w as f64 - 1.0) / 2.0,
            self.y as f64 + (self.h as f64 - 1.0) / 2.0,
        )
    }

    /// The die nearest the rectangle center (used as routing anchor).
    pub fn center_node(&self, mesh: &Mesh2D) -> NodeId {
        let (cx, cy) = self.center();
        mesh.node(cx.round() as usize, cy.round() as usize)
    }

    /// All dies covered by the rectangle.
    pub fn nodes(&self, mesh: &Mesh2D) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.w * self.h);
        for yy in self.y..self.y + self.h {
            for xx in self.x..self.x + self.w {
                out.push(mesh.node(xx, yy));
            }
        }
        out
    }

    /// Manhattan distance between rectangle centers (hop estimate).
    pub fn dist(&self, other: &Rect) -> f64 {
        let (ax, ay) = self.center();
        let (bx, by) = other.center();
        (ax - bx).abs() + (ay - by).abs()
    }
}

/// A full pipeline placement: one rectangle per stage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    /// Per-stage die rectangles, indexed by stage.
    pub stages: Vec<Rect>,
}

/// Enumerate the tile slots a `tile_w × tile_h` stage rectangle can occupy
/// on an `nx × ny` mesh (non-overlapping grid tiling).
pub fn tile_slots(nx: usize, ny: usize, tile_w: usize, tile_h: usize) -> Vec<Rect> {
    let mut slots = Vec::new();
    let cols = nx / tile_w;
    let rows = ny / tile_h;
    for r in 0..rows {
        for c in 0..cols {
            slots.push(Rect {
                x: c * tile_w,
                y: r * tile_h,
                w: tile_w,
                h: tile_h,
            });
        }
    }
    slots
}

/// Choose a TP-group tile shape that can host `pp` stages on an
/// `nx × ny` mesh: among all factorizations of `tp` (both orientations)
/// with enough slots, prefer the most square (best ring embedding), then
/// the one wasting fewest dies.
///
/// This is how `D(1)T(4)P(14)` fits a 7×8 wafer: 2×2 tiles yield only 12
/// slots, so the 1×4 tile (7 columns × 2 rows = 14 slots) is selected.
pub fn choose_tile(nx: usize, ny: usize, tp: usize, pp: usize) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize, i64, usize)> = None; // (w, h, squareness, slots)
    for w in 1..=tp.min(nx) {
        if !tp.is_multiple_of(w) {
            continue;
        }
        let h = tp / w;
        if h > ny {
            continue;
        }
        let slots = (nx / w) * (ny / h);
        if slots < pp {
            continue;
        }
        let sq = (w as i64 - h as i64).abs();
        let better = match best {
            None => true,
            Some((_, _, bsq, bslots)) => sq < bsq || (sq == bsq && slots > bslots),
        };
        if better {
            best = Some((w, h, sq, slots));
        }
    }
    best.map(|(w, h, _, _)| (w, h))
}

/// The traditional "left-to-right, upper-to-bottom" placement of Fig. 11a
/// (what the paper calls the naive serpentine arrangement and applies to
/// MG-wafer): stage `i` goes to slot `i` in row-major order, wrapping at
/// row ends. Returns `None` when the mesh cannot hold `pp` stage tiles.
pub fn row_major(
    nx: usize,
    ny: usize,
    pp: usize,
    tile_w: usize,
    tile_h: usize,
) -> Option<Placement> {
    let slots = tile_slots(nx, ny, tile_w, tile_h);
    if slots.len() < pp {
        return None;
    }
    Some(Placement {
        stages: slots.into_iter().take(pp).collect(),
    })
}

/// Boustrophedon placement: row-major with alternating row direction, so
/// consecutive stages stay mesh-adjacent even across row wraps. Used as
/// the seed for [`optimize_with`].
pub fn serpentine(
    nx: usize,
    ny: usize,
    pp: usize,
    tile_w: usize,
    tile_h: usize,
) -> Option<Placement> {
    let slots = tile_slots(nx, ny, tile_w, tile_h);
    let ids = serpentine_ids(nx / tile_w, ny / tile_h, pp)?;
    Some(Placement {
        stages: ids.iter().map(|&id| slots[id as usize]).collect(),
    })
}

/// The slot ids of the [`serpentine`] placement in a `cols × rows` grid
/// of [`tile_slots`] (row-major ids), or `None` when the grid has fewer
/// than `pp` slots.
fn serpentine_ids(cols: usize, rows: usize, pp: usize) -> Option<Vec<u32>> {
    (cols * rows >= pp).then(|| {
        boustrophedon(cols, rows)
            .take(pp)
            .map(|id| id as u32)
            .collect()
    })
}

/// The row-major cell indices of a `cols × rows` grid with every odd row
/// reversed: consecutive cells stay adjacent across row wraps.
pub(crate) fn boustrophedon(cols: usize, rows: usize) -> impl Iterator<Item = usize> {
    (0..rows).flat_map(move |r| {
        (0..cols).map(move |c| r * cols + if r % 2 == 0 { c } else { cols - 1 - c })
    })
}

/// A Sender→Helper traffic demand for cost evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairDemand {
    /// Sender stage index.
    pub sender: usize,
    /// Helper stage index.
    pub helper: usize,
    /// Relative communication volume (bytes per iteration).
    pub volume: f64,
}

/// A GCMR `Mem_pair` (Alg. 2) as the Eq. 2 demand of its hosted bytes.
impl From<&MemPair> for PairDemand {
    fn from(p: &MemPair) -> Self {
        PairDemand {
            sender: p.sender,
            helper: p.helper,
            volume: p.bytes.as_f64(),
        }
    }
}

/// An Alg. 3 grant as the Eq. 2 demand of its granted bytes.
impl From<&DramGrant> for PairDemand {
    fn from(g: &DramGrant) -> Self {
        PairDemand {
            sender: g.sender,
            helper: g.helper,
            volume: g.bytes.as_f64(),
        }
    }
}

/// Build the set of links used by the pipeline paths of a placement.
fn pipeline_link_set(mesh: &Mesh2D, placement: &Placement) -> HashSet<DirLink> {
    let mut pipeline_links: HashSet<DirLink> = HashSet::new();
    for w in placement.stages.windows(2) {
        let a = w[0].center_node(mesh);
        let b = w[1].center_node(mesh);
        for l in path_links(&xy_path(mesh, a, b)) {
            pipeline_links.insert(l);
            pipeline_links.insert(l.reversed());
        }
    }
    pipeline_links
}

fn pair_conflicts(
    mesh: &Mesh2D,
    placement: &Placement,
    pipeline_links: &HashSet<DirLink>,
    pair: &PairDemand,
) -> usize {
    let s = placement.stages[pair.sender].center_node(mesh);
    let h = placement.stages[pair.helper].center_node(mesh);
    path_links(&xy_path(mesh, s, h))
        .into_iter()
        .filter(|l| pipeline_links.contains(l))
        .count()
}

/// The Eq. 2 global communication cost of a placement — the naive
/// reference the table-priced [`PlacementCostModel`] is pinned against.
///
/// `pp_volume` is the per-iteration inter-stage pipeline traffic (bytes);
/// pair volumes come from the Mem_pair plan. Conflicted balance paths are
/// punished by `(1 + γ)`. On a degraded wafer (`faults` is `Some`) every
/// distance term is [`degraded_rect_dist`]; the γ conflict counts are
/// unchanged — faults re-price links, they do not re-route the XY paths.
/// `None` charges the plain [`Rect::dist`].
pub fn global_cost(
    mesh: &Mesh2D,
    placement: &Placement,
    pp_volume: f64,
    pairs: &[PairDemand],
    faults: Option<&FaultMap>,
) -> f64 {
    let dist = |a: &Rect, b: &Rect| match faults {
        Some(f) => degraded_rect_dist(mesh, f, a, b),
        None => a.dist(b),
    };
    let mut cost = 0.0;
    for w in placement.stages.windows(2) {
        cost += dist(&w[0], &w[1]) * pp_volume;
    }
    if pairs.is_empty() {
        return cost;
    }
    let pipeline_links = pipeline_link_set(mesh, placement);
    for pair in pairs {
        let gamma = pair_conflicts(mesh, placement, &pipeline_links, pair) as f64;
        cost += dist(
            &placement.stages[pair.sender],
            &placement.stages[pair.helper],
        ) * pair.volume
            * (1.0 + gamma);
    }
    cost
}

/// Quality-weighted center distance between two stage rectangles: the
/// plain [`Rect::dist`] inflated by the *mean inverse link quality*
/// along the XY route between the rectangle centers. Clean links
/// (quality 1) leave the distance untouched; a route whose links average
/// half quality doubles it. Qualities are floored at
/// [`MIN_LINK_QUALITY`].
///
/// This is the one definition of "degraded distance" in the crate: the
/// fault-aware [`PlacementCostModel`]
/// fills its distance table from this exact function, so the cost
/// model and the naive [`global_cost`] reference read the same `f64`
/// bits.
pub fn degraded_rect_dist(mesh: &Mesh2D, faults: &FaultMap, a: &Rect, b: &Rect) -> f64 {
    let base = a.dist(b);
    let links = path_links(&xy_path(mesh, a.center_node(mesh), b.center_node(mesh)));
    if links.is_empty() {
        return base;
    }
    let mut inv = 0.0;
    for l in &links {
        let q = faults
            .link_quality(mesh.pos(l.from), mesh.pos(l.to))
            .max(MIN_LINK_QUALITY);
        inv += 1.0 / q;
    }
    base * (inv / links.len() as f64)
}

/// Whether a stage slot contains a dead die (health 0) and must be
/// masked out of the placement search space.
pub fn slot_is_dead(mesh: &Mesh2D, faults: &FaultMap, slot: &Rect) -> bool {
    slot.nodes(mesh)
        .iter()
        .any(|&n| faults.die_health(mesh.pos(n)) <= 0.0)
}

/// Spare-die remapping: move every stage sitting on a masked slot to the
/// nearest free healthy slot (clean [`Rect::dist`], ties broken by
/// lowest slot id), in stage order. Returns `false` when the healthy
/// slots run out — the pipeline does not fit this wafer.
///
/// `stage_slots` holds each stage's slot id in `slots`. Shared verbatim
/// by the table-priced and naive fault-aware hill climbs so both start
/// from the identical seed.
fn remap_dead_slots(slots: &[Rect], masked: &[bool], stage_slots: &mut [u32]) -> bool {
    let mut used = vec![false; slots.len()];
    for &id in stage_slots.iter() {
        used[id as usize] = true;
    }
    for stage in stage_slots.iter_mut() {
        let cur = *stage as usize;
        if !masked[cur] {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (id, slot) in slots.iter().enumerate() {
            if used[id] || masked[id] {
                continue;
            }
            let d = slots[cur].dist(slot);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((id, d));
            }
        }
        match best {
            Some((id, _)) => {
                used[id] = true;
                *stage = id as u32;
            }
            None => return false,
        }
    }
    true
}

/// Location-aware placement (§IV-C-1): start from serpentine and
/// hill-climb over stage↔slot swaps to minimize the Eq. 2 cost, keeping
/// the pipeline path intact as a first-class cost term.
///
/// Runs on a caller-provided (typically cached, see
/// [`crate::cache::ProfileCache::cost_model`]) [`PlacementCostModel`],
/// so path fragments and distance tables are shared across every search
/// point and GA refinement with the same tile shape. Each swap or
/// free-slot move is applied to the stage slots in place, re-priced
/// from the model's tables and undone unless it strictly lowers the
/// cost. Bit-identical to [`optimize_naive`] for every seed (same RNG
/// stream, same acceptance decisions, same placement); on a
/// [`PlacementCostModel::with_faults`] model the climb also routes
/// around dead slots and prices degraded links.
pub fn optimize_with(
    model: &PlacementCostModel,
    pp: usize,
    pairs: &[PairDemand],
    seed: u64,
) -> Option<Placement> {
    climb(model, pp, pairs, seed).map(|slots| model.placement_of(&slots))
}

/// [`optimize_with`] on slot ids: the climbed slot id of every stage.
///
/// The climb keeps two pieces of state across its moves. `counts` holds,
/// per link id, how many pipeline windows route over the link in either
/// direction; a move takes the ≤ 4 windows it touches out of the counts,
/// changes the slots and puts them back, and a rejected move is undone
/// the same way. `used` marks the occupied slots, so a free-slot draw
/// takes the k-th free id without building the free list. Each
/// candidate's cost is still the whole Eq. 2 sum, in the naive order,
/// with each pair's γ read against the counts.
pub(crate) fn climb(
    model: &PlacementCostModel,
    pp: usize,
    pairs: &[PairDemand],
    seed: u64,
) -> Option<Vec<u32>> {
    let mesh = model.mesh();
    // `slots` holds the incumbent best; rejected candidates are undone,
    // so it always equals the naive loop's `best`.
    let mut slots = serpentine_ids(mesh.nx / model.tile_w(), mesh.ny / model.tile_h(), pp)?;
    if model.has_masked() && !remap_dead_slots(model.slots(), model.masked(), &mut slots) {
        // Dead dies leave fewer healthy slots than pipeline stages.
        return None;
    }
    if pairs.is_empty() && !model.faulted() {
        // No balance traffic: the boustrophedon layout already minimizes
        // the pipeline term (all consecutive stages adjacent). On a
        // degraded wafer that no longer holds (link quality re-prices
        // the pipeline term), so faulted models always climb.
        return Some(slots);
    }
    let n_slots = model.slot_count();
    let mut counts = vec![0u32; link_id_space(mesh)];
    for w in slots.windows(2) {
        model.count_window(&mut counts, w[0], w[1], true);
    }
    let mut used = vec![false; n_slots];
    for &s in &slots {
        used[s as usize] = true;
    }
    // No stage sits on a masked slot (remapped above) and a free-slot
    // move trades one occupied slot for one free one, so the number of
    // free healthy slots never changes.
    let free = (0..n_slots as u32)
        .filter(|&s| !used[s as usize] && !model.is_masked(s))
        .count();
    let mut best_cost = model.cost_with_window_counts(&slots, pairs, &counts);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a1e_77a7);
    // Swap moves: either two stages exchange slots, or one stage moves to
    // an unused slot. The RNG draw sequence matches `optimize_naive`
    // exactly.
    let iters = 60 + 40 * pp;
    for _ in 0..iters {
        if n_slots > pp && rng.gen_bool(0.3) {
            // Move a stage to a free slot.
            let k = rng.gen_range(0..free.max(1)).min(free.saturating_sub(1));
            let Some(slot) = (0..n_slots as u32)
                .filter(|&s| !used[s as usize] && !model.is_masked(s))
                .nth(k)
            else {
                continue;
            };
            let idx = rng.gen_range(0..pp);
            let old = slots[idx];
            rewire(model, &mut slots, &mut counts, [idx, idx], |s| {
                s[idx] = slot
            });
            let c = model.cost_with_window_counts(&slots, pairs, &counts);
            if c < best_cost {
                best_cost = c;
                used[old as usize] = false;
                used[slot as usize] = true;
            } else {
                rewire(model, &mut slots, &mut counts, [idx, idx], |s| s[idx] = old);
            }
        } else {
            let i = rng.gen_range(0..pp);
            let j = rng.gen_range(0..pp);
            if i == j {
                continue;
            }
            rewire(model, &mut slots, &mut counts, [i, j], |s| s.swap(i, j));
            let c = model.cost_with_window_counts(&slots, pairs, &counts);
            if c < best_cost {
                best_cost = c;
            } else {
                rewire(model, &mut slots, &mut counts, [i, j], |s| s.swap(i, j));
            }
        }
    }
    Some(slots)
}

/// The pipeline windows (window `w` joins stages `w` and `w + 1`) next
/// to either moved stage, each once.
fn windows_next_to(pp: usize, [i, j]: [usize; 2]) -> impl Iterator<Item = usize> {
    let near = [i.checked_sub(1), Some(i), j.checked_sub(1), Some(j)];
    (0..near.len()).filter_map(move |n| {
        let w = near[n]?;
        (w + 1 < pp && !near[..n].contains(&Some(w))).then_some(w)
    })
}

/// Apply `change` to `slots`, keeping `counts` in step: the windows next
/// to the `moved` stages leave the counts before the change and re-enter
/// after it.
fn rewire(
    model: &PlacementCostModel,
    slots: &mut [u32],
    counts: &mut [u32],
    moved: [usize; 2],
    change: impl FnOnce(&mut [u32]),
) {
    for w in windows_next_to(slots.len(), moved) {
        model.count_window(counts, slots[w], slots[w + 1], false);
    }
    change(slots);
    for w in windows_next_to(slots.len(), moved) {
        model.count_window(counts, slots[w], slots[w + 1], true);
    }
}

/// Outcome of the node-level Alg. 3 placement climb (§VI-F): one global
/// slot per stage plus the node Eq. 2 cost before and after the climb.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct NodePlacementOutcome {
    /// Global slot id per stage (`group * slots_per_group + local`).
    pub slots: Vec<usize>,
    /// Node Eq. 2 cost of the per-group serpentine seed.
    pub seed_cost: f64,
    /// Node Eq. 2 cost after the climb (≤ `seed_cost`).
    pub cost: f64,
}

/// Per-group serpentine seed for the node level: stages walk their
/// assigned wafer group's slot grid in boustrophedon order, in pipeline
/// order. `None` when an assignment names a group outside the model or
/// packs more stages onto a group than it has slots.
pub(crate) fn node_serpentine(model: &NodeCostModel, assignment: &[usize]) -> Option<Vec<usize>> {
    let spw = model.slots_per_group();
    let cols = model.cols().max(1);
    let order: Vec<usize> = boustrophedon(cols, spw / cols).collect();
    let mut next = vec![0usize; model.groups()];
    let mut slots = Vec::with_capacity(assignment.len());
    for &g in assignment {
        if g >= model.groups() {
            return None;
        }
        let k = next[g];
        if k >= order.len() {
            return None;
        }
        next[g] += 1;
        slots.push(g * spw + order[k]);
    }
    Some(slots)
}

/// Node-level Alg. 3 placement (§VI-F): seed each wafer group with the
/// per-group serpentine and hill-climb over *intra-group* stage↔slot
/// swaps and free-slot moves to minimize the seam-extended
/// [`NodeCostModel::cost`]. The stage→group assignment is fixed by the
/// `StageMap` — placement never moves a stage across the seam, it only
/// rearranges stages within their wafer so cross-seam Sender→Helper
/// borrowing and intra-group pipeline hops get cheaper.
///
/// Deterministic in `(model, assignment, pairs, seed)`: same seeded RNG
/// idiom as [`optimize_with`], strict-improvement acceptance only.
pub(crate) fn optimize_node(
    model: &NodeCostModel,
    assignment: &[usize],
    pairs: &[PairDemand],
    seed: u64,
) -> Option<NodePlacementOutcome> {
    let pp = assignment.len();
    let mut slots = node_serpentine(model, assignment)?;
    let seed_cost = model.cost(&slots, pairs);
    if pairs.is_empty() {
        // No balance traffic: each group's boustrophedon run already
        // minimizes the intra-group pipeline term, and the seam terms
        // are fixed by the stage→group assignment.
        return Some(NodePlacementOutcome {
            slots,
            seed_cost,
            cost: seed_cost,
        });
    }
    let mut best_cost = seed_cost;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a1e_77a7);
    let n_slots = model.slot_count();
    let spw = model.slots_per_group();
    let iters = 60 + 40 * pp;
    for _ in 0..iters {
        if n_slots > pp && rng.gen_bool(0.3) {
            // Move a stage to a free slot on its own wafer group.
            let idx = rng.gen_range(0..pp);
            let g = assignment[idx];
            let mut used = vec![false; spw];
            for (s, &slot) in slots.iter().enumerate() {
                if assignment[s] == g {
                    used[slot - g * spw] = true;
                }
            }
            let free: Vec<usize> = (0..spw)
                .filter(|&l| !used[l])
                .map(|l| g * spw + l)
                .collect();
            if let Some(&slot) = free.get(
                rng.gen_range(0..free.len().max(1))
                    .min(free.len().saturating_sub(1)),
            ) {
                let old = slots[idx];
                slots[idx] = slot;
                let c = model.cost(&slots, pairs);
                if c < best_cost {
                    best_cost = c;
                } else {
                    slots[idx] = old;
                }
            }
        } else {
            let i = rng.gen_range(0..pp);
            let j = rng.gen_range(0..pp);
            if i == j || assignment[i] != assignment[j] {
                continue;
            }
            slots.swap(i, j);
            let c = model.cost(&slots, pairs);
            if c < best_cost {
                best_cost = c;
            } else {
                slots.swap(i, j);
            }
        }
    }
    Some(NodePlacementOutcome {
        slots,
        seed_cost,
        cost: best_cost,
    })
}

/// The naive reference hill climb: every candidate recomputes
/// [`global_cost`] from scratch. [`optimize_with`] must retrace it
/// exactly — same seed placement, same RNG stream, same acceptance
/// bits — on a clean model with `faults = None` and on a
/// [`PlacementCostModel::with_faults`] model with the same map
/// (`tests/ga_cost_equivalence.rs`); `bench_ga` measures the gap.
///
/// With `faults = None` the climb charges plain [`Rect::dist`] and never
/// scans for dead slots. With a map, stages seeded on dead-die slots
/// are first moved by `remap_dead_slots`, masked slots never enter the
/// free-slot pool, and every distance is degraded.
#[allow(clippy::too_many_arguments)]
pub fn optimize_naive(
    mesh: &Mesh2D,
    pp: usize,
    tile_w: usize,
    tile_h: usize,
    pp_volume: f64,
    pairs: &[PairDemand],
    faults: Option<&FaultMap>,
    seed: u64,
) -> Option<Placement> {
    let slots = tile_slots(mesh.nx, mesh.ny, tile_w, tile_h);
    let masked: Vec<bool> = match faults {
        Some(f) => slots.iter().map(|s| slot_is_dead(mesh, f, s)).collect(),
        None => Vec::new(),
    };
    let mut ids = serpentine_ids(mesh.nx / tile_w, mesh.ny / tile_h, pp)?;
    if masked.contains(&true) && !remap_dead_slots(&slots, &masked, &mut ids) {
        return None;
    }
    let base = Placement {
        stages: ids.iter().map(|&id| slots[id as usize]).collect(),
    };
    if pairs.is_empty() && faults.is_none_or(FaultMap::is_empty) {
        // No balance traffic: the boustrophedon layout already minimizes
        // the pipeline term (all consecutive stages adjacent).
        return Some(base);
    }
    let mut best = base;
    let mut best_cost = global_cost(mesh, &best, pp_volume, pairs, faults);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9a1e_77a7);
    // Swap moves: either two stages exchange slots, or one stage moves to
    // an unused slot.
    let iters = 60 + 40 * pp;
    for _ in 0..iters {
        let mut cand = best.clone();
        if slots.len() > pp && rng.gen_bool(0.3) {
            // Move a stage to a free slot.
            let used: HashSet<Rect> = cand.stages.iter().copied().collect();
            let free: Vec<Rect> = slots
                .iter()
                .enumerate()
                .filter(|&(id, s)| !used.contains(s) && masked.get(id) != Some(&true))
                .map(|(_, s)| *s)
                .collect();
            if let Some(&slot) = free.get(
                rng.gen_range(0..free.len().max(1))
                    .min(free.len().saturating_sub(1)),
            ) {
                let idx = rng.gen_range(0..pp);
                cand.stages[idx] = slot;
            }
        } else {
            let i = rng.gen_range(0..pp);
            let j = rng.gen_range(0..pp);
            if i == j {
                continue;
            }
            cand.stages.swap(i, j);
        }
        let c = global_cost(mesh, &cand, pp_volume, pairs, faults);
        if c < best_cost {
            best_cost = c;
            best = cand;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig11_pairs() -> Vec<PairDemand> {
        // Fig. 11: 8-stage pipeline, Mem_pairs (S1,S8) and (S2,S7) — here
        // 0-indexed as (0,7), (1,6).
        vec![
            PairDemand {
                sender: 0,
                helper: 7,
                volume: 1.0,
            },
            PairDemand {
                sender: 1,
                helper: 6,
                volume: 1.0,
            },
        ]
    }

    #[test]
    fn serpentine_tiles_8_stages_on_4x2_slots() {
        // 8 stages of 2x2 tiles on an 8x4 mesh.
        let p = serpentine(8, 4, 8, 2, 2).unwrap();
        assert_eq!(p.stages.len(), 8);
        // Consecutive stages are adjacent (distance = tile pitch).
        for w in p.stages.windows(2) {
            assert!(w[0].dist(&w[1]) <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn serpentine_fails_when_mesh_too_small() {
        assert!(serpentine(4, 4, 8, 2, 2).is_none());
    }

    #[test]
    fn fig11_location_aware_beats_naive_placement() {
        // The Fig. 11 experiment: with Mem_pairs (S1,S8),(S2,S7), the
        // location-aware placement cuts balance-path hops and GlobalCost
        // versus the naive left-to-right upper-to-bottom arrangement.
        let mesh = Mesh2D::new(8, 4);
        let pairs = fig11_pairs();
        let naive = row_major(8, 4, 8, 2, 2).unwrap();
        let naive_cost = global_cost(&mesh, &naive, 1.0, &pairs, None);
        let model = PlacementCostModel::new(mesh, 2, 2, 1.0);
        let opt = optimize_with(&model, 8, &pairs, 42).unwrap();
        let opt_cost = global_cost(&mesh, &opt, 1.0, &pairs, None);
        assert!(
            opt_cost < naive_cost,
            "optimized {opt_cost} should beat naive {naive_cost}"
        );
        // Fig. 11 reports ~30% total-hop reduction; require at least 15%.
        assert!(
            opt_cost < naive_cost * 0.85,
            "only {}%",
            100.0 * opt_cost / naive_cost
        );
    }

    #[test]
    fn naive_balance_paths_are_long() {
        // In the Fig. 11a arrangement, S1 and S8 sit far apart (6 hops).
        let naive = row_major(8, 4, 8, 2, 2).unwrap();
        let d = naive.stages[0].dist(&naive.stages[7]);
        assert!(d >= 2.0, "S1-S8 distance {d}");
    }

    #[test]
    fn choose_tile_finds_line_for_tp4_pp14() {
        // D(1)T(4)P(14) on a 7x8 wafer: 2x2 tiles give only 12 slots, so
        // the 1x4 tile (14 slots) must be selected.
        assert_eq!(choose_tile(7, 8, 4, 14), Some((1, 4)));
        // With pp <= 12 the square tile wins.
        assert_eq!(choose_tile(7, 8, 4, 12), Some((2, 2)));
        // Impossible demands yield None.
        assert_eq!(choose_tile(7, 8, 4, 15), None);
        assert_eq!(choose_tile(7, 8, 64, 1), None);
    }

    #[test]
    fn global_cost_punishes_conflicts() {
        let mesh = Mesh2D::new(8, 1);
        let p = serpentine(8, 1, 4, 2, 1).unwrap();
        let pair_conflicted = vec![PairDemand {
            sender: 0,
            helper: 3,
            volume: 1.0,
        }];
        let with = global_cost(&mesh, &p, 0.0, &pair_conflicted, None);
        let raw_dist = p.stages[0].dist(&p.stages[3]);
        assert!(with > raw_dist, "conflict punishment must inflate cost");
    }

    #[test]
    fn rect_geometry() {
        let r = Rect {
            x: 2,
            y: 1,
            w: 2,
            h: 2,
        };
        assert_eq!(r.center(), (2.5, 1.5));
        let mesh = Mesh2D::new(8, 4);
        assert_eq!(r.nodes(&mesh).len(), 4);
    }

    #[test]
    fn optimize_is_deterministic() {
        let mesh = Mesh2D::new(8, 4);
        let pairs = fig11_pairs();
        let model = PlacementCostModel::new(mesh, 2, 2, 1.0);
        let a = optimize_with(&model, 8, &pairs, 7).unwrap();
        let b = optimize_with(&model, 8, &pairs, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn degraded_dist_inflates_and_clean_map_is_identity() {
        let mesh = Mesh2D::new(8, 4);
        let a = Rect {
            x: 0,
            y: 0,
            w: 2,
            h: 2,
        };
        let b = Rect {
            x: 6,
            y: 2,
            w: 2,
            h: 2,
        };
        let clean = FaultMap::none();
        assert_eq!(
            degraded_rect_dist(&mesh, &clean, &a, &b).to_bits(),
            a.dist(&b).to_bits(),
            "clean map must not re-price distances"
        );
        let mut faults = FaultMap::none();
        faults.set_link_quality((3, 1), (4, 1), 0.25);
        // Inverse-quality weighting can only inflate (qualities ≤ 1).
        assert!(degraded_rect_dist(&mesh, &faults, &a, &b) >= a.dist(&b));
    }

    #[test]
    fn remap_moves_stages_off_dead_slots() {
        let mesh = Mesh2D::new(8, 4);
        let mut faults = FaultMap::none();
        faults.set_die_health((0, 0), 0.0); // kills tile slot 0
        let model = PlacementCostModel::with_faults(mesh, 2, 2, 1.0, &faults);
        assert!(model.is_masked(0) && model.has_masked() && model.faulted());
        // 6 stages on 8 slots: the stage seeded on slot 0 must move.
        let p = optimize_with(&model, 6, &[], 7).unwrap();
        for st in &p.stages {
            assert!(
                !slot_is_dead(&mesh, &faults, st),
                "stage {st:?} sits on a dead die"
            );
        }
        // 8 stages need 8 healthy slots but only 7 remain.
        assert!(optimize_with(&model, 8, &[], 7).is_none());
    }

    /// The table-priced hill climb must retrace the naive one exactly —
    /// same RNG stream, same acceptances, same final placement — for
    /// every seed, pipeline depth and pair set given.
    fn assert_matches_naive(mesh: Mesh2D, faults: Option<&FaultMap>, pps: &[usize]) {
        let model = match faults {
            Some(f) => PlacementCostModel::with_faults(mesh, 2, 2, 1.0, f),
            None => PlacementCostModel::new(mesh, 2, 2, 1.0),
        };
        for seed in [0, 7, 42, 1234] {
            for &pp in pps {
                let pairs = [
                    PairDemand {
                        sender: 0,
                        helper: pp - 1,
                        volume: 1.0,
                    },
                    PairDemand {
                        sender: 1,
                        helper: pp - 2,
                        volume: 2.5,
                    },
                ];
                // Empty pair sets return the seed on a clean wafer and
                // still climb on a degraded one.
                for pairs in [&pairs[..], &[]] {
                    let inc = optimize_with(&model, pp, pairs, seed).unwrap();
                    let naive = optimize_naive(&mesh, pp, 2, 2, 1.0, pairs, faults, seed).unwrap();
                    assert_eq!(inc, naive, "seed {seed} pp {pp} pairs {}", pairs.len());
                }
            }
        }
    }

    #[test]
    fn optimize_matches_naive_reference() {
        // pp 8 fills every slot; 4, 6 and 7 leave free slots, so
        // free-slot moves engage.
        assert_matches_naive(Mesh2D::new(8, 4), None, &[4, 6, 7, 8]);
    }

    #[test]
    fn fault_aware_optimize_matches_naive_reference() {
        let mut faults = FaultMap::none();
        faults.set_die_health((0, 0), 0.0); // masks slot 0
        faults.set_die_health((5, 1), 0.4); // degraded but alive
        faults.set_link_quality((2, 1), (3, 1), 0.2);
        faults.set_link_quality((6, 2), (6, 3), 0.0);
        // Only 7 healthy slots remain, so pp stops at 7.
        assert_matches_naive(Mesh2D::new(8, 4), Some(&faults), &[4, 6, 7]);
    }

    #[test]
    fn node_serpentine_walks_each_group_boustrophedon() {
        // 2 groups of a 4x4 wafer tiled 2x2 → 4 slots per group, 2 cols.
        let model = NodeCostModel::new(4, 4, 2, 2, 2, 6.0, 1.0).unwrap();
        // Balanced map: stages 0-2 on group 0, stages 3-5 on group 1.
        let slots = node_serpentine(&model, &[0, 0, 0, 1, 1, 1]).unwrap();
        // Row 0 left→right, row 1 right→left: local order 0,1,3,...
        assert_eq!(slots, vec![0, 1, 3, 4, 5, 7]);
        // Over-packed groups and out-of-range groups are rejected.
        assert!(node_serpentine(&model, &[0; 5]).is_none());
        assert!(node_serpentine(&model, &[2]).is_none());
    }

    #[test]
    fn optimize_node_never_crosses_groups_and_never_regresses() {
        let model = NodeCostModel::new(4, 4, 2, 2, 2, 6.0, 1.0).unwrap();
        let assignment = [0, 0, 0, 1, 1, 1];
        // A cross-seam Sender→Helper pair: placement cannot remove the
        // seam term, but it can shrink the local legs.
        let pairs = vec![
            PairDemand {
                sender: 0,
                helper: 5,
                volume: 4.0,
            },
            PairDemand {
                sender: 2,
                helper: 3,
                volume: 1.0,
            },
        ];
        for seed in [0u64, 7, 42] {
            let out = optimize_node(&model, &assignment, &pairs, seed).unwrap();
            assert!(out.cost <= out.seed_cost, "climb must never regress");
            for (s, &slot) in out.slots.iter().enumerate() {
                assert_eq!(
                    model.group_of(slot),
                    assignment[s],
                    "stage {s} left its wafer group"
                );
            }
            // No two stages share a slot.
            let mut sorted = out.slots.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), out.slots.len(), "slots must be distinct");
            // Deterministic in the seed.
            let again = optimize_node(&model, &assignment, &pairs, seed).unwrap();
            assert_eq!(out, again, "seed {seed} must be reproducible");
        }
    }

    #[test]
    fn optimize_node_without_pairs_returns_the_serpentine_seed() {
        let model = NodeCostModel::new(4, 4, 2, 2, 2, 6.0, 1.0).unwrap();
        let assignment = [0, 0, 1, 1];
        let out = optimize_node(&model, &assignment, &[], 9).unwrap();
        assert_eq!(
            out.slots,
            node_serpentine(&model, &assignment).unwrap(),
            "no balance traffic → boustrophedon seed is kept"
        );
        assert_eq!(out.cost, out.seed_cost);
    }
}
