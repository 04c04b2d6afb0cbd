//! Genetic-algorithm global optimizer (§IV-D, Fig. 12, Fig. 24b).
//!
//! Greedy Sender/Helper pairing and serpentine-seeded placement can trap
//! the downstream schedulers in local optima. The GA explores jointly over
//! three genome components with the paper's five operators:
//!
//! * **Op1** `R` variation — enable/disable recomputation for an operator
//!   (here: nudge a stage's extra-recomputation level).
//! * **Op2** `R` crossover — swap recomputation configs of two stages.
//! * **Op3** placement variation — swap the physical slots of two stages.
//! * **Op4** `A` variation — re-rank a Sender's helper preference.
//! * **Op5** `A` crossover — exchange helper preferences of two Senders.
//!
//! Fitness is `t_max × GlobalCost` (minimized). Selection blends elitism
//! (fraction ω) with binary tournament: ω → 1 converges fast but greedily,
//! ω → 0 preserves diversity (the Fig. 24b trade-off).

use crate::cache::{read_recover, write_recover};
use crate::costmodel::PlacementCostModel;
use crate::dram_alloc::DramGrant;
use crate::placement::{global_cost, tile_slots, PairDemand, Placement, Rect};
use crate::stage::StageProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, RwLock};
use wsc_arch::units::Bytes;
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::recompute::RecomputePlan;

/// GA hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Population size.
    pub population: usize,
    /// Exploration steps (generations).
    pub steps: usize,
    /// Elitism proportion ω ∈ [0, 1].
    pub omega: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 16,
            steps: 100,
            omega: 0.5,
            seed: 0x0a11_e1e5,
        }
    }
}

/// One individual: placement slots, per-stage extra recomputation level,
/// per-sender helper-preference rotation.
#[derive(Debug, Clone, PartialEq)]
struct Genome {
    placement: Placement,
    extra: Vec<f64>,
    bias: Vec<usize>,
}

/// GA outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaResult {
    /// Refined placement.
    pub placement: Placement,
    /// Refined recomputation plan.
    pub recompute: RecomputePlan,
    /// Refined DRAM grants.
    pub grants: Vec<DramGrant>,
    /// Best fitness value (t_max × GlobalCost; lower is better).
    pub fitness: f64,
    /// Best fitness after each step (for the Fig. 24b convergence curves).
    pub history: Vec<f64>,
}

struct GaCtx<'a> {
    mesh: &'a Mesh2D,
    stages: &'a [StageProfile],
    base: &'a RecomputePlan,
    overflow: &'a [Bytes],
    spare: &'a [Bytes],
    pp_volume: f64,
    slots: Vec<Rect>,
    engine: Engine<'a>,
}

/// How a genome's fitness is priced.
enum Engine<'a> {
    /// The pre-cost-model decode: clone the base plan, re-derive the
    /// overflow vector and rebuild the Eq. 2 link set for every genome.
    /// Kept as the measured baseline (`refine_naive`, `bench_ga`).
    Naive,
    /// Decomposed decode on the shared [`PlacementCostModel`]: the
    /// `(plan, overflow, t_max)` partial is reused across genomes with
    /// the same Op1/Op2 `extra` component (borrowed outright when
    /// `extra` is all-zero), and the Eq. 2 cost runs on memoized path
    /// fragments — Op3/Op4/Op5 changes only recompute the allocation
    /// and cost factors.
    Model {
        model: &'a PlacementCostModel,
        /// `t_max` of the untouched base plan (the all-zero fast path).
        base_t_max: f64,
        /// Plan partials keyed by the exact `extra` bits.
        memo: PlanMemo,
    },
}

/// The Op1/Op2-dependent part of a decoded genome: what `extra` alone
/// determines (the post-recomputation overflow vector and the `t_max`
/// fitness factor), shared across every genome with identical `extra`.
/// The mutated plan itself is only materialized for the returned winner
/// ([`decode_full`]).
struct PlanEval {
    overflow: Vec<Bytes>,
    t_max: f64,
}

/// Concurrent memo of [`PlanEval`] partials. Entries are pure functions
/// of the `extra` bit pattern, so racing parallel decodes compute
/// identical values and the first insert wins — results stay
/// deterministic at every thread count.
#[derive(Default)]
struct PlanMemo {
    map: RwLock<HashMap<Vec<u64>, Arc<PlanEval>>>,
}

impl PlanMemo {
    fn get_or_build(&self, ctx: &GaCtx<'_>, extra: &[f64]) -> Arc<PlanEval> {
        let key: Vec<u64> = extra.iter().map(|e| e.to_bits()).collect();
        if let Some(hit) = read_recover(&self.map).get(&key) {
            return Arc::clone(hit);
        }
        let (plan, overflow) = apply_extra(ctx, extra);
        let t_max = plan_t_max(ctx.stages, &plan);
        let built = Arc::new(PlanEval { overflow, t_max });
        Arc::clone(write_recover(&self.map).entry(key).or_insert(built))
    }
}

/// Biased greedy allocation: each sender's helper queue (sorted by
/// distance) is rotated by `bias[sender]` before grants are taken.
///
/// Distances come through `dist` so both decode engines share one
/// implementation: the naive engine measures rectangle centers, the
/// model engine reads the cost model's slot-distance table — the exact
/// same `f64` bits, so queues, grants and hops are identical.
fn biased_allocate(
    ctx: &GaCtx<'_>,
    dist: &dyn Fn(usize, usize) -> f64,
    overflow: &[Bytes],
    bias: &[usize],
) -> (Vec<DramGrant>, bool) {
    let pp = overflow.len();
    let mut remaining: Vec<Bytes> = ctx.spare.to_vec();
    let mut grants = Vec::new();
    let mut complete = true;
    let mut senders: Vec<usize> = (0..pp).filter(|&s| overflow[s] > Bytes::ZERO).collect();
    senders.sort_by(|&a, &b| overflow[b].cmp(&overflow[a]));
    for s in senders {
        let mut need = overflow[s];
        let mut q: Vec<usize> = (0..pp)
            .filter(|&h| h != s && remaining[h] > Bytes::ZERO)
            .collect();
        q.sort_by(|&a, &b| dist(s, a).total_cmp(&dist(s, b)));
        if !q.is_empty() {
            let rot = bias[s] % q.len();
            q.rotate_left(rot);
        }
        for h in q {
            if need == Bytes::ZERO {
                break;
            }
            let take = need.min(remaining[h]);
            if take == Bytes::ZERO {
                continue;
            }
            grants.push(DramGrant {
                sender: s,
                helper: h,
                bytes: take,
                hops: dist(s, h),
            });
            remaining[h] -= take;
            need -= take;
        }
        if need > Bytes::ZERO {
            complete = false;
        }
    }
    (grants, complete)
}

/// Apply the genome's Op1/Op2 `extra` component on top of the base plan:
/// the recompute-plan mutation and overflow re-derivation shared by both
/// decode engines (value-identical by construction).
fn apply_extra(ctx: &GaCtx<'_>, extra: &[f64]) -> (RecomputePlan, Vec<Bytes>) {
    let pp = ctx.stages.len();
    let mut plan = ctx.base.clone();
    let mut overflow: Vec<Bytes> = ctx.overflow.to_vec();
    #[allow(clippy::needless_range_loop)]
    for s in 0..pp {
        if extra[s] <= 0.0 {
            continue;
        }
        let menu = &ctx.stages[s].menu;
        let want = menu.max_savings().scale(extra[s]);
        let target = plan.saved_per_mb[s].max(want);
        if let Some(t) = menu.time_for_savings(target) {
            let freed = target.saturating_sub(plan.saved_per_mb[s]);
            plan.recompute_time[s] = ctx.base.recompute_time[s].max(t);
            plan.saved_per_mb[s] = target;
            overflow[s] = overflow[s].saturating_sub(freed * ctx.stages[s].in_flight as u64);
        }
    }
    (plan, overflow)
}

/// Slowest per-micro-batch stage time under a plan (the `t_max` fitness
/// factor).
fn plan_t_max(stages: &[StageProfile], plan: &RecomputePlan) -> f64 {
    stages
        .iter()
        .enumerate()
        .map(|(s, sp)| (sp.fwd_compute + sp.bwd_compute + plan.recompute_time[s]).as_secs())
        .fold(0.0f64, f64::max)
}

/// Fitness: t_max × GlobalCost (Eq. 2), infeasible → +inf.
fn fitness_of(ctx: &GaCtx<'_>, t_max: f64, gc: f64, complete: bool) -> f64 {
    let pp = ctx.stages.len();
    if complete {
        t_max * (1.0 + gc / (ctx.pp_volume * pp as f64 + 1.0))
    } else {
        f64::INFINITY
    }
}

/// Grants → Eq. 2 pair demands.
fn grant_pairs(grants: &[DramGrant]) -> Vec<PairDemand> {
    grants
        .iter()
        .map(|gr| PairDemand {
            sender: gr.sender,
            helper: gr.helper,
            volume: gr.bytes.as_f64(),
        })
        .collect()
}

/// Fitness-only decode — what the population loops need. On the
/// [`Engine::Model`] path the plan partial is borrowed (all-zero
/// `extra`) or memo-shared, and the Eq. 2 cost runs on the incremental
/// model; on [`Engine::Naive`] everything is re-derived per genome, as
/// before the cost engine existed. Both produce bit-identical fitness.
fn decode_fitness(ctx: &GaCtx<'_>, g: &Genome) -> f64 {
    match &ctx.engine {
        Engine::Naive => decode_full(ctx, g).2,
        Engine::Model {
            model,
            base_t_max,
            memo,
        } => {
            let partial = if g.extra.iter().all(|&e| e <= 0.0) {
                None
            } else {
                Some(memo.get_or_build(ctx, &g.extra))
            };
            let (overflow, t_max): (&[Bytes], f64) = match &partial {
                None => (ctx.overflow, *base_t_max),
                Some(e) => (&e.overflow, e.t_max),
            };
            match model.slot_ids(&g.placement) {
                Some(ids) => {
                    let d = |s: usize, h: usize| model.dist(ids[s], ids[h]);
                    let (grants, complete) = biased_allocate(ctx, &d, overflow, &g.bias);
                    let gc = model.cost_of_slots(&ids, &grant_pairs(&grants));
                    fitness_of(ctx, t_max, gc, complete)
                }
                // Off the slot grid (unreachable from `refine`, which
                // mutates over the model's own slots): same values via
                // the rectangle path.
                None => {
                    let d = |s: usize, h: usize| g.placement.stages[s].dist(&g.placement.stages[h]);
                    let (grants, complete) = biased_allocate(ctx, &d, overflow, &g.bias);
                    let gc = model.placement_cost(&g.placement, &grant_pairs(&grants));
                    fitness_of(ctx, t_max, gc, complete)
                }
            }
        }
    }
}

/// Full decode — plan, grants and fitness, used once for the returned
/// winner (and per genome by the naive engine).
fn decode_full(ctx: &GaCtx<'_>, g: &Genome) -> (RecomputePlan, Vec<DramGrant>, f64) {
    // Extra recomputation on top of the base plan.
    let (plan, overflow) = apply_extra(ctx, &g.extra);
    let d = |s: usize, h: usize| g.placement.stages[s].dist(&g.placement.stages[h]);
    let (grants, complete) = biased_allocate(ctx, &d, &overflow, &g.bias);
    let t_max = plan_t_max(ctx.stages, &plan);
    let pairs = grant_pairs(&grants);
    let gc = match &ctx.engine {
        Engine::Naive => global_cost(ctx.mesh, &g.placement, ctx.pp_volume, &pairs),
        Engine::Model { model, .. } => model.placement_cost(&g.placement, &pairs),
    };
    let fitness = fitness_of(ctx, t_max, gc, complete);
    (plan, grants, fitness)
}

fn mutate(ctx: &GaCtx<'_>, g: &mut Genome, rng: &mut StdRng) {
    let pp = ctx.stages.len();
    match rng.gen_range(0..5) {
        // Op1: R variation.
        0 => {
            let s = rng.gen_range(0..pp);
            let delta = if rng.gen_bool(0.5) { 0.15 } else { -0.15 };
            g.extra[s] = (g.extra[s] + delta).clamp(0.0, 1.0);
        }
        // Op2: R crossover between two stages.
        1 => {
            let a = rng.gen_range(0..pp);
            let b = rng.gen_range(0..pp);
            g.extra.swap(a, b);
        }
        // Op3: placement variation.
        2 => {
            if ctx.slots.len() > pp && rng.gen_bool(0.4) {
                let used: std::collections::HashSet<Rect> =
                    g.placement.stages.iter().copied().collect();
                let free: Vec<Rect> = ctx
                    .slots
                    .iter()
                    .copied()
                    .filter(|s| !used.contains(s))
                    .collect();
                if !free.is_empty() {
                    let idx = rng.gen_range(0..pp);
                    g.placement.stages[idx] = free[rng.gen_range(0..free.len())];
                    return;
                }
            }
            let a = rng.gen_range(0..pp);
            let b = rng.gen_range(0..pp);
            g.placement.stages.swap(a, b);
        }
        // Op4: A variation.
        3 => {
            let s = rng.gen_range(0..pp);
            g.bias[s] = g.bias[s].wrapping_add(1) % pp.max(1);
        }
        // Op5: A crossover.
        _ => {
            let a = rng.gen_range(0..pp);
            let b = rng.gen_range(0..pp);
            g.bias.swap(a, b);
        }
    }
}

fn crossover(a: &Genome, b: &Genome, rng: &mut StdRng) -> Genome {
    Genome {
        placement: if rng.gen_bool(0.5) {
            a.placement.clone()
        } else {
            b.placement.clone()
        },
        extra: a
            .extra
            .iter()
            .zip(&b.extra)
            .map(|(x, y)| if rng.gen_bool(0.5) { *x } else { *y })
            .collect(),
        bias: a
            .bias
            .iter()
            .zip(&b.bias)
            .map(|(x, y)| if rng.gen_bool(0.5) { *x } else { *y })
            .collect(),
    }
}

/// SplitMix64-style combine of the master seed with a (generation, slot)
/// coordinate: every genome draws from its own RNG stream, so offspring
/// construction and fitness decoding parallelize without any shared RNG
/// state — results are identical for every thread count.
fn stream_seed(seed: u64, generation: u64, slot: u64) -> u64 {
    let mut z = seed
        .wrapping_add(generation.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(slot.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run the GA refinement.
///
/// Offspring are generated and fitness-decoded in parallel, one rayon
/// task per genome; each genome's randomness comes from its own
/// splitmix stream keyed by `(seed, generation, slot)`, so the outcome
/// is a pure function of `params.seed` regardless of thread count.
///
/// Fitness decoding runs on an incremental [`PlacementCostModel`] built
/// for the base placement's tile grid; results are bit-identical to
/// [`refine_naive`] (enforced by `tests/ga_cost_equivalence.rs`).
#[allow(clippy::too_many_arguments)]
pub fn refine(
    mesh: &Mesh2D,
    stages: &[StageProfile],
    base_plan: &RecomputePlan,
    base_placement: &Placement,
    overflow: &[Bytes],
    spare: &[Bytes],
    pp_volume: f64,
    capacity: Bytes,
    params: &GaParams,
) -> GaResult {
    let tile = base_placement.stages[0];
    let model = PlacementCostModel::new(*mesh, tile.w, tile.h, pp_volume);
    refine_with_model(
        mesh,
        stages,
        base_plan,
        base_placement,
        overflow,
        spare,
        pp_volume,
        capacity,
        &model,
        params,
    )
}

/// [`refine`] on a caller-provided (typically cached) cost model, so
/// path-fragment and distance tables are shared with the placement hill
/// climb and across search points (see
/// [`crate::cache::ProfileCache::cost_model`]).
#[allow(clippy::too_many_arguments)]
pub fn refine_with_model(
    mesh: &Mesh2D,
    stages: &[StageProfile],
    base_plan: &RecomputePlan,
    base_placement: &Placement,
    overflow: &[Bytes],
    spare: &[Bytes],
    pp_volume: f64,
    _capacity: Bytes,
    model: &PlacementCostModel,
    params: &GaParams,
) -> GaResult {
    assert!(
        model.mesh() == mesh
            && model.tile_w() == base_placement.stages[0].w
            && model.tile_h() == base_placement.stages[0].h
            && model.pp_volume() == pp_volume,
        "cost model must match the refinement's mesh, tile shape and pp_volume"
    );
    let engine = Engine::Model {
        model,
        base_t_max: plan_t_max(stages, base_plan),
        memo: PlanMemo::default(),
    };
    // On a fault-aware model the Op3 free-slot pool is the *healthy*
    // slots only — dead-die tiles never enter the genome. Clean models
    // mask nothing, so this is the full grid (bit-identical to
    // `refine_naive`).
    let slots: Vec<Rect> = model
        .slots()
        .iter()
        .enumerate()
        .filter(|&(id, _)| !model.is_masked(id as u32))
        .map(|(_, s)| *s)
        .collect();
    refine_engine(
        mesh,
        stages,
        base_plan,
        base_placement,
        overflow,
        spare,
        pp_volume,
        params,
        engine,
        slots,
    )
}

/// The pre-cost-model refinement: every genome decode clones the plan,
/// re-derives overflow and rebuilds the Eq. 2 link set from scratch.
/// Kept as the reference implementation — `tests/ga_cost_equivalence.rs`
/// pins `refine ≡ refine_naive` bit-for-bit (fitness, history, placement,
/// grants), and `bench_ga` measures the gap.
#[allow(clippy::too_many_arguments)]
pub fn refine_naive(
    mesh: &Mesh2D,
    stages: &[StageProfile],
    base_plan: &RecomputePlan,
    base_placement: &Placement,
    overflow: &[Bytes],
    spare: &[Bytes],
    pp_volume: f64,
    _capacity: Bytes,
    params: &GaParams,
) -> GaResult {
    let tile = base_placement.stages[0];
    let slots = tile_slots(mesh.nx, mesh.ny, tile.w, tile.h);
    refine_engine(
        mesh,
        stages,
        base_plan,
        base_placement,
        overflow,
        spare,
        pp_volume,
        params,
        Engine::Naive,
        slots,
    )
}

#[allow(clippy::too_many_arguments)]
fn refine_engine(
    mesh: &Mesh2D,
    stages: &[StageProfile],
    base_plan: &RecomputePlan,
    base_placement: &Placement,
    overflow: &[Bytes],
    spare: &[Bytes],
    pp_volume: f64,
    params: &GaParams,
    engine: Engine<'_>,
    slots: Vec<Rect>,
) -> GaResult {
    let pp = stages.len();
    let ctx = GaCtx {
        mesh,
        stages,
        base: base_plan,
        overflow,
        spare,
        pp_volume,
        slots,
        engine,
    };
    let seed_genome = Genome {
        placement: base_placement.clone(),
        extra: vec![0.0; pp],
        bias: vec![0; pp],
    };
    // Generation 0: genome i diverges from the seed by i mutations drawn
    // from its own stream, then decodes its fitness — all in parallel.
    let init_slots: Vec<usize> = (0..params.population.max(2)).collect();
    let mut population: Vec<(Genome, f64)> = init_slots
        .par_iter()
        .map(|&i| {
            let mut rng = StdRng::seed_from_u64(stream_seed(params.seed, 0, i as u64));
            let mut g = seed_genome.clone();
            for _ in 0..i {
                mutate(&ctx, &mut g, &mut rng);
            }
            let f = decode_fitness(&ctx, &g);
            (g, f)
        })
        .collect();
    let mut history = Vec::with_capacity(params.steps);

    for step in 0..params.steps {
        population.sort_by(|a, b| a.1.total_cmp(&b.1));
        history.push(population[0].1);
        let pop = population.len();
        let elite: Vec<(Genome, f64)> = population[..2.min(pop)].to_vec();
        // Each offspring slot selects parents, crosses over, mutates and
        // decodes from its own RNG stream, against the frozen sorted
        // population of this generation — an embarrassingly parallel map.
        let slots: Vec<usize> = (0..pop - elite.len()).collect();
        let parents = &population;
        let offspring: Vec<(Genome, f64)> = slots
            .par_iter()
            .map(|&j| {
                let mut rng =
                    StdRng::seed_from_u64(stream_seed(params.seed, step as u64 + 1, j as u64));
                // Parent selection: elitist with probability ω, else
                // binary tournament over the whole population.
                let pick = |rng: &mut StdRng| -> usize {
                    if rng.gen::<f64>() < params.omega {
                        rng.gen_range(0..(pop / 4).max(1))
                    } else {
                        let a = rng.gen_range(0..pop);
                        let b = rng.gen_range(0..pop);
                        if parents[a].1 <= parents[b].1 {
                            a
                        } else {
                            b
                        }
                    }
                };
                let pa = pick(&mut rng);
                let pb = pick(&mut rng);
                let mut child = crossover(&parents[pa].0, &parents[pb].0, &mut rng);
                mutate(&ctx, &mut child, &mut rng);
                if rng.gen_bool(0.3) {
                    mutate(&ctx, &mut child, &mut rng);
                }
                let f = decode_fitness(&ctx, &child);
                (child, f)
            })
            .collect();
        let mut next = elite;
        next.extend(offspring);
        population = next;
    }
    population.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best = population.remove(0);
    let (plan, grants, fitness) = decode_full(&ctx, &best.0);
    history.push(fitness);
    GaResult {
        placement: best.0.placement,
        recompute: RecomputePlan {
            feasible: base_plan.feasible,
            ..plan
        },
        grants,
        fitness,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::serpentine;
    use crate::stage::build_stage_profiles;
    use wsc_arch::presets;

    use wsc_workload::parallel::ParallelSpec;
    use wsc_workload::training::TrainingJob;
    use wsc_workload::zoo;

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Mesh2D,
        Vec<StageProfile>,
        RecomputePlan,
        Placement,
        Vec<Bytes>,
        Vec<Bytes>,
        f64,
        Bytes,
    ) {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama3_70b());
        let ctx = crate::testutil::megatron_ctx(&job, 4);
        let stages = build_stage_profiles(
            &wafer,
            &job,
            ParallelSpec::model_parallel(4, 8),
            &ctx,
            job.microbatches(1),
        );
        let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
        let cap = wafer.dram.capacity;
        let plan = wsc_pipeline::gcmr::gcmr(&inputs, cap, 12);
        let rp = plan.as_recompute_plan();
        let placement = serpentine(wafer.nx, wafer.ny, 8, 2, 2).unwrap();
        let (overflow, spare) = wsc_pipeline::recompute::overflow_and_spare(&inputs, &rp, cap);
        let ppv = 1e8;
        (
            Mesh2D::new(wafer.nx, wafer.ny),
            stages,
            rp,
            placement,
            overflow,
            spare,
            ppv,
            cap,
        )
    }

    fn run(omega: f64, steps: usize, seed: u64) -> GaResult {
        let (mesh, stages, plan, placement, overflow, spare, ppv, cap) = setup();
        refine(
            &mesh,
            &stages,
            &plan,
            &placement,
            &overflow,
            &spare,
            ppv,
            cap,
            &GaParams {
                population: 12,
                steps,
                omega,
                seed,
            },
        )
    }

    #[test]
    fn ga_improves_or_matches_seed() {
        let r = run(0.5, 40, 7);
        assert!(r.fitness.is_finite());
        let first = r.history.first().copied().unwrap();
        let last = r.history.last().copied().unwrap();
        assert!(
            last <= first + 1e-12,
            "history must be non-increasing overall"
        );
    }

    #[test]
    fn history_length_matches_steps() {
        let r = run(0.5, 25, 1);
        assert_eq!(r.history.len(), 26); // one per step + final
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let a = run(0.5, 20, 3);
        let b = run(0.5, 20, 3);
        assert_eq!(a.fitness, b.fitness);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn elitist_converges_faster_early() {
        // Fig. 24b: ω = 1 converges fastest initially.
        let greedy = run(1.0, 12, 11);
        let diverse = run(0.0, 12, 11);
        let g_early = greedy.history[8];
        let d_early = diverse.history[8];
        assert!(
            g_early <= d_early * 1.2,
            "greedy early {g_early} vs diverse {d_early}"
        );
    }

    #[test]
    fn refined_plan_remains_feasible() {
        let r = run(0.5, 30, 5);
        assert!(r.recompute.feasible);
        assert_eq!(r.placement.stages.len(), 8);
        // Extra recomputation can only *add* savings.
        let plan = setup().2;
        for (a, b) in r.recompute.saved_per_mb.iter().zip(&plan.saved_per_mb) {
            assert!(a >= b);
        }
    }

    #[test]
    fn incremental_refine_matches_naive_on_real_profiles() {
        // The proptest covers synthetic stages; this pins the real
        // Llama3-70B profile path: same fitness bits, same history,
        // same placement, same grants, for both decode engines.
        let (mesh, stages, plan, placement, overflow, spare, ppv, cap) = setup();
        let params = GaParams {
            population: 10,
            steps: 12,
            omega: 0.5,
            seed: 21,
        };
        let inc = refine(
            &mesh, &stages, &plan, &placement, &overflow, &spare, ppv, cap, &params,
        );
        let naive = refine_naive(
            &mesh, &stages, &plan, &placement, &overflow, &spare, ppv, cap, &params,
        );
        assert_eq!(inc.fitness.to_bits(), naive.fitness.to_bits());
        let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&inc.history), bits(&naive.history));
        assert_eq!(inc.placement, naive.placement);
        assert_eq!(inc.grants, naive.grants);
        assert_eq!(inc.recompute, naive.recompute);
    }
}
