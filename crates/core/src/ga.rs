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
//!
//! A genome holds the slot id of every stage, an index into the
//! [`PlacementCostModel`]'s tile grid. One decode serves the population
//! and the returned winner: the Alg. 3 allocator of
//! [`crate::dram_alloc`] orders each sender's helpers by the model's
//! distance table, its queue rotated by the bias gene, and the Eq. 2
//! cost is re-summed from the model's tables. So on a
//! [`PlacementCostModel::with_faults`] model the winner is allocated on
//! the degraded distance it was ranked by. Genomes with no extra
//! recomputation reuse the base plan's overflow and `t_max`. Slot ids
//! become rectangles only in [`GaResult::placement`].

use crate::costmodel::PlacementCostModel;
use crate::dram_alloc::{allocate_by, DramAllocation, DramGrant};
use crate::placement::{global_cost, tile_slots, PairDemand, Placement, Rect};
use crate::stage::StageProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
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
    /// RNG seed of the GA's populations; the session seed
    /// ([`crate::SchedulerOptions::seed`]) does not reach the GA.
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

/// One individual: the slot id of every stage (an index into the tile
/// grid), per-stage extra recomputation level, per-sender
/// helper-preference rotation.
#[derive(Debug, Clone, PartialEq)]
struct Genome {
    slots: Vec<u32>,
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
    /// Op3's free-slot pool, in ascending slot-id order.
    pool: Vec<u32>,
    engine: Engine<'a>,
}

/// How a genome is decoded.
enum Engine<'a> {
    /// The pre-cost-model decode: clone the base plan, re-derive the
    /// overflow vector, allocate on `Rect::dist` and rebuild the Eq. 2
    /// link set of the genome's rectangles for every genome. Kept as
    /// the measured baseline (`refine_naive`, `bench_ga`).
    Naive {
        /// The tile grid the slot ids index, in [`tile_slots`] order.
        grid: Vec<Rect>,
    },
    /// Decode on the shared [`PlacementCostModel`]: a genome with
    /// all-zero `extra` borrows the base plan's overflow and `t_max`,
    /// the allocation orders helpers by the model's distance table and
    /// the Eq. 2 cost is re-summed from its tables.
    Model {
        model: &'a PlacementCostModel,
        /// `t_max` of the untouched base plan (the all-zero fast path).
        base_t_max: f64,
    },
}

impl Engine<'_> {
    /// The tile grid the slot ids index, in [`tile_slots`] order.
    fn grid(&self) -> &[Rect] {
        match self {
            Engine::Naive { grid } => grid,
            Engine::Model { model, .. } => model.slots(),
        }
    }
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

/// Decode a genome into its Alg. 3 allocation (each sender's helper
/// queue rotated by its bias gene) and its fitness
/// `t_max × (1 + GlobalCost / (pp_volume·pp + 1))`, `+inf` when some
/// overflow finds no home. The population loops and the returned winner
/// both call it, so the winner is the genome the GA ranked. The two
/// engines give bit-identical results on a clean model.
fn decode(ctx: &GaCtx<'_>, g: &Genome) -> (DramAllocation, f64) {
    let bias = |s: usize| g.bias[s];
    let (alloc, t_max, gc) = match &ctx.engine {
        Engine::Naive { grid } => {
            let (plan, overflow) = apply_extra(ctx, &g.extra);
            let placement = Placement {
                stages: g.slots.iter().map(|&id| grid[id as usize]).collect(),
            };
            let stages = &placement.stages;
            let alloc = allocate_by(
                |s, h| stages[s].dist(&stages[h]),
                bias,
                &overflow,
                ctx.spare,
            );
            let pairs: Vec<PairDemand> = alloc.grants.iter().map(PairDemand::from).collect();
            let gc = global_cost(ctx.mesh, &placement, ctx.pp_volume, &pairs, None);
            (alloc, plan_t_max(ctx.stages, &plan), gc)
        }
        Engine::Model { model, base_t_max } => {
            let mutated = (!g.extra.iter().all(|&e| e <= 0.0)).then(|| {
                let (plan, overflow) = apply_extra(ctx, &g.extra);
                (overflow, plan_t_max(ctx.stages, &plan))
            });
            let (overflow, t_max): (&[Bytes], f64) = match &mutated {
                None => (ctx.overflow, *base_t_max),
                Some((overflow, t_max)) => (overflow, *t_max),
            };
            let ids = &g.slots;
            let alloc = allocate_by(|s, h| model.dist(ids[s], ids[h]), bias, overflow, ctx.spare);
            let pairs: Vec<PairDemand> = alloc.grants.iter().map(PairDemand::from).collect();
            let gc = model.cost_of_slots(ids, &pairs);
            (alloc, t_max, gc)
        }
    };
    let fitness = if alloc.complete() {
        t_max * (1.0 + gc / (ctx.pp_volume * ctx.stages.len() as f64 + 1.0))
    } else {
        f64::INFINITY
    };
    (alloc, fitness)
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
            if ctx.pool.len() > pp && rng.gen_bool(0.4) {
                let mut used = vec![false; ctx.engine.grid().len()];
                for &id in &g.slots {
                    used[id as usize] = true;
                }
                let free: Vec<u32> = ctx
                    .pool
                    .iter()
                    .copied()
                    .filter(|&id| !used[id as usize])
                    .collect();
                if !free.is_empty() {
                    let idx = rng.gen_range(0..pp);
                    g.slots[idx] = free[rng.gen_range(0..free.len())];
                    return;
                }
            }
            let a = rng.gen_range(0..pp);
            let b = rng.gen_range(0..pp);
            g.slots.swap(a, b);
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
        slots: if rng.gen_bool(0.5) {
            a.slots.clone()
        } else {
            b.slots.clone()
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

/// Run the GA refinement on a caller-provided (typically cached, see
/// [`crate::cache::ProfileCache::cost_model`]) [`PlacementCostModel`]
/// built for the base placement's mesh, tile shape and `pp_volume`, so
/// path-fragment and distance tables are shared with the placement hill
/// climb and across search points.
///
/// Offspring are generated and fitness-decoded in parallel, one rayon
/// task per genome; each genome's randomness comes from its own
/// splitmix stream keyed by `(seed, generation, slot)`, so the outcome
/// is a pure function of `params.seed` regardless of thread count.
/// On a clean model the result is bit-identical to [`refine_naive`]
/// (enforced by `tests/ga_cost_equivalence.rs`).
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
    let base_slots = model.slot_ids(base_placement);
    assert!(
        base_slots.is_some() && model.mesh() == mesh && model.pp_volume() == pp_volume,
        "the base placement must lie on the cost model's tile grid, and the model must match \
         the refinement's mesh and pp_volume"
    );
    // On a fault-aware model the Op3 free-slot pool is the *healthy*
    // slots only — dead-die tiles never enter the genome. Clean models
    // mask nothing, so this is the full grid (bit-identical to
    // `refine_naive`).
    let ctx = GaCtx {
        mesh,
        stages,
        base: base_plan,
        overflow,
        spare,
        pp_volume,
        pool: (0..model.slot_count() as u32)
            .filter(|&id| !model.is_masked(id))
            .collect(),
        engine: Engine::Model {
            model,
            base_t_max: plan_t_max(stages, base_plan),
        },
    };
    refine_engine(&ctx, base_slots.unwrap_or_default(), params)
}

/// The pre-cost-model refinement: every genome decode clones the plan,
/// re-derives overflow and rebuilds the Eq. 2 link set from scratch.
/// Kept as the reference implementation — `tests/ga_cost_equivalence.rs`
/// pins `refine_with_model ≡ refine_naive` bit-for-bit (fitness,
/// history, placement, grants), and `bench_ga` measures the gap.
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
    let grid = tile_slots(mesh.nx, mesh.ny, tile.w, tile.h);
    let base_slots: Option<Vec<u32>> = base_placement
        .stages
        .iter()
        .map(|r| grid.iter().position(|s| s == r).map(|id| id as u32))
        .collect();
    assert!(
        base_slots.is_some(),
        "the base placement must lie on its tile grid"
    );
    let ctx = GaCtx {
        mesh,
        stages,
        base: base_plan,
        overflow,
        spare,
        pp_volume,
        pool: (0..grid.len() as u32).collect(),
        engine: Engine::Naive { grid },
    };
    refine_engine(&ctx, base_slots.unwrap_or_default(), params)
}

/// Evolve the population from the seed genome (the base placement's
/// slot ids, no extra recomputation, no bias) and decode the winner.
fn refine_engine(ctx: &GaCtx<'_>, base_slots: Vec<u32>, params: &GaParams) -> GaResult {
    let pp = ctx.stages.len();
    let seed_genome = Genome {
        slots: base_slots,
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
                mutate(ctx, &mut g, &mut rng);
            }
            let f = decode(ctx, &g).1;
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
                mutate(ctx, &mut child, &mut rng);
                if rng.gen_bool(0.3) {
                    mutate(ctx, &mut child, &mut rng);
                }
                let f = decode(ctx, &child).1;
                (child, f)
            })
            .collect();
        let mut next = elite;
        next.extend(offspring);
        population = next;
    }
    population.sort_by(|a, b| a.1.total_cmp(&b.1));
    let best = &population[0].0;
    let (alloc, fitness) = decode(ctx, best);
    history.push(fitness);
    let grid = ctx.engine.grid();
    GaResult {
        placement: Placement {
            stages: best.slots.iter().map(|&id| grid[id as usize]).collect(),
        },
        recompute: apply_extra(ctx, &best.extra).0,
        grants: alloc.grants,
        fitness,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ProfileCache;
    use crate::placement::serpentine;
    use wsc_arch::fault::FaultMap;
    use wsc_arch::presets;

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
        setup_for(3, zoo::llama3_70b(), 4, 8, (2, 2))
    }

    /// The GA inputs of Megatron `D(1)T(tp)P(pp)` of `model` on preset
    /// `config`, seeded with the serpentine placement of `tile`.
    #[allow(clippy::type_complexity)]
    fn setup_for(
        config: usize,
        model: wsc_workload::model::LlmModel,
        tp: usize,
        pp: usize,
        tile: (usize, usize),
    ) -> (
        Mesh2D,
        Vec<StageProfile>,
        RecomputePlan,
        Placement,
        Vec<Bytes>,
        Vec<Bytes>,
        f64,
        Bytes,
    ) {
        let wafer = presets::config(config);
        let job = TrainingJob::standard(model);
        let megatron = crate::testutil::megatron_plan(tp, pp);
        let stages =
            ProfileCache::new().stage_profiles(&wafer, &job, &megatron, job.microbatches(1));
        let inputs: Vec<_> = stages.iter().map(|s| s.as_recompute_input()).collect();
        let cap = wafer.dram.capacity;
        let plan = wsc_pipeline::gcmr::gcmr(&inputs, cap, 12);
        let rp = plan.as_recompute_plan();
        let placement = serpentine(wafer.nx, wafer.ny, pp, tile.0, tile.1).unwrap();
        let (overflow, spare) = wsc_pipeline::recompute::overflow_and_spare(&inputs, &rp, cap);
        let ppv = 1e8;
        (
            Mesh2D::new(wafer.nx, wafer.ny),
            stages.to_vec(),
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
        let model = PlacementCostModel::new(mesh, 2, 2, ppv);
        refine_with_model(
            &mesh,
            &stages,
            &plan,
            &placement,
            &overflow,
            &spare,
            ppv,
            cap,
            &model,
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
    fn faulted_refinement_returns_the_genome_it_ranked() {
        // Elitism keeps each generation's best, so the history never
        // rises, and the last entry is the returned winner's fitness.
        // On a faulted model the distance table holds degraded
        // distances, so the winner must be allocated on them too.
        let (mesh, stages, plan, placement, overflow, spare, ppv, cap) =
            setup_for(1, zoo::llama2_30b(), 1, 48, (1, 1));
        for seed in 0..4 {
            let faults = FaultMap::inject_link_faults(mesh.nx, mesh.ny, 0.3, seed);
            let model = PlacementCostModel::with_faults(mesh, 1, 1, ppv, &faults);
            let r = refine_with_model(
                &mesh,
                &stages,
                &plan,
                &placement,
                &overflow,
                &spare,
                ppv,
                cap,
                &model,
                &GaParams::default(),
            );
            for w in r.history.windows(2) {
                assert!(
                    w[1] <= w[0],
                    "seed {seed}: history rose {} -> {}",
                    w[0],
                    w[1]
                );
            }
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
        let model = PlacementCostModel::new(mesh, 2, 2, ppv);
        let inc = refine_with_model(
            &mesh, &stages, &plan, &placement, &overflow, &spare, ppv, cap, &model, &params,
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
