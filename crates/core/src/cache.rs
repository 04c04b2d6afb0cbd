//! Memoization for the co-exploration hot loop.
//!
//! One Alg. 1 search visits hundreds of `(tp, pp, strategy)` points, and
//! the fault/robust/GA re-evaluations revisit the winner many more times.
//! Before this cache every visit re-profiled layers on the die simulator
//! and re-aggregated stage profiles. A [`ProfileCache`] is scoped to one
//! `(wafer, job)` pair and lives exactly as long as the search leg or
//! sweep that builds it: a leg hands back only its [`CacheStats`].
//! Lookups are keyed by the *profile-relevant projection* of a
//! [`ParallelPlan`] — deliberately not the whole plan, so plans that
//! differ only in stage map or TP span (which change collective pricing
//! and seam accounting, never the sharded operator graph) share one set
//! of profiles:
//!
//! * [`LayerData`] per `(plan.tp, plan.strategy)` — the die-simulator
//!   calls, reused across every `pp` and every stage map the search
//!   sweeps;
//! * stage-profile vectors per `(plan.tp, plan.pp, plan.strategy,
//!   microbatches)` — reused by the bound pruner, the evaluator, the GA
//!   refinement, every rate of a fault sweep, and every
//!   stage-map/TP-span variant;
//! * Eq. 2 placement cost models per `(mesh, tile shape, pp_volume)`;
//! * clean §IV-C hill-climb results, as the slot id of every stage, per
//!   whole climb input: the cost model's key, `pp`, the seed and the
//!   pair demands' bits in order. Plans whose GCMR pairs and pipeline
//!   volume agree (a SequenceParallel plan and its Megatron twin at
//!   `tp = 1`) climb once.
//!
//! Collectives are not memoized: the closed α–β form of
//! [`all_reduce_time`] costs a few float operations, less than a key
//! build, a hash and a shared lock, so every caller prices them
//! directly.
//!
//! All entries are pure functions of their keys, so concurrent lookups
//! from the parallel search are deterministic: a racing miss computes the
//! same value, and the first insert wins. Maps are behind `RwLock`s —
//! the steady state is read-only hits, so waves never serialize on the
//! cache.
//!
//! ## Degradation and recovery
//!
//! Because every entry is a pure function of its key, the cache treats
//! its own contents as disposable: any shard whose lock was poisoned by
//! a panicking holder is cleared and rebuilt on demand rather than
//! trusted (`read_recover`/`write_recover`). Each recovery is counted in
//! [`CacheStats`], and search checkpoints carry the count, so a resumed
//! session knows whether its ancestor had already survived cache
//! degradation. On a panic-free run every counter is zero.

use crate::costmodel::PlacementCostModel;
use crate::placement::{self, PairDemand, Placement};
use crate::stage::{build_layer_data, build_stage_profiles_with, LayerData, StageProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wsc_arch::units::{Bandwidth, Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
use wsc_mesh::topology::Mesh2D;
use wsc_workload::parallel::{ParallelPlan, TpSplitStrategy};
use wsc_workload::training::TrainingJob;

/// Lock a memo map for reading, recovering from poison: a panicking
/// holder may have left the map half-updated, so recovery does not trust
/// it — the poison flag is cleared and the shard is reset to empty,
/// which is always safe because every memo value is a pure function of
/// its key and will simply be rebuilt on the next miss (wsc-lint rule
/// S001). [`ProfileCache`] counts these recoveries per shard before
/// delegating here.
pub(crate) fn read_recover<T: Default>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    if lock.is_poisoned() {
        clear_poisoned(lock);
    }
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locking twin of [`read_recover`].
pub(crate) fn write_recover<T: Default>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    if lock.is_poisoned() {
        clear_poisoned(lock);
    }
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Reset a poisoned shard: clear the flag, drop the (possibly
/// half-written) contents. Racing recoveries both reset to empty, which
/// is idempotent; a miss rebuilds whatever was lost.
fn clear_poisoned<T: Default>(lock: &RwLock<T>) {
    lock.clear_poison();
    *lock.write().unwrap_or_else(PoisonError::into_inner) = T::default();
}

type LayerKey = (usize, TpSplitStrategy);
type StageKey = (usize, usize, TpSplitStrategy, usize);
type CostModelKey = (usize, usize, usize, usize, u64);
/// A climb's cost-model key, `pp`, seed, and each pair's sender, helper
/// and volume bits.
type ClimbKey = (CostModelKey, usize, u64, Vec<(usize, usize, u64)>);

/// The [`ProfileCache::cost_model`] key of a `(mesh, tile shape,
/// pp_volume)` context.
fn cost_model_key(mesh: &Mesh2D, tile_w: usize, tile_h: usize, pp_volume: f64) -> CostModelKey {
    (mesh.nx, mesh.ny, tile_w, tile_h, pp_volume.to_bits())
}

/// Observability counters of one [`ProfileCache`]: how often the cache
/// had to distrust itself. All-zero on a panic-free run; surfaced per
/// search leg on the exploration report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Poisoned shards cleared and rebuilt (a candidate panicked while
    /// holding a cache lock).
    pub recoveries: usize,
    /// Always 0: the cache stores nothing that could be corrupted after
    /// insert. The field stays so reports keep their schema.
    pub corruptions: usize,
}

/// Shared memo for one `(wafer, job)` exploration (see module docs).
///
/// Keys deliberately omit the wafer and job: one cache must never be
/// reused across architectures or training jobs.
#[derive(Debug, Default)]
pub struct ProfileCache {
    layers: RwLock<HashMap<LayerKey, Arc<LayerData>>>,
    stages: RwLock<HashMap<StageKey, Arc<Vec<StageProfile>>>>,
    cost_models: RwLock<HashMap<CostModelKey, Arc<PlacementCostModel>>>,
    climbs: RwLock<HashMap<ClimbKey, Box<[u32]>>>,
    recoveries: AtomicUsize,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// Poison the stage shard's lock: a throwaway thread panics while
    /// holding the write guard, exactly what a candidate panic inside a
    /// cache miss would do. The next access takes the clear-and-count
    /// recovery path.
    #[cfg(test)]
    fn poison_stages(&self) {
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let _hold = self.stages.write().unwrap_or_else(PoisonError::into_inner);
                panic!("poisoning the stage shard");
            })
            .join()
        });
        assert!(outcome.is_err(), "the poisoning thread must panic");
    }

    /// Count a pending poison recovery on `lock` before the accessor
    /// delegates to [`read_recover`]/[`write_recover`]. Racing detectors
    /// may both count one event — the counters are diagnostics, and on
    /// any panic-free run they are exactly zero.
    fn note_poison<T>(&self, lock: &RwLock<T>) {
        if lock.is_poisoned() {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The degradation counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            recoveries: self.recoveries.load(Ordering::Relaxed),
            corruptions: 0,
        }
    }

    /// The per-layer-kind simulation results for
    /// `(plan.tp, plan.strategy)` — the only plan axes the die simulator
    /// sees.
    pub fn layer_data(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
    ) -> Arc<LayerData> {
        let key = (plan.tp, plan.strategy);
        self.note_poison(&self.layers);
        if let Some(hit) = read_recover(&self.layers).get(&key) {
            return Arc::clone(hit);
        }
        // Build outside the lock: racing misses compute identical values.
        let built = Arc::new(build_layer_data(wafer, job, &plan.sharding_ctx(job)));
        Arc::clone(write_recover(&self.layers).entry(key).or_insert(built))
    }

    /// Stage profiles for `(plan.tp, plan.pp, plan.strategy,
    /// microbatches)`, assembled from cached [`LayerData`]. Stage maps
    /// and TP spans deliberately do not enter the key — they change how
    /// collectives and boundaries are *priced*, never the profiles.
    pub fn stage_profiles(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        microbatches: usize,
    ) -> Arc<Vec<StageProfile>> {
        let key = (plan.tp, plan.pp, plan.strategy, microbatches);
        self.note_poison(&self.stages);
        if let Some(hit) = read_recover(&self.stages).get(&key) {
            return Arc::clone(hit);
        }
        // Build outside the lock: racing misses compute identical values.
        let layers = self.layer_data(wafer, job, plan);
        let built = Arc::new(build_stage_profiles_with(&layers, job, plan, microbatches));
        Arc::clone(write_recover(&self.stages).entry(key).or_insert(built))
    }

    /// [`all_reduce_time`], unmemoized: the closed form is cheaper than
    /// any lookup, so no library code calls this. It stays because the
    /// co-explorer benchmark's traced pass calls it by name; delete it
    /// with that pass's next change.
    pub fn all_reduce(
        &self,
        algo: CollectiveAlgo,
        shape: GroupShape,
        bytes: Bytes,
        link_bw: Bandwidth,
        alpha: Time,
    ) -> Time {
        all_reduce_time(algo, shape, bytes, link_bw, alpha)
    }

    /// The shared Eq. 2 [`PlacementCostModel`] for a
    /// `(mesh, tile shape, pp_volume)` context: slot-distance tables and
    /// path-link fragments are reused by every placement hill climb and
    /// GA refinement the search runs with that tile shape.
    pub fn cost_model(
        &self,
        mesh: &Mesh2D,
        tile_w: usize,
        tile_h: usize,
        pp_volume: f64,
    ) -> Arc<PlacementCostModel> {
        let key = cost_model_key(mesh, tile_w, tile_h, pp_volume);
        self.note_poison(&self.cost_models);
        if let Some(hit) = read_recover(&self.cost_models).get(&key) {
            return Arc::clone(hit);
        }
        let built = Arc::new(PlacementCostModel::new(*mesh, tile_w, tile_h, pp_volume));
        Arc::clone(write_recover(&self.cost_models).entry(key).or_insert(built))
    }

    /// [`placement::optimize_with`] on `model`, memoized by the climb's
    /// whole input when the model is clean and there are pairs to
    /// place. A faulted model (built fresh per call, keyed by nothing
    /// here) and a pair-free climb (the serpentine seed, returned at
    /// once) bypass the table.
    pub(crate) fn placement(
        &self,
        model: &PlacementCostModel,
        pp: usize,
        pairs: &[PairDemand],
        seed: u64,
    ) -> Option<Placement> {
        if model.faulted() || pairs.is_empty() {
            return placement::optimize_with(model, pp, pairs, seed);
        }
        let mesh = model.mesh();
        let key = (
            cost_model_key(mesh, model.tile_w(), model.tile_h(), model.pp_volume()),
            pp,
            seed,
            pairs
                .iter()
                .map(|p| (p.sender, p.helper, p.volume.to_bits()))
                .collect(),
        );
        self.note_poison(&self.climbs);
        if let Some(hit) = read_recover(&self.climbs).get(&key) {
            return Some(model.placement_of(hit));
        }
        // Climb outside the lock: racing misses compute identical values.
        let slots = placement::climb(model, pp, pairs, seed)?;
        let placement = model.placement_of(&slots);
        write_recover(&self.climbs)
            .entry(key)
            .or_insert_with(|| slots.into_boxed_slice());
        Some(placement)
    }

    /// Number of cached cost models.
    #[cfg(test)]
    fn cost_model_entries(&self) -> usize {
        read_recover(&self.cost_models).len()
    }

    /// Number of memoized climbs.
    #[cfg(test)]
    fn climb_entries(&self) -> usize {
        read_recover(&self.climbs).len()
    }

    /// Number of cached stage-profile vectors.
    #[cfg(test)]
    fn stage_entries(&self) -> usize {
        read_recover(&self.stages).len()
    }

    /// Number of cached layer-data entries.
    #[cfg(test)]
    fn layer_entries(&self) -> usize {
        read_recover(&self.layers).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsc_arch::presets;
    use wsc_workload::zoo;

    #[test]
    fn stage_profiles_match_uncached_build() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let plan = crate::testutil::megatron_plan(4, 14);
        let cache = ProfileCache::new();
        let cached = cache.stage_profiles(&wafer, &job, &plan, 16);
        let layers = build_layer_data(&wafer, &job, &plan.sharding_ctx(&job));
        assert_eq!(*cached, build_stage_profiles_with(&layers, &job, &plan, 16));
        // Second lookup hits the same Arc.
        let again = cache.stage_profiles(&wafer, &job, &plan, 16);
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!(cache.stage_entries(), 1);
        assert_eq!(cache.layer_entries(), 1);
        assert_eq!(cache.stats(), CacheStats::default(), "pristine cache");
    }

    #[test]
    fn layer_data_shared_across_pp_and_stage_maps() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let cache = ProfileCache::new();
        for pp in [2, 4, 7, 14] {
            cache.stage_profiles(&wafer, &job, &crate::testutil::megatron_plan(4, pp), 8);
        }
        assert_eq!(cache.stage_entries(), 4);
        assert_eq!(cache.layer_entries(), 1, "one simulator pass for all pp");
        // A different stage map or TP span hits the same profile entry:
        // they change pricing, not profiles.
        let mapped = crate::testutil::megatron_plan(4, 14)
            .with_stage_map(wsc_workload::parallel::StageMap::Balanced { wafers: 2 })
            .with_tp_span(2);
        cache.stage_profiles(&wafer, &job, &mapped, 8);
        assert_eq!(cache.stage_entries(), 4, "stage map must not enter the key");
    }

    #[test]
    fn cost_model_shared_per_tile_shape() {
        let cache = ProfileCache::new();
        let mesh = Mesh2D::new(7, 8);
        let a = cache.cost_model(&mesh, 2, 2, 1e8);
        let b = cache.cost_model(&mesh, 2, 2, 1e8);
        assert!(Arc::ptr_eq(&a, &b), "same key must share one model");
        let c = cache.cost_model(&mesh, 1, 4, 1e8);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.cost_model_entries(), 2);
    }

    #[test]
    fn a_repeated_clean_climb_adds_one_entry_and_a_faulted_one_none() {
        use crate::scheduler::{schedule_plan, SchedulerOptions};
        use wsc_arch::fault::FaultMap;
        use wsc_workload::parallel::TpSplitStrategy::{Megatron, SequenceParallel};
        // Config 1's per-die stages overflow DRAM, so GCMR pairs them and
        // the climb has pairs to place.
        let wafer = presets::config(1);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let opts = SchedulerOptions {
            ga: None,
            ..SchedulerOptions::default()
        };
        let cache = ProfileCache::new();
        let schedule = |strategy, faults, cache: &ProfileCache| {
            let plan = ParallelPlan::intra(1, 48, strategy);
            schedule_plan(&wafer, &job, &plan, &opts, faults, cache)
        };
        let megatron = schedule(Megatron, None, &cache).expect("Config 1 schedules D(1)T(1)P(48)");
        assert!(!megatron.grants.is_empty(), "the climb placed pairs");
        assert_eq!(cache.climb_entries(), 1);
        // At tp = 1 the SequenceParallel twin has the same pairs and
        // pipeline volume, so its climb is the memoized one.
        let twin = schedule(SequenceParallel, None, &cache).expect("the twin schedules too");
        assert_eq!(cache.climb_entries(), 1);
        assert_eq!(twin.placement, megatron.placement);
        // A faulted climb prices a model the table has no key for: it
        // climbs afresh, exactly as on an empty cache, and adds nothing.
        let faults = FaultMap::inject_clustered_faults(wafer.nx, wafer.ny, 0.1, 3);
        let faulted =
            schedule(Megatron, Some(&faults), &cache).expect("the faulted wafer schedules");
        assert_eq!(cache.climb_entries(), 1);
        let fresh = schedule(Megatron, Some(&faults), &ProfileCache::new());
        assert_eq!(Some(&faulted), fresh.as_ref());
        assert_ne!(faulted.placement, megatron.placement);
    }

    /// `ProfileCache::all_reduce` is the closed form, no longer a memo.
    /// Delete this test with the delegate.
    #[test]
    fn collective_memo_is_transparent() {
        let (algo, shape) = (CollectiveAlgo::RingBi, GroupShape::new(2, 2));
        let (bytes, bw) = (Bytes::mib(64), Bandwidth::tb_per_s(1.0));
        let alpha = Time::from_nanos(50.0);
        assert_eq!(
            ProfileCache::new().all_reduce(algo, shape, bytes, bw, alpha),
            all_reduce_time(algo, shape, bytes, bw, alpha)
        );
    }

    #[test]
    fn poison_recovery_clears_counts_and_rebuilds() {
        let wafer = presets::config(3);
        let job = TrainingJob::standard(zoo::llama2_30b());
        let plan = crate::testutil::megatron_plan(4, 14);
        let cache = ProfileCache::new();
        let before = cache.stage_profiles(&wafer, &job, &plan, 16);
        cache.poison_stages();
        // The next access must not trust the poisoned shard: it clears
        // it, counts the recovery, and rebuilds the entry from scratch.
        let after = cache.stage_profiles(&wafer, &job, &plan, 16);
        assert_eq!(*before, *after, "rebuilt entry is identical (pure keys)");
        assert!(
            !Arc::ptr_eq(&before, &after),
            "the poisoned shard was cleared, not served as-is"
        );
        assert_eq!(cache.stage_entries(), 1);
        let stats = cache.stats();
        assert!(stats.recoveries >= 1, "recovery must be counted");
        assert_eq!(stats.corruptions, 0);
    }

    #[test]
    fn recover_fns_reset_a_poisoned_lock() {
        let lock: RwLock<HashMap<u32, u32>> = RwLock::new(HashMap::from([(1, 2)]));
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let _hold = lock.write().unwrap_or_else(PoisonError::into_inner);
                panic!("poison it");
            })
            .join()
        });
        assert!(outcome.is_err());
        assert!(lock.is_poisoned());
        assert!(
            read_recover(&lock).is_empty(),
            "recovery clears the shard instead of serving it"
        );
        assert!(!lock.is_poisoned(), "poison flag cleared");
        write_recover(&lock).insert(3, 4);
        assert_eq!(read_recover(&lock).get(&3), Some(&4));
    }
}
