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
//! * [`KindProfiles`] per `(plan.tp, plan.strategy)` — one die-simulator
//!   pass per layer kind, reused across every `pp` and every stage map
//!   the search sweeps;
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
//! Each entry is built once. Every table maps a key to a shared
//! `OnceLock` cell: a miss inserts the empty cell under the write lock
//! and builds the value outside it, so a racing miss on the same key
//! finds the cell and waits for that one build instead of repeating it,
//! and each table's build count is a pure function of the keys asked.
//! No build can deadlock: a stage-profile build asks only the layer
//! table, and no build waits on another key of its own table. Maps are
//! behind `RwLock`s — the steady state is read-only hits, so waves never
//! serialize on the cache.
//!
//! ## Degradation and recovery
//!
//! Because every entry is a pure function of its key, the cache treats
//! its own contents as disposable: a table whose lock was poisoned by a
//! panicking holder is cleared and rebuilt on demand rather than
//! trusted. Each recovery is counted in [`CacheStats`], and search
//! checkpoints carry the count, so a resumed session knows whether its
//! ancestor had already survived cache degradation. On a panic-free run
//! every counter is zero.

use crate::costmodel::PlacementCostModel;
use crate::placement::{self, PairDemand, Placement};
use crate::stage::{build_stage_profiles_with, StageProfile};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use wsc_arch::units::{Bandwidth, Bytes, Time};
use wsc_arch::wafer::WaferConfig;
use wsc_mesh::collective::{all_reduce_time, CollectiveAlgo, GroupShape};
use wsc_mesh::topology::Mesh2D;
use wsc_sim::op_cost::DieModel;
use wsc_sim::profile::KindProfiles;
use wsc_workload::parallel::{ParallelPlan, TpSplitStrategy};
use wsc_workload::training::TrainingJob;

/// Lock a memo map for reading, recovering from poison: a panicking
/// holder may have left the map half-updated, so recovery does not trust
/// it — the poison flag is cleared and the map is reset to empty, which
/// is always safe because every memo value is a pure function of its key
/// and will simply be rebuilt on the next miss (wsc-lint rule S001).
fn read_recover<T: Default>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    if lock.is_poisoned() {
        clear_poisoned(lock);
    }
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locking twin of [`read_recover`].
fn write_recover<T: Default>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    if lock.is_poisoned() {
        clear_poisoned(lock);
    }
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Reset a poisoned map: clear the flag, drop the (possibly
/// half-written) contents. Racing recoveries both reset to empty, which
/// is idempotent; a miss rebuilds whatever was lost.
fn clear_poisoned<T: Default>(lock: &RwLock<T>) {
    lock.clear_poison();
    *lock.write().unwrap_or_else(PoisonError::into_inner) = T::default();
}

/// One memo table: each key's value is built once, into a cell every
/// caller of that key shares (see module docs).
#[derive(Debug)]
struct Table<K, V> {
    cells: RwLock<HashMap<K, Arc<OnceLock<V>>>>,
    /// Poisoned maps cleared by [`Table::get`].
    recoveries: AtomicUsize,
}

impl<K, V> Default for Table<K, V> {
    fn default() -> Self {
        Table {
            cells: RwLock::default(),
            recoveries: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Table<K, V> {
    /// The value of `key`, built by `build` on the first lookup only. A
    /// lookup that finds the key's cell still being built waits for that
    /// build. A poisoned map is counted, cleared and rebuilt on demand;
    /// racing detectors may both count one event — the counter is a
    /// diagnostic, exactly zero on any panic-free run.
    fn get(&self, key: K, build: impl FnOnce() -> V) -> V {
        if self.cells.is_poisoned() {
            self.recoveries.fetch_add(1, Ordering::Relaxed);
        }
        let hit = read_recover(&self.cells).get(&key).map(Arc::clone);
        let cell = match hit {
            Some(cell) => cell,
            None => Arc::clone(write_recover(&self.cells).entry(key).or_default()),
        };
        cell.get_or_init(build).clone()
    }

    /// Number of keys looked up since the map was last cleared.
    #[cfg(test)]
    fn len(&self) -> usize {
        read_recover(&self.cells).len()
    }
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
    /// Poisoned tables cleared and rebuilt (a candidate panicked while
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
    layers: Table<LayerKey, Arc<KindProfiles>>,
    stages: Table<StageKey, Arc<Vec<StageProfile>>>,
    cost_models: Table<CostModelKey, Arc<PlacementCostModel>>,
    climbs: Table<ClimbKey, Option<Arc<[u32]>>>,
}

impl ProfileCache {
    /// An empty cache.
    pub fn new() -> Self {
        ProfileCache::default()
    }

    /// Poison the stage table's lock: a throwaway thread panics while
    /// holding the write guard, exactly what a candidate panic inside a
    /// cache lookup would do. The next access takes the clear-and-count
    /// recovery path.
    #[cfg(test)]
    fn poison_stages(&self) {
        let outcome = std::thread::scope(|s| {
            s.spawn(|| {
                let _hold = self
                    .stages
                    .cells
                    .write()
                    .unwrap_or_else(PoisonError::into_inner);
                panic!("poisoning the stage table");
            })
            .join()
        });
        assert!(outcome.is_err(), "the poisoning thread must panic");
    }

    /// The degradation counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let recoveries = [
            &self.layers.recoveries,
            &self.stages.recoveries,
            &self.cost_models.recoveries,
            &self.climbs.recoveries,
        ];
        CacheStats {
            recoveries: recoveries.iter().map(|r| r.load(Ordering::Relaxed)).sum(),
            corruptions: 0,
        }
    }

    /// The layer-kind profiles for `(plan.tp, plan.strategy)` — the only
    /// plan axes the die simulator sees.
    pub fn layer_data(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
    ) -> Arc<KindProfiles> {
        self.layers.get((plan.tp, plan.strategy), || {
            let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
            Arc::new(KindProfiles::new(&dm, &job.model, &plan.sharding_ctx(job)))
        })
    }

    /// Stage profiles for `(plan.tp, plan.pp, plan.strategy,
    /// microbatches)`, assembled from the cached [`KindProfiles`]. Stage
    /// maps and TP spans deliberately do not enter the key — they change
    /// how collectives and boundaries are *priced*, never the profiles.
    pub fn stage_profiles(
        &self,
        wafer: &WaferConfig,
        job: &TrainingJob,
        plan: &ParallelPlan,
        microbatches: usize,
    ) -> Arc<Vec<StageProfile>> {
        let key = (plan.tp, plan.pp, plan.strategy, microbatches);
        self.stages.get(key, || {
            let kinds = self.layer_data(wafer, job, plan);
            Arc::new(build_stage_profiles_with(&kinds, job, plan, microbatches))
        })
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
        self.cost_models.get(key, || {
            Arc::new(PlacementCostModel::new(*mesh, tile_w, tile_h, pp_volume))
        })
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
        let slots = self.climbs.get(key, || {
            placement::climb(model, pp, pairs, seed).map(Arc::from)
        })?;
        Some(model.placement_of(&slots))
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
        let dm = DieModel::new(wafer.die.clone(), wafer.dram.bandwidth);
        let kinds = KindProfiles::new(&dm, &job.model, &plan.sharding_ctx(&job));
        assert_eq!(*cached, build_stage_profiles_with(&kinds, &job, &plan, 16));
        // Second lookup hits the same Arc.
        let again = cache.stage_profiles(&wafer, &job, &plan, 16);
        assert!(Arc::ptr_eq(&cached, &again));
        assert_eq!(cache.stages.len(), 1);
        assert_eq!(cache.layers.len(), 1);
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
        assert_eq!(cache.stages.len(), 4);
        assert_eq!(cache.layers.len(), 1, "one simulator pass for all pp");
        // A different stage map or TP span hits the same profile entry:
        // they change pricing, not profiles.
        let mapped = crate::testutil::megatron_plan(4, 14)
            .with_stage_map(wsc_workload::parallel::StageMap::Balanced { wafers: 2 })
            .with_tp_span(2);
        cache.stage_profiles(&wafer, &job, &mapped, 8);
        assert_eq!(cache.stages.len(), 4, "stage map must not enter the key");
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
        assert_eq!(cache.cost_models.len(), 2);
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
        assert_eq!(cache.climbs.len(), 1);
        // At tp = 1 the SequenceParallel twin has the same pairs and
        // pipeline volume, so its climb is the memoized one.
        let twin = schedule(SequenceParallel, None, &cache).expect("the twin schedules too");
        assert_eq!(cache.climbs.len(), 1);
        assert_eq!(twin.placement, megatron.placement);
        // A faulted climb prices a model the table has no key for: it
        // climbs afresh, exactly as on an empty cache, and adds nothing.
        let faults = FaultMap::inject_clustered_faults(wafer.nx, wafer.ny, 0.1, 3);
        let faulted =
            schedule(Megatron, Some(&faults), &cache).expect("the faulted wafer schedules");
        assert_eq!(cache.climbs.len(), 1);
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
        assert_eq!(cache.stages.len(), 1);
        let stats = cache.stats();
        assert!(stats.recoveries >= 1, "recovery must be counted");
        assert_eq!(stats.corruptions, 0);
    }

    #[test]
    fn a_racing_miss_waits_for_the_one_build() {
        let table: Table<u32, u32> = Table::default();
        let builds = AtomicUsize::new(0);
        let (table, builds) = (&table, &builds);
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel();
        let holders = || {
            read_recover(&table.cells)
                .get(&1)
                .map_or(0, Arc::strong_count)
        };
        std::thread::scope(|s| {
            let first = s.spawn(move || {
                table.get(1, || {
                    started_tx.send(()).expect("the test waits for this build");
                    release_rx.recv().expect("the test releases this build");
                    builds.fetch_add(1, Ordering::Relaxed);
                    7
                })
            });
            started_rx.recv().expect("the first build starts");
            let second = s.spawn(move || {
                table.get(1, || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    8
                })
            });
            // The table and both callers hold the key's cell, so the
            // second caller found the cell the first is filling.
            while holders() < 3 {
                std::thread::yield_now();
            }
            release_tx
                .send(())
                .expect("the first build waits for release");
            assert_eq!(first.join().expect("the first caller returns"), 7);
            assert_eq!(second.join().expect("the second caller returns"), 7);
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1, "one build per key");
        assert_eq!(table.len(), 1);
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
