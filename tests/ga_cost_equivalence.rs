//! Property tests for the invariant of the placement cost model
//! (`crates/core/src/costmodel.rs`): across random meshes, tile shapes,
//! pair demands, stage profiles, overflows and seeds, the paths that
//! re-sum the Eq. 2 cost from the model's cached tables are
//! **bit-identical** to the naive re-derive-everything reference —
//!
//! * `placement::optimize_with` ≡ `placement::optimize_naive` (same
//!   hill-climb trajectory, same final placement, same Eq. 2 cost bits),
//!   on clean wafers and on clustered-fault maps, and
//! * `ga::refine_with_model` ≡ `ga::refine_naive` (same fitness bits,
//!   same history, same chosen placement, plan and grants for every
//!   seed).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use watos::ga::{refine_naive, refine_with_model, GaParams};
use watos::placement::{global_cost, optimize_naive, optimize_with, serpentine, PairDemand};
use watos::stage::StageProfile;
use watos::PlacementCostModel;
use wsc_arch::fault::FaultMap;
use wsc_arch::units::{Bytes, Flops, Time};
use wsc_mesh::topology::Mesh2D;
use wsc_pipeline::recompute::RecomputePlan;
use wsc_sim::profile::{LayerProfile, OpProfile, RecomputeMenu};
use wsc_workload::ops::OpKind;

/// Random pair demands over `pp` stages (senders may equal helpers;
/// volumes span several orders of magnitude).
fn random_pairs(rng: &mut StdRng, pp: usize, n: usize) -> Vec<PairDemand> {
    (0..n)
        .map(|_| PairDemand {
            sender: rng.gen_range(0..pp),
            helper: rng.gen_range(0..pp),
            volume: rng.gen_range(0.25..4.0) * 10f64.powi(rng.gen_range(0..3)),
        })
        .collect()
}

proptest! {
    #[test]
    fn hill_climb_incremental_matches_naive(
        nx in 2usize..9,
        ny in 2usize..9,
        tile_idx in 0usize..4,
        depth in 0usize..3,
        pp_raw in 2usize..64,
        n_pairs in 0usize..33,
        ppv in 0.0f64..5.0,
        faulted in 0usize..2,
        fault_rate in 0.0f64..0.4,
        seed in 0u64..1_000_000,
    ) {
        let (tw, th) = [(1, 1), (2, 1), (1, 2), (2, 2)][tile_idx];
        let (tw, th) = if (nx / tw) * (ny / th) < 2 { (1, 1) } else { (tw, th) };
        let slots = (nx / tw) * (ny / th);
        // A third of the cases fill every slot, so no free-slot move can
        // fire, and a third leave exactly one slot free: the regime of
        // the search's costliest climbs (40–49 stages on 49 slots with
        // up to 30 pairs). The rest take any depth from 2 to `slots`.
        let pp = match depth {
            0 => slots,
            1 => (slots - 1).max(2),
            _ => 2 + pp_raw % (slots - 1).max(1),
        };
        let mesh = Mesh2D::new(nx, ny);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x51ce_11fe);
        let pairs = random_pairs(&mut rng, pp, n_pairs);
        // Half the cases climb a degraded wafer: dead slots are masked
        // and remapped, every distance is quality-weighted.
        let faults = (faulted == 1)
            .then(|| FaultMap::inject_clustered_faults(nx, ny, fault_rate, seed));
        let model = match &faults {
            Some(f) => PlacementCostModel::with_faults(mesh, tw, th, ppv, f),
            None => PlacementCostModel::new(mesh, tw, th, ppv),
        };

        let inc = optimize_with(&model, pp, &pairs, seed);
        let naive = optimize_naive(&mesh, pp, tw, th, ppv, &pairs, faults.as_ref(), seed);
        prop_assert_eq!(&inc, &naive, "hill climbs diverged");
        if let (Some(a), Some(b)) = (inc, naive) {
            let ca = global_cost(&mesh, &a, ppv, &pairs, faults.as_ref());
            let cb = global_cost(&mesh, &b, ppv, &pairs, faults.as_ref());
            prop_assert_eq!(ca.to_bits(), cb.to_bits(), "costs diverged");
        }
    }
}

/// A synthetic stage profile: only the fields the GA decode reads are
/// meaningful (compute times, in-flight count, recompute menu); the
/// rest stay zero.
fn random_stage(rng: &mut StdRng) -> StageProfile {
    let n_ops = rng.gen_range(1..4);
    let ops: Vec<OpProfile> = (0..n_ops)
        .map(|i| OpProfile {
            name: format!("op{i}"),
            kind: OpKind::Gemm,
            fwd: Time::from_micros(rng.gen_range(1.0..500.0)),
            bwd: Time::from_micros(rng.gen_range(1.0..900.0)),
            ckpt_bytes: Bytes::mib(rng.gen_range(0..64)),
            ema: Bytes::ZERO,
            weight_bytes: Bytes::ZERO,
            fwd_comm: Bytes::ZERO,
            bwd_comm: Bytes::ZERO,
            recomputable: rng.gen_bool(0.8),
        })
        .collect();
    let layers = rng.gen_range(1..4);
    let menu = Arc::new(RecomputeMenu::for_stage(&[(&LayerProfile { ops }, layers)]));
    StageProfile {
        layers,
        fwd_compute: Time::from_micros(rng.gen_range(10.0..2_000.0)),
        bwd_compute: Time::from_micros(rng.gen_range(10.0..4_000.0)),
        fwd_comm_bytes: Bytes::ZERO,
        bwd_comm_bytes: Bytes::ZERO,
        fwd_collectives: 0,
        bwd_collectives: 0,
        ckpt_per_mb: Bytes::mib(rng.gen_range(1..256)),
        model_p: Bytes::gib(rng.gen_range(1..8)),
        in_flight: rng.gen_range(1..7),
        fwd_flops: Flops::ZERO,
        menu,
    }
}

proptest! {
    #[test]
    fn ga_refine_incremental_matches_naive(
        nx in 3usize..9,
        ny in 2usize..9,
        tile_idx in 0usize..3,
        pp_raw in 2usize..10,
        omega in 0.0f64..1.0,
        population in 4usize..9,
        steps in 2usize..9,
        seed in 0u64..1_000_000,
    ) {
        let (tw, th) = [(1, 1), (2, 1), (1, 2)][tile_idx];
        let (tw, th) = if (nx / tw) * (ny / th) < 2 { (1, 1) } else { (tw, th) };
        let slots = (nx / tw) * (ny / th);
        let pp = 2 + pp_raw % (slots - 1).max(1);
        let mesh = Mesh2D::new(nx, ny);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6a5e_77a1);

        let stages: Vec<StageProfile> = (0..pp).map(|_| random_stage(&mut rng)).collect();
        // A base plan with some stages already recomputing (so Op1/Op2
        // interact with non-trivial saved/recompute baselines).
        let mut plan = RecomputePlan::none(pp);
        for (s, stage) in stages.iter().enumerate() {
            if rng.gen_bool(0.4) {
                let want = stage.menu.max_savings().scale(rng.gen_range(0.1..0.9));
                if let Some(t) = stage.menu.time_for_savings(want) {
                    plan.saved_per_mb[s] = want;
                    plan.recompute_time[s] = t;
                }
            }
        }
        let placement = serpentine(nx, ny, pp, tw, th).expect("pp chosen to fit");
        // Overflow/spare mixes zero and non-zero stages so the biased
        // allocation produces real (and sometimes infeasible) pairings.
        let overflow: Vec<Bytes> = (0..pp)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    Bytes::ZERO
                } else {
                    Bytes::mib(rng.gen_range(1..2048))
                }
            })
            .collect();
        let spare: Vec<Bytes> = (0..pp)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    Bytes::ZERO
                } else {
                    Bytes::mib(rng.gen_range(1..4096))
                }
            })
            .collect();
        let ppv = rng.gen_range(1e6..1e9);
        let params = GaParams {
            population,
            steps,
            omega,
            seed,
        };

        let model = PlacementCostModel::new(mesh, tw, th, ppv);
        let inc = refine_with_model(
            &mesh, &stages, &plan, &placement, &overflow, &spare, ppv,
            Bytes::gib(64), &model, &params,
        );
        let naive = refine_naive(
            &mesh, &stages, &plan, &placement, &overflow, &spare, ppv,
            Bytes::gib(64), &params,
        );

        prop_assert_eq!(
            inc.fitness.to_bits(),
            naive.fitness.to_bits(),
            "fitness diverged: {} vs {}",
            inc.fitness,
            naive.fitness
        );
        let bits = |h: &[f64]| h.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&inc.history), bits(&naive.history), "history diverged");
        prop_assert_eq!(&inc.placement, &naive.placement, "placement diverged");
        prop_assert_eq!(&inc.grants, &naive.grants, "grants diverged");
        prop_assert_eq!(&inc.recompute, &naive.recompute, "plan diverged");
    }
}
