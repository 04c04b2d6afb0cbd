//! Property-based tests for 1F1B timing and GCMR invariants.

use proptest::prelude::*;
use wsc_arch::units::Time;
use wsc_pipeline::onefb::{bubble_fraction, simulate, StageTiming};

fn stages(p: usize, f_us: &[u32], b_us: &[u32]) -> Vec<StageTiming> {
    (0..p)
        .map(|s| StageTiming {
            fwd: Time::from_micros(1.0 + f_us[s % f_us.len()] as f64),
            bwd: Time::from_micros(1.0 + b_us[s % b_us.len()] as f64),
            p2p: Time::ZERO,
        })
        .collect()
}

proptest! {
    #[test]
    fn iteration_bounded_below_by_busiest_stage(
        p in 1usize..10,
        n in 1usize..24,
        f in proptest::collection::vec(1u32..500, 1..10),
        b in proptest::collection::vec(1u32..900, 1..10),
    ) {
        let st = stages(p, &f, &b);
        let t = simulate(&st, n);
        let busiest = st
            .iter()
            .map(|s| (s.fwd + s.bwd).as_secs() * n as f64)
            .fold(0.0f64, f64::max);
        prop_assert!(t.as_secs() >= busiest - 1e-12);
    }

    #[test]
    fn iteration_bounded_above_by_serial_execution(
        p in 1usize..8,
        n in 1usize..16,
        f in proptest::collection::vec(1u32..400, 1..6),
        b in proptest::collection::vec(1u32..800, 1..6),
    ) {
        // Total serialization (no overlap at all) is a hard upper bound.
        let st = stages(p, &f, &b);
        let t = simulate(&st, n);
        let serial: f64 = st.iter().map(|s| (s.fwd + s.bwd).as_secs() * n as f64).sum();
        prop_assert!(t.as_secs() <= serial + 1e-9);
    }

    #[test]
    fn homogeneous_pipelines_match_closed_form(
        p in 1usize..10,
        n in 1usize..32,
        f_us in 1u32..500,
    ) {
        // With bwd = 2 fwd (the transformer ratio), 1F1B achieves the
        // classic (n + p - 1)(f + b) exactly.
        let st = vec![
            StageTiming {
                fwd: Time::from_micros(f_us as f64),
                bwd: Time::from_micros(2.0 * f_us as f64),
                p2p: Time::ZERO,
            };
            p
        ];
        let t = simulate(&st, n);
        let bound = (st[0].fwd + st[0].bwd).scale((n + p - 1) as f64);
        let rel = (t.as_secs() - bound.as_secs()).abs() / bound.as_secs();
        prop_assert!(rel < 1e-9, "rel {rel}");
    }

    #[test]
    fn adding_work_never_speeds_up_the_pipeline(
        p in 2usize..8,
        n in 2usize..16,
        f in proptest::collection::vec(1u32..300, 1..6),
        b in proptest::collection::vec(1u32..600, 1..6),
        slow_stage in 0usize..8,
        extra_us in 1u32..500,
    ) {
        let base = stages(p, &f, &b);
        let mut slower = base.clone();
        let idx = slow_stage % p;
        slower[idx].bwd += Time::from_micros(extra_us as f64);
        let t0 = simulate(&base, n);
        let t1 = simulate(&slower, n);
        prop_assert!(t1.as_secs() >= t0.as_secs() - 1e-12);
    }

    #[test]
    fn bubble_shrinks_with_more_microbatches(
        p in 2usize..8,
        f_us in 10u32..300,
    ) {
        let st = vec![
            StageTiming {
                fwd: Time::from_micros(f_us as f64),
                bwd: Time::from_micros(2.0 * f_us as f64),
                p2p: Time::ZERO,
            };
            p
        ];
        let few = bubble_fraction(&st, 4, simulate(&st, 4));
        let many = bubble_fraction(&st, 64, simulate(&st, 64));
        prop_assert!(many <= few + 1e-12);
    }
}
