//! Property-based tests for thicket ingest: the parallel assembly path
//! must be bit-identical to the serial one for any thread count.

use proptest::prelude::*;
use thicket_core::Thicket;
use thicket_dataframe::Value;
use thicket_perfsim::{simulate_cpu_run, CpuRunConfig};

fn profiles_for(seeds: &[u64]) -> Vec<thicket_perfsim::Profile> {
    seeds
        .iter()
        .map(|s| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = *s;
            simulate_cpu_run(&cfg)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The threaded loader build produces the same thicket —
    /// every frame, every cell, same row order — for threads ∈ {1, 2, 8}
    /// over random ensembles.
    #[test]
    fn parallel_ingest_matches_serial(seeds in proptest::collection::hash_set(0u64..64, 1..6)) {
        let mut seeds: Vec<u64> = seeds.into_iter().collect();
        seeds.sort_unstable();
        let profiles = profiles_for(&seeds);
        let ids: Vec<Value> = (0..profiles.len() as i64).map(Value::Int).collect();
        let serial = Thicket::loader(&profiles).profile_ids(&ids).threads(1).load().unwrap().0;
        for threads in [2usize, 8] {
            let par = Thicket::loader(&profiles).profile_ids(&ids).threads(threads).load().unwrap().0;
            prop_assert_eq!(serial.perf_data(), par.perf_data(), "perf mismatch at {} threads", threads);
            prop_assert_eq!(serial.metadata(), par.metadata(), "metadata mismatch at {} threads", threads);
            prop_assert_eq!(serial.graph().len(), par.graph().len());
        }
    }
}

use thicket_core::PredExpr;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Planned `Loader::filter` loads are thread-count invariant: the
    /// pushdown split, the vectorized selection, and the residual
    /// exists-row pass give bit-identical thickets and identical plans
    /// at threads 1, 2, and 8.
    #[test]
    fn filter_expr_thread_invariant(
        seeds in proptest::collection::hash_set(0u64..64, 2..6),
        threshold in 0.0f64..0.05,
    ) {
        let mut seeds: Vec<u64> = seeds.into_iter().collect();
        seeds.sort_unstable();
        let profiles = profiles_for(&seeds);
        let expr = PredExpr::and([
            PredExpr::eq("cluster", "quartz"),
            PredExpr::gt("time (exc)", threshold),
        ]);
        let (serial, serial_report) = Thicket::loader(&profiles)
            .threads(1)
            .filter(expr.clone())
            .load()
            .unwrap();
        for threads in [2usize, 8] {
            let (par, report) = Thicket::loader(&profiles)
                .threads(threads)
                .filter(expr.clone())
                .load()
                .unwrap();
            prop_assert_eq!(serial.perf_data(), par.perf_data(), "perf mismatch at {} threads", threads);
            prop_assert_eq!(serial.metadata(), par.metadata(), "metadata mismatch at {} threads", threads);
            prop_assert_eq!(&serial_report.pushdown, &report.pushdown);
        }
    }
}
