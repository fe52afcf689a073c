//! Property-based tests for thicket ingest: the parallel assembly path
//! must be bit-identical to the serial one for any thread count, and
//! pooling separately loaded groups must build the whole-ensemble
//! thicket.

use proptest::prelude::*;
use thicket_core::{concat_thickets_rows, Thicket};
use thicket_dataframe::Value;
use thicket_graph::Graph;
use thicket_perfsim::{
    simulate_cpu_run, simulate_gpu_run, CpuRunConfig, GpuRunConfig, Profile, Variant,
};

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

    /// Pooling an ensemble split into k contiguous groups, each loaded
    /// on its own, builds the thicket one `Loader` build over every
    /// profile builds: the same graph, perf data and metadata. Ensembles
    /// are CPU runs (sequential and OpenMP trees), GPU runs, or the two
    /// interleaved.
    #[test]
    fn pooled_groups_match_one_build(
        seeds in proptest::collection::hash_set(0u64..64, 1..7),
        kind in 0usize..3,
        cuts in proptest::collection::vec(any::<bool>(), 6),
    ) {
        let mut seeds: Vec<u64> = seeds.into_iter().collect();
        seeds.sort_unstable();
        let profiles = ensemble_of(kind, &seeds);
        let whole = Thicket::loader(&profiles).load().unwrap().0;

        let mut groups: Vec<&[Profile]> = Vec::new();
        let mut start = 0;
        for end in 1..=profiles.len() {
            if end == profiles.len() || cuts[end - 1] {
                groups.push(&profiles[start..end]);
                start = end;
            }
        }
        let parts: Vec<Thicket> = groups
            .iter()
            .map(|g| Thicket::loader(*g).load().unwrap().0)
            .collect();
        let refs: Vec<&Thicket> = parts.iter().collect();
        let pooled = concat_thickets_rows(&refs).unwrap();

        prop_assert!(same_graph(pooled.graph(), whole.graph()), "graph differs ({} groups)", groups.len());
        prop_assert_eq!(pooled.perf_data(), whole.perf_data());
        prop_assert_eq!(pooled.metadata(), whole.metadata());
    }
}

/// One profile per seed: kind 0 is CPU (the variant follows the seed),
/// 1 is GPU, 2 alternates CPU and GPU.
fn ensemble_of(kind: usize, seeds: &[u64]) -> Vec<Profile> {
    seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            if kind == 1 || (kind == 2 && i % 2 == 1) {
                let mut cfg = GpuRunConfig::lassen_default();
                cfg.seed = seed;
                simulate_gpu_run(&cfg)
            } else {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                if seed % 3 == 0 {
                    cfg.variant = Variant::OpenMp;
                }
                simulate_cpu_run(&cfg)
            }
        })
        .collect()
}

/// Arena equality: roots, then node for node frames, parents, children.
fn same_graph(a: &Graph, b: &Graph) -> bool {
    a.len() == b.len()
        && a.roots() == b.roots()
        && a.ids().all(|id| {
            let (x, y) = (a.node(id), b.node(id));
            x.frame() == y.frame() && x.parents() == y.parents() && x.children() == y.children()
        })
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
