//! Cross-crate integration tests: full pipelines from profile collection
//! through thicket EDA, mirroring the paper's workflow (Figure 1).

use thicket::prelude::*;
use thicket_dataframe::AggFn;
use thicket_perfsim::engine::{run_stream_suite, StreamRunConfig};
use thicket_perfsim::{Compiler, ScratchDir};

/// Figure 1 end-to-end: run (simulated) → profiles on disk → load →
/// compose → filter → group → stats.
#[test]
fn full_workflow_via_disk() {
    let dir = ScratchDir::new("it-workflow");

    // Step 1–2: run the app under measurement, write profiles.
    let mut paths = Vec::new();
    for (i, size) in [1_048_576u64, 4_194_304].iter().enumerate() {
        for (j, compiler) in [Compiler::clang9(), Compiler::gcc8()].iter().enumerate() {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.problem_size = *size;
            cfg.compiler = compiler.clone();
            cfg.seed = (i * 2 + j) as u64;
            let p = simulate_cpu_run(&cfg);
            let path = dir.join(format!("run-{i}-{j}.json"));
            p.save(&path).unwrap();
            paths.push(path);
        }
    }

    // Step 3: load into a thicket.
    let profiles: Vec<Profile> = paths.iter().map(|p| Profile::load(p).unwrap()).collect();
    let mut tk = Thicket::loader(&profiles).load().unwrap().0;
    assert_eq!(tk.profiles().len(), 4);

    // Step 4: EDA.
    let clang = tk.filter_metadata(|r| r.str("compiler").as_deref() == Some("clang-9.0.0"));
    assert_eq!(clang.profiles().len(), 2);

    let groups = tk
        .groupby(&[ColKey::new("compiler"), ColKey::new("problem size")])
        .unwrap();
    assert_eq!(groups.len(), 4);

    tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Mean, AggFn::Std])])
        .unwrap();
    assert!(tk.statsframe().has_column(&ColKey::new("time (exc)_std")));
}

/// Real execution path: collector-produced profiles compose and analyze
/// exactly like simulated ones.
#[test]
fn real_measurements_compose() {
    let mut profiles = Vec::new();
    for run in 0..3 {
        let (mut p, dot) = run_stream_suite(&StreamRunConfig {
            n: 1 << 14,
            threads: 2,
            reps: 1,
        });
        assert!(dot.is_finite());
        p.set_metadata("run", run as i64);
        profiles.push(p);
    }
    let mut tk = Thicket::loader(&profiles).load().unwrap().0;
    assert_eq!(tk.profiles().len(), 3);
    // Identical call trees collapse into one graph.
    assert_eq!(tk.graph().len(), 7);
    tk.compute_stats(&[(ColKey::new("time (inc)"), vec![AggFn::Mean])])
        .unwrap();
    assert_eq!(tk.statsframe().len(), 7);
}

/// The query language composes with simulated ensembles and re-keys the
/// performance data consistently.
#[test]
fn query_preserves_metric_values() {
    let profiles: Vec<_> = (0..3)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    let tk = Thicket::loader(&profiles).load().unwrap().0;
    let q = Query::builder()
        .any("*")
        .node(".", pred::name_eq("Apps_VOL3D"))
        .build();
    let sub = tk.query(&q);

    let before = tk.find_node("Apps_VOL3D").unwrap();
    let after = sub.find_node("Apps_VOL3D").unwrap();
    for profile in tk.profiles() {
        assert_eq!(
            tk.metric_at(before, &profile, &ColKey::new("time (exc)")),
            sub.metric_at(after, &profile, &ColKey::new("time (exc)")),
        );
    }
}

/// Hierarchical composition round trip with derived metrics (Figures 4
/// and 15 combined).
#[test]
fn compose_and_derive_speedup() {
    let sizes = [1_048_576u64, 4_194_304];
    let cpu = Thicket::loader(
        sizes
            .iter()
            .map(|&s| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.problem_size = s;
                simulate_cpu_run(&cfg)
            })
            .collect::<Vec<_>>(),
    )
    .load()
    .unwrap()
    .0
    .reindex_profiles_by(&ColKey::new("problem size"))
    .unwrap();
    let gpu = Thicket::loader(
        sizes
            .iter()
            .map(|&s| {
                let mut cfg = GpuRunConfig::lassen_default();
                cfg.problem_size = s;
                simulate_gpu_run(&cfg)
            })
            .collect::<Vec<_>>(),
    )
    .load()
    .unwrap()
    .0
    .reindex_profiles_by(&ColKey::new("problem size"))
    .unwrap();

    let mut composed =
        concat_thickets(&[("CPU", &cpu), ("GPU", &gpu)], NodeMatch::Name).unwrap();
    composed
        .add_derived_column(ColKey::grouped("Derived", "speedup"), |r| {
            match (
                r.f64(ColKey::grouped("CPU", "time (exc)")),
                r.f64(ColKey::grouped("GPU", "time (gpu)")),
            ) {
                (Some(c), Some(g)) if g > 0.0 => Value::Float(c / g),
                _ => Value::Null,
            }
        })
        .unwrap();

    // Derived speedup equals the ratio of the source thickets' values.
    let vol_cpu = cpu.find_node("Apps_VOL3D").unwrap();
    let vol_gpu = gpu.find_node("Apps_VOL3D").unwrap();
    let vol = composed.find_node("Apps_VOL3D").unwrap();
    for &size in &sizes {
        let p = Value::Int(size as i64);
        let c = cpu.metric_at(vol_cpu, &p, &ColKey::new("time (exc)")).unwrap();
        let g = gpu.metric_at(vol_gpu, &p, &ColKey::new("time (gpu)")).unwrap();
        let got = composed
            .metric_at(vol, &p, &ColKey::grouped("Derived", "speedup"))
            .unwrap();
        assert!((got - c / g).abs() < 1e-12);
    }
}

/// Modeling glue over a simulated MARBL ensemble recovers the planted
/// scaling family end to end (Figure 11's pipeline).
#[test]
fn marbl_modeling_end_to_end() {
    let profiles = marbl_ensemble(&[1, 2, 4, 8, 16], 3);
    let tk = Thicket::loader(&profiles).load().unwrap().0;
    let cts = tk.filter_metadata(|r| r.str("arch").as_deref() == Some("CTS1"));
    let models = model_metric(
        &cts,
        &ColKey::new("avg#inclusive#sum#time.duration"),
        &ColKey::new("mpi.world.size"),
    )
    .unwrap();
    let solver = models.iter().find(|m| m.name == "M_solver->Mult").unwrap();
    assert!(solver.model.c1 < 0.0);
    assert!(solver.model.smape < 5.0);
}

/// Degenerate ensembles fail loudly, not silently.
#[test]
fn failure_modes() {
    // Empty ensemble.
    assert!(Thicket::loader(&[]).load().is_err());

    // Corrupt profile file.
    let dir = ScratchDir::new("it-corrupt");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{not json").unwrap();
    assert!(Profile::load(&bad).is_err());

    // Composing thickets with clashing labels.
    let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
    let tk = Thicket::loader(std::slice::from_ref(&p)).load().unwrap().0;
    assert!(concat_thickets(&[("X", &tk), ("X", &tk)], NodeMatch::Name).is_err());
}

/// NaN metric values flow through stats without poisoning other nodes.
#[test]
fn nan_metrics_contained() {
    let mut p1 = simulate_cpu_run(&CpuRunConfig::quartz_default());
    let node = p1.graph().find_by_name("Stream_DOT").unwrap();
    p1.set_metric(node, "time (exc)", f64::NAN);
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = 1;
    let p2 = simulate_cpu_run(&cfg);
    let mut tk = Thicket::loader(&[p1, p2]).load().unwrap().0;
    tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Max])]).unwrap();
    // Other nodes unaffected.
    let vol = tk.find_node("Apps_VOL3D").unwrap();
    let vol_v = tk.value_of_node(vol);
    let row = tk
        .statsframe()
        .index()
        .keys()
        .iter()
        .position(|k| k[0] == vol_v)
        .unwrap();
    let got = tk
        .statsframe()
        .column(&ColKey::new("time (exc)_max"))
        .unwrap()
        .get_f64(row)
        .unwrap();
    assert!(got.is_finite());
}
