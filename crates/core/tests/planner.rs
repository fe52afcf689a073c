//! Loader planner tests: a [`PredExpr`] filter splits into metadata
//! conjuncts pushed below the source read and perf-frame conjuncts
//! applied after composition with exists-row semantics, with the split
//! recorded in [`IngestReport::pushdown`].

use thicket_core::{LoadSource, PredExpr, Thicket};
use thicket_dataframe::ColKey;
use thicket_perfsim::{simulate_cpu_run, Compiler, CpuRunConfig, Profile, ScratchDir, Store};

/// Six profiles: 2 compilers × 3 seeds, one problem size.
fn sample_profiles() -> Vec<Profile> {
    let mut profiles = Vec::new();
    for (ci, compiler) in [Compiler::clang9(), Compiler::xl16()].iter().enumerate() {
        for seed in 0..3u64 {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.compiler = compiler.clone();
            cfg.seed = ci as u64 * 3 + seed;
            profiles.push(simulate_cpu_run(&cfg));
        }
    }
    profiles
}

fn temp_store(profiles: &[Profile]) -> ScratchDir {
    let dir = ScratchDir::new("planner");
    Store::save(&dir, profiles).unwrap();
    dir
}

#[test]
fn metadata_only_expr_fully_pushes_on_store() {
    let profiles = sample_profiles();
    let dir = temp_store(&profiles);

    let expr = PredExpr::eq("compiler", "clang-9.0.0");
    let (by_store, report) = Thicket::loader(LoadSource::store(&dir))
        .filter(expr.clone())
        .load()
        .unwrap();
    let (in_memory, memory_report) = Thicket::loader(&profiles).filter(expr).load().unwrap();

    assert_eq!(by_store.metadata(), in_memory.metadata());
    assert_eq!(by_store.perf_data(), in_memory.perf_data());
    assert_eq!(by_store.profiles().len(), 3);

    let plan = report.pushdown.expect("expr loads record a plan");
    assert!(plan.fully_pushed(), "no residual expected: {plan}");
    assert_eq!(plan.pushed.len(), 1);
    assert!(plan.pushed[0].contains("compiler"));
    assert_eq!(memory_report.pushdown, Some(plan));
}

#[test]
fn mixed_expr_splits_into_pushed_and_residual() {
    let profiles = sample_profiles();
    let dir = temp_store(&profiles);

    // "time (exc)" lives in the perf frame, not the store metadata:
    // the planner must keep it above the read. Every profile has some
    // positive exclusive time, so the residual keeps all survivors of
    // the pushed conjunct.
    let expr = PredExpr::and([
        PredExpr::eq("compiler", "clang-9.0.0"),
        PredExpr::gt("time (exc)", 0.0),
    ]);
    let (tk, report) = Thicket::loader(LoadSource::store(&dir))
        .filter(expr)
        .load()
        .unwrap();

    assert_eq!(tk.profiles().len(), 3);
    let plan = report.pushdown.expect("plan recorded");
    assert_eq!(plan.pushed.len(), 1, "{plan}");
    assert_eq!(plan.residual.len(), 1, "{plan}");
    assert!(plan.pushed[0].contains("compiler"));
    assert!(plan.residual[0].contains("time (exc)"));

    // An unsatisfiable frame conjunct empties the thicket through the
    // same plan shape.
    let none = Thicket::loader(LoadSource::store(&dir))
        .filter(PredExpr::and([
            PredExpr::eq("compiler", "clang-9.0.0"),
            PredExpr::gt("time (exc)", f64::MAX),
        ]))
        .load()
        .unwrap()
        .0;
    assert_eq!(none.profiles().len(), 0);
    assert_eq!(none.perf_data().len(), 0);
}

#[test]
fn residual_uses_exists_row_semantics() {
    let profiles = sample_profiles();
    let (full, _) = Thicket::loader(&profiles).load().unwrap();

    // Pick a threshold between the per-profile maxima of a metric so
    // the filter is selective but not empty.
    let metric = ColKey::new("time (exc)");
    let mut maxima: Vec<f64> = full
        .profiles()
        .iter()
        .map(|p| {
            let sub = full.filter_profiles(std::slice::from_ref(p));
            sub.perf_data()
                .column(&metric)
                .unwrap()
                .numeric_values()
                .into_iter()
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    maxima.sort_by(f64::total_cmp);
    let threshold = maxima[maxima.len() / 2];
    let expect: usize = maxima.iter().filter(|m| **m > threshold).count();
    assert!(expect > 0 && expect < maxima.len());

    let (tk, report) = Thicket::loader(&profiles)
        .filter(PredExpr::gt("time (exc)", threshold))
        .load()
        .unwrap();
    assert_eq!(tk.profiles().len(), expect);
    let plan = report.pushdown.unwrap();
    assert!(plan.pushed.is_empty());
    assert_eq!(plan.residual.len(), 1);
}

#[test]
fn dialect_predicate_flows_to_the_loader() {
    let profiles = sample_profiles();
    let dir = temp_store(&profiles);

    let expr = thicket_query::parse_pred(r#"compiler startswith "clang""#).unwrap();
    let (tk, report) = Thicket::loader(LoadSource::store(&dir))
        .filter(expr)
        .load()
        .unwrap();
    assert_eq!(tk.profiles().len(), 3);
    assert!(report.pushdown.is_some());
}

/// The owned-profiles source (the wire-client plumbing:
/// `Thicket::loader(client.load_matching(..))` with no binding to
/// borrow from) composes bit-identically to the borrowed source, with
/// the same planner split.
#[test]
fn owned_source_matches_borrowed_source() {
    let profiles = sample_profiles();
    let expr = PredExpr::eq("compiler", "clang-9.0.0");
    let (borrowed, rb) = Thicket::loader(&profiles)
        .filter(expr.clone())
        .load()
        .unwrap();
    let (owned, ro) = Thicket::loader(profiles.clone())
        .filter(expr)
        .load()
        .unwrap();
    assert_eq!(owned.perf_data().to_string(), borrowed.perf_data().to_string());
    assert_eq!(owned.metadata().to_string(), borrowed.metadata().to_string());
    assert_eq!(format!("{:?}", ro.pushdown), format!("{:?}", rb.pushdown));
    // Owned profiles also convert through plain `From`.
    let via_from: LoadSource<'static> = profiles.into();
    let (tk, _) = Thicket::loader(via_from).load().unwrap();
    assert_eq!(tk.profiles().len(), 6);
}

/// The predicate engine on a store and on a composed perf frame: the
/// columnar manifest selection counts what a walk over the saved
/// profiles' own metadata counts, the pushed read takes fewer shard
/// bytes than a full one, and
/// a closure row walk, the row-wise evaluator and the vectorized one
/// select the same perf rows.
#[test]
fn selection_paths_agree_on_a_store_and_a_composed_frame() {
    let profiles = sample_profiles();
    let dir = temp_store(&profiles);

    let seed_lt = PredExpr::lt("seed", 2i64);
    let reader = Store::open(&dir).unwrap();
    let walked = profiles
        .iter()
        .filter(|p| seed_lt.eval_lookup(&mut |k| p.metadata(k).cloned()))
        .count();
    assert_eq!(walked, 2);
    assert_eq!(reader.select_expr(&seed_lt).unwrap().len(), walked);

    // Shard bytes only: the manifest was counted once, at open.
    let opened = reader.bytes_read();
    let (subset, report) = reader.load_matching(&seed_lt).unwrap();
    assert!(report.is_clean());
    assert_eq!(subset.len(), 2);
    let pushed = reader.bytes_read() - opened;
    reader.load_all().unwrap();
    let full = reader.bytes_read() - opened - pushed;
    assert!(
        pushed < full,
        "pushed read {pushed} shard bytes, full read {full}"
    );

    let (tk, _) = Thicket::loader(LoadSource::store(&dir)).load().unwrap();
    let perf = tk.perf_data();
    let mut times = perf
        .column(&ColKey::new("time (exc)"))
        .unwrap()
        .numeric_values();
    times.sort_by(f64::total_cmp);
    let threshold = times[times.len() / 2];
    let expr = PredExpr::gt("time (exc)", threshold);
    let walked = (0..perf.len())
        .filter(|&i| perf.row(i).f64("time (exc)").is_some_and(|v| v > threshold))
        .count();
    assert!(walked > 0 && walked < perf.len());
    let src = perf.bind_source(&expr);
    assert_eq!(expr.eval_rowwise(&src).count_ones(), walked);
    assert_eq!(expr.eval(&src).count_ones(), walked);
}
