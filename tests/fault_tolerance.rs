//! Fault-tolerance end-to-end: a realistic campaign directory with a
//! mix of healthy and corrupt profiles must flow through lenient load
//! and lenient thicket construction without a panic, yielding a usable
//! thicket over exactly the healthy subset plus a complete typed
//! account of everything dropped.

use thicket::prelude::*;
use thicket_perfsim::faults::{inject, inject_all, FaultKind};
use thicket_perfsim::{load_dir, DiagKind, ScratchDir};

fn campaign_dir(n: u64) -> ScratchDir {
    let dir = ScratchDir::new("ft");
    let profiles: Vec<_> = (0..n)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    save_ensemble(&dir, &profiles).unwrap();
    dir
}

/// Disk faults → lenient load → thicket → stats, never panicking.
#[test]
fn corrupt_campaign_still_yields_a_workable_thicket() {
    let dir = campaign_dir(10);
    let faults = inject_all(&dir, 4).unwrap();
    let corrupted = faults
        .iter()
        .filter(|(k, _)| !matches!(k, FaultKind::DuplicateProfile | FaultKind::Unreadable))
        .count();

    let (profiles, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
    assert_eq!(profiles.len(), 10 - corrupted);
    assert_eq!(report.dropped(), faults.len());
    // The report renders a human-readable account.
    let rendered = report.to_string();
    assert!(rendered.contains(&format!("{} dropped", faults.len())), "{rendered}");

    // The healthy subset composes and aggregates normally.
    let (mut tk, build_report) = Thicket::loader(&profiles).strictness(Strictness::Lenient).load().unwrap();
    assert!(build_report.is_clean());
    assert_eq!(tk.profiles().len(), profiles.len());
    tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Mean])])
        .unwrap();
    assert!(tk.statsframe().has_column(&ColKey::new("time (exc)_mean")));
}

/// The lenient pipeline is deterministic: same faults, same report,
/// for every worker-thread count.
#[test]
fn lenient_pipeline_is_thread_count_invariant() {
    let dir = campaign_dir(9);
    inject_all(&dir, 2).unwrap();
    let baseline = load_dir(&dir, Some(1), Strictness::Lenient).unwrap();
    for threads in [2, 8] {
        let got =
            load_dir(&dir, Some(threads), Strictness::Lenient).unwrap();
        assert_eq!(baseline.1, got.1, "report differs at threads={threads}");
        assert_eq!(
            baseline.0.len(),
            got.0.len(),
            "profile count differs at threads={threads}"
        );
    }
}

/// Strict mode surfaces the first fault as a typed error naming the
/// offending file — the acceptance contract for fail-fast campaigns.
#[test]
fn strict_mode_error_names_the_corrupt_file() {
    let dir = campaign_dir(6);
    let victim = inject(&dir, FaultKind::Truncate, 1).unwrap();
    let err = load_dir(&dir, None, Strictness::FailFast).map(|_| ()).unwrap_err();
    assert!(
        err.to_string().contains(&victim.display().to_string()),
        "error {err} does not name {}",
        victim.display()
    );
}

/// Every individual ensemble-level fault kind drives the full pipeline
/// to a typed diagnostic — the per-kind acceptance matrix at the facade
/// level. (Store-level kinds have their own matrix in
/// `store_recovery.rs`; they target shard files, not JSON ensembles.)
#[test]
fn every_fault_kind_maps_to_its_diagnostic() {
    for kind in FaultKind::ENSEMBLE.iter() {
        let dir = campaign_dir(6);
        inject(&dir, *kind, 9).unwrap();
        let (profiles, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
        assert_eq!(report.dropped(), 1, "{kind:?}");
        assert!(
            kind.matches(&report.diagnostics[0].kind),
            "{kind:?} surfaced as {:?}",
            report.diagnostics[0].kind
        );
        assert!(!profiles.is_empty());
        // The lenient thicket build accepts whatever survived.
        let (tk, r) = Thicket::loader(&profiles).strictness(Strictness::Lenient).load().unwrap();
        assert!(r.is_clean());
        assert_eq!(tk.profiles().len(), profiles.len());
    }
}

/// A duplicated file on disk surfaces the duplicate-id diagnostic with
/// a pointer back to the first occurrence.
#[test]
fn duplicate_diagnostic_points_at_first_occurrence() {
    let dir = campaign_dir(6);
    inject(&dir, FaultKind::DuplicateProfile, 0).unwrap();
    let (_, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
    match &report.diagnostics[0].kind {
        DiagKind::DuplicateProfile { first } => {
            assert!(first.ends_with(".json"), "first occurrence is a path: {first}")
        }
        other => panic!("expected duplicate diagnostic, got {other:?}"),
    }
}

/// A profile file whose metadata repeats a key is malformed: a lenient
/// ensemble load drops it with a diagnostic and composes the rest; a
/// strict load fails with a typed error naming the key.
#[test]
fn repeated_metadata_key_drops_one_profile() {
    let dir = campaign_dir(3);
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = 99;
    let text = simulate_cpu_run(&cfg).to_string_pretty().replacen(
        "\"metadata\":{",
        "\"metadata\":{\"user\":\"x\",",
        1,
    );
    let victim = dir.as_ref().join("repeated-key.json");
    std::fs::write(&victim, text).unwrap();

    let (tk, report) = Thicket::loader(LoadSource::ensemble(&dir))
        .strictness(Strictness::Lenient)
        .load()
        .unwrap();
    assert_eq!(tk.profiles().len(), 3);
    assert_eq!(report.dropped(), 1);
    assert_eq!(report.diagnostics[0].source, victim.display().to_string());
    assert!(
        matches!(report.diagnostics[0].kind, DiagKind::Schema(_)),
        "{:?}",
        report.diagnostics[0].kind
    );

    let err = Thicket::loader(LoadSource::ensemble(&dir))
        .load()
        .unwrap_err();
    match &err {
        thicket::core::ThicketError::Profile(e) => assert!(
            matches!(e.root_cause(), thicket_perfsim::ProfileError::Malformed(m) if m.contains("\"user\"")),
            "{err}"
        ),
        other => panic!("expected a typed profile error, got {other}"),
    }
}
