//! End-to-end fault-injection suite over the ensemble loader: a
//! directory of N healthy profiles plus one injected fault of every
//! kind must load exactly the healthy subset, emit one typed diagnostic
//! per fault, and produce byte-identical reports for any worker-thread
//! count. Strict mode must identify the offending path and never panic.

use std::path::PathBuf;
use thicket_perfsim::faults::{inject_all, FaultKind};
use thicket_perfsim::{
    load_dir, save_ensemble, simulate_cpu_run, CpuRunConfig, DiagKind, ScratchDir, Store,
    StoreOptions, Strictness,
};

const HEALTHY: u64 = 8;

fn corrupted_dir(seed: u64) -> (ScratchDir, Vec<(FaultKind, PathBuf)>) {
    let dir = ScratchDir::new("faults-e2e");
    let profiles: Vec<_> = (0..HEALTHY)
        .map(|s| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = s;
            simulate_cpu_run(&cfg)
        })
        .collect();
    save_ensemble(&dir, &profiles).unwrap();
    let faults = inject_all(&dir, seed).unwrap();
    (dir, faults)
}

#[test]
fn mixed_health_dir_loads_healthy_subset_identically_across_threads() {
    let (dir, faults) = corrupted_dir(11);
    // 5 corrupting faults knock out 5 of the 8 originals; duplicate and
    // unreadable add 2 more unhealthy entries on top.
    let corrupted = faults
        .iter()
        .filter(|(k, _)| !matches!(k, FaultKind::DuplicateProfile | FaultKind::Unreadable))
        .count();
    let expected_profiles = HEALTHY as usize - corrupted;
    let expected_diags = faults.len();

    let mut reports = Vec::new();
    for threads in [1, 2, 8] {
        let (profiles, report) =
            load_dir(&dir, Some(threads), Strictness::Lenient).unwrap();
        assert_eq!(profiles.len(), expected_profiles, "threads={threads}");
        assert_eq!(report.dropped(), expected_diags, "threads={threads}");
        assert_eq!(report.loaded, expected_profiles);
        assert_eq!(
            report.attempted,
            HEALTHY as usize + 2,
            "originals + duplicate + unreadable"
        );
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1], "threads 1 vs 2");
    assert_eq!(reports[1], reports[2], "threads 2 vs 8");

    // Every injected fault kind surfaced as its own typed diagnostic at
    // the path it was injected at.
    let report = &reports[0];
    for (kind, path) in &faults {
        let diag = report
            .diagnostics
            .iter()
            .find(|d| d.source == path.display().to_string())
            .unwrap_or_else(|| panic!("{kind:?}: no diagnostic for {}", path.display()));
        assert!(
            kind.matches(&diag.kind),
            "{kind:?} surfaced as {:?}",
            diag.kind
        );
    }
}

#[test]
fn strict_mode_identifies_offending_path_without_panicking() {
    let (dir, faults) = corrupted_dir(3);
    for threads in [1, 2, 8] {
        let err = load_dir(&dir, None, Strictness::FailFast).map(|_| ()).unwrap_err();
        let msg = err.to_string();
        // The failing source is named; which fault wins is path order,
        // but it must be one of the injected ones.
        assert!(
            faults.iter().any(|(_, p)| msg.contains(&p.display().to_string())),
            "threads={threads}: error does not name an injected path: {msg}"
        );
    }
}

#[test]
fn fail_fast_strictness_matches_strict_loader() {
    let (dir, _) = corrupted_dir(5);
    let strict = load_dir(&dir, None, Strictness::FailFast).map(|_| ()).unwrap_err();
    let opts = load_dir(&dir, Some(2), Strictness::FailFast)
        .map(|_| ())
        .unwrap_err();
    assert_eq!(strict.to_string(), opts.to_string());
}

#[test]
fn diagnostics_are_path_ordered() {
    let (dir, _) = corrupted_dir(13);
    let (_, report) = load_dir(&dir, Some(8), Strictness::Lenient).unwrap();
    let sources: Vec<&String> = report.diagnostics.iter().map(|d| &d.source).collect();
    let mut sorted = sources.clone();
    sorted.sort();
    assert_eq!(sources, sorted);
    // And the parse diagnostics carry a usable byte offset.
    assert!(report
        .diagnostics
        .iter()
        .any(|d| matches!(d.kind, DiagKind::Parse { .. })));
}

/// A v3 store with one record per shard: plenty of distinct victims.
fn v3_store(n: u64) -> ScratchDir {
    let dir = ScratchDir::new("faults-v3");
    let profiles: Vec<_> = (0..n)
        .map(|s| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = s;
            simulate_cpu_run(&cfg)
        })
        .collect();
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &profiles, &opts).unwrap();
    dir
}

/// The v3 payload corruptors re-frame the record so every checksum
/// verifies; the damage must still classify under deep fsck, drop
/// exactly the poisoned record (typed) on a lenient load, and recover
/// into one clean generation holding the healthy remainder.
#[test]
fn v3_payload_faults_classify_end_to_end() {
    use thicket_perfsim::faults::inject;

    for kind in FaultKind::STORE_V3.iter() {
        let dir = v3_store(4);
        inject(&dir, *kind, 9).unwrap();

        // Deep fsck decodes every payload and pins the poisoned record.
        let fsck = Store::fsck(&dir).unwrap();
        assert!(!fsck.is_clean(), "{kind:?} left a clean store");
        assert!(
            fsck.findings().any(|d| kind.matches(&d.kind)),
            "{kind:?} not classified: {fsck}"
        );

        // A lenient load survives: three healthy profiles, one typed
        // diagnostic, no panic and no over-allocation.
        let (profiles, rep) = Store::open(&dir).unwrap().load_all().unwrap();
        assert_eq!(profiles.len(), 3, "{kind:?}");
        assert_eq!(rep.dropped(), 1, "{kind:?}: {rep}");
        assert!(
            rep.diagnostics.iter().any(|d| kind.matches(&d.kind)),
            "{kind:?} surfaced as {rep}"
        );

        // Recovery salvages the healthy records into a clean store.
        let rec = Store::recover(&dir).unwrap();
        assert_eq!(rec.salvaged, 3, "{kind:?}");
        assert!(
            rec.report.diagnostics.iter().any(|d| kind.matches(&d.kind)),
            "{kind:?} lost in recovery: {}",
            rec.report
        );
        assert!(Store::fsck(&dir).unwrap().is_clean(), "{kind:?}");
        let (reloaded, rep) = Store::open(&dir).unwrap().load_all().unwrap();
        assert_eq!(reloaded.len(), 3, "{kind:?}");
        assert!(rep.is_clean(), "{kind:?}: {rep}");
    }
}
