//! Crash-safety acceptance for the sharded ensemble store: the writer
//! crash-point matrix (a recovered store always serves exactly one
//! generation, never a mix), the store-level fault matrix
//! (inject → fsck classifies → recover → clean reload), metadata
//! pushdown (strictly fewer bytes, same thicket), and thread-count
//! invariance of the diagnostics.

use thicket::prelude::*;
use thicket_perfsim::faults::{inject, FaultKind};
use thicket_perfsim::{ScratchDir, StoreError};

fn runs(seeds: std::ops::Range<u64>) -> Vec<Profile> {
    seeds
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect()
}

fn hash_set(ps: &[Profile]) -> std::collections::BTreeSet<i64> {
    ps.iter().map(|p| p.profile_hash()).collect()
}

/// Small shards so every write exercises multiple shard files (and
/// therefore multiple crash points and CRC scopes).
fn opts() -> StoreOptions {
    StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    }
}

/// At a mid-write crash point the torn file holds exactly the first half
/// of the bytes a clean run leaves under its final name in `clean`: the
/// newest shard file, or the manifest's dot-temp file.
fn assert_torn(dir: &std::path::Path, clean: &std::path::Path, err: &StoreError, point: usize) {
    let StoreError::InjectedCrash { label, .. } = err else {
        panic!("point {point}: {err}");
    };
    let names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    let (torn, fin) = match *label {
        "mid-shard-write" => {
            let shard = names
                .iter()
                .filter(|n| n.starts_with("shard-"))
                .max()
                .unwrap();
            (shard.clone(), shard.clone())
        }
        "mid-manifest-write" => {
            let tmp = names.iter().find(|n| n.ends_with(".tmp")).unwrap();
            (tmp.clone(), tmp[1..tmp.len() - 4].to_string())
        }
        _ => return,
    };
    let full = std::fs::metadata(clean.join(&fin)).unwrap().len();
    let got = std::fs::metadata(dir.join(&torn)).unwrap().len();
    assert_eq!(got, full / 2, "point {point} ({label}): {torn}");
}

/// Abort the writer at every enumerable crash point; after recovery the
/// store must serve exactly the old batch or exactly the new batch —
/// never a mix, never a loss.
#[test]
fn crash_point_matrix_recovers_to_exactly_one_generation() {
    let old_batch = runs(0..3);
    let new_batch = runs(10..13);
    let old_hashes = hash_set(&old_batch);
    let new_hashes = hash_set(&new_batch);

    // Probe a clean two-generation write to count the crash points of
    // the second save.
    let probe = ScratchDir::new("storerec-probe");
    Store::save_opts(&probe, &old_batch, &opts()).unwrap();
    let clean = Store::save_opts(&probe, &new_batch, &opts()).unwrap();
    assert!(clean.crash_points >= 7, "points: {}", clean.crash_points);

    for point in 0..clean.crash_points {
        let dir = ScratchDir::new("storerec-matrix");
        Store::save_opts(&dir, &old_batch, &opts()).unwrap();
        let crash_opts = StoreOptions {
            crash_after: Some(point),
            ..opts()
        };
        let err = Store::save_opts(&dir, &new_batch, &crash_opts).unwrap_err();
        assert!(
            matches!(err, StoreError::InjectedCrash { .. }),
            "point {point}: {err}"
        );
        assert_torn(&dir, &probe, &err, point);

        let rec = Store::recover(&dir).unwrap();
        let reader = Store::open(&dir).unwrap();
        let (profiles, report) = reader.load_all().unwrap();
        assert!(report.is_clean(), "point {point}: {report}");
        let got = hash_set(&profiles);
        assert!(
            got == old_hashes || got == new_hashes,
            "point {point}: recovered generation {} is a mix: {got:?}",
            rec.generation
        );
        // Recovery converges: a second pass finds nothing to fix.
        assert!(Store::fsck(&dir).unwrap().is_clean(), "point {point}");
    }
}

/// Every store-level fault kind: inject → fsck classifies the damage
/// with its pinned diagnostic → recover → the store reloads clean.
#[test]
fn store_fault_matrix_classify_recover_reload() {
    for kind in FaultKind::STORE.iter() {
        let dir = ScratchDir::new("storerec-fault");
        let profiles = runs(0..4);
        Store::save_opts(&dir, &profiles, &opts()).unwrap();

        inject(&dir, *kind, 9).unwrap();
        let fsck = Store::fsck(&dir).unwrap();
        assert!(!fsck.is_clean(), "{kind:?} left the store clean");
        assert!(
            fsck.findings().any(|d| kind.matches(&d.kind)),
            "{kind:?} not classified: {fsck}"
        );

        let rec = Store::recover(&dir).unwrap();
        assert!(Store::fsck(&dir).unwrap().is_clean(), "{kind:?}: {rec:?}");
        let (reloaded, report) = Store::open(&dir).unwrap().load_all().unwrap();
        assert!(report.is_clean(), "{kind:?}: {report}");
        // A stale manifest loses no records (the shards are intact);
        // shard damage loses at most the record it hit.
        let lost = profiles.len() - reloaded.len();
        assert!(lost <= 1, "{kind:?} lost {lost} records");
        if *kind == FaultKind::StaleManifest {
            assert_eq!(hash_set(&reloaded), hash_set(&profiles), "{kind:?}");
        }
    }
}

/// Metadata pushdown parses strictly fewer bytes than a full load and
/// the filtered thicket equals filtering the same profiles after a
/// full load.
#[test]
fn pushdown_reads_fewer_bytes_and_matches_filter_after_load() {
    let dir = ScratchDir::new("storerec-pushdown");
    let profiles = runs(0..8);
    Store::save_opts(&dir, &profiles, &opts()).unwrap();

    let full = Store::open(&dir).unwrap();
    let (all, _) = full.load_all().unwrap();
    let full_bytes = full.bytes_read();
    assert_eq!(all.len(), 8);

    let filtered = Store::open(&dir).unwrap();
    let (subset, report) = filtered
        .load_matching(&PredExpr::lt("seed", 3i64))
        .unwrap();
    assert!(report.is_clean());
    assert_eq!(subset.len(), 3);
    assert!(
        filtered.bytes_read() < full_bytes,
        "pushdown read {} bytes, full load {}",
        filtered.bytes_read(),
        full_bytes
    );

    // The pushdown thicket equals the filter-after-full-load thicket.
    let (tk_push, rep_push) = thicket::core::Thicket::loader(LoadSource::store(&dir))
    .filter(PredExpr::lt("seed", 3i64))
    .strictness(Strictness::Lenient)
    .load()
    .unwrap();
    assert!(rep_push.is_clean(), "{rep_push}");
    let post: Vec<Profile> = all
        .into_iter()
        .filter(|p| {
            matches!(p.metadata("seed"), Some(Value::Int(s)) if *s < 3)
        })
        .collect();
    let tk_post = Thicket::loader(&post).load().unwrap().0;
    assert_eq!(tk_push.profiles(), tk_post.profiles());
    assert_eq!(tk_push.perf_data(), tk_post.perf_data());
    assert_eq!(tk_push.metadata(), tk_post.metadata());
}

/// The manifest registry changes no load: the first filtered load of a
/// store in this process (a cold open that parses the manifest) and the
/// next one (a warm open sharing that parse) compose identical thickets
/// with equal reports.
#[test]
fn cold_and_warm_store_loads_compose_identical_thickets() {
    let dir = ScratchDir::new("storerec-registry");
    Store::save_opts(&dir, &runs(0..8), &opts()).unwrap();
    // An old mtime: the registry trusts the file's stat from the start.
    std::fs::File::options()
        .write(true)
        .open(dir.join("MANIFEST-000001"))
        .unwrap()
        .set_modified(std::time::SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(1 << 30))
        .unwrap();
    let load = || {
        Thicket::loader(LoadSource::store(&dir))
            .filter(PredExpr::ge("seed", 2i64))
            .load()
            .unwrap()
    };
    let (cold, cold_report) = load();
    let probe = Store::open(&dir).unwrap();
    assert_eq!(
        probe.bytes_read(),
        13,
        "the next open reads only the manifest header"
    );
    let (warm, warm_report) = load();
    assert!(cold_report.is_clean(), "{cold_report}");
    assert_eq!(warm_report, cold_report);
    assert_eq!(warm.profiles(), cold.profiles());
    assert_eq!(warm.perf_data(), cold.perf_data());
    assert_eq!(warm.metadata(), cold.metadata());
    assert_eq!(warm.profiles().len(), 6);
}

/// A lenient store load on a clean store composes every stored
/// profile; its report chains the store read and the build.
#[test]
fn from_store_composes_full_ensemble() {
    let dir = ScratchDir::new("storerec-fromstore");
    let profiles = runs(0..5);
    Store::save_opts(&dir, &profiles, &opts()).unwrap();
    let (tk, report) = thicket::core::Thicket::loader(LoadSource::store(&dir))
        .strictness(Strictness::Lenient)
        .load()
        .unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.attempted, 5);
    assert_eq!(tk.profiles().len(), 5);
    assert_eq!(report.summary(), "ingest: 5/5 loaded, 0 dropped");
}

/// Store-load diagnostics are byte-identical for any worker-thread
/// count, even when records are corrupt.
#[test]
fn corrupt_store_reports_identical_across_thread_counts() {
    let dir = ScratchDir::new("storerec-threads");
    let profiles = runs(0..6);
    Store::save_opts(&dir, &profiles, &opts()).unwrap();
    inject(&dir, FaultKind::BitRot, 5).unwrap();

    let load = |threads| {
        let reader = Store::open(&dir).unwrap();
        let all = reader.select_expr(&PredExpr::True).unwrap();
        reader.load_indices(&all, threads).unwrap()
    };
    let (base_profiles, baseline) = load(1);
    assert_eq!(baseline.dropped(), 1, "{baseline}");
    for threads in [2, 8] {
        let (got_profiles, got) = load(threads);
        assert_eq!(baseline, got, "report differs at threads={threads}");
        assert_eq!(
            hash_set(&base_profiles),
            hash_set(&got_profiles),
            "profiles differ at threads={threads}"
        );
    }
}

/// Abort `Store::append` at every enumerable crash point; recovery
/// must serve exactly the base batch or exactly the committed
/// base-plus-appended set — never a mix, never a loss of committed
/// profiles.
#[test]
fn append_crash_point_matrix_recovers_to_exactly_one_generation() {
    let base_batch = runs(0..3);
    let new_batch = runs(20..23);
    let base_hashes = hash_set(&base_batch);
    let union_hashes: std::collections::BTreeSet<i64> =
        base_hashes.iter().copied().chain(hash_set(&new_batch)).collect();

    // Probe a clean append to enumerate its crash points.
    let probe = ScratchDir::new("storerec-append-probe");
    Store::save_opts(&probe, &base_batch, &opts()).unwrap();
    let clean = Store::append_opts(&probe, &new_batch, &opts()).unwrap();
    assert_eq!(clean.appended, 3);
    assert!(clean.crash_points >= 7, "points: {}", clean.crash_points);

    for point in 0..clean.crash_points {
        let dir = ScratchDir::new("storerec-append-matrix");
        Store::save_opts(&dir, &base_batch, &opts()).unwrap();
        let crash_opts = StoreOptions {
            crash_after: Some(point),
            ..opts()
        };
        let err = Store::append_opts(&dir, &new_batch, &crash_opts).unwrap_err();
        assert!(
            matches!(err, thicket_perfsim::StoreError::InjectedCrash { .. }),
            "point {point}: {err}"
        );
        assert_torn(&dir, &probe, &err, point);

        let rec = Store::recover(&dir).unwrap();
        let reader = Store::open(&dir).unwrap();
        let (profiles, report) = reader.load_all().unwrap();
        assert!(report.is_clean(), "point {point}: {report}");
        let got = hash_set(&profiles);
        assert!(
            got == base_hashes || got == union_hashes,
            "point {point}: recovered generation {} is a mix: {got:?}",
            rec.generation
        );
        assert!(Store::fsck(&dir).unwrap().is_clean(), "point {point}");
    }
}

/// Abort `Store::compact` at every enumerable crash point; the profile
/// set is invariant under compaction, so recovery must always serve
/// exactly the pre-compaction profiles, fsck-clean.
#[test]
fn compact_crash_point_matrix_never_loses_a_profile() {
    let profiles = runs(0..5);
    let hashes = hash_set(&profiles);

    let probe = ScratchDir::new("storerec-compact-probe");
    Store::save_opts(&probe, &profiles, &opts()).unwrap();
    // Repack the 1-byte-budget shards (one per profile) into one full
    // shard per generation.
    let clean = Store::compact_opts(&probe, &StoreOptions::default()).unwrap();
    assert_eq!(clean.profiles, 5);
    assert!(clean.shards < 5, "compaction did not repack: {}", clean.shards);
    assert!(clean.crash_points >= 5, "points: {}", clean.crash_points);

    for point in 0..clean.crash_points {
        let dir = ScratchDir::new("storerec-compact-matrix");
        Store::save_opts(&dir, &profiles, &opts()).unwrap();
        let crash_opts = StoreOptions {
            crash_after: Some(point),
            ..StoreOptions::default()
        };
        let err = Store::compact_opts(&dir, &crash_opts).unwrap_err();
        assert!(
            matches!(err, thicket_perfsim::StoreError::InjectedCrash { .. }),
            "point {point}: {err}"
        );
        assert_torn(&dir, &probe, &err, point);

        Store::recover(&dir).unwrap();
        let reader = Store::open(&dir).unwrap();
        let (reloaded, report) = reader.load_all().unwrap();
        assert!(report.is_clean(), "point {point}: {report}");
        assert_eq!(
            hash_set(&reloaded),
            hashes,
            "point {point}: compaction crash lost or mixed profiles"
        );
        assert!(Store::fsck(&dir).unwrap().is_clean(), "point {point}");
    }
}

/// Stores an older build wrote (the checked-in `v1` and `v2` fixtures:
/// v1 row manifests, v2 columnar manifests, both with JSON payloads)
/// are refused by the loader and by `trace_to_store` with the typed
/// `NeedsMigration`; after one `Store::compact` the unified loader
/// builds exactly the thicket the `v3` fixture builds, pushdown
/// included.
#[test]
fn legacy_fixtures_compact_to_the_v3_thicket() {
    use std::path::Path;
    use thicket::core::{trace_to_store, ThicketError};
    use thicket_perfsim::{emit_trace_to_path, TraceConfig};

    let fixtures =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/perfsim/tests/fixtures/legacy");
    let load = |dir: &Path| {
        thicket::core::Thicket::loader(LoadSource::store(dir))
            .filter(PredExpr::lt("seed", 2i64))
            .strictness(Strictness::Lenient)
            .load()
    };
    let oracle = ScratchDir::copy_of("storerec-migrate", &fixtures.join("v3"));
    let (tk_v3, report) = load(&oracle).unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(tk_v3.profiles().len(), 2);
    let trace_dir = ScratchDir::new("storerec-migrate-trace");
    let trace = trace_dir.join("run.trace");
    emit_trace_to_path(&TraceConfig::quartz(2, 1, 0), &trace).unwrap();

    for old in ["v1", "v2"] {
        let dir = ScratchDir::copy_of("storerec-migrate", &fixtures.join(old));
        for err in [
            load(&dir).err(),
            trace_to_store(&trace, &dir, None, Strictness::FailFast).err(),
        ] {
            assert!(
                matches!(
                    err,
                    Some(ThicketError::Store(StoreError::NeedsMigration {
                        generation: 1,
                        ..
                    }))
                ),
                "{old}: {err:?}"
            );
        }
        let migrated = Store::compact(&dir).unwrap();
        assert_eq!(migrated.profiles, 4, "{old}");
        let (tk, report) = load(&dir).unwrap();
        assert!(report.is_clean(), "{report}");
        assert_eq!(tk.profiles(), tk_v3.profiles());
        assert_eq!(tk.perf_data(), tk_v3.perf_data());
        assert_eq!(tk.metadata(), tk_v3.metadata());
    }
}
