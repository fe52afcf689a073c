//! Regression test for the EROFS degraded-pinning path: `open_pinned`
//! on a read-only store must fall back to held-handles-only pinning —
//! no lease file, no error — because a medium no one can write to is a
//! medium no GC can run against either.
//!
//! The read-only medium is provoked through the `THICKET_FAULT_EROFS`
//! injection seam (see `store/lease.rs`): tests run as root, so
//! permission bits cannot produce the real EROFS, and mounting a
//! filesystem inside a test is not an option. This file stays a
//! single-test binary on purpose — the env var is process-global, and
//! sibling tests in the same process would inherit it.

use thicket_perfsim::{simulate_cpu_run, CpuRunConfig, ScratchDir, Store};

#[test]
fn open_pinned_on_read_only_store_degrades_to_handles_only() {
    let dir = ScratchDir::new("erofs-pin");
    let profiles: Vec<_> = (0..3)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect();
    Store::save(&dir, &profiles).unwrap();

    // With every lease write failing EROFS, the pin must degrade, not
    // error: a handle-only snapshot that still serves complete reads.
    std::env::set_var("THICKET_FAULT_EROFS", "1");
    let snap = Store::open_pinned(&dir).expect("EROFS must degrade, not fail");
    assert!(!snap.leased(), "read-only medium cannot carry a lease");
    assert_eq!(snap.lease_file(), None);
    let (loaded, rep) = snap.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(loaded.len(), 3);
    // No pin file may have touched the directory.
    let pins = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("pin-"))
        .count();
    assert_eq!(pins, 0, "degraded pin left a lease file");
    drop(snap);

    // Seam off: the same store pins with a lease again — the
    // degradation is the *medium's* property, not the store's.
    std::env::remove_var("THICKET_FAULT_EROFS");
    let snap = Store::open_pinned(&dir).unwrap();
    assert!(snap.leased());
    assert!(dir.join(snap.lease_file().unwrap()).exists());
    drop(snap);
}
