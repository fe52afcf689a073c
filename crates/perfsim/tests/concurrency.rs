//! Live-contention suite: N readers × an appender × a compactor, one
//! process or several, against one store directory.
//!
//! The invariants under test are the concurrency model's load-bearing
//! promises (see `store/mod.rs`):
//!
//! * every reader always observes **exactly one complete generation**
//!   — a contiguous prefix of the appended profiles, never a mix of
//!   two commits, never a torn record;
//! * GC never collects a generation a live snapshot has pinned, even
//!   at `keep_generations: 0`;
//! * a writer killed with SIGKILL mid-commit leaves a store that
//!   `recover` returns to exactly one complete generation;
//! * the seeded chaos schedule (appends, compactions, injected writer
//!   crashes) linearizes: after every op the store serves either the
//!   pre-op or the post-op contents, nothing in between.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use thicket_perfsim::{
    contend, encode_profile, simulate_cpu_run, ChaosOp, ChaosSchedule, ContendTask, CpuRunConfig,
    Profile, ScratchDir, Store, StoreError, StoreOptions,
};

fn run(seed: u64) -> Profile {
    let mut cfg = CpuRunConfig::quartz_default();
    cfg.seed = seed;
    simulate_cpu_run(&cfg)
}

/// Seeds observed in a loaded ensemble, sorted.
fn seeds(profiles: &[Profile]) -> Vec<i64> {
    let mut out: Vec<i64> = profiles
        .iter()
        .map(|p| match p.metadata("seed") {
            Some(v) => v.as_i64().expect("seed is an int"),
            None => panic!("profile without a seed"),
        })
        .collect();
    out.sort_unstable();
    out
}

/// Assert `profiles` are exactly the runs with seeds `0..n` for some
/// `n >= floor` — one complete generation, never a mix of two commits.
fn assert_contiguous_prefix(profiles: &[Profile], floor: usize) -> usize {
    let s = seeds(profiles);
    let expect: Vec<i64> = (0..s.len() as i64).collect();
    assert_eq!(s, expect, "observed seed set is not a contiguous prefix");
    assert!(
        s.len() >= floor,
        "observed {} profiles, store never shrinks below {floor}",
        s.len()
    );
    s.len()
}

/// The acceptance matrix: 8 reader threads loop pinned loads while an
/// appender commits 30 generations and a compactor ~25 more, all at
/// `keep_generations: 0` — the most hostile GC setting. Zero torn
/// reads, zero `NoGeneration` errors, and the final store holds every
/// appended profile.
#[test]
fn readers_never_tear_under_append_and_compact() {
    const READERS: usize = 8;
    const SEED_PROFILES: u64 = 4;
    const APPENDS: u64 = 30;
    const COMPACTS: usize = 25;

    let dir = ScratchDir::new("concurrency-matrix");
    let opts = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    let initial: Vec<Profile> = (0..SEED_PROFILES).map(run).collect();
    Store::save_opts(&dir, &initial, &opts).unwrap();

    let commits = AtomicUsize::new(1);
    let dir_ref = &dir;
    let opts_ref = &opts;
    let commits_ref = &commits;

    let appender: ContendTask<'_, usize> = Box::new(move |_: &AtomicBool| {
        for i in 0..APPENDS {
            let p = run(SEED_PROFILES + i);
            let rep = Store::append_opts(dir_ref, &[p], opts_ref).expect("append");
            assert_eq!(rep.appended, 1);
            commits_ref.fetch_add(1, Ordering::Relaxed);
        }
        APPENDS as usize
    });
    let compactor: ContendTask<'_, usize> = Box::new(move |_: &AtomicBool| {
        let mut done = 0;
        while done < COMPACTS {
            Store::compact_opts(dir_ref, opts_ref).expect("compact");
            commits_ref.fetch_add(1, Ordering::Relaxed);
            done += 1;
        }
        done
    });
    let readers: Vec<ContendTask<'_, usize>> = (0..READERS)
        .map(|_| {
            Box::new(move |stop: &AtomicBool| {
                let mut iterations = 0usize;
                let mut watermark = SEED_PROFILES as usize;
                while !stop.load(Ordering::Relaxed) {
                    // open_pinned retries the open/GC race internally;
                    // any error escaping here is a failed invariant.
                    let snap = Store::open_pinned(dir_ref).expect("open_pinned");
                    let (profiles, rep) = snap.load_all().expect("pinned load");
                    assert!(rep.is_clean(), "torn read: {rep}");
                    // Monotone within one reader: commits are ordered.
                    watermark = assert_contiguous_prefix(&profiles, watermark);
                    iterations += 1;
                }
                iterations
            }) as ContendTask<'_, usize>
        })
        .collect();

    let mut drivers = vec![appender, compactor];
    // Interleave order: drivers vec order is spawn order only.
    drivers.rotate_left(1);
    let (driver_results, reader_results) = contend(drivers, readers);

    for r in &driver_results {
        r.as_ref().expect("driver panicked");
    }
    let total_reads: usize = reader_results
        .iter()
        .map(|r| *r.as_ref().expect("reader panicked"))
        .sum();
    assert!(total_reads > 0, "readers never completed a single load");
    assert!(
        commits.load(Ordering::Relaxed) >= 50,
        "matrix did not reach 50 commits"
    );

    // Quiesced: everything appended is present, exactly once, and the
    // hostile GC left a clean single-generation store plus no leaked
    // coordination files.
    let (final_profiles, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(
        assert_contiguous_prefix(&final_profiles, 0),
        (SEED_PROFILES + APPENDS) as usize
    );
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
    assert!(fsck.live_leases.is_empty(), "leaked leases: {fsck}");
}

/// The generation a `pin-<gen>-<pid>-<token>` lease file names.
fn lease_generation(name: &str) -> u64 {
    let rest = name.strip_prefix("pin-").expect("a lease file name");
    rest.split('-')
        .next()
        .unwrap()
        .parse()
        .expect("a generation")
}

/// The `pin-*` lease files left in `dir`.
fn lease_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("pin-"))
        .collect()
}

/// The manifest registry under contention: four readers pin and load
/// in a loop, sharing each generation's verified manifest, while an
/// appender commits at `keep_generations: 0`, so every commit replaces
/// the registered generation and collects the one before. Zero torn
/// reads, every snapshot's manifest is the generation its lease names,
/// and no lease outlives its snapshots.
#[test]
fn registry_readers_stay_whole_under_appends() {
    const READERS: usize = 4;
    const SEED_PROFILES: u64 = 3;
    const APPENDS: u64 = 25;

    let dir = ScratchDir::new("concurrency-registry");
    let opts = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    let initial: Vec<Profile> = (0..SEED_PROFILES).map(run).collect();
    Store::save_opts(&dir, &initial, &opts).unwrap();
    let dir_ref = &dir;
    let opts_ref = &opts;

    let appender: ContendTask<'_, usize> = Box::new(move |_: &AtomicBool| {
        for i in 0..APPENDS {
            let rep =
                Store::append_opts(dir_ref, &[run(SEED_PROFILES + i)], opts_ref).expect("append");
            assert_eq!(rep.appended, 1);
        }
        APPENDS as usize
    });
    let readers: Vec<ContendTask<'_, usize>> = (0..READERS)
        .map(|_| {
            Box::new(move |stop: &AtomicBool| {
                let mut iterations = 0usize;
                let mut watermark = SEED_PROFILES as usize;
                while !stop.load(Ordering::Relaxed) {
                    let snap = Store::open_pinned(dir_ref).expect("open_pinned");
                    let lease = snap.lease_file().expect("a writable store leases");
                    assert_eq!(
                        lease_generation(&lease),
                        snap.manifest().generation,
                        "snapshot of generation {} holds lease {lease}",
                        snap.manifest().generation
                    );
                    let (profiles, rep) = snap.load_all().expect("pinned load");
                    assert!(rep.is_clean(), "torn read: {rep}");
                    assert_eq!(profiles.len(), snap.manifest().profiles.len());
                    watermark = assert_contiguous_prefix(&profiles, watermark);
                    iterations += 1;
                }
                iterations
            }) as ContendTask<'_, usize>
        })
        .collect();

    let (driver_results, reader_results) = contend(vec![appender], readers);
    for r in &driver_results {
        r.as_ref().expect("appender panicked");
    }
    let total_reads: usize = reader_results
        .iter()
        .map(|r| *r.as_ref().expect("reader panicked"))
        .sum();
    assert!(total_reads > 0, "readers never completed a single load");

    let (final_profiles, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(
        assert_contiguous_prefix(&final_profiles, 0),
        (SEED_PROFILES + APPENDS) as usize
    );
    assert_eq!(lease_files(&dir), Vec::<String>::new(), "leaked leases");
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

/// A one-node profile whose metadata is its seed: a record of about a
/// hundred bytes, so a load spends its time reading frames, not
/// decoding them.
fn tiny(seed: u64) -> Profile {
    let mut graph = thicket_graph::Graph::new();
    let root = graph.add_root(thicket_graph::Frame::named("main"));
    let mut p = Profile::new(graph);
    p.set_metric(root, "time", seed as f64);
    p.set_metadata("seed", seed as i64);
    p
}

/// Snapshots on several threads re-pin one generation of a multi-shard
/// store, so they share the shard handles its first pin opened, and
/// load overlapping selections at once: single frames (sparse) and
/// whole shards (dense, read in bulk). Every read is positional, so each
/// load returns the profiles and the shard bytes of the same load run
/// alone on one thread.
#[test]
fn shared_shard_handles_serve_concurrent_readers() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 150;
    const PROFILES: usize = 1200;

    let dir = ScratchDir::new("concurrency-shared-handles");
    // About ten records a shard: a dense load reads a hundred shards.
    let opts = StoreOptions {
        shard_bytes: 1024,
        ..StoreOptions::default()
    };
    let profiles: Vec<Profile> = (0..PROFILES as u64).map(tiny).collect();
    let written = Store::save_opts(&dir, &profiles, &opts).unwrap();
    assert!(written.shards >= 4, "{} shards", written.shards);
    let selections: Vec<Vec<usize>> = vec![
        (0..PROFILES).step_by(7).collect(),
        (1..PROFILES).step_by(3).collect(),
        (100..900).collect(),
        (0..PROFILES).collect(),
    ];
    let load = |selected: &[usize]| -> (Vec<Vec<u8>>, u64) {
        let snap = Store::open_pinned(&dir).expect("open_pinned");
        let before = snap.bytes_read();
        let (loaded, rep) = snap.load_indices(selected, 1).expect("pinned load");
        assert!(rep.is_clean(), "torn read: {rep}");
        let encoded = loaded.iter().map(encode_profile).collect();
        (encoded, snap.bytes_read() - before)
    };
    let expect: Vec<(Vec<Vec<u8>>, u64)> = selections.iter().map(|s| load(s)).collect();
    assert!(
        expect.windows(2).all(|w| w[0].1 != w[1].1),
        "the selections read alike"
    );

    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (start, selections, expect, load) = (&start, &selections, &expect, &load);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let k = (t + round) % selections.len();
                    let got = load(&selections[k]);
                    assert!(
                        got == expect[k],
                        "thread {t}, round {round}: selection {k} read differently"
                    );
                }
            });
        }
    });
}

/// GC at `keep_generations: 0` must skip a generation a live snapshot
/// pinned — and collect it promptly once the pin drops.
#[test]
fn gc_respects_live_pins_across_many_commits() {
    let dir = ScratchDir::new("concurrency-pin-hold");
    let opts = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    let initial: Vec<Profile> = (0..3).map(run).collect();
    Store::save_opts(&dir, &initial, &opts).unwrap();
    let snap = Store::open_pinned(&dir).unwrap();
    assert!(snap.leased());
    for i in 0..10 {
        Store::append_opts(&dir, &[run(3 + i)], &opts).unwrap();
    }
    // Ten hostile commits later the pinned generation still reads.
    let (held, rep) = snap.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(assert_contiguous_prefix(&held, 3), 3);
    assert!(
        dir.join(snap.lease_file().unwrap()).exists(),
        "lease file vanished under a live pin"
    );
    drop(snap);
    // With the pin gone the next commit sweeps the old generation.
    Store::append_opts(&dir, &[run(13)], &opts).unwrap();
    let manifests = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("MANIFEST-"))
        .count();
    assert_eq!(manifests, 1, "released generations survived GC");
}

/// A stale lease (dead owner pid) must not hold GC hostage: the next
/// commit collects the generation and reaps the lease file.
#[test]
fn dead_owner_lease_is_reaped_by_gc() {
    let dir = ScratchDir::new("concurrency-lease-reap");
    let opts = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &[run(0)], &opts).unwrap();
    // A well-formed lease owned by pid 0 (never alive) pinning gen 1.
    let stale = dir.join("pin-000001-0-00000000deadbeef");
    std::fs::write(&stale, b"lease\n").unwrap();
    Store::append_opts(&dir, &[run(1)], &opts).unwrap();
    assert!(!stale.exists(), "stale lease survived GC");
    let manifests = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("MANIFEST-"))
        .count();
    assert_eq!(manifests, 1, "stale lease pinned a generation");
}

/// Replay a seeded chaos schedule — appends, compactions, and writer
/// crashes at seed-chosen points — and assert linearizability: after
/// every op (plus `recover` after a crash) the store serves either the
/// pre-op or the post-op contents, and fsck comes back clean.
#[test]
fn chaos_schedule_linearizes() {
    let dir = ScratchDir::new("concurrency-chaos");
    let mut committed: Vec<i64> = Vec::new();
    let mut next_seed = 0u64;
    let mut fresh = |n: usize| -> Vec<Profile> {
        (0..n)
            .map(|_| {
                let p = run(next_seed);
                next_seed += 1;
                p
            })
            .collect()
    };

    let observe = |dir: &Path| -> Vec<i64> {
        let (profiles, rep) = Store::open(dir).unwrap().load_all().unwrap();
        assert!(rep.is_clean(), "{rep}");
        let mut h: Vec<i64> = profiles.iter().map(|p| p.profile_hash()).collect();
        h.sort_unstable();
        h
    };
    let sorted = |v: &[i64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s
    };

    for (i, op) in ChaosSchedule::new(0xC0FFEE).take(40).enumerate() {
        match op {
            ChaosOp::Append { profiles } => {
                let batch = fresh(profiles);
                let rep = Store::append(&dir, &batch).expect("append");
                assert_eq!(rep.appended, batch.len(), "op {i}");
                committed.extend(batch.iter().map(|p| p.profile_hash()));
            }
            ChaosOp::Compact => {
                if committed.is_empty() {
                    continue;
                }
                Store::compact(&dir).expect("compact");
            }
            ChaosOp::CrashedAppend { point } => {
                let batch = fresh(1);
                let hash = batch[0].profile_hash();
                let opts = StoreOptions {
                    crash_after: Some(point),
                    ..StoreOptions::default()
                };
                match Store::append_opts(&dir, &batch, &opts) {
                    Ok(rep) => {
                        // Point past this write's crash count: a normal
                        // commit.
                        assert_eq!(rep.appended, 1, "op {i}");
                        committed.push(hash);
                    }
                    Err(StoreError::InjectedCrash { .. }) => {
                        Store::recover(&dir).expect("recover after crash");
                        let seen = observe(&dir);
                        let mut with = committed.clone();
                        with.push(hash);
                        let with = sorted(&with);
                        let without = sorted(&committed);
                        assert!(
                            seen == with || seen == without,
                            "op {i}: crashed append left a mixed state"
                        );
                        committed = seen;
                    }
                    Err(e) => panic!("op {i}: {e}"),
                }
            }
            ChaosOp::CrashedCompact { point } => {
                if committed.is_empty() {
                    continue;
                }
                let opts = StoreOptions {
                    crash_after: Some(point),
                    ..StoreOptions::default()
                };
                match Store::compact_opts(&dir, &opts) {
                    Ok(_) => {}
                    Err(StoreError::InjectedCrash { .. }) => {
                        Store::recover(&dir).expect("recover after crash");
                    }
                    Err(e) => panic!("op {i}: {e}"),
                }
                // Compaction never changes contents, crashed or not.
                assert_eq!(
                    observe(&dir),
                    sorted(&committed),
                    "op {i}: compact changed contents"
                );
            }
        }
        if !committed.is_empty() {
            assert_eq!(observe(&dir), sorted(&committed), "op {i}");
        }
    }
    assert!(!committed.is_empty(), "schedule never committed anything");
    // The wreckage of 40 chaotic ops still recovers to a clean store.
    Store::recover(&dir).unwrap();
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

/// Subprocess body for [`kill_nine_mid_commit_recovers`]: an unbounded
/// append loop, run only when `THICKET_CHILD_DIR` is set. The parent
/// SIGKILLs this process mid-commit.
#[test]
fn child_writer_loop() {
    let Ok(dir) = std::env::var("THICKET_CHILD_DIR") else {
        return; // Normal test runs: nothing to do.
    };
    let dir = PathBuf::from(dir);
    let mut seed = 1u64;
    loop {
        // keep_generations 1 mirrors production defaults; the parent
        // kills us long before seed wraps.
        let _ = Store::append(&dir, &[run(seed)]);
        seed += 1;
    }
}

/// Kill -9 a writer subprocess mid-commit: the survivors (`recover`,
/// then any reader) must find exactly one complete generation, a clean
/// fsck, and a contiguous prefix of the child's appends.
#[test]
fn kill_nine_mid_commit_recovers() {
    let dir = ScratchDir::new("concurrency-kill9");
    Store::save(&dir, &[run(0)]).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["child_writer_loop", "--exact", "--nocapture"])
        .env("THICKET_CHILD_DIR", dir.as_os_str())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child writer");

    // Let the child commit a few generations, then kill it cold. The
    // deadline guards against a wedged child turning into a hung test.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let gen = Store::open(&dir).map(|r| r.generation()).unwrap_or(0);
        if gen >= 4 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "child made no progress (generation {gen})"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    // The child may have died holding the LOCK or mid-shard-write;
    // recover must reap the wreckage without losing a committed record.
    let rec = Store::recover(&dir).unwrap();
    assert!(rec.generation >= 4);
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
    let (profiles, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_contiguous_prefix(&profiles, 1);
    // And the store is fully writable afterwards — no zombie locks.
    let t0 = Instant::now();
    Store::append(&dir, &[run(10_000)]).unwrap();
    assert!(
        t0.elapsed() < StoreOptions::default().lock_timeout,
        "post-kill append waited out a lock timeout"
    );
}

/// Subprocess body for [`kill_nine_pinned_server_lease_is_reaped`]: a
/// long-lived "daemon" shape — open a pinned snapshot and sit on it,
/// the way `thicketd` holds a pin for a request in flight. Run only
/// when `THICKET_PIN_DIR` is set; the parent SIGKILLs this process
/// while the pin is live.
#[test]
fn child_pinned_reader_loop() {
    let Ok(dir) = std::env::var("THICKET_PIN_DIR") else {
        return; // Normal test runs: nothing to do.
    };
    let snap = Store::open_pinned(PathBuf::from(dir)).expect("child pins");
    assert!(snap.leased());
    loop {
        // Keep the snapshot (and its lease file) alive until SIGKILL.
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Kill -9 a *pinned reader* (the daemon shape): its lease file stays
/// behind with a dead owner pid. fsck must report it as a typed
/// `StaleLease` finding, and the next commit's GC must reap it — with
/// zero records lost and exactly one complete newest generation.
#[test]
fn kill_nine_pinned_server_lease_is_reaped() {
    let dir = ScratchDir::new("concurrency-kill9-pin");
    let initial: Vec<Profile> = (0..3).map(run).collect();
    Store::save(&dir, &initial).unwrap();

    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["child_pinned_reader_loop", "--exact", "--nocapture"])
        .env("THICKET_PIN_DIR", dir.as_os_str())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn child reader");

    // Wait until the child's lease file exists, then kill it cold.
    let pin_count = |d: &Path| {
        std::fs::read_dir(d)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("pin-"))
            .count()
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while pin_count(&dir) == 0 {
        assert!(Instant::now() < deadline, "child never pinned");
        std::thread::sleep(Duration::from_millis(10));
    }
    child.kill().expect("SIGKILL child");
    child.wait().expect("reap child");

    // The orphan lease is visible and typed: not clean, exactly one
    // StaleLease coordination finding, no live leases.
    let fsck = Store::fsck(&dir).unwrap();
    assert!(!fsck.is_clean(), "orphan lease went unreported: {fsck}");
    assert!(fsck.live_leases.is_empty(), "dead pid counted as live");
    let stale_leases = fsck
        .coordination
        .iter()
        .filter(|d| matches!(d.kind, thicket_perfsim::DiagKind::StaleLease { .. }))
        .count();
    assert_eq!(stale_leases, 1, "expected one StaleLease finding: {fsck}");

    // GC rides on commits: the next append reaps the dead daemon's
    // lease. Nothing else may be lost.
    Store::append(&dir, &[run(3)]).unwrap();
    assert_eq!(pin_count(&dir), 0, "stale lease survived the commit GC");
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
    let (profiles, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(assert_contiguous_prefix(&profiles, 4), 4);
}
