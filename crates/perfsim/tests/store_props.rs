//! Property tests for the sharded store: a single flipped bit anywhere
//! in any shard file is always caught — fsck reports the damage, and
//! the reader never serves a silently-wrong profile. A manifest whose
//! declared record lengths/offsets are rewritten to arbitrary (possibly
//! huge) values never over-allocates or panics, and recovery always
//! restores one complete generation. A checked-in fixture manifest
//! damaged by a bit flip, a truncation or an out-of-range number (and
//! re-sealed) never panics any read, check or migration path.

use proptest::prelude::*;
use std::ffi::OsString;
use std::path::Path;
use std::sync::OnceLock;
use thicket_perfsim::{simulate_cpu_run, CpuRunConfig, Profile, ScratchDir, Store, StoreOptions};

/// A saved store's files (name, bytes) and the profiles it holds.
type SavedStore = (Vec<(OsString, Vec<u8>)>, Vec<Profile>);

/// `n` quartz profiles saved with `shard_bytes` per shard, once per
/// process and `slot`.
fn saved_store(
    slot: &'static OnceLock<SavedStore>,
    n: u64,
    shard_bytes: usize,
) -> &'static SavedStore {
    slot.get_or_init(|| {
        let dir = ScratchDir::new("storeprops-base");
        let profiles: Vec<_> = (0..n)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        let opts = StoreOptions {
            shard_bytes,
            ..StoreOptions::default()
        };
        Store::save_opts(&dir, &profiles, &opts).unwrap();
        let files = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (e.file_name(), std::fs::read(e.path()).unwrap())
            })
            .collect();
        (files, profiles)
    })
}

/// A private copy of a saved store in a fresh scratch directory.
fn copy_of(saved: &SavedStore) -> ScratchDir {
    let dir = ScratchDir::new("storeprops");
    for (name, bytes) in &saved.0 {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    dir
}

/// The base store: four profiles, one record per shard.
fn base() -> &'static SavedStore {
    static BASE: OnceLock<SavedStore> = OnceLock::new();
    saved_store(&BASE, 4, 1)
}

/// A private copy of the base store, plus the hashes of the profiles
/// it holds.
fn base_store() -> (ScratchDir, Vec<i64>) {
    let hashes = base().1.iter().map(|p| p.profile_hash()).collect();
    (copy_of(base()), hashes)
}

proptest! {
    /// CRC32C catches every single-bit error: whatever bit of whatever
    /// shard file is flipped, fsck flags the store, and a subsequent
    /// load returns only byte-correct profiles (each dropped record is
    /// accounted for with a diagnostic — never silently wrong data).
    #[test]
    fn single_bit_flip_in_a_shard_is_always_caught(
        shard_sel in any::<u32>(),
        byte_sel in any::<u32>(),
        bit in 0u8..8,
    ) {
        let (dir, original_hashes) = base_store();

        let mut shards: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tks"))
            .collect();
        shards.sort();
        let victim = &shards[shard_sel as usize % shards.len()];
        let path = dir.join(victim);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = byte_sel as usize % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();

        // fsck always sees the damage (the per-shard digest covers
        // every byte of the file, framing and padding included).
        let fsck = Store::fsck(&dir).unwrap();
        prop_assert!(!fsck.is_clean(), "flip {victim}[{idx}] bit {bit} undetected: {fsck}");

        // The reader never serves a wrong profile: whatever loads is
        // one of the originals, and every missing record has a typed
        // diagnostic.
        let reader = Store::open(&dir).unwrap();
        let (profiles, report) = reader.load_all().unwrap();
        prop_assert_eq!(report.attempted, original_hashes.len());
        prop_assert_eq!(
            profiles.len() + report.diagnostics.len(),
            original_hashes.len(),
            "unaccounted records: {}", report
        );
        for p in &profiles {
            prop_assert!(
                original_hashes.contains(&p.profile_hash()),
                "loaded a profile that was never stored (hash {})",
                p.profile_hash()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Columnar selection ≡ row selection for arbitrary predicates.

use thicket_dataframe::{PredExpr, PredOp, Value};

/// Keys that exist in the simulated profiles' metadata plus one that
/// never does (missing-key semantics must agree too).
fn key_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("seed".to_string()),
        Just("cluster".to_string()),
        Just("problem size".to_string()),
        Just("no-such-key".to_string()),
    ]
}

/// Values spanning the kinds the evaluator distinguishes: ints in and
/// out of the stored range, floats (numeric promotion), strings, bools.
fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1i64..6).prop_map(Value::Int),
        (-1.0f64..6.0).prop_map(Value::Float),
        prop_oneof![
            Just(Value::from("quartz")),
            Just(Value::from("lassen")),
        ],
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn op_strategy() -> impl Strategy<Value = PredOp> {
    prop_oneof![
        Just(PredOp::Eq),
        Just(PredOp::Ne),
        Just(PredOp::Lt),
        Just(PredOp::Le),
        Just(PredOp::Gt),
        Just(PredOp::Ge),
    ]
}

/// Arbitrary predicate ASTs: comparison, substring and membership
/// leaves over the key/value pools, combined with And/Or/Not up to
/// depth 3.
fn pred_strategy() -> impl Strategy<Value = PredExpr> {
    let leaf = prop_oneof![
        Just(PredExpr::True),
        (key_strategy(), op_strategy(), value_strategy())
            .prop_map(|(field, op, value)| PredExpr::Cmp { field, op, value }),
        (
            key_strategy(),
            prop_oneof![Just("qua"), Just("tz"), Just("")]
        )
            .prop_map(|(k, needle)| PredExpr::contains(k, needle)),
        (key_strategy(), proptest::collection::vec(value_strategy(), 0..3))
            .prop_map(|(k, vs)| PredExpr::is_in(k, vs)),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(PredExpr::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(PredExpr::Or),
            inner.prop_map(PredExpr::not),
        ]
    })
}

proptest! {
    /// The columnar index path (`StoreReader::select_expr`, which
    /// decodes only the key blocks the predicate names and evaluates
    /// them vectorized) selects exactly the rows that the scalar
    /// `eval_lookup` walk over each saved profile's own metadata
    /// selects, the profile found by its entry's hash — for arbitrary
    /// predicate shapes.
    #[test]
    fn columnar_selection_equals_row_selection(pred in pred_strategy()) {
        let (dir, _) = base_store();
        let reader = Store::open(&dir).unwrap();
        let saved = &base().1;

        let columnar = reader.select_expr(&pred).unwrap();
        let by_rows: Vec<usize> = reader
            .entries()
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let p = saved.iter().find(|p| p.profile_hash() == e.hash).unwrap();
                pred.eval_lookup(&mut |k| p.metadata(k).cloned())
            })
            .map(|(i, _)| i)
            .collect();
        prop_assert_eq!(
            columnar, by_rows,
            "columnar and row selection disagree for {}", pred
        );
    }
}


// ---------------------------------------------------------------------
// Corrupt declared lengths: the headline hardening property.

use thicket_perfsim::{crc32c, Json};

/// Rewrite one numeric field of one `profiles` entry in the newest
/// manifest, recomputing the manifest's self-CRC so the reader has to
/// confront the lie instead of rejecting the file wholesale.
fn rewrite_manifest_entry(dir: &Path, entry_sel: u32, field: &str, value: f64) {
    let mut manifests: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("MANIFEST-"))
        })
        .collect();
    manifests.sort();
    let mpath = manifests.last().unwrap().clone();
    let bytes = std::fs::read(&mpath).unwrap();
    let body = std::str::from_utf8(&bytes[13..]).unwrap();
    let mut doc = Json::parse(body).unwrap();
    {
        let Json::Obj(members) = &mut doc else { panic!("manifest body not an object") };
        let profiles = members
            .iter_mut()
            .find(|(k, _)| k == "profiles")
            .map(|(_, v)| v)
            .unwrap();
        let Json::Arr(entries) = profiles else { panic!("profiles not an array") };
        let victim = entry_sel as usize % entries.len();
        let e = &mut entries[victim];
        let Json::Obj(fields) = e else { panic!("entry not an object") };
        let slot = fields
            .iter_mut()
            .find(|(k, _)| k == field)
            .map(|(_, v)| v)
            .unwrap();
        *slot = Json::Num(value);
    }
    std::fs::write(&mpath, seal(doc.to_string_compact().as_bytes())).unwrap();
}

/// A manifest file holding `body` under a valid self-CRC header.
fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = b"TKM1".to_vec();
    out.extend_from_slice(format!("{:08x}\n", crc32c(body)).as_bytes());
    out.extend_from_slice(body);
    out
}

proptest! {
    /// Whatever record length (or offset) the manifest declares —
    /// including multi-gigabyte lies the file cannot possibly hold —
    /// the reader validates it against the real file size *before*
    /// allocating or slicing: every outcome is a typed error or
    /// diagnostic, never an OOM, panic, or silently-wrong profile, and
    /// `Store::recover` always restores exactly one complete
    /// generation holding every original record.
    #[test]
    fn corrupt_declared_lengths_never_allocate_or_panic(
        entry_sel in any::<u32>(),
        lie in any::<u32>(),
        target_offset in any::<bool>(),
    ) {
        let (dir, original_hashes) = base_store();
        let field = if target_offset { "offset" } else { "len" };
        rewrite_manifest_entry(&dir, entry_sel, field, lie as f64);

        // Opening + loading never panics; whatever loads is one of the
        // originals and every missing record carries a diagnostic.
        match Store::open(&dir) {
            Ok(reader) => {
                let (profiles, report) = reader.load_all().unwrap();
                prop_assert_eq!(
                    profiles.len() + report.diagnostics.len(),
                    original_hashes.len(),
                    "unaccounted records: {}", report
                );
                for p in &profiles {
                    prop_assert!(original_hashes.contains(&p.profile_hash()));
                }
            }
            Err(e) => {
                // Typed rejection (the parse-time range validation).
                let msg = e.to_string();
                prop_assert!(!msg.is_empty());
            }
        }
        // fsck classifies without panicking, and recovery restores one
        // complete generation: the shard bytes were never touched, so
        // every original record comes back.
        let _ = Store::fsck(&dir).unwrap();
        let rec = Store::recover(&dir).unwrap();
        prop_assert!(Store::fsck(&dir).unwrap().is_clean(), "recover left dirt: {:?}", rec);
        let (restored, report) = Store::open(&dir).unwrap().load_all().unwrap();
        prop_assert!(report.is_clean(), "{}", report);
        let mut got: Vec<i64> = restored.iter().map(|p| p.profile_hash()).collect();
        got.sort_unstable();
        let mut want = original_hashes.to_vec();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// Mutated fixture manifests: typed outcomes on every path, never a panic.

/// Numbers spliced over a number in a manifest body: past `u32`, past
/// `u64`, past `i64`, negative, fractional, and exponent forms.
const SPLICES: [&str; 8] = [
    "4294967296",
    "18446744073709551616",
    "99999999999999999999999",
    "-1",
    "-4294967297",
    "0.5",
    "1e300",
    "9.25e18",
];

/// Every manifest of every checked-in fixture store: (store, file).
const FIXTURE_MANIFESTS: [(&str, &str); 5] = [
    ("v1", "MANIFEST-000001"),
    ("v2", "MANIFEST-000001"),
    ("v3", "MANIFEST-000001"),
    ("mixed", "MANIFEST-000001"),
    ("mixed", "MANIFEST-000002"),
];

/// Damage a manifest body: flip one bit, truncate it, or splice one of
/// [`SPLICES`] over one of its numbers (a digit run that starts a JSON
/// number, the embedded metadata column arrays included).
fn mutate(body: &mut Vec<u8>, kind: u32, at: u32, pick: u32) {
    let (at, len) = (at as usize, body.len());
    match kind % 3 {
        0 => body[at % len] ^= 1 << (pick % 8),
        1 => body.truncate(at % len),
        _ => {
            let mut numbers = Vec::new();
            let mut i = 0;
            while i < body.len() {
                let start = i;
                while i < body.len() && body[i].is_ascii_digit() {
                    i += 1;
                }
                if i > start && start > 0 && matches!(body[start - 1], b':' | b',' | b'[') {
                    numbers.push(start..i);
                }
                i += 1;
            }
            let run = numbers[at % numbers.len()].clone();
            body.splice(run, SPLICES[pick as usize % SPLICES.len()].bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// A fixture manifest damaged by a bit flip, a truncation or an
    /// out-of-range number, then re-sealed under a valid self-CRC so
    /// the parser has to confront the damage: open + load, pinned open
    /// + load, fsck, an append of one fresh profile and compact each
    /// return `Ok` or a typed error — never a panic, never an
    /// allocation of a declared size. A failed append leaves the
    /// directory listing as it was: the damage reaches the writer's
    /// decode of its base before anything is written.
    #[test]
    fn mutated_fixture_manifests_never_panic(
        which in any::<u32>(),
        kind in any::<u32>(),
        at in any::<u32>(),
        pick in any::<u32>(),
    ) {
        let (store, name) = FIXTURE_MANIFESTS[which as usize % FIXTURE_MANIFESTS.len()];
        let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy").join(store);
        let dir = ScratchDir::copy_of("storeprops-mutant", &src);
        let mut body = std::fs::read(dir.join(name)).unwrap().split_off(13);
        mutate(&mut body, kind, at, pick);
        std::fs::write(dir.join(name), seal(&body)).unwrap();

        if let Ok(reader) = Store::open(&dir) {
            let _ = reader.load_all();
        }
        if let Ok(snap) = Store::open_pinned(&dir) {
            let _ = snap.load_all();
        }
        let _ = Store::fsck(&dir);
        let listing = || {
            let mut names: Vec<OsString> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.seed = 1_000_003;
        if let Err(e) = Store::append(&dir, &[simulate_cpu_run(&cfg)]) {
            prop_assert_eq!(listing(), before, "{}", e);
        }
        let _ = Store::compact(&dir);
    }
}

// ---------------------------------------------------------------------
// Mutated shard images: typed findings and typed recovery, never a panic.

/// Six profiles, two or three records per shard.
fn multi_record() -> &'static SavedStore {
    static MULTI: OnceLock<SavedStore> = OnceLock::new();
    saved_store(&MULTI, 6, 6 * 1024)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One shard of a saved multi-record store truncated, bit-flipped,
    /// or given a huge length in one record header: a load accounts for
    /// every record, fsck reports the damage as typed findings (never as
    /// clean), and recover returns a typed outcome, never a panic. A
    /// recovered store is clean and loads only saved profiles, without
    /// a diagnostic.
    #[test]
    fn mutated_shards_yield_typed_fsck_and_recover(
        which in any::<u32>(),
        kind in any::<u32>(),
        at in any::<u32>(),
        pick in any::<u32>(),
    ) {
        use thicket_perfsim::store::RECORD_HEADER_BYTES;
        let dir = copy_of(multi_record());
        let saved = &multi_record().1;
        let manifest = Store::open(&dir).unwrap().manifest().clone();
        prop_assert!(manifest.shards.iter().all(|s| s.records > 1), "one record per shard");
        let si = which as usize % manifest.shards.len();
        let path = dir.join(&manifest.shards[si].file);
        let mut bytes = std::fs::read(&path).unwrap();
        let cut = at as usize % bytes.len();
        match kind % 3 {
            0 => bytes.truncate(cut),
            1 => bytes[cut] ^= 1 << (pick % 8),
            _ => {
                let offsets: Vec<usize> = manifest
                    .profiles
                    .iter()
                    .filter(|e| e.shard == si)
                    .map(|e| e.offset as usize)
                    .collect();
                let header = offsets[at as usize % offsets.len()] - RECORD_HEADER_BYTES;
                let lens = [u32::MAX, u32::MAX - 1, 1 << 31, 1 << 24, bytes.len() as u32];
                let len = lens[pick as usize % lens.len()];
                bytes[header..header + 4].copy_from_slice(&len.to_le_bytes());
            }
        }
        std::fs::write(&path, &bytes).unwrap();

        // A load over the damage accounts for every record: a saved
        // profile or a typed diagnostic.
        let (loaded, report) = Store::open(&dir).unwrap().load_all().unwrap();
        prop_assert_eq!(loaded.len() + report.diagnostics.len(), saved.len(), "{}", report);
        for p in &loaded {
            prop_assert!(saved.iter().any(|s| s.profile_hash() == p.profile_hash()));
        }
        let fsck = Store::fsck(&dir).unwrap();
        prop_assert!(!fsck.is_clean(), "damage passed fsck: {}", fsck);
        match Store::recover(&dir) {
            Ok(_) => {
                let after = Store::fsck(&dir).unwrap();
                prop_assert!(after.is_clean(), "recover left dirt: {}", after);
                let (profiles, report) = Store::open(&dir).unwrap().load_all().unwrap();
                prop_assert!(report.is_clean(), "{}", report);
                for p in &profiles {
                    prop_assert!(saved.iter().any(|s| s.profile_hash() == p.profile_hash()));
                }
            }
            Err(e) => prop_assert!(matches!(e, StoreError::NoGeneration(_)), "{}", e),
        }
    }
}

// ---------------------------------------------------------------------
// Coordination files (LOCK / pin-*) under arbitrary garbage.

use std::time::Duration;
use thicket_perfsim::StoreError;

/// Backdate a file to the epoch so liveness windows see it as ancient.
fn age_to_epoch(path: &std::path::Path) {
    if let Ok(f) = std::fs::OpenOptions::new().append(true).open(path) {
        let _ = f.set_modified(std::time::SystemTime::UNIX_EPOCH);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary bytes in the coordination files never wedge a writer,
    /// never panic, and never cost a record. A *fresh* garbage `LOCK`
    /// reads as possibly-mid-write, so an impatient writer surfaces a
    /// typed [`StoreError::Busy`]; once aged past its liveness window
    /// the same garbage is classified stale and taken over. A
    /// dead-owner lease (pid 0 in the filename — the contents are
    /// irrelevant to the protocol) reads as stale immediately. fsck
    /// reports both as typed findings without touching the
    /// generations, and recovery reaps them and restores a clean,
    /// fully-loadable store.
    #[test]
    fn garbage_coordination_files_yield_typed_findings(
        lock_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        lease_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        token in any::<u64>(),
    ) {
        let (dir, original_hashes) = base_store();

        std::fs::write(dir.join("LOCK"), &lock_bytes).unwrap();
        let impatient = StoreOptions {
            lock_timeout: Duration::from_millis(40),
            ..StoreOptions::default()
        };
        match Store::append_opts(&dir, &[], &impatient) {
            // Fresh garbage could be a lock body mid-write: waiting it
            // out and timing out with a typed error is the contract.
            Err(StoreError::Busy { .. }) => {}
            // ...unless the arbitrary bytes happened to parse as a
            // dead owner, in which case takeover is also legal.
            Ok(_) => {}
            Err(e) => prop_assert!(false, "append broke the protocol: {}", e),
        }

        // Aged garbage is stale; a dead-owner lease is stale at any age.
        age_to_epoch(&dir.join("LOCK"));
        let lease = format!("pin-000001-0-{token:016x}");
        std::fs::write(dir.join(&lease), &lease_bytes).unwrap();

        let fsck = Store::fsck(&dir).unwrap();
        prop_assert!(
            fsck.generations.iter().all(|g| g.intact),
            "coordination garbage damaged a generation: {}", fsck
        );
        prop_assert!(!fsck.is_clean(), "stale coordination files not flagged: {}", fsck);
        let labels: Vec<&str> = fsck.coordination.iter().map(|d| d.kind.label()).collect();
        prop_assert!(
            labels.iter().all(|l| *l == "stale-lock" || *l == "stale-lease"),
            "untyped coordination finding: {:?}", labels
        );
        prop_assert!(labels.contains(&"stale-lease"), "dead-owner lease not flagged: {:?}", labels);

        // Recovery reaps the garbage; the store is clean, writable
        // without waiting, and every original record survives.
        Store::recover(&dir).unwrap();
        prop_assert!(Store::fsck(&dir).unwrap().is_clean());
        Store::append_opts(&dir, &[], &impatient).unwrap();
        let (profiles, report) = Store::open(&dir).unwrap().load_all().unwrap();
        prop_assert!(report.is_clean(), "{}", report);
        let mut got: Vec<i64> = profiles.iter().map(|p| p.profile_hash()).collect();
        got.sort_unstable();
        let mut want = original_hashes.to_vec();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
