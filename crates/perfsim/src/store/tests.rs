use super::layout::{manifest_name, shard_name};
use super::manifest::{build_columns, mask_from_hex, push_mask_hex, MANIFEST_HEADER_BYTES};
use super::*;
use crate::faults::ScratchDir;
use crate::ingest::DiagKind;
use crate::rajaperf::{simulate_cpu_run, CpuRunConfig};
use std::time::{Duration, Instant, SystemTime};
use thicket_dataframe::{PredExpr, Value};

fn runs(n: u64) -> Vec<Profile> {
    (0..n)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect()
}

fn hashes(ps: &[Profile]) -> Vec<i64> {
    let mut h: Vec<i64> = ps.iter().map(|p| p.profile_hash()).collect();
    h.sort_unstable();
    h
}

#[test]
fn crc32c_known_vectors() {
    // RFC 3720 / common test vectors for CRC-32C.
    assert_eq!(crc32c(b""), 0);
    assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    assert_eq!(crc32c(&[0u8; 32]), 0x8a91_36aa);
}

#[test]
fn save_open_roundtrip() {
    let dir = ScratchDir::new("store-roundtrip");
    let profiles = runs(6);
    let report = Store::save(&dir, &profiles).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.profiles, 6);
    let reader = Store::open(&dir).unwrap();
    assert_eq!(reader.generation(), 1);
    assert_eq!(reader.entries().len(), 6);
    let (loaded, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&profiles));
    // fsck of a fresh store is clean.
    let fsck = Store::fsck(&dir).unwrap();
    assert!(fsck.is_clean(), "{fsck}");
}

#[test]
fn small_shard_target_splits_shards() {
    let dir = ScratchDir::new("store-split");
    let profiles = runs(8);
    let opts = StoreOptions {
        shard_bytes: 1, // every record closes its shard
        ..StoreOptions::default()
    };
    let report = Store::save_opts(&dir, &profiles, &opts).unwrap();
    assert_eq!(report.shards, 8);
    let reader = Store::open(&dir).unwrap();
    let (loaded, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean());
    assert_eq!(hashes(&loaded), hashes(&profiles));
}

#[test]
fn second_save_bumps_generation_and_retains_previous() {
    let dir = ScratchDir::new("store-generations");
    let first = runs(3);
    let second = runs(5);
    Store::save(&dir, &first).unwrap();
    let r2 = Store::save(&dir, &second).unwrap();
    assert_eq!(r2.generation, 2);
    // Newest generation wins.
    let reader = Store::open(&dir).unwrap();
    assert_eq!(reader.generation(), 2);
    let (loaded, _) = reader.load_all().unwrap();
    assert_eq!(hashes(&loaded), hashes(&second));
    // Previous generation's manifest is retained (keep_generations = 1).
    assert!(dir.join(manifest_name(1)).exists());
    // A third save garbage-collects generation 1.
    Store::save(&dir, &first).unwrap();
    assert!(!dir.join(manifest_name(1)).exists());
    assert!(dir.join(manifest_name(2)).exists());
}

#[test]
fn load_matching_pushdown_reads_fewer_bytes() {
    let dir = ScratchDir::new("store-pushdown");
    let profiles = runs(8);
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &profiles, &opts).unwrap();

    // Both sides pay the same manifest bytes (counted since the
    // bytes_read fix), so shard skipping still shows through.
    let full = Store::open(&dir).unwrap();
    let (all, _) = full.load_all().unwrap();
    let full_bytes = full.bytes_read();

    let filtered = Store::open(&dir).unwrap();
    let (subset, rep) = filtered
        .load_matching(&PredExpr::eq("seed", 2i64))
        .unwrap();
    assert!(rep.is_clean());
    assert!(filtered.bytes_read() < full_bytes);
    assert_eq!(subset.len(), 1);
    assert!(all.len() > subset.len());
}

/// Set generation `gen`'s manifest mtime to `when`: the registry's
/// young-file rule keys on it.
fn set_manifest_mtime(dir: &std::path::Path, gen: u64, when: SystemTime) {
    std::fs::File::options()
        .write(true)
        .open(dir.join(manifest_name(gen)))
        .unwrap()
        .set_modified(when)
        .unwrap();
}

/// Backdate generation `gen`'s manifest, so the registry entry an open
/// makes from it is settled at once: its mtime alone vouches for it.
fn settle_manifest(dir: &std::path::Path, gen: u64) {
    set_manifest_mtime(
        dir,
        gen,
        SystemTime::UNIX_EPOCH + Duration::from_secs(1_700_000_000),
    );
}

/// The `pin-*` lease files in `dir`.
fn lease_files(dir: &std::path::Path) -> Vec<String> {
    layout::list_dir(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("pin-"))
        .collect()
}

#[test]
fn bytes_read_is_exact_frame_accounting() {
    // One record per shard, so each shard's cost is its single
    // record's frame: header + payload.
    let dir = ScratchDir::new("store-bytes-exact");
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &runs(4), &opts).unwrap();
    // An old mtime makes the second open a settled registry hit, however
    // long the first one takes.
    settle_manifest(&dir, 1);
    let header = MANIFEST_HEADER_BYTES as u64;

    let reader = Store::open(&dir).unwrap();
    let manifest_bytes = std::fs::metadata(dir.join(manifest_name(reader.manifest().generation)))
        .unwrap()
        .len();
    assert_eq!(
        reader.bytes_read(),
        manifest_bytes,
        "a cold open costs exactly the manifest file"
    );

    // A full load is dense in every shard, so each shard is one
    // whole-file bulk read: the cost is exactly the sum of on-disk
    // shard sizes, which the manifest's declared sizes must match.
    let (all, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean());
    assert_eq!(all.len(), 4);
    let shard_bytes_total: u64 = reader
        .manifest()
        .shards
        .iter()
        .map(|info| {
            let on_disk = std::fs::metadata(dir.join(&info.file)).unwrap().len();
            assert_eq!(on_disk, info.bytes, "{}", info.file);
            info.bytes
        })
        .sum();
    assert_eq!(reader.bytes_read(), manifest_bytes + shard_bytes_total);

    // The second open shares the verified manifest and reads only its
    // header. Pushdown on one-record shards: the selected shard is
    // dense (its one record is most of the file), so the cost is that
    // shard's file size; skipped shards are never opened.
    let filtered = Store::open(&dir).unwrap();
    assert_eq!(
        filtered.bytes_read(),
        header,
        "a settled warm open costs the header"
    );
    let (subset, rep) = filtered.load_matching(&PredExpr::eq("seed", 2i64)).unwrap();
    assert!(rep.is_clean());
    assert_eq!(subset.len(), 1);
    let seed_2 = filtered.select_expr(&PredExpr::eq("seed", 2i64)).unwrap();
    let entry = filtered.entries()[seed_2[0]].clone();
    let selected_shard = filtered.manifest().shards[entry.shard].bytes;
    assert_eq!(filtered.bytes_read(), header + selected_shard);

    // Pushdown inside a multi-record shard takes the sparse seek
    // path: the charge is exactly the selected record's frame
    // (header + payload), derived from the layout constant.
    let dir = ScratchDir::new("store-bytes-exact-sparse");
    Store::save_opts(&dir, &runs(8), &StoreOptions::default()).unwrap();
    settle_manifest(&dir, 1);
    let sparse = Store::open(&dir).unwrap();
    assert_eq!(sparse.manifest().shards.len(), 1, "one shared shard");
    let manifest_bytes = std::fs::metadata(dir.join(manifest_name(sparse.manifest().generation)))
        .unwrap()
        .len();
    let (subset, rep) = sparse.load_matching(&PredExpr::eq("seed", 2i64)).unwrap();
    assert!(rep.is_clean());
    assert_eq!(subset.len(), 1);
    let seed_2 = sparse.select_expr(&PredExpr::eq("seed", 2i64)).unwrap();
    let entry = sparse.entries()[seed_2[0]].clone();
    let frame = RECORD_HEADER_BYTES as u64 + entry.len as u64;
    assert_eq!(sparse.bytes_read(), manifest_bytes + frame);
    let warm = Store::open(&dir).unwrap();
    let (subset, rep) = warm.load_matching(&PredExpr::eq("seed", 2i64)).unwrap();
    assert!(rep.is_clean());
    assert_eq!(subset.len(), 1);
    assert_eq!(warm.bytes_read(), header + frame);
}

#[test]
fn select_decodes_only_named_columns() {
    let dir = ScratchDir::new("store-lazy-columns");
    Store::save(&dir, &runs(6)).unwrap();
    let reader = Store::open(&dir).unwrap();
    assert!(
        reader.manifest().columns.len() > 2,
        "quartz runs carry several metadata keys"
    );
    let idx = reader.select_expr(&PredExpr::lt("seed", 3i64)).unwrap();
    assert_eq!(idx, vec![0, 1, 2]);
    for b in &reader.manifest().columns {
        assert_eq!(
            b.is_decoded(),
            b.key() == "seed",
            "column {} decode state after a seed-only selection",
            b.key()
        );
    }
}

#[test]
fn columnar_selection_matches_row_selection() {
    let dir = ScratchDir::new("store-col-vs-row");
    let profiles = runs(7);
    Store::save(&dir, &profiles).unwrap();
    let reader = Store::open(&dir).unwrap();
    let preds = [
        PredExpr::True,
        PredExpr::eq("cluster", "quartz"),
        PredExpr::not(PredExpr::eq("seed", 3i64)),
        PredExpr::is_in("seed", [1i64, 5, 99]),
        PredExpr::and([PredExpr::ge("seed", 2i64), PredExpr::lt("seed", 6i64)]),
        PredExpr::eq("no-such-key", 1i64),
        PredExpr::not(PredExpr::eq("no-such-key", 1i64)),
    ];
    // The reference rows are the saved profiles' own metadata, found
    // by each entry's hash: an oracle independent of the index.
    let by_hash = |h: i64| profiles.iter().find(|p| p.profile_hash() == h).unwrap();
    let saved: Vec<&Profile> = reader.entries().iter().map(|e| by_hash(e.hash)).collect();
    for pred in &preds {
        let columnar = reader.select_expr(pred).unwrap();
        let by_rows: Vec<usize> = (0..saved.len())
            .filter(|&i| pred.eval_lookup(&mut |k| saved[i].metadata(k).cloned()))
            .collect();
        assert_eq!(columnar, by_rows, "pred: {pred}");
    }
}

#[test]
fn manifest_roundtrip_and_self_check() {
    let rows = vec![
        vec![
            ("cluster".to_string(), Value::from("quartz")),
            ("size".to_string(), Value::Int(1 << 60)),
        ],
        vec![("cluster".to_string(), Value::from("lassen"))],
    ];
    let m = Manifest {
        generation: 7,
        shards: vec![ShardInfo {
            file: shard_name(7, 0),
            bytes: 100,
            crc: 42,
            records: 2,
        }],
        profiles: (0..2)
            .map(|i| StoreEntry {
                hash: i64::MIN + i,
                shard: 0,
                offset: 12 + i as u64,
                len: 4,
                crc: 7,
            })
            .collect(),
        columns: build_columns(&rows),
        legacy: None,
    };
    let bytes = m.to_file_bytes();
    let back = Manifest::from_file_bytes(&bytes).unwrap();
    assert_eq!(back, m);
    // Parsed columns start undecoded; decode recovers the values
    // and the presence mask distinguishes absent from Null.
    let size = back.column("size").unwrap();
    assert!(!size.is_decoded());
    assert_eq!(size.values().unwrap(), &[Value::Int(1 << 60), Value::Null]);
    assert!(size.present_at(0) && !size.present_at(1));
    assert!(back.column("cluster").unwrap().present_at(1));
    assert!(back.column("nope").is_none());
    // meta_rows reconstructs the per-profile rows, key-sorted.
    assert_eq!(back.meta_rows().unwrap(), rows);
    // Any body mutation breaks the self-CRC.
    let mut bad = bytes.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x20;
    assert!(Manifest::from_file_bytes(&bad).is_err());
    // Truncation breaks it too.
    assert!(Manifest::from_file_bytes(&bytes[..bytes.len() / 2]).is_err());
}

/// A manifest body sealed under a fresh self-CRC, as a writer seals it.
fn seal(body: &str) -> Vec<u8> {
    let mut out = MANIFEST_MAGIC.to_vec();
    out.extend_from_slice(format!("{:08x}\n", crc32c(body.as_bytes())).as_bytes());
    out.extend_from_slice(body.as_bytes());
    out
}

#[test]
fn v2_manifest_roundtrips_columns_and_masks() {
    let rows = vec![
        vec![
            ("cluster".to_string(), Value::from("quartz")),
            ("size".to_string(), Value::Int(1 << 60)),
        ],
        vec![("cluster".to_string(), Value::from("lassen"))],
    ];
    let m = Manifest {
        generation: 3,
        shards: vec![ShardInfo {
            file: shard_name(3, 0),
            bytes: 64,
            crc: 9,
            records: 2,
        }],
        profiles: (0..2)
            .map(|i| StoreEntry {
                hash: i as i64,
                shard: 0,
                offset: 12 + i as u64,
                len: 4,
                crc: 1,
            })
            .collect(),
        columns: build_columns(&rows),
        legacy: None,
    };
    // A v2 body is today's body under the older tag: the legacy reader
    // parses its columns and masks into the same shape, marked v2.
    let bytes = m.to_file_bytes();
    let body = std::str::from_utf8(&bytes[13..]).unwrap();
    let tag = format!("\"format\":\"{MANIFEST_FORMAT}\"");
    assert!(body.contains(&tag));
    let v2 = seal(&body.replacen(&tag, "\"format\":\"thicket-store-2\"", 1));
    let back = Manifest::from_file_bytes(&v2).unwrap();
    assert_eq!(back.legacy, Some("thicket-store-2"));
    assert_eq!(
        back,
        Manifest {
            legacy: back.legacy,
            ..m.clone()
        }
    );
    assert!(matches!(
        back.ensure_current(),
        Err(StoreError::NeedsMigration {
            generation: 3,
            format: "thicket-store-2"
        })
    ));
    // Parsed columns start undecoded; decode recovers the values
    // and the presence mask distinguishes absent from Null.
    let size = back.column("size").unwrap();
    assert!(!size.is_decoded());
    assert_eq!(size.values().unwrap(), &[Value::Int(1 << 60), Value::Null]);
    assert!(size.present_at(0) && !size.present_at(1));
    assert!(back.column("cluster").unwrap().present_at(1));
    assert!(back.column("nope").is_none());
    // meta_rows reconstructs the per-profile rows, key-sorted.
    assert_eq!(back.meta_rows().unwrap(), rows);
    // Rewritten, the index carries over unchanged under today's tag.
    let current = Manifest::from_file_bytes(&back.to_file_bytes()).unwrap();
    assert_eq!(current, m);
}

#[test]
fn out_of_range_manifest_integers_are_malformed() {
    let dir = ScratchDir::new("store-u32-range");
    Store::save(&dir, &runs(2)).unwrap();
    let path = dir.join(manifest_name(1));
    let bytes = std::fs::read(&path).unwrap();
    let m = Manifest::from_file_bytes(&bytes).unwrap();
    let body = std::str::from_utf8(&bytes[13..]).unwrap();
    // Each lie is the true value + 2^32: it would wrap back to the
    // truth in a u32, so a wrapping parse serves the store as healthy.
    let (len, crc) = (m.profiles[0].len as u64, m.shards[0].crc as u64);
    for (field, truth) in [("len", len), ("crc", crc)] {
        let lie = format!("\"{field}\":{},", truth + (1 << 32));
        let lied = seal(&body.replacen(&format!("\"{field}\":{truth},"), &lie, 1));
        assert!(Manifest::from_file_bytes(&lied).is_err(), "{lie} parsed");
        std::fs::write(&path, &lied).unwrap();
        let fsck = Store::fsck(&dir).unwrap();
        let stale = fsck.findings().any(|d| d.kind.label() == "stale-manifest");
        assert!(stale, "{lie}: {fsck}");
    }
}

#[test]
fn pinned_bulk_read_never_reserves_the_declared_shard_size() {
    let dir = ScratchDir::new("store-huge-shard");
    Store::save(&dir, &runs(1)).unwrap();
    let path = dir.join(manifest_name(1));
    let mut m = Manifest::from_file_bytes(&std::fs::read(&path).unwrap()).unwrap();
    // A self-CRC-valid lie: the real one-record shard declared as 1 TiB
    // holding 128 records of u32::MAX bytes, so a full load reads the
    // shard in bulk.
    let template = m.profiles[0].clone();
    m.shards[0].bytes = 1 << 40;
    m.shards[0].records = 128;
    m.profiles = (0..128u64)
        .map(|k| StoreEntry {
            hash: k as i64,
            offset: 12 + k * (u32::MAX as u64 + RECORD_HEADER_BYTES as u64),
            len: u32::MAX,
            ..template.clone()
        })
        .collect();
    m.columns = Vec::new();
    std::fs::write(&path, m.to_file_bytes()).unwrap();
    let (loaded, report) = Store::open_pinned(&dir).unwrap().load_all().unwrap();
    assert!(loaded.is_empty());
    assert_eq!(
        report.summary(),
        "ingest: 0/128 loaded, 128 dropped (torn-shard \u{d7}128)"
    );
}

#[test]
fn mask_hex_roundtrip_and_strictness() {
    for n in [0usize, 1, 7, 8, 9, 17] {
        let present: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
        let mut hex = String::new();
        push_mask_hex(&present, &mut hex);
        assert_eq!(mask_from_hex(&hex, n).unwrap(), present);
    }
    assert!(mask_from_hex("ff", 4).is_err(), "stray high bits");
    assert!(mask_from_hex("0f", 9).is_err(), "too short");
    assert!(mask_from_hex("zz", 8).is_err(), "not hex");
}

#[test]
fn append_reuses_shards_and_skips_duplicates() {
    let dir = ScratchDir::new("store-append");
    let first = runs(3);
    let more = runs(5); // seeds 0..5 — first three duplicate the store
    let r1 = Store::save(&dir, &first).unwrap();
    let r2 = Store::append(&dir, &more).unwrap();
    assert_eq!(r2.generation, 2);
    assert_eq!(r2.appended, 2, "3 of 5 already stored");
    assert_eq!(r2.profiles, 5);
    // Generation 1's shard files are still the ones serving the old
    // profiles: nothing was rewritten.
    assert!(dir.join(shard_name(1, 0)).exists());
    let reader = Store::open(&dir).unwrap();
    assert_eq!(reader.generation(), 2);
    let (loaded, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&more));
    assert!(Store::fsck(&dir).unwrap().is_clean());
    // Appending only duplicates commits a no-op generation.
    let r3 = Store::append(&dir, &first).unwrap();
    assert_eq!(r3.appended, 0);
    assert_eq!(r3.profiles, 5);
    assert_eq!(r3.shards, 0);
    // A typed predicate still selects across old + new entries.
    let reader = Store::open(&dir).unwrap();
    let (subset, _) = reader.load_matching(&PredExpr::ge("seed", 3i64)).unwrap();
    assert_eq!(subset.len(), 2);
    // Once gen 1 leaves the retention window, its shards survive
    // while still referenced by the live manifest.
    assert!(!dir.join(manifest_name(1)).exists());
    assert!(dir.join(shard_name(1, 0)).exists());
    assert_eq!(r1.profiles, 3);
}

#[test]
fn append_to_empty_dir_is_save() {
    let dir = ScratchDir::new("store-append-empty");
    let report = Store::append(&dir, &runs(2)).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(report.appended, 2);
    let (loaded, _) = Store::open(&dir).unwrap().load_all().unwrap();
    assert_eq!(loaded.len(), 2);
    // One duplicate rule for every commit: the first of profiles that
    // share a hash wins, whether the batch is appended onto an empty
    // directory, saved, or appended onto a store.
    let ps = runs(3);
    let batch = [ps[0].clone(), ps[0].clone(), ps[1].clone()];
    let empty = ScratchDir::new("store-append-empty-dup");
    let saved = ScratchDir::new("store-save-dup");
    for (dir, report) in [
        (&empty, Store::append(&empty, &batch)),
        (&saved, Store::save(&saved, &batch)),
    ] {
        let report = report.unwrap();
        assert_eq!((report.appended, report.profiles), (2, 2));
        let (loaded, rep) = Store::open(dir).unwrap().load_all().unwrap();
        assert!(rep.is_clean(), "{rep}");
        assert_eq!(hashes(&loaded), hashes(&ps[..2]));
    }
    let report = Store::append(&saved, &[ps[2].clone(), ps[2].clone(), ps[0].clone()]).unwrap();
    assert_eq!((report.appended, report.profiles), (1, 3));
}

#[test]
fn non_finite_float_metadata_survives_every_commit() {
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let same = |v: Option<&Value>| match v {
            Some(Value::Float(f)) => f.to_bits() == x.to_bits(),
            _ => false,
        };
        let dir = ScratchDir::new("store-non-finite");
        let mut ps = runs(4);
        ps[1].set_metadata("ratio", x);
        ps[2].set_metadata("ratio", x);
        Store::save(&dir, &ps[..2]).unwrap();
        let report = Store::append(&dir, &ps[2..]).unwrap();
        assert_eq!(report.appended, 2, "{x}");
        let reader = Store::open(&dir).unwrap();
        let ratio = reader.manifest().column("ratio").unwrap().values().unwrap();
        assert!(same(ratio.get(1)) && same(ratio.get(2)), "{x}: {ratio:?}");
        assert_eq!((&ratio[0], &ratio[3]), (&Value::Null, &Value::Null));
        reader.select_expr(&PredExpr::eq("ratio", x)).unwrap();
        let fsck = Store::fsck(&dir).unwrap();
        assert!(fsck.is_clean(), "{x}: {fsck}");
        let (loaded, rep) = reader.load_all().unwrap();
        assert!(rep.is_clean(), "{x}: {rep}");
        assert!(same(loaded[1].metadata("ratio")) && same(loaded[2].metadata("ratio")));
        // The profile's own JSON (the thicketd wire form) round-trips.
        let text = ps[1].to_string_pretty();
        let back = Profile::parse(&text).unwrap_or_else(|e| panic!("{x}: {e}: {text}"));
        assert!(same(back.metadata("ratio")), "{x}");
        assert_eq!(back.profile_hash(), ps[1].profile_hash());
    }
}

#[test]
fn append_onto_an_undecodable_column_is_corrupt_and_writes_nothing() {
    let dir = ScratchDir::new("store-append-bad-column");
    Store::save(&dir, &runs(2)).unwrap();
    let path = dir.join(manifest_name(1));
    let bytes = std::fs::read(&path).unwrap();
    let body = std::str::from_utf8(&bytes[MANIFEST_HEADER_BYTES..]).unwrap();
    // The manifest itself verifies: only one column's text is damaged.
    let damaged = seal(&body.replacen(",\"values\":\"[", ",\"values\":\"[[", 1));
    assert!(Manifest::from_file_bytes(&damaged).is_ok());
    std::fs::write(&path, &damaged).unwrap();
    let before = layout::list_dir(&dir).unwrap();
    let err = Store::append(&dir, &runs(4)[2..]).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    assert_eq!(layout::list_dir(&dir).unwrap(), before);
    assert_eq!(std::fs::read(&path).unwrap(), damaged);
    // That append registered the damaged base, and the failed decode
    // stays with it. An append that shares it fails the same way.
    let held = registry::registered(&dir).expect("the append registered its base");
    assert_eq!(held.generation, 1);
    assert!(held.columns.iter().any(|b| b.values().is_err()));
    let err = Store::append(&dir, &runs(4)[2..]).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "{err}");
    let shared = registry::registered(&dir).expect("the base stays registered");
    assert!(
        std::ptr::eq(&*shared, &*held),
        "the second append parsed its base again"
    );
    assert_eq!(layout::list_dir(&dir).unwrap(), before);
    assert_eq!(std::fs::read(&path).unwrap(), damaged);
}

/// Save; append a key new to the store; append duplicates plus new
/// profiles; compact; append. Run once in one directory, where every
/// base is the manifest the previous commit registered, and once with
/// every commit on a fresh copy of the previous state, where every base
/// is parsed from disk: every committed manifest is byte-identical, and
/// each registered one equals a cold parse of its file, decoded values
/// included.
#[test]
fn warm_and_cold_commits_write_the_same_bytes() {
    let p = |id: i64| {
        let row = [
            ("id".to_string(), Value::Int(id)),
            (
                "s".to_string(),
                Value::from(format!("q\"{id}\\\u{1}é").as_str()),
            ),
            ("x".to_string(), Value::Float(id as f64 + 0.25)),
        ];
        tiny(&row, id as f64)
    };
    let novel = tiny(
        &[
            ("id".to_string(), Value::Int(100)),
            ("nan".to_string(), Value::Float(f64::NAN)),
            ("note".to_string(), Value::Null),
            ("x".to_string(), Value::Float(2.0)),
        ],
        0.5,
    );
    let dups_and_new = [p(0), p(1), p(3), p(4), p(3)];
    let steps: [&dyn Fn(&std::path::Path) -> u64; 5] = [
        &|d| Store::save(d, &[p(0), p(1), p(2)]).unwrap().generation,
        &|d| {
            Store::append(d, std::slice::from_ref(&novel))
                .unwrap()
                .generation
        },
        &|d| Store::append(d, &dups_and_new).unwrap().generation,
        &|d| Store::compact(d).unwrap().generation,
        &|d| Store::append(d, &[p(5), p(6)]).unwrap().generation,
    ];
    let warm = ScratchDir::new("commits-warm");
    let mut cold = ScratchDir::new("commits-cold");
    for (i, step) in steps.iter().enumerate() {
        let gen = step(&warm);
        let next = ScratchDir::copy_of("commits-cold", &cold);
        assert_eq!(step(&next), gen, "step {i}");
        cold = next;
        let bytes = std::fs::read(warm.join(manifest_name(gen))).unwrap();
        assert!(
            bytes == std::fs::read(cold.join(manifest_name(gen))).unwrap(),
            "step {i}: warm and cold manifests differ"
        );
        let held = registry::registered(&warm).expect("the commit registered its manifest");
        assert_eq!(held.generation, gen, "step {i}");
        let parsed = Manifest::from_file_bytes(&bytes).unwrap();
        assert_eq!(*held, parsed, "step {i}");
        for (h, c) in held.columns.iter().zip(&parsed.columns) {
            assert_eq!(h.values(), c.values(), "step {i}: column {}", h.key());
        }
    }
    let (loaded, report) = Store::open(&warm).unwrap().load_all().unwrap();
    assert!(report.is_clean(), "{report}");
    assert_eq!(loaded.len(), 8);
}

#[test]
fn manifest_bytes_reproduce_the_checked_in_fixtures() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy");
    for file in ["v3/MANIFEST-000001", "mixed/MANIFEST-000002"] {
        let bytes = std::fs::read(src.join(file)).unwrap();
        let m = Manifest::from_file_bytes(&bytes).unwrap();
        assert_eq!(m.legacy, None, "{file}");
        assert!(
            m.to_file_bytes() == bytes,
            "{file} re-serialized differently"
        );
    }
}

#[test]
fn compact_repacks_fragmented_shards() {
    let dir = ScratchDir::new("store-compact");
    let profiles = runs(8);
    let fragmented = StoreOptions {
        shard_bytes: 1, // every record its own shard
        ..StoreOptions::default()
    };
    let r = Store::save_opts(&dir, &profiles, &fragmented).unwrap();
    assert_eq!(r.shards, 8);
    let c = Store::compact(&dir).unwrap();
    assert_eq!(c.shards, 1, "default shard size swallows all 8");
    assert_eq!(c.profiles, 8);
    assert!(c.report.is_clean(), "{}", c.report);
    let reader = Store::open(&dir).unwrap();
    assert_eq!(reader.generation(), c.generation);
    let (loaded, rep) = reader.load_all().unwrap();
    assert!(rep.is_clean());
    assert_eq!(hashes(&loaded), hashes(&profiles));
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

/// A private copy of a store an older build wrote, checked in under
/// `tests/fixtures/legacy` (see its README). `v1`, `v2` and the `v3`
/// oracle hold the same four profiles.
fn fixture(name: &str) -> ScratchDir {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/legacy");
    ScratchDir::copy_of("store-fixture", &src.join(name))
}

/// Every profile's canonical JSON, in load order, from a clean load.
fn canonical(dir: &std::path::Path) -> Vec<String> {
    let (loaded, report) = Store::open(dir).unwrap().load_all().unwrap();
    assert!(report.is_clean(), "{report}");
    loaded.iter().map(Profile::to_string_pretty).collect()
}

#[test]
fn compact_migrates_old_formats_to_v3() {
    let oracle = canonical(&fixture("v3"));
    assert_eq!(oracle.len(), 4);
    for (name, tag) in [("v1", "thicket-store-1"), ("v2", "thicket-store-2")] {
        let dir = fixture(name);
        let before = layout::list_dir(&dir).unwrap();
        // Serving and appending refuse it, typed, and write nothing.
        for err in [
            Store::open(&dir).err(),
            Store::open_pinned(&dir).err(),
            Store::append(&dir, &runs(5)[4..]).err(),
        ] {
            let e = err.expect("an older format is refused");
            assert!(
                matches!(e, StoreError::NeedsMigration { generation: 1, format } if format == tag),
                "{name}: {e}"
            );
            assert!(e.to_string().contains("Store::compact"), "{e}");
        }
        assert_eq!(layout::list_dir(&dir).unwrap(), before, "{name}");
        assert!(Store::fsck(&dir).unwrap().is_clean(), "{name}");
        // One compaction migrates it to the oracle's profiles, in order,
        // under a working columnar index.
        let c = Store::compact(&dir).unwrap();
        assert!(c.report.is_clean(), "{name}: {}", c.report);
        assert_eq!(canonical(&dir), oracle, "{name}");
        let reader = Store::open(&dir).unwrap();
        assert_eq!(
            reader.select_expr(&PredExpr::eq("seed", 1i64)).unwrap(),
            vec![1]
        );
        // The pre-migration generation survives one commit, and fsck
        // still passes it.
        assert!(dir.join(manifest_name(1)).exists());
        assert!(Store::fsck(&dir).unwrap().is_clean(), "{name}");
    }
}

#[test]
fn compact_transcodes_json_records_an_older_append_left() {
    // `mixed`: an older build's default append onto a v2 store — a
    // current manifest over two JSON records and two TKP3 records.
    let dir = fixture("mixed");
    let (loaded, report) = Store::open(&dir).unwrap().load_all().unwrap();
    assert_eq!(loaded.len(), 2);
    assert_eq!(report.diagnostics.len(), 2, "{report}");
    for d in &report.diagnostics {
        assert!(
            matches!(&d.kind, DiagKind::Schema(m) if m.contains("Store::compact")),
            "{d}"
        );
    }
    // fsck checks integrity, not currency.
    assert!(Store::fsck(&dir).unwrap().is_clean());
    let c = Store::compact(&dir).unwrap();
    assert!(c.report.is_clean(), "{}", c.report);
    assert_eq!(canonical(&dir), canonical(&fixture("v3")));
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

#[test]
fn crash_points_are_enumerable() {
    // begin, two per shard, three for the manifest (mid-write, written,
    // committed), one for GC.
    let dir = ScratchDir::new("store-points");
    let report = Store::save(&dir, &runs(3)).unwrap();
    assert_eq!((report.shards, report.crash_points), (1, 7));
    let one_per_record = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    let report = Store::append_opts(&dir, &runs(5)[3..], &one_per_record).unwrap();
    assert_eq!((report.shards, report.crash_points), (2, 9));
    let report = Store::compact(&dir).unwrap();
    assert_eq!((report.shards, report.crash_points), (1, 7));
    let report = Store::save_opts(&dir, &runs(3), &one_per_record).unwrap();
    assert_eq!((report.shards, report.crash_points), (3, 11));
    // Asking for a crash beyond the last point is a clean write.
    let dir2 = ScratchDir::new("store-points-beyond");
    let opts = StoreOptions {
        crash_after: Some(report.crash_points + 10),
        ..StoreOptions::default()
    };
    Store::save_opts(&dir2, &runs(3), &opts).unwrap();
}

/// The label of every crash point `write` passes, in order: the write
/// runs once clean to count its points, then crashes at each point on a
/// fresh directory that `setup` prepared.
fn crash_labels(
    setup: impl Fn(&std::path::Path),
    write: impl Fn(&std::path::Path, &StoreOptions) -> Result<(usize, usize), StoreError>,
    shard_bytes: usize,
) -> (usize, Vec<&'static str>) {
    let opts = |crash_after| StoreOptions {
        shard_bytes,
        crash_after,
        ..StoreOptions::default()
    };
    let clean = ScratchDir::new("store-labels");
    setup(&clean);
    let (shards, points) = write(&clean, &opts(None)).unwrap();
    let labels = (0..points)
        .map(|at| {
            let dir = ScratchDir::new("store-labels");
            setup(&dir);
            match write(&dir, &opts(Some(at))) {
                Err(StoreError::InjectedCrash { point, label }) if point == at => label,
                other => panic!("crash point {at}: {other:?}"),
            }
        })
        .collect();
    (shards, labels)
}

#[test]
fn crash_point_labels_follow_one_commit_sequence() {
    let profiles = runs(5);
    let nothing = |_: &std::path::Path| {};
    let one_generation = |dir: &std::path::Path| {
        Store::save(dir, &profiles[..3]).unwrap();
    };
    let fragmented = |dir: &std::path::Path| {
        let one_per_record = StoreOptions {
            shard_bytes: 1,
            ..StoreOptions::default()
        };
        Store::save_opts(dir, &profiles, &one_per_record).unwrap();
    };
    let save = |dir: &std::path::Path, opts: &StoreOptions| {
        Store::save_opts(dir, &profiles[..2], opts).map(|r| (r.shards, r.crash_points))
    };
    let append = |dir: &std::path::Path, opts: &StoreOptions| {
        Store::append_opts(dir, &profiles[3..], opts).map(|r| (r.shards, r.crash_points))
    };
    let compact = |dir: &std::path::Path, opts: &StoreOptions| {
        Store::compact_opts(dir, opts).map(|r| (r.shards, r.crash_points))
    };
    // Shards that never fill, so every write packs one shard.
    let wide = 1 << 20;
    let cases = [
        ("save, one shard", 1, crash_labels(nothing, save, wide)),
        ("save, two shards", 2, crash_labels(nothing, save, 1)),
        ("append", 1, crash_labels(one_generation, append, wide)),
        ("compact", 1, crash_labels(fragmented, compact, wide)),
    ];
    for (case, want_shards, (shards, labels)) in cases {
        assert_eq!(shards, want_shards, "{case}");
        let mut want = vec!["begin"];
        for _ in 0..shards {
            want.extend(["mid-shard-write", "shard-written"]);
        }
        want.extend([
            "mid-manifest-write",
            "manifest-written",
            "manifest-committed",
            "gc-manifests",
        ]);
        assert_eq!(labels, want, "{case}");
    }
}

#[test]
fn crash_before_commit_preserves_old_generation() {
    let dir = ScratchDir::new("store-crash-precommit");
    let old = runs(3);
    Store::save(&dir, &old).unwrap();
    // Crash at point 1 = mid-shard-write of the new generation.
    let opts = StoreOptions {
        crash_after: Some(1),
        ..StoreOptions::default()
    };
    let err = Store::save_opts(&dir, &runs(5), &opts).unwrap_err();
    assert!(matches!(err, StoreError::InjectedCrash { .. }), "{err}");
    // The torn new shard is an orphan; fsck flags it, open still
    // serves generation 1, recover cleans it.
    let fsck = Store::fsck(&dir).unwrap();
    assert!(!fsck.is_clean());
    assert_eq!(fsck.newest_intact, Some(1));
    let (loaded, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean());
    assert_eq!(hashes(&loaded), hashes(&old));
    let rec = Store::recover(&dir).unwrap();
    assert_eq!(rec.generation, 1);
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

#[test]
fn empty_store_dir_errors() {
    let dir = ScratchDir::new("store-empty");
    std::fs::create_dir_all(&dir).unwrap();
    assert!(matches!(
        Store::open(&dir),
        Err(StoreError::NoGeneration(_))
    ));
    assert!(Store::recover(&dir).is_err());
}

/// An append onto a store whose every generation fails verification
/// fails typed and writes nothing, so `recover` still salvages every
/// record. A save in its place would let GC delete the shards no
/// verifying manifest references.
#[test]
fn append_onto_unverifiable_generations_writes_nothing() {
    let dir = ScratchDir::new("store-append-broken");
    let profiles = runs(12);
    Store::save(&dir, &profiles[..5]).unwrap();
    Store::append(&dir, &profiles[5..10]).unwrap();
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    for name in listing().iter().filter(|n| n.starts_with("MANIFEST-")) {
        let path = dir.join(name);
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
    }
    let before = listing();

    let err = Store::append(&dir, &profiles[10..]).unwrap_err();
    assert!(matches!(err, StoreError::NoGeneration(_)), "{err}");
    assert!(err.to_string().contains("Store::recover"), "{err}");
    assert_eq!(listing(), before);

    let rec = Store::recover(&dir).unwrap();
    assert_eq!(rec.salvaged, 10);
    let (loaded, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&profiles[..10]));
}

#[test]
fn zero_profile_store_roundtrips() {
    let dir = ScratchDir::new("store-zero");
    let report = Store::save(&dir, &[]).unwrap();
    assert_eq!(report.profiles, 0);
    let (loaded, rep) = Store::open(&dir).unwrap().load_all().unwrap();
    assert!(loaded.is_empty());
    assert!(rep.is_clean());
}

#[test]
fn live_foreign_lock_surfaces_busy() {
    let dir = ScratchDir::new("store-busy");
    let profiles = runs(2);
    Store::save(&dir, &profiles).unwrap();
    // A parseable lock owned by *this* (live) process but a token we
    // don't hold: exactly what another thread's in-flight commit looks
    // like. Never taken over — the writer must wait, then report Busy.
    std::fs::write(
        dir.join("LOCK"),
        format!("pid {}\ntoken {:016x}\n", std::process::id(), 0xdead_beef_u64),
    )
    .unwrap();
    let opts = StoreOptions {
        lock_timeout: std::time::Duration::from_millis(50),
        ..StoreOptions::default()
    };
    let t0 = std::time::Instant::now();
    match Store::append_opts(&dir, &runs(1), &opts) {
        Err(StoreError::Busy { waited }) => {
            assert!(waited >= std::time::Duration::from_millis(50));
            assert!(t0.elapsed() >= std::time::Duration::from_millis(50));
        }
        other => panic!("expected Busy, got {other:?}"),
    }
    // The foreign lock is untouched by the failed acquisition.
    assert!(dir.join("LOCK").exists());
}

#[test]
fn dead_owner_lock_is_taken_over() {
    let dir = ScratchDir::new("store-takeover");
    let profiles = runs(2);
    Store::save(&dir, &profiles).unwrap();
    // pid 0 is never alive: a parseable lock from a dead writer.
    std::fs::write(dir.join("LOCK"), "pid 0\ntoken 0000000000000001\n").unwrap();
    let rep = Store::append(&dir, &runs(3)[2..]).unwrap();
    assert_eq!(rep.appended, 1);
    // The takeover left no residue and the lock was released after.
    assert!(!dir.join("LOCK").exists());
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

#[test]
fn pin_name_roundtrip_and_rejects() {
    use super::layout::{parse_pin_name, pin_name};
    let name = pin_name(42, 1234, 0xabcd_ef01_2345_6789);
    assert_eq!(parse_pin_name(&name), Some((42, 1234, 0xabcd_ef01_2345_6789)));
    assert_eq!(parse_pin_name("pin-000042-1234-deadbeef"), None); // short token
    assert_eq!(parse_pin_name("pin-xx-1-0000000000000000"), None);
    assert_eq!(parse_pin_name("LOCK"), None);
    assert_eq!(parse_pin_name("shard-000001-0000.tks"), None);
}

#[test]
fn pinned_snapshot_survives_generation_collection() {
    let dir = ScratchDir::new("store-pin-gc");
    let profiles = runs(5);
    Store::save(&dir, &profiles).unwrap();
    let snap = Store::open_pinned(&dir).unwrap();
    assert!(snap.leased());
    let lease = snap.lease_file().unwrap().to_string();
    assert!(dir.join(&lease).exists());
    // keep_generations 0 would normally collect generation 1 on the
    // next commit — the live lease must hold it.
    let opts = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    Store::append_opts(&dir, &runs(7)[5..], &opts).unwrap();
    Store::compact_opts(&dir, &opts).unwrap();
    let (loaded, rep) = snap.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&profiles), "snapshot tore");
    // Dropping the pin releases the lease; the next commit collects.
    drop(snap);
    assert!(!dir.join(&lease).exists(), "lease not cleaned up");
    Store::append_opts(&dir, &runs(8)[7..], &opts).unwrap();
    let gens: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("MANIFEST-"))
        .collect();
    assert_eq!(gens.len(), 1, "unpinned generations survived GC");
}

#[test]
fn pinned_snapshot_survives_unlinked_files() {
    let dir = ScratchDir::new("store-pin-unlink");
    let profiles = runs(4);
    Store::save(&dir, &profiles).unwrap();
    let snap = Store::open_pinned(&dir).unwrap();
    // Simulate a hostile GC: unlink every shard and manifest under the
    // snapshot. Open handles keep the data readable on POSIX.
    for entry in std::fs::read_dir(&dir).unwrap().filter_map(|e| e.ok()) {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("shard-") || name.starts_with("MANIFEST-") {
            std::fs::remove_file(entry.path()).unwrap();
        }
    }
    let (loaded, rep) = snap.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&profiles));
    // Selection and filtered loads ride the same handles.
    let (subset, _) = snap.load_matching(&PredExpr::ge("seed", 2i64)).unwrap();
    assert_eq!(subset.len(), 2);
}

#[test]
fn shared_in_process_leases_refcount_one_file() {
    let dir = ScratchDir::new("store-pin-shared");
    Store::save(&dir, &runs(3)).unwrap();
    let a = Store::open_pinned(&dir).unwrap();
    let b = Store::open_pinned(&dir).unwrap();
    // Same directory, same generation: one lease file serves both.
    assert_eq!(a.lease_file(), b.lease_file());
    let lease = a.lease_file().unwrap().to_string();
    drop(a);
    assert!(dir.join(&lease).exists(), "lease dropped while a pin lives");
    drop(b);
    assert!(!dir.join(&lease).exists(), "last pin did not clean up");
}

/// `open_pinned` on a read-only medium falls back to handle-only
/// pinning — no lease file, no error — because a medium no one can
/// write to is a medium no GC can run against either. The medium is
/// provoked through the thread-local `lease::FAULT_EROFS` seam: tests
/// run as root, so permission bits cannot produce the real EROFS.
#[test]
fn open_pinned_on_read_only_store_degrades_to_handles_only() {
    let dir = ScratchDir::new("erofs-pin");
    Store::save(&dir, &runs(3)).unwrap();

    // With every lease write failing EROFS, the pin must degrade, not
    // error: a handle-only snapshot that still serves complete reads.
    // The switch is per thread, and each test runs on a thread of its
    // own.
    lease::FAULT_EROFS.set(true);
    let snap = Store::open_pinned(&dir).expect("EROFS must degrade, not fail");
    assert!(!snap.leased(), "read-only medium cannot carry a lease");
    assert_eq!(snap.lease_file(), None);
    let (loaded, rep) = snap.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(loaded.len(), 3);
    // No pin file may have touched the directory.
    assert_eq!(
        lease_files(&dir),
        Vec::<String>::new(),
        "degraded pin left a lease file"
    );
    drop(snap);

    // Seam off: the same store pins with a lease again — the
    // degradation is the *medium's* property, not the store's.
    lease::FAULT_EROFS.set(false);
    let snap = Store::open_pinned(&dir).unwrap();
    assert!(snap.leased());
    assert!(dir.join(snap.lease_file().unwrap()).exists());
    drop(snap);
}

#[test]
fn injected_crash_leaves_stale_lock_not_live_lock() {
    let dir = ScratchDir::new("store-crash-lock");
    Store::save(&dir, &runs(2)).unwrap();
    // Crash the writer mid-append: the commit lock must be left in a
    // state a *later* writer can take over immediately, even though
    // this (live) process is the owner of record.
    let opts = StoreOptions {
        crash_after: Some(1),
        ..StoreOptions::default()
    };
    match Store::append_opts(&dir, &runs(3)[2..], &opts) {
        Err(StoreError::InjectedCrash { .. }) => {}
        other => panic!("expected InjectedCrash, got {other:?}"),
    }
    assert!(dir.join("LOCK").exists(), "crashed writer removed its lock");
    // fsck classifies it as stale (not live), recover reaps it, and a
    // follow-up append needs no timeout wait.
    let fsck = Store::fsck(&dir).unwrap();
    assert!(
        fsck.coordination
            .iter()
            .any(|d| matches!(d.kind, crate::ingest::DiagKind::StaleLock { .. })),
        "crashed lock not classified: {fsck}"
    );
    let t0 = std::time::Instant::now();
    let rep = Store::append(&dir, &runs(3)[2..]).unwrap();
    assert_eq!(rep.appended, 1);
    assert!(
        t0.elapsed() < StoreOptions::default().lock_timeout,
        "takeover waited out a timeout"
    );
    assert!(Store::fsck(&dir).unwrap().is_clean());
}

#[test]
fn open_pinned_fails_fast_on_a_store_it_can_never_pin() {
    let empty = ScratchDir::new("pin-empty");
    std::fs::create_dir_all(&empty).unwrap();
    // A store whose only manifest fails its body CRC.
    let broken = ScratchDir::new("pin-broken");
    Store::save(&broken, &runs(2)).unwrap();
    let path = broken.join(manifest_name(1));
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    for dir in [&empty, &broken] {
        let t0 = Instant::now();
        let err = Store::open_pinned(dir).err().expect("nothing to pin");
        let took = t0.elapsed();
        assert!(matches!(err, StoreError::NoGeneration(_)), "{err}");
        // The 31 back-offs of the pin-race retry sleep at least 240 ms.
        assert!(took < Duration::from_millis(100), "backed off for {took:?}");
        assert!(lease_files(dir).is_empty());
    }
}

// ---------------------------------------------------------------------
// The manifest registry.
// ---------------------------------------------------------------------

#[test]
fn registry_snapshots_share_one_manifest_and_lease_until_the_last_drops() {
    let dir = ScratchDir::new("registry-share");
    let profiles = runs(4);
    Store::save(&dir, &profiles).unwrap();
    let mut snaps: Vec<Snapshot> = (0..3).map(|_| Store::open_pinned(&dir).unwrap()).collect();
    let shared = registry::registered(&dir).expect("the open registered the manifest");
    for snap in &snaps {
        assert!(
            std::ptr::eq(snap.manifest(), &*shared),
            "a snapshot parsed its own copy"
        );
    }
    assert_eq!(
        lease_files(&dir).len(),
        1,
        "one lease file for every snapshot"
    );
    drop(shared);

    // keep_generations 0: every commit would collect generation 1, but
    // a live snapshot holds it until the last one drops.
    let keep0 = StoreOptions {
        keep_generations: 0,
        ..StoreOptions::default()
    };
    let more = runs(7);
    for p in &more[4..6] {
        drop(snaps.pop());
        Store::append_opts(&dir, std::slice::from_ref(p), &keep0).unwrap();
        assert!(
            dir.join(manifest_name(1)).exists(),
            "generation 1 collected under {} live snapshots",
            snaps.len()
        );
    }
    let (loaded, rep) = snaps[0].load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&profiles));
    drop(snaps);
    assert!(
        lease_files(&dir).is_empty(),
        "the last drop released the lease"
    );
    Store::append_opts(&dir, &more[6..], &keep0).unwrap();
    assert!(
        !dir.join(manifest_name(1)).exists(),
        "generation 1 outlived its snapshots"
    );
}

#[test]
fn registry_pin_after_commit_sees_the_new_generation() {
    let dir = ScratchDir::new("registry-commit");
    Store::save(&dir, &runs(3)).unwrap();
    settle_manifest(&dir, 1);
    let old = Store::open_pinned(&dir).unwrap();
    let warm = Store::open_pinned(&dir).unwrap();
    assert_eq!(
        warm.bytes_read(),
        MANIFEST_HEADER_BYTES as u64,
        "not a registry hit"
    );
    drop(warm);
    Store::append(&dir, &runs(5)[3..]).unwrap();
    let new = Store::open_pinned(&dir).unwrap();
    assert_eq!(new.generation(), 2);
    assert_eq!(new.manifest().profiles.len(), 5);
    assert!(!std::ptr::eq(new.manifest(), old.manifest()));
    let (loaded, rep) = new.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&runs(5)));
    // The older snapshot still serves its own generation.
    assert_eq!(old.generation(), 1);
    assert_eq!(old.load_all().unwrap().0.len(), 3);
}

#[test]
fn registry_young_entry_settles_after_a_recheck() {
    let dir = ScratchDir::new("registry-settle");
    Store::save(&dir, &runs(2)).unwrap();
    let manifest_bytes = std::fs::metadata(dir.join(manifest_name(1))).unwrap().len();
    // Modified half a second before the first verification: young.
    set_manifest_mtime(&dir, 1, SystemTime::now() - Duration::from_millis(500));
    let cold = Store::open(&dir).unwrap();
    assert_eq!(cold.bytes_read(), manifest_bytes);
    std::thread::sleep(Duration::from_millis(600));
    // A second after the mtime, a re-check of the body settles the
    // entry; from then on a hit reads the header alone.
    let _recheck = Store::open(&dir).unwrap();
    let settled = Store::open(&dir).unwrap();
    assert_eq!(settled.bytes_read(), MANIFEST_HEADER_BYTES as u64);
    assert!(std::ptr::eq(settled.manifest(), cold.manifest()));
}

#[test]
fn registry_never_serves_a_wiped_and_resaved_store() {
    let dir = ScratchDir::new("registry-resave");
    let first_profiles = runs(3);
    let second_profiles = runs(6)[3..].to_vec();
    Store::save(&dir, &first_profiles).unwrap();
    settle_manifest(&dir, 1);
    let first = Store::open(&dir).unwrap();
    // Wiped and saved again: generation 1 once more, with the same
    // (old) mtime, and likely a recycled inode.
    std::fs::remove_dir_all(&dir).unwrap();
    Store::save(&dir, &second_profiles).unwrap();
    settle_manifest(&dir, 1);
    let second = Store::open(&dir).unwrap();
    assert_eq!(second.generation(), 1);
    assert!(!std::ptr::eq(first.manifest(), second.manifest()));
    let (loaded, rep) = second.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&second_profiles));
}

#[test]
fn registry_in_place_rewrite_behaves_as_a_cold_open() {
    let dir = ScratchDir::new("registry-rewrite");
    Store::save(&dir, &runs(3)).unwrap();
    Store::append(&dir, &runs(4)[3..]).unwrap();
    // An mtime that cannot be older than any verification keeps the
    // entry young: the case of a rewrite within one timestamp tick.
    let tick = SystemTime::now() + Duration::from_secs(3600);
    set_manifest_mtime(&dir, 2, tick);
    let cold = Store::open(&dir).unwrap();
    let warm = Store::open(&dir).unwrap();
    assert_eq!(warm.generation(), 2);
    assert!(std::ptr::eq(cold.manifest(), warm.manifest()));
    drop((cold, warm));

    // Same length, header untouched, one body byte changed, same inode
    // and mtime: only the body CRC tells.
    let path = dir.join(manifest_name(2));
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    set_manifest_mtime(&dir, 2, tick);

    let reference = ScratchDir::copy_of("registry-rewrite-cold", &dir);
    let expect = Store::open(&reference).unwrap();
    let got = Store::open(&dir).unwrap();
    assert_eq!(
        expect.generation(),
        1,
        "a cold open falls back to generation 1"
    );
    assert_eq!(got.generation(), expect.generation());
    assert_eq!(got.bytes_read(), expect.bytes_read());
    let (got_profiles, got_report) = got.load_all().unwrap();
    let (expect_profiles, expect_report) = expect.load_all().unwrap();
    assert_eq!(got_report, expect_report);
    assert_eq!(hashes(&got_profiles), hashes(&expect_profiles));
    let pinned = Store::open_pinned(&dir).unwrap();
    assert_eq!(pinned.generation(), 1);
}

#[test]
fn registry_holds_every_commit() {
    let dir = ScratchDir::new("registry-commits");
    let ps = runs(6);
    let holds = |gen: u64| {
        let held = registry::registered(&dir).expect("the commit registered its manifest");
        assert_eq!(held.generation, gen);
        let reader = Store::open(&dir).unwrap();
        assert!(
            std::ptr::eq(reader.manifest(), &*held),
            "generation {gen}: the open parsed its own copy"
        );
    };
    holds(Store::save(&dir, &ps[..2]).unwrap().generation);
    holds(Store::append(&dir, &ps[2..4]).unwrap().generation);
    holds(Store::compact(&dir).unwrap().generation);
    holds(Store::append(&dir, &ps[4..]).unwrap().generation);
}

#[test]
fn registry_in_place_rewrite_behaves_as_a_cold_append() {
    let dir = ScratchDir::new("registry-rewrite-append");
    Store::save(&dir, &runs(3)).unwrap();
    // A warm append: its base is the save's registration, and it
    // registers generation 2.
    Store::append(&dir, &runs(4)[3..]).unwrap();
    assert_eq!(registry::registered(&dir).map(|m| m.generation), Some(2));

    // Same length, header untouched, one body byte changed, same inode
    // and mtime: only the body CRC tells.
    let path = dir.join(manifest_name(2));
    let mtime = std::fs::metadata(&path).unwrap().modified().unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    let at = bytes.len() - 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();
    set_manifest_mtime(&dir, 2, mtime);

    let reference = ScratchDir::copy_of("registry-rewrite-append-cold", &dir);
    let batch = &runs(6)[4..];
    let expect = Store::append(&reference, batch);
    let got = Store::append(&dir, batch);
    match (&got, &expect) {
        (Ok(g), Ok(e)) => assert_eq!(g, e),
        (Err(g), Err(e)) => assert_eq!(
            std::mem::discriminant(g),
            std::mem::discriminant(e),
            "{g} against {e}"
        ),
        _ => panic!("warm {got:?} against cold {expect:?}"),
    }
    let report = expect.unwrap();
    assert_eq!(
        (report.generation, report.profiles),
        (3, 5),
        "a cold append grows generation 1"
    );
    let files = |d: &std::path::Path| -> Vec<(String, Vec<u8>)> {
        layout::list_dir(d)
            .unwrap()
            .into_iter()
            .map(|n| {
                let bytes = std::fs::read(d.join(&n)).unwrap();
                (n, bytes)
            })
            .collect()
    };
    assert!(files(&dir) == files(&reference), "the directories differ");
}

/// A newest generation collected between the listing and its probe
/// means a newer one committed: the probe lists again and finds it,
/// instead of answering with an older generation a pin still keeps.
#[test]
fn registry_newest_lists_again_past_a_collected_generation() {
    let dir = ScratchDir::new("registry-vanished");
    Store::save(&dir, &runs(2)).unwrap();
    Store::append(&dir, &runs(3)[2..]).unwrap();
    let mut vanished = false;
    let (gen, _) = registry::newest_by(&dir, |gen, _| {
        if gen == 2 && !vanished {
            // Generation 3 commits and GC collects generation 2.
            vanished = true;
            std::fs::rename(dir.join(manifest_name(2)), dir.join(manifest_name(3)))?;
            return Err(std::io::ErrorKind::NotFound.into());
        }
        Ok(Some(gen))
    })
    .unwrap();
    assert_eq!(gen, 3, "answered with a generation older than the newest");
}

#[test]
fn registry_never_holds_a_legacy_generation() {
    for name in ["v1", "v2"] {
        let dir = fixture(name);
        for _ in 0..3 {
            for err in [Store::open(&dir).err(), Store::open_pinned(&dir).err()] {
                let e = err.expect("an older format is refused");
                assert!(
                    matches!(e, StoreError::NeedsMigration { .. }),
                    "{name}: {e}"
                );
            }
        }
        assert!(registry::registered(&dir).is_none(), "{name} registered");
        assert!(lease_files(&dir).is_empty());
        // Once migrated, the directory's readers share its manifest.
        Store::compact(&dir).unwrap();
        let reader = Store::open(&dir).unwrap();
        let shared = registry::registered(&dir).expect("the migrated generation registers");
        assert!(std::ptr::eq(reader.manifest(), &*shared));
    }
}

#[test]
fn registry_drops_removed_directories() {
    let gone = ScratchDir::new("registry-gone");
    Store::save(&gone, &runs(2)).unwrap();
    let canonical = gone.canonicalize().unwrap();
    let reader = Store::open(&gone).unwrap();
    assert!(registry::registered(&canonical).is_some());
    drop(reader);
    std::fs::remove_dir_all(&gone).unwrap();
    // The next registration sweeps out entries whose manifest is gone.
    let next = ScratchDir::new("registry-next");
    Store::save(&next, &runs(2)).unwrap();
    let _reader = Store::open(&next).unwrap();
    assert!(registry::registered(&canonical).is_none());
}

#[test]
fn registry_cold_and_warm_loads_are_bit_identical() {
    let dir = ScratchDir::new("registry-cold-warm");
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &runs(8), &opts).unwrap();
    settle_manifest(&dir, 1);
    let pred = PredExpr::and([PredExpr::ge("seed", 3i64), PredExpr::lt("seed", 7i64)]);
    let cold = Store::open_pinned(&dir).unwrap();
    let (cold_profiles, cold_report) = cold.load_matching(&pred).unwrap();
    let warm = Store::open_pinned(&dir).unwrap();
    assert_eq!(
        warm.bytes_read(),
        MANIFEST_HEADER_BYTES as u64,
        "not a registry hit"
    );
    let (warm_profiles, warm_report) = warm.load_matching(&pred).unwrap();
    assert_eq!(warm_report, cold_report);
    assert_eq!(cold_profiles.len(), 4);
    let encode = |ps: &[Profile]| -> Vec<Vec<u8>> {
        ps.iter().map(crate::binprofile::encode_profile).collect()
    };
    assert_eq!(encode(&warm_profiles), encode(&cold_profiles));
    assert_eq!(
        warm.entries(),
        cold.entries(),
        "materialized metadata differs"
    );
}

#[test]
fn registry_pins_of_one_generation_share_one_handle_set() {
    let dir = ScratchDir::new("registry-handles");
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &runs(4), &opts).unwrap();
    let a = Store::open_pinned(&dir).unwrap();
    let b = Store::open_pinned(&dir).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(a.shared(), b.shared()),
        "a re-pin opened handles of its own"
    );
    assert_eq!(a.shared().shards.get().map(Vec::len), Some(4));

    // The generation a commit makes gets a set of its own, which the
    // commit does not open; the older snapshot keeps reading its set.
    Store::append_opts(&dir, &runs(5)[4..], &opts).unwrap();
    let unpinned = Store::open(&dir).unwrap();
    assert_eq!(unpinned.generation(), 2);
    assert!(
        unpinned.shared().shards.get().is_none(),
        "the commit opened shard handles"
    );
    let c = Store::open_pinned(&dir).unwrap();
    assert!(std::sync::Arc::ptr_eq(c.shared(), unpinned.shared()));
    assert!(!std::sync::Arc::ptr_eq(c.shared(), a.shared()));
    assert_eq!(c.shared().shards.get().map(Vec::len), Some(5));
    assert_eq!(hashes(&a.load_all().unwrap().0), hashes(&runs(4)));
    assert_eq!(hashes(&c.load_all().unwrap().0), hashes(&runs(5)));
}

#[test]
fn registry_never_reuses_a_wiped_and_resaved_stores_handles() {
    let dir = ScratchDir::new("registry-handles-resave");
    Store::save(&dir, &runs(3)).unwrap();
    settle_manifest(&dir, 1);
    let first = Store::open_pinned(&dir).unwrap();
    let old = std::sync::Arc::downgrade(first.shared());
    drop(first);
    assert!(old.upgrade().is_some(), "the entry dropped its handles");
    // Wiped and saved again: generation 1 once more, with the same (old)
    // mtime, and likely a recycled inode.
    std::fs::remove_dir_all(&dir).unwrap();
    let second_profiles = runs(6)[3..].to_vec();
    Store::save(&dir, &second_profiles).unwrap();
    assert!(
        old.upgrade().is_none(),
        "the replaced generation's handles outlived its entry"
    );
    settle_manifest(&dir, 1);
    let second = Store::open_pinned(&dir).unwrap();
    let (loaded, rep) = second.load_all().unwrap();
    assert!(rep.is_clean(), "{rep}");
    assert_eq!(hashes(&loaded), hashes(&second_profiles));
}

#[test]
fn registry_repinned_loads_read_the_same_bytes() {
    let dir = ScratchDir::new("registry-handles-bytes");
    let opts = StoreOptions {
        shard_bytes: 8 * 1024,
        ..StoreOptions::default()
    };
    Store::save_opts(&dir, &runs(9), &opts).unwrap();
    // Settled and registered: every pin below is a registry hit that
    // reads the manifest's header alone.
    settle_manifest(&dir, 1);
    let registered = Store::open(&dir).unwrap();
    assert!(registered.shared().shards.get().is_none());
    // One record of a shard of three is read alone; every record is
    // read shard by shard, in bulk.
    for pred in [PredExpr::eq("seed", 4i64), PredExpr::True] {
        let first = Store::open_pinned(&dir).unwrap();
        let (first_profiles, first_report) = first.load_matching(&pred).unwrap();
        let again = Store::open_pinned(&dir).unwrap();
        let (again_profiles, again_report) = again.load_matching(&pred).unwrap();
        assert!(std::sync::Arc::ptr_eq(first.shared(), again.shared()));
        assert_eq!(again.bytes_read(), first.bytes_read(), "{pred:?}");
        assert_eq!(again_report, first_report);
        let encode = |ps: &[Profile]| -> Vec<Vec<u8>> {
            ps.iter().map(crate::binprofile::encode_profile).collect()
        };
        assert_eq!(encode(&again_profiles), encode(&first_profiles));
    }
}

/// How many of this process's open descriptors point into `dir`.
#[cfg(target_os = "linux")]
fn descriptors_into(dir: &std::path::Path) -> usize {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| target.starts_with(dir))
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn registry_keeps_shard_handles_of_at_most_max_dirs_directories() {
    let opts = StoreOptions {
        shard_bytes: 1,
        ..StoreOptions::default()
    };
    let dirs: Vec<ScratchDir> = (0..=registry::MAX_DIRS)
        .map(|k| ScratchDir::new(&format!("registry-fds-{k}")))
        .collect();
    let canonical: Vec<std::path::PathBuf> = dirs
        .iter()
        .map(|d| {
            Store::save_opts(d, &runs(3), &opts).unwrap();
            let pinned = Store::open_pinned(d).unwrap();
            assert_eq!(pinned.shared().shards.get().map(Vec::len), Some(3));
            d.canonicalize().unwrap()
        })
        .collect();
    let holding = canonical.iter().filter(|d| descriptors_into(d) > 0).count();
    assert!(
        holding <= registry::MAX_DIRS,
        "{holding} directories keep shard handles"
    );
    assert_eq!(
        descriptors_into(&canonical[0]),
        0,
        "the least recently used directory kept its handles"
    );

    // A commit replaces the generation: its handles close with the
    // last snapshot that reads them.
    let last = &dirs[registry::MAX_DIRS];
    let pinned = Store::open_pinned(last).unwrap();
    assert_eq!(descriptors_into(&canonical[registry::MAX_DIRS]), 3);
    Store::append_opts(last, &runs(4)[3..], &opts).unwrap();
    assert_eq!(descriptors_into(&canonical[registry::MAX_DIRS]), 3);
    drop(pinned);
    assert_eq!(
        descriptors_into(&canonical[registry::MAX_DIRS]),
        0,
        "a replaced generation kept its handles"
    );

    // A removed directory keeps none once a registration finds its
    // manifest gone.
    let removed = &dirs[registry::MAX_DIRS - 1];
    drop(Store::open_pinned(removed).unwrap());
    std::fs::remove_dir_all(removed).unwrap();
    let next = ScratchDir::new("registry-fds-next");
    Store::save(&next, &runs(1)).unwrap();
    assert_eq!(
        descriptors_into(&canonical[registry::MAX_DIRS - 1]),
        0,
        "a removed directory kept its handles"
    );
}

/// A one-node profile carrying `row` as its metadata (its hash is the
/// row's) and `time` as its only metric.
fn tiny(row: &[(String, Value)], time: f64) -> Profile {
    let mut g = thicket_graph::Graph::new();
    let root = g.add_root(thicket_graph::Frame::named("main"));
    let mut p = Profile::new(g);
    p.set_metric(root, "time", time);
    for (k, v) in row {
        p.set_metadata(k.clone(), v.clone());
    }
    p
}

/// A value from every branch of the column encoding.
fn oracle_value(rng: &mut rand::rngs::StdRng) -> Value {
    use rand::Rng;
    let r: i64 = rng.gen_range(-1000..1000);
    match rng.gen_range(0..9u8) {
        0 => Value::Int(r),
        1 if r < 0 => Value::Int(i64::MIN + 1000 + r),
        1 => Value::Int((1 << 60) + r),
        2 => Value::Float(r as f64),
        3 => Value::Float([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][r.rem_euclid(3) as usize]),
        4 => Value::Float(r as f64 + 0.25),
        5 => Value::from(format!("q\"{r}\\\u{1}\t\n\u{7f}é😀").as_str()),
        6 => Value::from(r.to_string().as_str()),
        7 => Value::Bool(r % 2 == 0),
        _ => Value::Null,
    }
}

/// The same row under another profile: one value swapped for one that
/// displays the same (`Int(n)` ↔ `Str("n")`), so the hash is unchanged
/// while the stored row differs.
fn same_hash_other_row(row: &[(String, Value)]) -> Vec<(String, Value)> {
    let mut row = row.to_vec();
    for (_, v) in row.iter_mut() {
        let swapped = match &*v {
            Value::Int(i) => Some(Value::from(i.to_string().as_str())),
            Value::Str(s) => s.parse::<i64>().ok().map(Value::Int),
            _ => None,
        };
        if let Some(swapped) = swapped {
            *v = swapped;
            break;
        }
    }
    row
}

/// One commit sequence against a model of the newest generation's
/// profiles, in storage order: after every commit, the newest
/// manifest's columns equal `build_columns` of the model's rows, fsck
/// is clean, and `load_all` returns the model's profiles. A snapshot
/// pinned on the first generation, when asked for, must still load it
/// at the end.
fn column_and_gc_oracle(seed: u64, keep: usize, pin: bool) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let dir = ScratchDir::new("store-oracle");
    let mut model: Vec<(Vec<(String, Value)>, f64)> = Vec::new();
    let mut first_gen: Option<(Snapshot, Vec<String>)> = None;
    let mut next_id = 0i64;
    // Loads come back grouped by shard: compare them as sorted lists.
    let canonical = |profiles: Vec<Profile>| -> Vec<String> {
        let mut texts: Vec<String> = profiles.iter().map(Profile::to_string_pretty).collect();
        texts.sort();
        texts
    };
    let modelled = |rows: &[(Vec<(String, Value)>, f64)]| -> Vec<String> {
        canonical(rows.iter().map(|(r, t)| tiny(r, *t)).collect())
    };
    let commits = rng.gen_range(2..=6usize);
    for c in 0..commits {
        let ctx = format!("seed {seed} keep {keep} pin {pin} commit {c}");
        let op = if c == 0 { 0 } else { rng.gen_range(1..3u8) };
        let opts = StoreOptions {
            keep_generations: keep,
            shard_bytes: rng.gen_range(1..400usize),
            ..StoreOptions::default()
        };
        // Keys come and go: a few shared ones and one per commit.
        let keys = ["a", "b", "c\"q", "é"].map(String::from);
        let mut batch: Vec<(Vec<(String, Value)>, f64)> = Vec::new();
        for _ in 0..rng.gen_range(0..7usize) {
            let time = rng.gen_range(0.0..1.0);
            let pick = rng.gen_range(0..10u8);
            if pick < 2 && !batch.is_empty() {
                // An in-batch duplicate (same hash, other payload).
                let (row, _) = batch[rng.gen_range(0..batch.len())].clone();
                batch.push((row, time));
            } else if pick < 5 && !model.is_empty() {
                let (row, _) = &model[rng.gen_range(0..model.len())];
                let row = if pick == 4 {
                    same_hash_other_row(row)
                } else {
                    row.clone()
                };
                batch.push((row, time));
            } else {
                next_id += 1;
                let mut row = vec![("id".to_string(), Value::Int(next_id))];
                for k in keys.iter().cloned().chain([format!("k{c}")]) {
                    if rng.gen_range(0..2u8) == 0 {
                        row.push((k, oracle_value(&mut rng)));
                    }
                }
                row.sort_by(|a, b| a.0.cmp(&b.0));
                batch.push((row, time));
            }
        }
        let profiles: Vec<Profile> = batch.iter().map(|(r, t)| tiny(r, *t)).collect();
        let hash = |(r, t): &(Vec<(String, Value)>, f64)| tiny(r, *t).profile_hash();
        let generation = match op {
            0 | 1 => {
                let report = if op == 0 {
                    Store::save_opts(&dir, &profiles, &opts).unwrap()
                } else {
                    Store::append_opts(&dir, &profiles, &opts).unwrap()
                };
                if op == 0 {
                    model.clear();
                }
                let mut seen = std::collections::HashSet::new();
                for item in batch.iter().filter(|item| seen.insert(hash(item))) {
                    if !model.iter().any(|m| hash(m) == hash(item)) {
                        model.push(item.clone());
                    }
                }
                report.generation
            }
            _ => {
                // Compaction regroups the profiles by the shard that
                // holds them, in storage order within each shard.
                let shard_of: Vec<usize> = Store::open(&dir)
                    .unwrap()
                    .manifest()
                    .profiles
                    .iter()
                    .map(|e| e.shard)
                    .collect();
                let mut order: Vec<usize> = (0..model.len()).collect();
                order.sort_by_key(|&i| shard_of[i]);
                model = order.into_iter().map(|i| model[i].clone()).collect();
                Store::compact_opts(&dir, &opts).unwrap().generation
            }
        };
        let bytes = std::fs::read(dir.join(manifest_name(generation))).unwrap();
        let newest = Manifest::from_file_bytes(&bytes).unwrap();
        let rows: Vec<&[(String, Value)]> = model.iter().map(|(r, _)| r.as_slice()).collect();
        assert!(
            newest.columns == build_columns(&rows),
            "{ctx}: columns differ"
        );
        let fsck = Store::fsck(&dir).unwrap();
        assert!(fsck.is_clean(), "{ctx}: {fsck}");
        let (loaded, report) = Store::open(&dir).unwrap().load_all().unwrap();
        assert!(report.is_clean(), "{ctx}: {report}");
        assert_eq!(canonical(loaded), modelled(&model), "{ctx}");
        if pin && c == 0 {
            first_gen = Some((Store::open_pinned(&dir).unwrap(), modelled(&model)));
        }
    }
    if let Some((snapshot, profiles)) = first_gen {
        let (loaded, report) = snapshot.load_all().unwrap();
        assert!(report.is_clean(), "seed {seed} keep {keep}: {report}");
        assert_eq!(
            canonical(loaded),
            profiles,
            "seed {seed} keep {keep}: pinned generation"
        );
    }
}

proptest::proptest! {
    #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(12))]

    /// Appended column tails and GC from the manifests in hand agree
    /// with a full rebuild, at every retention window, with and without
    /// a pinned older generation.
    #[test]
    fn columns_and_gc_match_a_rebuilt_model(seed in proptest::arbitrary::any::<u64>()) {
        for keep in 0..=3 {
            for pin in [false, true] {
                column_and_gc_oracle(seed, keep, pin);
            }
        }
    }
}

/// The shard images of a saved store whose shards hold several records
/// each, saved once per process.
fn sample_shard_images() -> &'static [Vec<u8>] {
    static IMAGES: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
    IMAGES.get_or_init(|| {
        let dir = ScratchDir::new("frame-fuzz");
        let opts = StoreOptions {
            shard_bytes: 8 * 1024,
            ..StoreOptions::default()
        };
        Store::save_opts(&dir, &runs(8), &opts).unwrap();
        let reader = Store::open(&dir).unwrap();
        let images: Vec<Vec<u8>> = reader
            .manifest()
            .shards
            .iter()
            .map(|s| std::fs::read(dir.join(&s.file)).unwrap())
            .collect();
        assert!(images.len() > 1 && reader.manifest().shards.iter().all(|s| s.records > 1));
        images
    })
}

/// `image` damaged by a truncation, a bit flip, or a huge length spliced
/// into one record header, plus the offset of its first damaged byte.
fn mutate_image(image: &[u8], kind: u32, at: u32, pick: u32) -> (Vec<u8>, usize) {
    let mut out = image.to_vec();
    let at = at as usize % image.len();
    match kind % 3 {
        0 => {
            out.truncate(at);
            (out, at)
        }
        1 => {
            out[at] ^= 1 << (pick % 8);
            (out, at)
        }
        _ => {
            let frames = frame::walk(image).unwrap().frames;
            let payload = &frames[at % frames.len()].payload;
            let header = payload.start - RECORD_HEADER_BYTES;
            let past_end = (image.len() - payload.start + 1) as u32;
            let lens = [u32::MAX, u32::MAX - 1, 1 << 31, 1 << 24, past_end];
            let len = lens[pick as usize % lens.len()];
            out[header..header + 4].copy_from_slice(&len.to_le_bytes());
            (out, header)
        }
    }
}

proptest::proptest! {
    /// The frame walk over a damaged shard image never panics, returns
    /// only payload ranges inside the image, and gives back every frame
    /// that ends before the first damaged byte unchanged and intact.
    #[test]
    fn frame_walk_survives_mutated_shard_images(
        which in proptest::arbitrary::any::<u32>(),
        kind in proptest::arbitrary::any::<u32>(),
        at in proptest::arbitrary::any::<u32>(),
        pick in proptest::arbitrary::any::<u32>(),
    ) {
        let images = sample_shard_images();
        let image = &images[which as usize % images.len()];
        let original = frame::walk(image).unwrap();
        proptest::prop_assert!(!original.torn && original.frames.iter().all(|f| f.intact));
        let (mutant, first) = mutate_image(image, kind, at, pick);
        let Some(walk) = frame::walk(&mutant) else {
            proptest::prop_assert!(first < SHARD_MAGIC.len(), "magic intact, walk refused");
            return Ok(());
        };
        for f in &walk.frames {
            proptest::prop_assert!(
                f.payload.start <= f.payload.end && f.payload.end <= mutant.len(),
                "{:?} outside {} bytes", f.payload, mutant.len()
            );
        }
        let untouched = original.frames.iter().take_while(|f| f.payload.end <= first).count();
        proptest::prop_assert!(walk.frames.len() >= untouched);
        proptest::prop_assert_eq!(&walk.frames[..untouched], &original.frames[..untouched]);
    }
}
