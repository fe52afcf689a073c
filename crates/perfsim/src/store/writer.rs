// ---------------------------------------------------------------------
// Writer with enumerable crash points.
// ---------------------------------------------------------------------
//
// `commit_staged` (a save) and the `*_locked` functions here are the
// commit critical sections: the facade in `mod.rs` stages what it can
// outside the lock (payload encoding dominates append CPU and needs no
// directory state), then acquires the commit lock and calls in.
// Everything from the first `CrashClock` tick to the last GC step runs
// under the lock, so the enumerable crash-point sequence is exactly the
// single-writer one — taking the lock adds no points.
//
// Save, append and compact share that sequence: one function, `commit`,
// numbers the generation, writes the shards, commits the manifest and
// runs GC. Each writer keeps only what differs: its read phase, which
// records it writes, and how it builds their metadata columns
// (`build_columns`, `append_columns` or `select_columns`).
//
// Every commit registers the manifest it wrote in the process-wide
// registry, and `append` and `compact` take their base through it: a
// process that committed the newest generation grows it without
// parsing it again.

use super::crc::crc32c;
use super::frame;
use super::layout::{
    list_dir, list_generations, manifest_name, parse_manifest_name, parse_shard_name, shard_name,
};
use super::manifest::{
    append_columns, build_columns, select_columns, sorted_meta, Manifest, MetaBlock, ShardInfo,
    StoreEntry,
};
use super::reader::{record_source, StoreReader};
use super::{
    lease, legacy, registry, CompactReport, StoreError, StoreOptions, WriteReport, SHARD_MAGIC,
};
use crate::ingest::{DiagKind, Diagnostic, IngestReport};
use crate::profile::Profile;
use std::collections::HashSet;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::Arc;
use std::time::SystemTime;
use thicket_dataframe::Value;

/// Counts the writer's enumerated crash points and aborts at the
/// injected one. Each `tick` is a distinct "the process died exactly
/// here" scenario.
struct CrashClock {
    next: usize,
    trigger: Option<usize>,
}

impl CrashClock {
    /// True when the next tick is the injected crash.
    fn fires_next(&self) -> bool {
        self.trigger == Some(self.next)
    }

    fn tick(&mut self, label: &'static str) -> Result<(), StoreError> {
        let point = self.next;
        self.next += 1;
        if self.trigger == Some(point) {
            Err(StoreError::InjectedCrash { point, label })
        } else {
            Ok(())
        }
    }
}

/// Write `bytes` to `path` and sync them through the same handle, behind
/// the crash point `label` ("the process died mid-write"). Only when
/// that point is the injected crash does the file get its torn state:
/// the first half of `bytes`. Returns the handle, still open.
fn write_synced(
    path: &Path,
    bytes: &[u8],
    label: &'static str,
    clock: &mut CrashClock,
) -> Result<File, StoreError> {
    if clock.fires_next() {
        std::fs::write(path, &bytes[..bytes.len() / 2])?;
    }
    clock.tick(label)?;
    let mut file = File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    Ok(file)
}

/// One profile fully prepared for commit — hash, sorted metadata row,
/// and `TKP3` payload — so the commit lock is held only for I/O, not
/// for encoding.
pub(crate) struct Staged {
    pub(crate) hash: i64,
    pub(crate) row: Vec<(String, Value)>,
    pub(crate) payload: Vec<u8>,
}

pub(crate) fn stage(profiles: &[Profile]) -> Vec<Staged> {
    profiles
        .iter()
        .map(|p| Staged {
            hash: p.profile_hash(),
            row: sorted_meta(p),
            payload: crate::binprofile::encode_profile(p),
        })
        .collect()
}

/// Pack `records` greedily into shard files under generation `gen` — a
/// shard closes once it carries ≥ `shard_bytes` of payload, so every
/// shard holds ≥ 1 record — and write each under its final name
/// (invisible until a manifest references it). Two crash points per
/// shard: mid-write (a torn file) and after the full write. Returns the
/// shards and, in record order, the records' entries, whose shard
/// indices start at `shard_base` (past the shards an append reuses).
fn write_shards(
    dir: &Path,
    gen: u64,
    records: &[(i64, &[u8])],
    shard_base: usize,
    shard_bytes: usize,
    clock: &mut CrashClock,
) -> Result<(Vec<ShardInfo>, Vec<StoreEntry>), StoreError> {
    let mut infos = Vec::new();
    let mut entries = Vec::with_capacity(records.len());
    let mut image = SHARD_MAGIC.to_vec();
    // The open shard's first record, and the payload bytes it holds.
    let mut first = 0;
    let mut payload_bytes = 0;
    for (k, &(hash, payload)) in records.iter().enumerate() {
        let (offset, crc) = frame::push(&mut image, payload);
        entries.push(StoreEntry {
            hash,
            shard: shard_base + infos.len(),
            offset,
            len: payload.len() as u32,
            crc,
        });
        payload_bytes += payload.len();
        if payload_bytes < shard_bytes && k + 1 < records.len() {
            continue;
        }
        let file = shard_name(gen, infos.len());
        write_synced(&dir.join(&file), &image, "mid-shard-write", clock)?;
        clock.tick("shard-written")?;
        infos.push(ShardInfo {
            file,
            bytes: image.len() as u64,
            crc: crc32c(&image),
            records: k + 1 - first,
        });
        image = SHARD_MAGIC.to_vec();
        first = k + 1;
        payload_bytes = 0;
    }
    Ok((infos, entries))
}

/// Manifest commit: dot-temp, sync, rename (the atomic commit point),
/// then registration of the committed manifest, identified by an
/// `fstat` of the file written. Registration adds no crash point.
fn commit_manifest(
    dir: &Path,
    manifest: &Arc<Manifest>,
    clock: &mut CrashClock,
) -> Result<(), StoreError> {
    let gen = manifest.generation;
    let bytes = manifest.to_file_bytes();
    let tmp = dir.join(format!(".{}.tmp", manifest_name(gen)));
    // Taken before the write, so the registered entry starts young.
    let written_at = SystemTime::now();
    let file = write_synced(&tmp, &bytes, "mid-manifest-write", clock)?;
    clock.tick("manifest-written")?;
    std::fs::rename(&tmp, dir.join(manifest_name(gen)))?;
    clock.tick("manifest-committed")?;
    if let Ok(meta) = file.metadata() {
        registry::register(dir, manifest, &bytes, &meta, written_at);
    }
    Ok(())
}

/// Remove a file, tolerating a concurrent removal (another process's
/// GC or a lease owner dropping its own pin).
fn remove_quiet(dir: &Path, name: &str) -> Result<(), StoreError> {
    match std::fs::remove_file(dir.join(name)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// GC generations before `cutoff` — manifests first (a shardless
/// manifest is unambiguously broken; a manifestless shard is
/// unambiguously an orphan). Shards are then deleted **by reference**,
/// not by generation number: an appended generation's manifest keeps
/// referencing older shard files, which must survive the GC of the
/// manifest that originally wrote them.
///
/// `held` lists the shards of manifests the commit already has in
/// memory, by generation (the one it wrote and its base): a surviving
/// manifest among them is not read again. Only survivors the commit
/// does not hold (pinned or retained older generations) are read and
/// parsed from disk.
///
/// Generations holding a live reader lease are skipped entirely (their
/// manifest survives, so their shards stay referenced); stale lease
/// files — dead owner pid or expired heartbeat — are reaped along the
/// way.
fn gc_generations(
    dir: &Path,
    cutoff: u64,
    held: &[(u64, &[ShardInfo])],
    clock: &mut CrashClock,
) -> Result<(), StoreError> {
    let names = list_dir(dir)?;
    let leases = lease::scan(dir, &names);
    for name in &names {
        if parse_manifest_name(name).is_some_and(|g| g < cutoff && !leases.pinned.contains(&g)) {
            remove_quiet(dir, name)?;
        }
    }
    clock.tick("gc-manifests")?;
    // Reaping stale pins is idempotent housekeeping: no crash point.
    for name in &leases.stale {
        remove_quiet(dir, name)?;
    }
    let mut referenced: HashSet<String> = HashSet::new();
    for name in list_dir(dir)? {
        let Some(gen) = parse_manifest_name(&name) else {
            continue;
        };
        if let Some((_, shards)) = held.iter().find(|(g, _)| *g == gen) {
            referenced.extend(shards.iter().map(|s| s.file.clone()));
        } else if let Ok(bytes) = std::fs::read(dir.join(&name)) {
            if let Ok(m) = Manifest::from_file_bytes(&bytes) {
                referenced.extend(m.shards.into_iter().map(|s| s.file));
            }
        }
    }
    for name in list_dir(dir)? {
        if parse_shard_name(&name).is_some_and(|(g, _)| g < cutoff) && !referenced.contains(&name) {
            remove_quiet(dir, &name)?;
        }
    }
    Ok(())
}

/// The one commit sequence, from the `begin` crash point to GC. It
/// numbers a generation past every listed one and past `base`, packs
/// `records` (hash and `TKP3` payload, in storage order) into new
/// shards and writes them, and commits a manifest indexed by `columns`
/// whose shards and entries are `carried`'s (an append's base)
/// followed by the new ones. GC then takes the shards of the new
/// manifest and of `base` from memory.
fn commit(
    dir: &Path,
    records: &[(i64, &[u8])],
    columns: Vec<MetaBlock>,
    carried: Option<&Manifest>,
    base: Option<&Manifest>,
    opts: &StoreOptions,
) -> Result<WriteReport, StoreError> {
    let mut clock = CrashClock {
        next: 0,
        trigger: opts.crash_after,
    };
    // Point 0: crash before anything is written.
    clock.tick("begin")?;

    let listed = list_generations(dir)?.last().copied().unwrap_or(0);
    let gen = listed.max(base.map_or(0, |b| b.generation)) + 1;
    let (carried_shards, carried_entries) =
        carried.map_or((&[][..], &[][..]), |m| (&m.shards[..], &m.profiles[..]));
    let (new_shards, new_entries) = write_shards(
        dir,
        gen,
        records,
        carried_shards.len(),
        opts.shard_bytes,
        &mut clock,
    )?;
    let manifest = Arc::new(Manifest {
        generation: gen,
        shards: [carried_shards, &new_shards].concat(),
        profiles: [carried_entries, &new_entries].concat(),
        columns,
        legacy: None,
    });
    commit_manifest(dir, &manifest, &mut clock)?;
    let mut held = vec![(gen, manifest.shards.as_slice())];
    held.extend(base.map(|b| (b.generation, b.shards.as_slice())));
    gc_generations(
        dir,
        gen.saturating_sub(opts.keep_generations as u64),
        &held,
        &mut clock,
    )?;

    Ok(WriteReport {
        generation: gen,
        shards: new_shards.len(),
        profiles: manifest.profiles.len(),
        appended: records.len(),
        crash_points: clock.next,
    })
}

/// Commit staged profiles onto `base`, or as a fresh generation when
/// there is none: [`Store::save_opts`]'s critical section, and
/// [`Store::append_opts`]'s once [`append_locked`] took its base.
/// Caller holds the commit lock. Of in-batch duplicates the first wins,
/// and hashes the base already holds are skipped (seeding `seen` with
/// them does both at once). Every base column not yet decoded is
/// decoded before anything is written: a base whose index does not
/// decode fails here, typed, untouched.
pub(crate) fn commit_staged(
    dir: &Path,
    staged: &[Staged],
    base: Option<&Manifest>,
    opts: &StoreOptions,
) -> Result<WriteReport, StoreError> {
    let mut seen: HashSet<i64> = base
        .map(|b| b.profiles.iter().map(|e| e.hash).collect())
        .unwrap_or_default();
    let writing: Vec<&Staged> = staged.iter().filter(|s| seen.insert(s.hash)).collect();
    let rows: Vec<&[(String, Value)]> = writing.iter().map(|s| s.row.as_slice()).collect();
    let columns = match base {
        None => build_columns(&rows),
        Some(b) => {
            append_columns(&b.columns, b.profiles.len(), &rows).map_err(StoreError::Corrupt)?
        }
    };
    let records: Vec<(i64, &[u8])> = writing
        .iter()
        .map(|s| (s.hash, s.payload.as_slice()))
        .collect();
    commit(dir, &records, columns, base, base, opts)
}

/// [`Store::append_opts`]'s critical section. Caller holds the commit
/// lock; the base is taken *here*, under the lock, through the registry
/// — that is the optimistic rebase: a generation committed after the
/// caller staged its batch simply becomes the new base, and lost
/// updates are impossible by construction. A base this process
/// committed or verified is shared, not parsed again.
pub(crate) fn append_locked(
    dir: &Path,
    staged: &[Staged],
    opts: &StoreOptions,
) -> Result<WriteReport, StoreError> {
    let shared = match registry::newest(dir) {
        Ok((shared, _)) => Some(shared),
        // Only a directory that lists no generation is empty. Saving
        // over manifests that fail verification would let GC delete the
        // shards `Store::recover` can still salvage.
        Err(StoreError::NoGeneration(_)) if list_generations(dir)?.is_empty() => None,
        Err(e) => return Err(e),
    };
    // No generation at all: an append is exactly a save.
    let base = shared.as_ref().map(|shared| &*shared.manifest);
    if let Some(base) = base {
        // Never write a store that mixes encodings: appending onto an
        // older build's generation waits for the migrator.
        base.ensure_current()?;
    }
    commit_staged(dir, staged, base, opts)
}

/// [`Store::compact_opts`]'s critical section. Caller holds the commit
/// lock — including over the read phase, so the generation being
/// rewritten cannot be GC'd or superseded mid-rewrite.
pub(crate) fn compact_locked(dir: &Path, opts: &StoreOptions) -> Result<CompactReport, StoreError> {
    // Read phase: load the newest generation's records and metadata
    // before the first crash point (reads never mutate). The base comes
    // through the registry. It may be in an older build's format (never
    // registered, so parsed from disk): this is the one writer that
    // reads it.
    let (shared, manifest_bytes) = registry::newest(dir)?;
    let reader = StoreReader::new(dir.to_path_buf(), shared, manifest_bytes);
    let base = reader.manifest();
    let all: Vec<usize> = (0..base.profiles.len()).collect();
    let mut diagnostics = Vec::new();
    let mut kept: Vec<usize> = Vec::with_capacity(all.len());
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(all.len());
    for (i, r) in reader.read_records(&all)? {
        match r {
            // A JSON record is transcoded to TKP3 (the migration path);
            // one that fails to transcode is dropped with a typed
            // diagnostic, like salvage.
            Ok(payload) => match legacy::to_tkp3(payload.as_slice()) {
                Ok(bytes) => {
                    kept.push(i);
                    payloads.push(bytes);
                }
                Err(e) => diagnostics.push(Diagnostic {
                    source: record_source(base, i),
                    kind: DiagKind::from_profile_error(&e),
                }),
            },
            Err(d) => diagnostics.push(d),
        }
    }
    // The kept profiles' columns, re-encoded block by block. Decodes
    // every base column not yet decoded before anything is written: a
    // base whose index does not decode fails here, typed, untouched.
    let columns = select_columns(&base.columns, &kept).map_err(StoreError::Corrupt)?;
    let records: Vec<(i64, &[u8])> = kept
        .iter()
        .zip(&payloads)
        .map(|(&i, payload)| (base.profiles[i].hash, payload.as_slice()))
        .collect();
    let written = commit(dir, &records, columns, None, Some(base), opts)?;

    Ok(CompactReport {
        generation: written.generation,
        shards: written.shards,
        profiles: written.profiles,
        crash_points: written.crash_points,
        report: IngestReport {
            attempted: base.profiles.len(),
            loaded: written.profiles,
            diagnostics,
            pushdown: None,
        },
    })
}
