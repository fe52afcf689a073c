// ---------------------------------------------------------------------
// Writer with enumerable crash points.
// ---------------------------------------------------------------------
//
// The `*_locked` functions here are the commit critical sections: the
// facade in `mod.rs` stages what it can outside the lock (payload
// encoding dominates append CPU and needs no directory state), then
// acquires the commit lock and calls in. Everything from the first
// `CrashClock` tick to the last GC step runs under the lock, so the
// enumerable crash-point sequence is exactly the single-writer one —
// taking the lock adds no points.
//
// Every commit registers the manifest it wrote in the process-wide
// registry, and `append` and `compact` take their base through it: a
// process that committed the newest generation grows it without
// parsing it again.

use super::crc::crc32c;
use super::layout::{
    list_dir, list_generations, manifest_name, parse_manifest_name, parse_shard_name, shard_name,
};
use super::manifest::{
    append_columns, build_columns, select_columns, sorted_meta, Manifest, ShardInfo, StoreEntry,
};
use super::reader::{record_index_of, PayloadSlice, StoreReader};
use super::{
    lease, legacy, registry, CompactReport, StoreError, StoreOptions, WriteReport,
    RECORD_HEADER_BYTES, SHARD_MAGIC,
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
pub(crate) struct CrashClock {
    pub(crate) next: usize,
    pub(crate) trigger: Option<usize>,
}

impl CrashClock {
    /// True when the next tick is the injected crash.
    fn fires_next(&self) -> bool {
        self.trigger == Some(self.next)
    }

    pub(crate) fn tick(&mut self, label: &'static str) -> Result<(), StoreError> {
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

/// Where one payload landed: shard index *within this write's packs*,
/// plus frame coordinates.
#[derive(Debug, Clone, Copy, Default)]
struct Placement {
    shard: usize,
    offset: u64,
    len: u32,
    crc: u32,
}

impl Placement {
    /// This payload's manifest entry; `shard_base` offsets the shard
    /// index past the shards an append reuses. Entries carry no
    /// metadata: the manifest's columns do.
    fn entry(&self, hash: i64, shard_base: usize) -> StoreEntry {
        StoreEntry {
            hash,
            shard: shard_base + self.shard,
            offset: self.offset,
            len: self.len,
            crc: self.crc,
            meta: Vec::new(),
        }
    }
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

/// Greedy packing: a shard closes once it carries ≥ `shard_bytes` of
/// payload (every shard holds ≥ 1 record). Returns payload indices per
/// shard.
fn pack_shards(payloads: &[&[u8]], shard_bytes: usize) -> Vec<Vec<usize>> {
    let mut shards: Vec<Vec<usize>> = Vec::new();
    let mut open: Vec<usize> = Vec::new();
    let mut open_bytes = 0usize;
    for (i, pl) in payloads.iter().enumerate() {
        open.push(i);
        open_bytes += pl.len();
        if open_bytes >= shard_bytes {
            shards.push(std::mem::take(&mut open));
            open_bytes = 0;
        }
    }
    if !open.is_empty() {
        shards.push(open);
    }
    shards
}

/// Write the packed shard files under generation `gen` (final names —
/// invisible until a manifest references them). Two crash points per
/// shard: mid-write (a torn file) and after the full write.
fn write_shards(
    dir: &Path,
    gen: u64,
    payloads: &[&[u8]],
    packs: &[Vec<usize>],
    clock: &mut CrashClock,
) -> Result<(Vec<ShardInfo>, Vec<Placement>), StoreError> {
    let mut infos = Vec::with_capacity(packs.len());
    let mut placements = vec![Placement::default(); payloads.len()];
    for (si, members) in packs.iter().enumerate() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(SHARD_MAGIC);
        for &pi in members {
            let pl = payloads[pi];
            let crc = crc32c(pl);
            placements[pi] = Placement {
                shard: si,
                offset: (bytes.len() + RECORD_HEADER_BYTES) as u64,
                len: pl.len() as u32,
                crc,
            };
            bytes.extend_from_slice(&(pl.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc.to_le_bytes());
            bytes.extend_from_slice(pl);
        }
        write_synced(&dir.join(shard_name(gen, si)), &bytes, "mid-shard-write", clock)?;
        clock.tick("shard-written")?;
        infos.push(ShardInfo {
            file: shard_name(gen, si),
            bytes: bytes.len() as u64,
            crc: crc32c(&bytes),
            records: members.len(),
        });
    }
    Ok((infos, placements))
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

/// [`Store::save_opts`]'s critical section: write `staged` as a fresh
/// generation, keeping the first of profiles that share a hash. Caller
/// holds the commit lock.
pub(crate) fn save_locked(
    dir: &Path,
    staged: &[Staged],
    opts: &StoreOptions,
) -> Result<WriteReport, StoreError> {
    let mut seen: HashSet<i64> = HashSet::new();
    let staged: Vec<&Staged> = staged.iter().filter(|s| seen.insert(s.hash)).collect();
    let mut clock = CrashClock {
        next: 0,
        trigger: opts.crash_after,
    };
    // Point 0: crash before anything is written.
    clock.tick("begin")?;

    let gen = list_generations(dir)?.last().copied().unwrap_or(0) + 1;
    let payloads: Vec<&[u8]> = staged.iter().map(|s| s.payload.as_slice()).collect();
    let packs = pack_shards(&payloads, opts.shard_bytes);
    let (shard_infos, placements) = write_shards(dir, gen, &payloads, &packs, &mut clock)?;

    let entries: Vec<StoreEntry> = staged
        .iter()
        .zip(&placements)
        .map(|(s, pl)| pl.entry(s.hash, 0))
        .collect();
    let rows: Vec<&[(String, Value)]> = staged.iter().map(|s| s.row.as_slice()).collect();
    let manifest = Arc::new(Manifest {
        generation: gen,
        shards: shard_infos,
        profiles: entries,
        columns: build_columns(&rows),
        legacy: None,
    });
    commit_manifest(dir, &manifest, &mut clock)?;
    gc_generations(
        dir,
        gen.saturating_sub(opts.keep_generations as u64),
        &[(gen, &manifest.shards)],
        &mut clock,
    )?;

    Ok(WriteReport {
        generation: gen,
        shards: packs.len(),
        profiles: staged.len(),
        appended: staged.len(),
        crash_points: clock.next,
    })
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
    let base = match registry::newest(dir) {
        Ok((shared, _)) => Some(shared),
        // Only a directory that lists no generation is empty. Saving
        // over manifests that fail verification would let GC delete the
        // shards `Store::recover` can still salvage.
        Err(StoreError::NoGeneration(_)) if list_generations(dir)?.is_empty() => None,
        Err(e) => return Err(e),
    };
    let Some(shared) = base else {
        // No generation at all: an append is exactly a save.
        return save_locked(dir, staged, opts);
    };
    let base = &shared.manifest;
    // Never write a store that mixes encodings: appending onto an older
    // build's generation waits for the migrator.
    base.ensure_current()?;
    // Of in-batch duplicates the first wins; hashes the base already
    // holds are skipped (seeding `seen` with them does both at once).
    let mut seen: HashSet<i64> = base.profiles.iter().map(|e| e.hash).collect();
    let writing: Vec<&Staged> = staged.iter().filter(|s| seen.insert(s.hash)).collect();
    let tail: Vec<&[(String, Value)]> = writing.iter().map(|s| s.row.as_slice()).collect();
    // Decodes every base column not yet decoded before anything is
    // written: a base whose index does not decode fails here, typed,
    // untouched.
    let n_base = base.profiles.len();
    let columns = append_columns(&base.columns, n_base, &tail).map_err(StoreError::Corrupt)?;
    let mut clock = CrashClock {
        next: 0,
        trigger: opts.crash_after,
    };
    clock.tick("begin")?;

    let gen = list_generations(dir)?
        .last()
        .copied()
        .unwrap_or(0)
        .max(base.generation)
        + 1;
    let payloads: Vec<&[u8]> = writing.iter().map(|s| s.payload.as_slice()).collect();
    let packs = pack_shards(&payloads, opts.shard_bytes);
    let (new_infos, placements) = write_shards(dir, gen, &payloads, &packs, &mut clock)?;

    let shard_base = base.shards.len();
    let mut shards = Vec::with_capacity(shard_base + new_infos.len());
    shards.extend_from_slice(&base.shards);
    shards.extend(new_infos);
    let mut entries = Vec::with_capacity(n_base + writing.len());
    entries.extend_from_slice(&base.profiles);
    entries.extend(
        writing
            .iter()
            .zip(&placements)
            .map(|(s, pl)| pl.entry(s.hash, shard_base)),
    );
    let manifest = Arc::new(Manifest {
        generation: gen,
        shards,
        profiles: entries,
        columns,
        legacy: None,
    });
    commit_manifest(dir, &manifest, &mut clock)?;
    // The base's shards are the new manifest's first `shard_base`.
    gc_generations(
        dir,
        gen.saturating_sub(opts.keep_generations as u64),
        &[
            (gen, &manifest.shards),
            (base.generation, &manifest.shards[..shard_base]),
        ],
        &mut clock,
    )?;

    Ok(WriteReport {
        generation: gen,
        shards: packs.len(),
        profiles: manifest.profiles.len(),
        appended: writing.len(),
        crash_points: clock.next,
    })
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
    let mut raw: Vec<(usize, Result<PayloadSlice, Diagnostic>)> =
        Vec::with_capacity(base.profiles.len());
    for si in 0..base.shards.len() {
        let members: Vec<usize> = (0..base.profiles.len())
            .filter(|&i| base.profiles[i].shard == si)
            .collect();
        if !members.is_empty() {
            reader.read_shard_members(si, &members, &mut raw)?;
        }
    }
    let mut diagnostics = Vec::new();
    let mut kept: Vec<usize> = Vec::with_capacity(raw.len());
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(raw.len());
    for (i, r) in raw {
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
                    source: format!(
                        "{}#{}",
                        base.shards[base.profiles[i].shard].file,
                        record_index_of(base, i)
                    ),
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

    let mut clock = CrashClock {
        next: 0,
        trigger: opts.crash_after,
    };
    clock.tick("begin")?;
    let gen = list_generations(dir)?.last().copied().unwrap_or(0) + 1;
    let payload_slices: Vec<&[u8]> = payloads.iter().map(|p| p.as_slice()).collect();
    let packs = pack_shards(&payload_slices, opts.shard_bytes);
    let (shard_infos, placements) = write_shards(dir, gen, &payload_slices, &packs, &mut clock)?;

    let entries: Vec<StoreEntry> = kept
        .iter()
        .zip(&placements)
        .map(|(&i, pl)| pl.entry(base.profiles[i].hash, 0))
        .collect();
    let manifest = Arc::new(Manifest {
        generation: gen,
        shards: shard_infos,
        profiles: entries,
        columns,
        legacy: None,
    });
    let attempted = base.profiles.len();
    let loaded = manifest.profiles.len();
    commit_manifest(dir, &manifest, &mut clock)?;
    gc_generations(
        dir,
        gen.saturating_sub(opts.keep_generations as u64),
        &[(gen, &manifest.shards), (base.generation, &base.shards)],
        &mut clock,
    )?;

    Ok(CompactReport {
        generation: gen,
        shards: packs.len(),
        profiles: loaded,
        crash_points: clock.next,
        report: IngestReport {
            attempted,
            loaded,
            diagnostics,
            pushdown: None,
        },
    })
}
