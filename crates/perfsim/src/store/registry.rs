// ---------------------------------------------------------------------
// Process-wide registry of verified generations, shared by readers and
// writers.
// ---------------------------------------------------------------------
//
// A committed generation never changes, so one verified parse of its
// manifest can serve every reader and writer in the process.
// `Store::open` (and so `open_pinned`) still lists the directory, and so
// do `append` and `compact`, which take their base here. For each
// generation, newest first, the probe opens the manifest, takes one
// `fstat` and reads the 13-byte header. When the file's identity —
// canonical directory, generation, header CRC, length, inode, mtime —
// matches the directory's entry, the caller shares that entry's
// `SharedGen`: its `Arc<Manifest>`, lazily decoded metadata columns
// included, instead of reading, CRC-checking and parsing the body. A
// miss parses the file and registers it.
//
// Every commit registers the manifest it just wrote, right after the
// rename, under an `fstat` of the committed file. The writer never read
// those bytes back, so the entry counts as verified when the write
// began: it starts young.
//
// File timestamps tick coarsely, so an in-place rewrite can leave the
// mtime as it was. A hit on a file modified less than `SETTLE` before its
// last verification therefore re-reads the body and re-checks its CRC
// (no parse) before it is served. Once that gap reaches `SETTLE`, any
// later write moves the mtime, and the next probe misses.
//
// A `SharedGen` also holds a handle on each of the generation's shard
// files. The first pin of the entry opens them; every later pin with
// the same identity shares them, and commits never open any. Snapshots
// on different threads then read one descriptor at once, so every read
// of a shard is positional. The handles belong to the entry: replacing
// or evicting it closes them once no snapshot holds them. So between
// pins the registry keeps at most one generation's handles per
// directory, at most `MAX_DIRS` in all, and an older generation's
// handles live only as long as its snapshots. Disk space follows the
// handles: when GC collects a generation this process pinned and still
// holds, its shards' blocks stay in use until the entry goes, that is
// until this process registers the directory's next generation (its own
// commit, or its next open of the directory), until a registration
// anywhere in the process finds the manifest gone, or until eviction.
//
// fsck, recover and GC read manifests from disk, and a generation an
// older build wrote (`NeedsMigration`) is never registered. Leases and
// `bytes_read` stay per snapshot: only the immutable manifest and the
// descriptors on its immutable shards are shared, never a result.
//
// The lock is never held across I/O, a parse or a manifest's drop:
// lookups clone an `Arc`, and inserts stat the other entries' manifests
// before taking it and free what they evict after releasing it.

use super::crc::crc32c;
use super::layout::{list_generations, manifest_name};
use super::manifest::{header_crc, Manifest, MANIFEST_HEADER_BYTES};
use super::StoreError;
use parking_lot::Mutex;
use std::fs::{File, Metadata};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, SystemTime};

/// Most store directories the registry holds at once, and so the most
/// generations whose shard handles stay open between pins.
pub(super) const MAX_DIRS: usize = 8;

/// How long before its verification a manifest must have been modified
/// for its mtime alone to vouch for its body: a write after the
/// verification then always moves the mtime, even on a filesystem whose
/// timestamps tick once a second.
const SETTLE: Duration = Duration::from_secs(1);

/// What a manifest file looked like when its body was verified.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Identity {
    generation: u64,
    header_crc: u32,
    len: u64,
    inode: u64,
    mtime: SystemTime,
}

/// One generation as every reader and writer in the process shares it:
/// its verified manifest and, once a pin has opened them, a handle on
/// each of its shard files, in shard order.
pub(crate) struct SharedGen {
    pub(crate) manifest: Arc<Manifest>,
    pub(crate) shards: OnceLock<Vec<File>>,
}

impl SharedGen {
    fn new(manifest: Arc<Manifest>) -> Arc<SharedGen> {
        Arc::new(SharedGen {
            manifest,
            shards: OnceLock::new(),
        })
    }
}

/// One directory's registered generation.
struct Entry {
    /// Canonical store directory.
    dir: PathBuf,
    id: Identity,
    shared: Arc<SharedGen>,
    /// Wall-clock time taken before the bytes were last verified.
    verified_at: SystemTime,
}

impl Entry {
    /// Modified too close to its last verification for the mtime alone
    /// to rule out a rewrite since.
    fn young(&self) -> bool {
        self.verified_at
            .duration_since(self.id.mtime)
            .map_or(true, |gap| gap < SETTLE)
    }
}

/// Registered directories, least recently used first.
fn entries() -> &'static Mutex<Vec<Entry>> {
    static ENTRIES: OnceLock<Mutex<Vec<Entry>>> = OnceLock::new();
    ENTRIES.get_or_init(Default::default)
}

/// The canonical form of a store directory: the registry's key.
fn canonical(dir: &Path) -> PathBuf {
    dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf())
}

/// The newest generation in `dir` whose manifest verifies, shared with
/// every other reader and writer of it in this process, plus the
/// manifest bytes read to find it.
pub(crate) fn newest(dir: &Path) -> Result<(Arc<SharedGen>, u64), StoreError> {
    let dir = canonical(dir);
    newest_by(&dir, |gen, read| probe(&dir, gen, read))
}

/// The newest generation `probe` accepts, plus every manifest byte the
/// probes read along the way (for [`super::StoreReader::bytes_read`]
/// accounting). `probe(gen, read)` returns `Ok(None)` for a manifest
/// that does not verify; [`StoreError::NoGeneration`] when none does.
///
/// A manifest listed a moment ago can be GC'd before the probe reads it
/// (`NotFound`) — that is only legal when a newer generation just
/// committed, so on a vanished read the listing is retried at once
/// (bounded; each retry means another writer made progress, and the
/// newest manifest is never deleted), never answered with an older
/// generation a pin still keeps.
pub(super) fn newest_by<M>(
    dir: &Path,
    mut probe: impl FnMut(u64, &mut u64) -> io::Result<Option<M>>,
) -> Result<(M, u64), StoreError> {
    let mut bytes_total = 0u64;
    let mut gens = Vec::new();
    for _pass in 0..16 {
        gens = list_generations(dir)?;
        gens.reverse();
        let mut vanished = false;
        for &gen in &gens {
            match probe(gen, &mut bytes_total) {
                Ok(Some(m)) => return Ok((m, bytes_total)),
                Ok(None) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    vanished = true;
                    break;
                }
                Err(e) => return Err(StoreError::Io(e)),
            }
        }
        if !vanished {
            break;
        }
    }
    Err(StoreError::NoGeneration(if gens.is_empty() {
        format!("no manifest in {}", dir.display())
    } else {
        format!(
            "no manifest in {} verifies (run Store::recover)",
            dir.display()
        )
    }))
}

/// Register the manifest a writer just committed to `dir` from `bytes`:
/// `meta` is an `fstat` of the committed file, and `written_at` was taken
/// before its bytes were written. The entry starts young.
pub(crate) fn register(
    dir: &Path,
    manifest: &Arc<Manifest>,
    bytes: &[u8],
    meta: &Metadata,
    written_at: SystemTime,
) {
    let (Some(header_crc), Ok(mtime)) = (header_crc(bytes), meta.modified()) else {
        return;
    };
    let id = Identity {
        generation: manifest.generation,
        header_crc,
        len: meta.len(),
        inode: inode(meta),
        mtime,
    };
    insert(
        &canonical(dir),
        id,
        SharedGen::new(Arc::clone(manifest)),
        written_at,
    );
}

/// Generation `gen`'s manifest in `dir`, through the registry. `Ok(None)`
/// when it does not verify, exactly as a cold parse would decide.
fn probe(dir: &Path, gen: u64, read: &mut u64) -> io::Result<Option<Arc<SharedGen>>> {
    let mut file = File::open(dir.join(manifest_name(gen)))?;
    let meta = file.metadata()?;
    // Taken before any byte is read: a write this read misses lands
    // later, so its mtime is no earlier than this, less one tick.
    let now = SystemTime::now();
    let mut bytes = Vec::with_capacity(MANIFEST_HEADER_BYTES);
    (&mut file)
        .take(MANIFEST_HEADER_BYTES as u64)
        .read_to_end(&mut bytes)?;
    *read += bytes.len() as u64;
    let Some(crc) = header_crc(&bytes) else {
        return Ok(None);
    };
    let id = Identity {
        generation: gen,
        header_crc: crc,
        len: meta.len(),
        inode: inode(&meta),
        mtime: meta.modified()?,
    };
    let hit = lookup(dir, &id);
    if let Some((shared, false)) = hit {
        return Ok(Some(shared));
    }
    *read += file.read_to_end(&mut bytes)? as u64;
    if let Some((shared, _young)) = hit {
        // A young file must still hold the body its header vouches for.
        if crc32c(&bytes[MANIFEST_HEADER_BYTES..]) != crc {
            return Ok(None);
        }
        settle(dir, &id, now);
        return Ok(Some(shared));
    }
    let Some(m) = Manifest::from_file_bytes(&bytes)
        .ok()
        .filter(|m| m.generation == gen)
    else {
        return Ok(None);
    };
    let legacy = m.legacy.is_some();
    let shared = SharedGen::new(Arc::new(m));
    if !legacy {
        insert(dir, id, Arc::clone(&shared), now);
    }
    Ok(Some(shared))
}

#[cfg(unix)]
fn inode(meta: &Metadata) -> u64 {
    std::os::unix::fs::MetadataExt::ino(meta)
}

#[cfg(not(unix))]
fn inode(_: &Metadata) -> u64 {
    0
}

/// The generation registered for `dir` under `id`, if any, marked most
/// recently used; `true` when it is young.
fn lookup(dir: &Path, id: &Identity) -> Option<(Arc<SharedGen>, bool)> {
    let mut entries = entries().lock();
    let i = entries.iter().position(|e| e.dir == dir && e.id == *id)?;
    let entry = entries.remove(i);
    let hit = (Arc::clone(&entry.shared), entry.young());
    entries.push(entry);
    Some(hit)
}

/// A young entry's body verified again at `at`: from then on its mtime
/// vouches for it.
fn settle(dir: &Path, id: &Identity, at: SystemTime) {
    if let Some(e) = entries()
        .lock()
        .iter_mut()
        .find(|e| e.dir == dir && e.id == *id)
    {
        e.verified_at = e.verified_at.max(at);
    }
}

/// Register `dir`'s freshly verified generation, first dropping entries
/// whose manifest file is gone.
fn insert(dir: &Path, id: Identity, shared: Arc<SharedGen>, verified_at: SystemTime) {
    // Listed under the lock, stat'ed after it.
    let listed: Vec<(PathBuf, Identity)> = entries()
        .lock()
        .iter()
        .map(|e| (e.dir.clone(), e.id))
        .collect();
    let gone: Vec<(PathBuf, Identity)> = listed
        .into_iter()
        .filter(|(dir, id)| !dir.join(manifest_name(id.generation)).exists())
        .collect();
    let entry = Entry {
        dir: dir.to_path_buf(),
        id,
        shared,
        verified_at,
    };
    // The guard is a temporary of this statement: the evicted manifests
    // are freed, and their shard handles closed, after the lock is
    // released.
    let evicted = admit(&mut entries().lock(), entry, &gone);
    drop(evicted);
}

/// Under the lock: drop the `gone` entries and put `new` in its
/// directory's slot, unless a newer generation another caller
/// registered meanwhile holds it. Past [`MAX_DIRS`], the least recently
/// used directory no caller holds leaves (evicting a generation a
/// reader or writer still holds would free nothing), else the least
/// recently used.
/// Returns what left.
fn admit(entries: &mut Vec<Entry>, new: Entry, gone: &[(PathBuf, Identity)]) -> Vec<Entry> {
    let (mut evicted, kept): (Vec<Entry>, Vec<Entry>) = std::mem::take(entries)
        .into_iter()
        .partition(|e| gone.iter().any(|(dir, id)| *dir == e.dir && *id == e.id));
    *entries = kept;
    match entries.iter().position(|e| e.dir == new.dir) {
        Some(i) if entries[i].id.generation > new.id.generation => {
            evicted.push(new);
            return evicted;
        }
        Some(i) => evicted.push(entries.remove(i)),
        None => {}
    }
    entries.push(new);
    if entries.len() > MAX_DIRS {
        let victim = entries
            .iter()
            .position(|e| Arc::strong_count(&e.shared) == 1)
            .unwrap_or(0);
        evicted.push(entries.remove(victim));
    }
    evicted
}

/// The manifest registered for `dir`, if any.
#[cfg(test)]
pub(crate) fn registered(dir: &Path) -> Option<Arc<Manifest>> {
    let dir = canonical(dir);
    entries()
        .lock()
        .iter()
        .find(|e| e.dir == dir)
        .map(|e| Arc::clone(&e.shared.manifest))
}
