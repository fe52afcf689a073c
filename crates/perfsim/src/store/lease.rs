// ---------------------------------------------------------------------
// Reader leases: generation pins that GC must respect.
// ---------------------------------------------------------------------
//
// A pinned snapshot registers a lease file `pin-<gen>-<pid>-<token>`
// whose *name* is the whole protocol: which generation, which process,
// which pin. The body is never read — arbitrary garbage inside a lease
// file changes nothing. Liveness is `pid_alive(pid) && mtime age ≤
// LEASE_TTL`; long-lived snapshots re-touch the mtime (heartbeat) as
// they are used. GC skips every generation with a live lease and reaps
// stale lease files (dead pid, or heartbeat past the ttl) as it goes.
//
// Within one process, pins on the same (directory, generation) share a
// single lease file through a refcounted registry — a thousand reader
// threads cost one file, and the file disappears when the last pin
// drops.

use super::layout::{fresh_token, parse_pin_name, pid_alive, pin_name};
use super::StoreError;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime};

/// Heartbeat window for reader leases: a lease whose mtime is older
/// than this (or whose owner pid is dead) no longer pins its
/// generation against GC.
const LEASE_TTL: Duration = Duration::from_secs(30);

/// One live lease: a pin file on disk plus heartbeat state. Shared
/// (`Arc`) by every in-process snapshot pinning the same generation.
pub(crate) struct LeaseCore {
    dir: PathBuf,
    key: (PathBuf, u64),
    file_name: String,
    last_touch: Mutex<Instant>,
}

type Registry = Mutex<HashMap<(PathBuf, u64), Weak<LeaseCore>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Default::default)
}

/// Writing the lease file failed because the medium is read-only —
/// degrade to handle-only pinning rather than refusing to read.
fn read_only_medium(e: &io::Error) -> bool {
    // ErrorKind::ReadOnlyFilesystem is not stable at our MSRV; EROFS
    // is 30 on every Linux ABI we run on.
    e.kind() == io::ErrorKind::PermissionDenied || e.raw_os_error() == Some(30)
}

#[cfg(test)]
thread_local! {
    /// Fault-injection seam for the read-only-medium path, in test
    /// builds only: while set, every lease-file write this thread makes
    /// fails with EROFS, as a read-only mount would make it fail. Tests
    /// run as root cannot provoke the real thing with permission bits,
    /// and mounting a filesystem inside a unit test is worse.
    /// [`read_only_medium`] still classifies the error.
    pub(crate) static FAULT_EROFS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// The error `FAULT_EROFS` injects (`None` outside test builds).
fn erofs_injected() -> Option<io::Error> {
    #[cfg(test)]
    if FAULT_EROFS.get() {
        return Some(io::Error::from_raw_os_error(30));
    }
    None
}

/// Acquire (or share) a lease on `gen` in `dir`. `Ok(None)` means the
/// directory is read-only: no lease can exist, and no GC can run
/// there either, so handle-only pinning is safe.
pub(crate) fn acquire(dir: &Path, gen: u64) -> Result<Option<Arc<LeaseCore>>, StoreError> {
    let canon = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let key = (canon, gen);
    let mut reg = registry().lock();
    if let Some(existing) = reg.get(&key).and_then(Weak::upgrade) {
        existing.touch_file();
        return Ok(Some(existing));
    }
    let name = pin_name(gen, std::process::id(), fresh_token());
    let wrote = match erofs_injected() {
        Some(e) => Err(e),
        None => std::fs::write(dir.join(&name), b"thicket reader lease\n"),
    };
    match wrote {
        Ok(()) => {}
        Err(e) if read_only_medium(&e) => return Ok(None),
        Err(e) => return Err(StoreError::Io(e)),
    }
    let core = Arc::new(LeaseCore {
        dir: dir.to_path_buf(),
        key: key.clone(),
        file_name: name,
        last_touch: Mutex::new(Instant::now()),
    });
    reg.insert(key, Arc::downgrade(&core));
    Ok(Some(core))
}

impl LeaseCore {
    pub(crate) fn file_name(&self) -> &str {
        &self.file_name
    }

    /// Re-touch the lease file if a quarter of the ttl has passed since
    /// the last heartbeat — cheap enough to call on every read.
    pub(crate) fn maybe_heartbeat(&self) {
        let mut last = self.last_touch.lock();
        if last.elapsed() >= LEASE_TTL / 4 {
            *last = Instant::now();
            drop(last);
            self.touch_file();
        }
    }

    fn touch_file(&self) {
        if let Ok(f) = std::fs::OpenOptions::new()
            .append(true)
            .open(self.dir.join(&self.file_name))
        {
            let _ = f.set_modified(SystemTime::now());
        }
    }
}

impl Drop for LeaseCore {
    fn drop(&mut self) {
        let mut reg = registry().lock();
        // Only remove the registry slot if it still points at *us* (a
        // new lease for the same key may have raced in after our
        // strong count hit zero).
        if reg
            .get(&self.key)
            .is_some_and(|w| w.strong_count() == 0)
        {
            reg.remove(&self.key);
        }
        drop(reg);
        // The file name embeds our unique token: deleting it can never
        // hit a successor's lease.
        let _ = std::fs::remove_file(self.dir.join(&self.file_name));
    }
}

/// What a sweep of the directory's `pin-*` files found.
pub(crate) struct LeaseScan {
    /// Generations protected by at least one live lease.
    pub(crate) pinned: HashSet<u64>,
    /// Live lease file names.
    pub(crate) live: Vec<String>,
    /// Stale lease file names (dead owner or expired heartbeat) — safe
    /// to reap.
    pub(crate) stale: Vec<String>,
}

/// Classify every well-formed `pin-*` name in `names`. Files that
/// vanish mid-scan are skipped (their owner dropped them — the
/// happy path).
pub(crate) fn scan(dir: &Path, names: &[String]) -> LeaseScan {
    let mut out = LeaseScan {
        pinned: HashSet::new(),
        live: Vec::new(),
        stale: Vec::new(),
    };
    for name in names {
        let Some((gen, pid, _token)) = parse_pin_name(name) else {
            continue;
        };
        let modified = match std::fs::metadata(dir.join(name)).and_then(|m| m.modified()) {
            Ok(t) => t,
            Err(_) => continue,
        };
        // A future mtime (clock skew) reads as "just touched": err on
        // the side of keeping the lease alive.
        let fresh = modified.elapsed().map(|age| age <= LEASE_TTL).unwrap_or(true);
        if pid_alive(pid) && fresh {
            out.pinned.insert(gen);
            out.live.push(name.clone());
        } else {
            out.stale.push(name.clone());
        }
    }
    out
}
