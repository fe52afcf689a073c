// ---------------------------------------------------------------------
// Directory naming, process liveness, and token generation.
// ---------------------------------------------------------------------

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Name of the advisory commit-lock file serializing writers.
pub(crate) const LOCK_NAME: &str = "LOCK";

pub(crate) fn manifest_name(gen: u64) -> String {
    format!("MANIFEST-{gen:06}")
}

pub(crate) fn shard_name(gen: u64, idx: usize) -> String {
    format!("shard-{gen:06}-{idx:04}.tks")
}

/// `MANIFEST-<gen>` → gen.
pub(crate) fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("MANIFEST-")?.parse().ok()
}

/// `shard-<gen>-<idx>.tks` → (gen, idx).
pub(crate) fn parse_shard_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("shard-")?.strip_suffix(".tks")?;
    let (g, i) = rest.split_once('-')?;
    Some((g.parse().ok()?, i.parse().ok()?))
}

/// `pin-<gen:06>-<pid>-<token:016x>` — a reader lease on a generation.
/// The lease's whole identity lives in the *name*; the file body is
/// never load-bearing (arbitrary garbage inside must change nothing).
pub(crate) fn pin_name(gen: u64, pid: u32, token: u64) -> String {
    format!("pin-{gen:06}-{pid}-{token:016x}")
}

/// `pin-<gen>-<pid>-<token>` → (gen, pid, token).
pub(crate) fn parse_pin_name(name: &str) -> Option<(u64, u32, u64)> {
    let rest = name.strip_prefix("pin-")?;
    let mut parts = rest.splitn(3, '-');
    let gen = parts.next()?.parse().ok()?;
    let pid = parts.next()?.parse().ok()?;
    let token = parts.next()?;
    if token.len() != 16 {
        return None;
    }
    Some((gen, pid, u64::from_str_radix(token, 16).ok()?))
}

/// Regular files in `dir`, sorted by name. The type comes from the
/// directory entry itself (no `stat` per file where the filesystem
/// reports it); store files are never symlinks. An entry that vanishes
/// before its type is known is skipped, as a concurrent removal is.
pub(crate) fn list_dir(dir: &Path) -> io::Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    Ok(names)
}

/// Manifest generations present, ascending.
pub(crate) fn list_generations(dir: &Path) -> io::Result<Vec<u64>> {
    let mut gens: Vec<u64> = list_dir(dir)?
        .iter()
        .filter_map(|n| parse_manifest_name(n))
        .collect();
    gens.sort_unstable();
    Ok(gens)
}

/// Is `pid` a live process on this machine?
///
/// Pid 0 is never alive (it is the conventional "owner already dead"
/// marker in coordination files). On systems with `/proc` (Linux —
/// where the store's cross-process story is exercised) liveness is a
/// directory probe; elsewhere liveness is assumed and staleness falls
/// back to heartbeat age alone.
pub(crate) fn pid_alive(pid: u32) -> bool {
    if pid == 0 {
        return false;
    }
    let proc_dir = Path::new("/proc");
    if proc_dir.is_dir() {
        proc_dir.join(pid.to_string()).is_dir()
    } else {
        true
    }
}

/// A token unique across threads of this process and (mixed with the
/// pid) across processes — no clock or RNG dependency, so coordination
/// stays deterministic under test.
pub(crate) fn fresh_token() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut z = ((std::process::id() as u64) << 32)
        ^ c.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
