//! Deterministic fault injection for ensemble directories and sharded
//! stores.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, so this module provides seed-driven corruptors that mimic
//! what real collection campaigns produce: truncated files (node died
//! mid-write), mangled bytes (storage rot), schema drift (a collector
//! that stopped emitting a member), duplicated profiles (a re-run job
//! double-copied its output), non-finite metrics (counter overflow), and
//! empty call trees (instrumentation produced nothing). For
//! [`crate::store`] directories there are three more: torn shards
//! (crash mid-append), bit rot inside a shard record, and a stale
//! (unverifiable) newest manifest. v3 stores add four *payload*
//! corruptors ([`FaultKind::STORE_V3`]) that re-frame the record after
//! corrupting it — frame CRC, manifest entry, shard digest, and
//! manifest self-CRC all recomputed — so every checksum verifies and
//! the damage reaches the binary payload decoder itself: a truncation
//! mid-metric-column, a flipped column CRC, a mismatched column entry
//! count, and an out-of-range name-table index.
//!
//! Coordination files get their own pair
//! ([`FaultKind::COORDINATION`]): a garbage-bodied commit `LOCK` and an
//! abandoned `pin-*` reader lease, both aged past every ttl — the
//! droppings of processes that died mid-commit or mid-read. They harm
//! liveness, not data, and must classify as
//! [`DiagKind::StaleLock`] / [`DiagKind::StaleLease`].
//!
//! Every corruptor is a pure function of `(directory contents, seed)`:
//! the same seed always corrupts the same victim the same way, so tests
//! exercising the lenient-ingest paths are reproducible. Each
//! [`FaultKind`] maps onto the typed diagnostic it must surface as
//! ([`FaultKind::matches`]) — the integration suites drive every
//! ensemble kind through [`crate::ensemble::load_dir`] and every
//! store kind through [`crate::Store::fsck`] and assert the mapping.
//!
//! The service layer gets a *wire* family ([`FaultKind::WIRE`]): torn
//! frames, oversized declared lengths, slow-loris writers, mid-request
//! connection kills, and a SIGKILL of the daemon itself. These are live
//! faults — misbehaving clients and dying processes, not bytes on disk
//! — so [`inject`] rejects them; the `thicket-serve` chaos suite drives
//! each against a running server.
//!
//! For *live* contention (not just post-mortem wreckage),
//! [`ChaosSchedule`] turns a seed into a deterministic infinite stream
//! of writer operations — appends, compactions, and writer crashes at
//! seed-chosen crash points — that the concurrency suites replay
//! against a store while readers hammer it.
//!
//! Every suite builds its wreckage inside a [`ScratchDir`], unique per
//! process and per call, so test threads and concurrently running test
//! processes never share a path.

use crate::ingest::DiagKind;
use crate::json::Json;
use std::io;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One way an ensemble directory can go bad.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Cut the file off at a seed-chosen byte (mid-write crash).
    Truncate,
    /// Mangle a byte inside the JSON text (storage corruption).
    FlipByte,
    /// Remove the `metrics` member from a node (schema drift).
    DropMetrics,
    /// Replace a metric value with an overflowing literal that parses
    /// to `+inf` (counter overflow).
    NonFinite,
    /// Empty the call tree (`nodes`/`roots` both `[]`).
    EmptyCallTree,
    /// Copy a healthy profile to a second file with the same hash
    /// (double-copied job output).
    DuplicateProfile,
    /// Create an unreadable directory entry with a `.json` name.
    Unreadable,
    /// Truncate a store shard mid-record (crash mid-append). Store
    /// directories only.
    TornShard,
    /// Flip one bit inside a store shard record's payload (storage
    /// rot). Store directories only.
    BitRot,
    /// Corrupt the newest store manifest so it no longer verifies
    /// (torn or rotted commit record). Store directories only.
    StaleManifest,
    /// Truncate a v3 record's payload in the middle of a metric
    /// column's data block, re-framing the record so every checksum
    /// still verifies. v3 store directories only.
    TruncatedColumn,
    /// Flip one bit in the CRC32C a v3 payload stores for one metric
    /// column (re-framed). v3 store directories only.
    ColumnCrcRot,
    /// Bump a v3 metric column's declared entry count so the declared
    /// and actual data lengths disagree (re-framed). v3 store
    /// directories only.
    ColumnCountMismatch,
    /// Point a v3 metric column's name at a name-table slot past the
    /// end of the table (re-framed). v3 store directories only.
    NameIndexOutOfRange,
    /// Fill the store's commit `LOCK` file with garbage and age it past
    /// any takeover ttl (a writer that died mid-lock-write long ago).
    /// Store directories only.
    LockGarbage,
    /// Plant a well-formed `pin-*` lease name owned by pid 0 (never
    /// alive) with a garbage body and an epoch-old heartbeat — the
    /// abandoned pin of a long-dead reader. Store directories only.
    LeaseGarbage,
    /// Wire: a frame whose header promises more payload bytes than the
    /// sender ever writes (client died mid-request). The service must
    /// end the connection cleanly — never block forever, never leak a
    /// pin lease. Live-connection fault: driven by the `thicket-serve`
    /// chaos suite, not by [`inject`].
    TornFrame,
    /// Wire: a frame header declaring a length past the server's
    /// configured cap. Must be rejected *before* any allocation with a
    /// typed `FrameTooLarge` response. Live-connection fault.
    OversizedFrame,
    /// Wire: a client that trickles its request one byte at a time,
    /// slower than the per-request deadline (slow-loris). The server
    /// must time the read out and free the worker. Live-connection
    /// fault.
    SlowLoris,
    /// Wire: the client vanishes (socket killed) after sending a valid
    /// request but before reading the response. The server's response
    /// write fails; the request's pin must still be released.
    /// Live-connection fault.
    ConnectionKill,
    /// Wire: the daemon itself is killed with SIGKILL while a request
    /// holds a pin lease. The lease file survives with a dead owner
    /// pid; fsck must classify it [`DiagKind::StaleLease`] and the next
    /// commit's GC must reap it with zero records lost. Subprocess
    /// fault: driven by the `thicket-serve` chaos suite.
    DaemonKill,
    /// Cut a `*.trace` file off in the middle of an event line (a
    /// tracing process that died mid-write). Trace files only.
    TornTrace,
    /// Swap the timestamps of two consecutive events on one rank so
    /// that rank's clock regresses (events reordered in flight). Trace
    /// files only.
    ShuffledEvents,
    /// Delete one region-leave line so a rank's enter/leave events no
    /// longer balance (a dropped event record). Trace files only.
    UnbalancedTrace,
}

impl FaultKind {
    /// Every fault kind: ensemble-directory kinds first, then the
    /// store-directory kinds, then the live wire kinds, then the trace
    /// kinds.
    pub const ALL: [FaultKind; 24] = [
        FaultKind::Truncate,
        FaultKind::FlipByte,
        FaultKind::DropMetrics,
        FaultKind::NonFinite,
        FaultKind::EmptyCallTree,
        FaultKind::DuplicateProfile,
        FaultKind::Unreadable,
        FaultKind::TornShard,
        FaultKind::BitRot,
        FaultKind::StaleManifest,
        FaultKind::TruncatedColumn,
        FaultKind::ColumnCrcRot,
        FaultKind::ColumnCountMismatch,
        FaultKind::NameIndexOutOfRange,
        FaultKind::LockGarbage,
        FaultKind::LeaseGarbage,
        FaultKind::TornFrame,
        FaultKind::OversizedFrame,
        FaultKind::SlowLoris,
        FaultKind::ConnectionKill,
        FaultKind::DaemonKill,
        FaultKind::TornTrace,
        FaultKind::ShuffledEvents,
        FaultKind::UnbalancedTrace,
    ];

    /// The kinds that apply to a loose-JSON ensemble directory, in the
    /// order [`inject_all`] applies them there.
    pub const ENSEMBLE: [FaultKind; 7] = [
        FaultKind::Truncate,
        FaultKind::FlipByte,
        FaultKind::DropMetrics,
        FaultKind::NonFinite,
        FaultKind::EmptyCallTree,
        FaultKind::DuplicateProfile,
        FaultKind::Unreadable,
    ];

    /// The kinds that apply to a [`crate::store`] directory, in the
    /// order [`inject_all`] applies them there.
    pub const STORE: [FaultKind; 3] = [
        FaultKind::TornShard,
        FaultKind::BitRot,
        FaultKind::StaleManifest,
    ];

    /// The kinds that corrupt a v3 record's *payload* and re-frame it
    /// (every checksum recomputed), so the damage is only detectable by
    /// actually decoding — the deep half of `Store::fsck` and the load
    /// path's decoder hardening.
    pub const STORE_V3: [FaultKind; 4] = [
        FaultKind::TruncatedColumn,
        FaultKind::ColumnCrcRot,
        FaultKind::ColumnCountMismatch,
        FaultKind::NameIndexOutOfRange,
    ];

    /// The kinds that plant abandoned *coordination* files (commit
    /// locks, reader leases) in a store directory — they never damage
    /// data, only liveness, so they are classified by
    /// [`crate::Store::fsck`] and reaped by [`crate::Store::recover`]
    /// without any salvage. Not part of [`FaultKind::STORE`]: the
    /// store-damage suites zip against that array's exact contents.
    pub const COORDINATION: [FaultKind; 2] =
        [FaultKind::LockGarbage, FaultKind::LeaseGarbage];

    /// The kinds that attack the *service* over its wire protocol
    /// rather than the directory: torn and oversized frames, a
    /// slow-loris writer, a mid-request connection kill, and a SIGKILL
    /// of the daemon itself. They are live faults — a misbehaving
    /// client or a dying process, not bytes on disk — so [`inject`]
    /// rejects them; the `thicket-serve` chaos suite drives each one
    /// against a running server and asserts the documented outcome
    /// (typed response or clean disconnect, zero leaked pin leases,
    /// one complete generation after recovery).
    pub const WIRE: [FaultKind; 5] = [
        FaultKind::TornFrame,
        FaultKind::OversizedFrame,
        FaultKind::SlowLoris,
        FaultKind::ConnectionKill,
        FaultKind::DaemonKill,
    ];

    /// The kinds that corrupt a `*.trace` event stream: a torn tail
    /// (crash mid-write), a per-rank clock regression (events
    /// reordered), and a dropped leave (unbalanced nesting). They must
    /// surface from the streaming aggregator as
    /// [`DiagKind::TornTrace`] / [`DiagKind::OutOfOrderEvent`] /
    /// [`DiagKind::UnbalancedStream`] — never a panic.
    pub const TRACE: [FaultKind; 3] = [
        FaultKind::TornTrace,
        FaultKind::ShuffledEvents,
        FaultKind::UnbalancedTrace,
    ];

    /// True for the kinds that corrupt a sharded store rather than a
    /// loose-JSON directory.
    pub fn is_store_fault(&self) -> bool {
        matches!(
            self,
            FaultKind::TornShard | FaultKind::BitRot | FaultKind::StaleManifest
        ) || self.is_v3_payload_fault()
            || self.is_coordination_fault()
    }

    /// True for the [`FaultKind::COORDINATION`] kinds.
    pub fn is_coordination_fault(&self) -> bool {
        FaultKind::COORDINATION.contains(self)
    }

    /// True for the [`FaultKind::WIRE`] live service faults.
    pub fn is_wire_fault(&self) -> bool {
        FaultKind::WIRE.contains(self)
    }

    /// True for the [`FaultKind::STORE_V3`] payload corruptors.
    pub fn is_v3_payload_fault(&self) -> bool {
        FaultKind::STORE_V3.contains(self)
    }

    /// True for the [`FaultKind::TRACE`] event-stream corruptors.
    pub fn is_trace_fault(&self) -> bool {
        FaultKind::TRACE.contains(self)
    }

    /// Does `diag` have the type this fault must surface as?
    pub fn matches(&self, diag: &DiagKind) -> bool {
        match (self, diag) {
            (FaultKind::Truncate, DiagKind::Parse { .. }) => true,
            (FaultKind::FlipByte, DiagKind::Parse { .. }) => true,
            (FaultKind::DropMetrics, DiagKind::Schema(m)) => m.contains("missing metrics"),
            (FaultKind::NonFinite, DiagKind::NonFiniteMetric { .. }) => true,
            (FaultKind::EmptyCallTree, DiagKind::Schema(m)) => m.contains("empty call tree"),
            (FaultKind::DuplicateProfile, DiagKind::DuplicateProfile { .. }) => true,
            (FaultKind::Unreadable, DiagKind::Io(_)) => true,
            (FaultKind::TornShard, DiagKind::TornShard { .. }) => true,
            (FaultKind::BitRot, DiagKind::ChecksumMismatch { .. }) => true,
            (FaultKind::StaleManifest, DiagKind::StaleManifest { .. }) => true,
            (FaultKind::LockGarbage, DiagKind::StaleLock { .. }) => true,
            (FaultKind::LeaseGarbage, DiagKind::StaleLease { .. }) => true,
            // The payload corruptors surface from the binary decoder.
            (FaultKind::TruncatedColumn, DiagKind::Schema(m)) => {
                m.contains("metric column") || m.contains("truncated")
            }
            (FaultKind::ColumnCrcRot, DiagKind::Schema(m)) => m.contains("checksum mismatch"),
            (FaultKind::ColumnCountMismatch, DiagKind::Schema(m)) => {
                m.contains("metric column") || m.contains("trailing")
            }
            (FaultKind::NameIndexOutOfRange, DiagKind::Schema(m)) => {
                m.contains("name index") && m.contains("out of range")
            }
            // A kill-9'd daemon's only on-disk dropping is the pin
            // lease its in-flight request held. The other wire faults
            // never reach the disk at all — their contract is a typed
            // wire response or a clean disconnect, asserted by the
            // serve chaos suite, so no DiagKind matches them.
            (FaultKind::DaemonKill, DiagKind::StaleLease { .. }) => true,
            (FaultKind::TornTrace, DiagKind::TornTrace { .. }) => true,
            (FaultKind::ShuffledEvents, DiagKind::OutOfOrderEvent { .. }) => true,
            (FaultKind::UnbalancedTrace, DiagKind::UnbalancedStream { .. }) => true,
            _ => false,
        }
    }
}

/// Sorted `*.json` paths of `dir` (the victim pool).
fn victim_pool(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Sorted `*.trace` paths of `dir` (the trace victim pool).
fn trace_pool(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "trace"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Sorted shard (`*.tks`) paths of a store directory.
fn shard_pool(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == "tks"))
        .collect();
    paths.sort();
    Ok(paths)
}

/// Sorted manifest paths of a store directory.
fn manifest_pool(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("MANIFEST-"))
        })
        .collect();
    paths.sort();
    Ok(paths)
}

/// `(payload offset, payload len)` of each whole record in a shard image.
fn shard_record_ranges(bytes: &[u8]) -> Vec<(usize, usize)> {
    let frames = crate::store::frame::walk(bytes).map_or_else(Vec::new, |w| w.frames);
    frames
        .into_iter()
        .map(|f| (f.payload.start, f.payload.len()))
        .collect()
}

fn no_victim(dir: &Path) -> io::Error {
    io::Error::other(format!(
        "no profile files to corrupt in {}",
        dir.display()
    ))
}

/// Inject one fault into `dir`, picking the victim deterministically
/// from the seed (sorted filename order). Returns the path the fault
/// lives at: the corrupted victim, or the newly created file for
/// [`FaultKind::DuplicateProfile`] / [`FaultKind::Unreadable`].
///
/// Ensemble kinds pick their victim among the `*.json` profiles; store
/// kinds ([`FaultKind::is_store_fault`]) pick among the `*.tks` shards
/// ([`FaultKind::StaleManifest`] targets the newest manifest).
pub fn inject(dir: impl AsRef<Path>, kind: FaultKind, seed: u64) -> io::Result<PathBuf> {
    let dir = dir.as_ref();
    if kind == FaultKind::Unreadable {
        let path = dir.join(format!("zz-unreadable-{seed}.json"));
        std::fs::create_dir_all(&path)?;
        return Ok(path);
    }
    if kind.is_v3_payload_fault() {
        return corrupt_v3_record(dir, kind, seed);
    }
    if kind.is_coordination_fault() {
        return corrupt_coordination(dir, kind, seed);
    }
    if kind.is_trace_fault() {
        let pool = trace_pool(dir)?;
        if pool.is_empty() {
            return Err(io::Error::other(format!(
                "no trace files to corrupt in {}",
                dir.display()
            )));
        }
        let victim = &pool[(seed % pool.len() as u64) as usize];
        return apply(victim, kind, seed);
    }
    if kind.is_wire_fault() {
        return Err(io::Error::other(format!(
            "{kind:?} is a live wire fault (driven against a running \
             thicketd by the serve chaos suite, not injectable on disk)"
        )));
    }
    if kind == FaultKind::StaleManifest {
        let pool = manifest_pool(dir)?;
        let Some(newest) = pool.last() else {
            return Err(io::Error::other(format!(
                "no manifest to corrupt in {}",
                dir.display()
            )));
        };
        return apply(newest, kind, seed);
    }
    let pool = if kind.is_store_fault() {
        shard_pool(dir)?
    } else {
        victim_pool(dir)?
    };
    if pool.is_empty() {
        return Err(no_victim(dir));
    }
    let victim = &pool[(seed % pool.len() as u64) as usize];
    apply(victim, kind, seed)
}

/// Apply every fault kind that fits the directory, each to a
/// *distinct* victim.
///
/// For a store directory (it contains a `MANIFEST-*` file) the
/// [`FaultKind::STORE`] kinds are applied: [`FaultKind::BitRot`] and
/// [`FaultKind::TornShard`] to two *different* shards (≥ 2 shards
/// required so each classifies unambiguously) and
/// [`FaultKind::StaleManifest`] to the newest manifest. Returns pairs
/// in [`FaultKind::STORE`] order.
///
/// For a loose-JSON ensemble directory the [`FaultKind::ENSEMBLE`]
/// kinds are applied as before, with [`FaultKind::DuplicateProfile`]
/// duplicating a file no other fault touched (so the duplicate's
/// diagnostic is unambiguously "duplicate", not "parse error");
/// requires at least 6 healthy profiles. Returns pairs in
/// [`FaultKind::ENSEMBLE`] order.
pub fn inject_all(dir: impl AsRef<Path>, seed: u64) -> io::Result<Vec<(FaultKind, PathBuf)>> {
    let dir = dir.as_ref();
    if !manifest_pool(dir)?.is_empty() {
        return inject_all_store(dir, seed);
    }
    let pool = victim_pool(dir)?;
    let corrupting: Vec<FaultKind> = FaultKind::ENSEMBLE
        .iter()
        .copied()
        .filter(|k| !matches!(k, FaultKind::DuplicateProfile | FaultKind::Unreadable))
        .collect();
    if pool.len() < corrupting.len() + 1 {
        return Err(io::Error::other(format!(
            "need at least {} profiles in {}, found {}",
            corrupting.len() + 1,
            dir.display(),
            pool.len()
        )));
    }
    let offset = (seed % pool.len() as u64) as usize;
    let mut out = Vec::with_capacity(FaultKind::ALL.len());
    let mut used: Vec<usize> = Vec::new();
    for (i, kind) in corrupting.iter().enumerate() {
        let v = (offset + i) % pool.len();
        used.push(v);
        out.push((*kind, apply(&pool[v], *kind, seed)?));
    }
    // Duplicate a file untouched by the corruptors above.
    let healthy = (0..pool.len())
        .find(|i| !used.contains(i))
        .expect("pool larger than corruptor count");
    out.push((
        FaultKind::DuplicateProfile,
        apply(&pool[healthy], FaultKind::DuplicateProfile, seed)?,
    ));
    out.push((FaultKind::Unreadable, inject(dir, FaultKind::Unreadable, seed)?));
    // Report in ENSEMBLE order for callers that zip against it.
    out.sort_by_key(|(k, _)| FaultKind::ENSEMBLE.iter().position(|a| a == k));
    Ok(out)
}

/// [`inject_all`] for a store directory: bit rot and a torn shard on
/// two distinct shards, plus a stale newest manifest.
fn inject_all_store(dir: &Path, seed: u64) -> io::Result<Vec<(FaultKind, PathBuf)>> {
    let pool = shard_pool(dir)?;
    if pool.len() < 2 {
        return Err(io::Error::other(format!(
            "need at least 2 shards in {}, found {} (save with a smaller shard_bytes)",
            dir.display(),
            pool.len()
        )));
    }
    let rot = (seed % pool.len() as u64) as usize;
    let torn = (rot + 1) % pool.len();
    Ok(vec![
        (
            FaultKind::TornShard,
            apply(&pool[torn], FaultKind::TornShard, seed)?,
        ),
        (FaultKind::BitRot, apply(&pool[rot], FaultKind::BitRot, seed)?),
        (
            FaultKind::StaleManifest,
            inject(dir, FaultKind::StaleManifest, seed)?,
        ),
    ])
}

/// Plant an abandoned coordination file: a garbage-bodied `LOCK` or a
/// pid-0 `pin-*` lease, both with an epoch-old mtime so every ttl has
/// long expired. Writers must take the lock over, GC must reap the
/// lease, and fsck must classify both as typed findings — no salvage,
/// no panic.
fn corrupt_coordination(dir: &Path, kind: FaultKind, seed: u64) -> io::Result<PathBuf> {
    // Seed-derived garbage: not UTF-8, not the lock grammar.
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut garbage = Vec::with_capacity(24);
    for _ in 0..24 {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        garbage.push((state >> 56) as u8 | 0x80);
    }
    let path = match kind {
        FaultKind::LockGarbage => dir.join("LOCK"),
        FaultKind::LeaseGarbage => {
            // Well-formed lease name, owner pid 0: pid 0 is never alive,
            // so the lease is stale no matter how the body reads.
            dir.join(format!("pin-{:06}-0-{:016x}", seed % 1_000_000, seed))
        }
        _ => unreachable!("not a coordination fault"),
    };
    std::fs::write(&path, &garbage)?;
    let f = std::fs::OpenOptions::new().append(true).open(&path)?;
    f.set_modified(std::time::UNIX_EPOCH)?;
    Ok(path)
}

/// Corrupt one v3 record's payload and re-frame it so every checksum
/// still verifies: new frame header, updated manifest entry (len +
/// CRC), shifted offsets for any record behind it, refreshed shard
/// digest, and a rewritten (self-CRC'd) manifest. The damage survives
/// every structural check and reaches the payload decoder.
fn corrupt_v3_record(dir: &Path, kind: FaultKind, seed: u64) -> io::Result<PathBuf> {
    use crate::binprofile::metric_column_spans;
    use crate::store::{crc32c, frame, Manifest};

    let pool = manifest_pool(dir)?;
    let mpath = pool
        .last()
        .ok_or_else(|| io::Error::other(format!("no manifest in {}", dir.display())))?;
    let mut manifest = Manifest::from_file_bytes(&std::fs::read(mpath)?)
        .map_err(io::Error::other)?;
    if manifest.profiles.is_empty() {
        return Err(io::Error::other("store has no records to corrupt"));
    }
    let vi = (seed % manifest.profiles.len() as u64) as usize;
    let entry = manifest.profiles[vi].clone();
    let shard_path = dir.join(&manifest.shards[entry.shard].file);
    let bytes = std::fs::read(&shard_path)?;
    let start = entry.offset as usize;
    let end = start + entry.len as usize;
    let payload = bytes
        .get(start..end)
        .ok_or_else(|| io::Error::other("manifest entry range exceeds shard"))?;
    let spans = metric_column_spans(payload)
        .map_err(|e| io::Error::other(format!("victim payload does not walk: {e}")))?;
    if spans.is_empty() {
        return Err(io::Error::other("victim record has no metric columns"));
    }
    let span = &spans[(seed % spans.len() as u64) as usize];
    let mut poisoned = payload.to_vec();
    match kind {
        FaultKind::TruncatedColumn => {
            poisoned.truncate(span.data.start + span.data.len() / 2);
        }
        FaultKind::ColumnCrcRot => {
            poisoned[span.crc_at] ^= 1 << (seed % 8);
        }
        FaultKind::ColumnCountMismatch => {
            // Bump the *last* column's count: with nothing behind it,
            // the declared entries cannot fit the remaining bytes.
            let last = spans.last().unwrap();
            let at = last.count_at;
            let m = u32::from_le_bytes(poisoned[at..at + 4].try_into().unwrap());
            poisoned[at..at + 4].copy_from_slice(&(m + 1).to_le_bytes());
        }
        FaultKind::NameIndexOutOfRange => {
            poisoned[span.name_idx_at..span.name_idx_at + 4]
                .copy_from_slice(&u32::MAX.to_le_bytes());
        }
        _ => return Err(io::Error::other(format!("{kind:?} is not a v3 payload fault"))),
    }

    // Re-frame: splice the poisoned payload in with a fresh header.
    let frame_start = frame::span(entry.offset, entry.len)
        .ok_or_else(|| io::Error::other("manifest entry has no room for a header"))?
        .start as usize;
    let mut out = Vec::with_capacity(bytes.len());
    out.extend_from_slice(&bytes[..frame_start]);
    let (_, crc) = frame::push(&mut out, &poisoned);
    out.extend_from_slice(&bytes[end..]);

    // Manifest fixups: the entry itself, offsets of records behind it
    // in the same shard, and the shard digest.
    let delta = poisoned.len() as i64 - entry.len as i64;
    manifest.profiles[vi].len = poisoned.len() as u32;
    manifest.profiles[vi].crc = crc;
    for e in manifest.profiles.iter_mut() {
        if e.shard == entry.shard && e.offset > entry.offset {
            e.offset = (e.offset as i64 + delta) as u64;
        }
    }
    let info = &mut manifest.shards[entry.shard];
    info.bytes = out.len() as u64;
    info.crc = crc32c(&out);
    std::fs::write(&shard_path, &out)?;
    std::fs::write(mpath, manifest.to_file_bytes())?;
    Ok(shard_path)
}

/// Corrupt one file in place (or derive a sibling file for
/// [`FaultKind::DuplicateProfile`]).
fn apply(victim: &Path, kind: FaultKind, seed: u64) -> io::Result<PathBuf> {
    match kind {
        FaultKind::Truncate => {
            let bytes = std::fs::read(victim)?;
            if bytes.len() < 2 {
                return Err(io::Error::other("file too small to truncate"));
            }
            // Any proper prefix of a compact `{…}` document is invalid.
            let cut = 1 + (seed % (bytes.len() as u64 - 1)) as usize;
            std::fs::write(victim, &bytes[..cut])?;
            Ok(victim.to_path_buf())
        }
        FaultKind::FlipByte => {
            let mut bytes = std::fs::read(victim)?;
            let quotes: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| **b == b'"')
                .map(|(i, _)| i)
                .collect();
            if quotes.is_empty() {
                return Err(io::Error::other("no string delimiters to mangle"));
            }
            // Knocking out a string delimiter guarantees a parse error
            // while keeping the bytes valid UTF-8 (so the failure is a
            // *parse* diagnostic, not an I/O decode error).
            bytes[quotes[(seed % quotes.len() as u64) as usize]] = b'#';
            std::fs::write(victim, &bytes)?;
            Ok(victim.to_path_buf())
        }
        FaultKind::DropMetrics => edit_json(victim, |doc| {
            let nodes = member_mut(doc, "nodes")?;
            let Json::Arr(items) = nodes else {
                return Err("nodes is not an array".into());
            };
            if items.is_empty() {
                return Err("no nodes to strip".into());
            }
            let i = (seed % items.len() as u64) as usize;
            let Json::Obj(members) = &mut items[i] else {
                return Err("node is not an object".into());
            };
            members.retain(|(k, _)| k != "metrics");
            Ok(())
        }),
        FaultKind::NonFinite => {
            const MARKER: &str = "__THICKET_INF__";
            edit_json(victim, |doc| {
                let nodes = member_mut(doc, "nodes")?;
                let Json::Arr(items) = nodes else {
                    return Err("nodes is not an array".into());
                };
                // Nodes that actually carry a metric to poison.
                let candidates: Vec<usize> = items
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| {
                        n.get("metrics")
                            .and_then(Json::as_obj)
                            .is_some_and(|m| !m.is_empty())
                    })
                    .map(|(i, _)| i)
                    .collect();
                if candidates.is_empty() {
                    return Err("no measured nodes to poison".into());
                }
                let i = candidates[(seed % candidates.len() as u64) as usize];
                let metrics = member_mut(&mut items[i], "metrics")?;
                let Json::Obj(members) = metrics else {
                    return Err("metrics is not an object".into());
                };
                members[0].1 = Json::Str(MARKER.into());
                Ok(())
            })?;
            // `1e999` overflows to +inf on parse; no finite Json::Num can
            // express that, so splice the literal in textually.
            let text = std::fs::read_to_string(victim)?;
            std::fs::write(victim, text.replace(&format!("\"{MARKER}\""), "1e999"))?;
            Ok(victim.to_path_buf())
        }
        FaultKind::EmptyCallTree => edit_json(victim, |doc| {
            *member_mut(doc, "nodes")? = Json::Arr(Vec::new());
            *member_mut(doc, "roots")? = Json::Arr(Vec::new());
            Ok(())
        }),
        FaultKind::DuplicateProfile => {
            let name = victim
                .file_name()
                .ok_or_else(|| io::Error::other("victim has no file name"))?
                .to_string_lossy()
                .into_owned();
            // `zz-` sorts after `profile-*`, so the *copy* is the one the
            // lenient loader reports as the duplicate.
            let dup = victim.with_file_name(format!("zz-duplicate-{name}"));
            std::fs::copy(victim, &dup)?;
            Ok(dup)
        }
        FaultKind::Unreadable => {
            let dup = victim.with_file_name(format!("zz-unreadable-{seed}.json"));
            std::fs::create_dir_all(&dup)?;
            Ok(dup)
        }
        FaultKind::TornShard => {
            let bytes = std::fs::read(victim)?;
            let ranges = shard_record_ranges(&bytes);
            if ranges.is_empty() {
                return Err(io::Error::other("shard has no records to tear"));
            }
            // Cut inside a seed-chosen record's payload, so the frame
            // promises more bytes than the file holds.
            let (start, len) = ranges[(seed % ranges.len() as u64) as usize];
            let cut = start + len / 2;
            std::fs::write(victim, &bytes[..cut])?;
            Ok(victim.to_path_buf())
        }
        FaultKind::BitRot => {
            let mut bytes = std::fs::read(victim)?;
            let ranges = shard_record_ranges(&bytes);
            if ranges.is_empty() {
                return Err(io::Error::other("shard has no records to rot"));
            }
            // Flip one payload bit; CRC32C catches any single-bit flip.
            let (start, len) = ranges[(seed % ranges.len() as u64) as usize];
            if len == 0 {
                return Err(io::Error::other("record payload is empty"));
            }
            let byte = start + (seed as usize / 8) % len;
            bytes[byte] ^= 1 << (seed % 8);
            std::fs::write(victim, &bytes)?;
            Ok(victim.to_path_buf())
        }
        FaultKind::StaleManifest => {
            // Tear the commit record in half: the self-CRC no longer
            // verifies, so readers must fall back a generation.
            let bytes = std::fs::read(victim)?;
            if bytes.len() < 2 {
                return Err(io::Error::other("manifest too small to tear"));
            }
            std::fs::write(victim, &bytes[..bytes.len() / 2])?;
            Ok(victim.to_path_buf())
        }
        FaultKind::TruncatedColumn
        | FaultKind::ColumnCrcRot
        | FaultKind::ColumnCountMismatch
        | FaultKind::NameIndexOutOfRange => {
            Err(io::Error::other("v3 payload faults are store-level (use inject)"))
        }
        FaultKind::LockGarbage | FaultKind::LeaseGarbage => {
            Err(io::Error::other("coordination faults are store-level (use inject)"))
        }
        FaultKind::TornFrame
        | FaultKind::OversizedFrame
        | FaultKind::SlowLoris
        | FaultKind::ConnectionKill
        | FaultKind::DaemonKill => {
            Err(io::Error::other("wire faults are live (serve chaos suite)"))
        }
        FaultKind::TornTrace => {
            // Cut inside a seed-chosen event line: the file ends with a
            // partial line and no newline, like a tracer killed
            // mid-write.
            let text = std::fs::read_to_string(victim)?;
            let lines = event_line_spans(&text);
            if lines.is_empty() {
                return Err(io::Error::other("trace has no event lines to tear"));
            }
            let (start, end) = lines[(seed % lines.len() as u64) as usize];
            // At least one byte into the line, strictly before its
            // newline, so the tail is a recognizably partial line.
            let cut = start + 1 + (seed as usize) % (end - start - 1).max(1);
            std::fs::write(victim, &text.as_bytes()[..cut])?;
            Ok(victim.to_path_buf())
        }
        FaultKind::ShuffledEvents => {
            // Swap the timestamps of two consecutive events on one
            // rank: its clock regresses at the second one.
            let text = std::fs::read_to_string(victim)?;
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            let events: Vec<(usize, u32, u64)> = lines
                .iter()
                .enumerate()
                .filter_map(|(i, l)| parse_event_line(l).map(|(r, t)| (i, r, t)))
                .collect();
            // Consecutive same-rank pairs with strictly increasing time.
            let pairs: Vec<(usize, usize)> = events
                .iter()
                .enumerate()
                .filter_map(|(k, &(i, r, t))| {
                    events[k + 1..]
                        .iter()
                        .find(|&&(_, r2, _)| r2 == r)
                        .filter(|&&(_, _, t2)| t2 > t)
                        .map(|&(j, _, _)| (i, j))
                })
                .collect();
            if pairs.is_empty() {
                return Err(io::Error::other(
                    "trace has no increasing same-rank event pair to shuffle",
                ));
            }
            let (i, j) = pairs[(seed % pairs.len() as u64) as usize];
            let ti = parse_event_line(&lines[i]).unwrap().1;
            let tj = parse_event_line(&lines[j]).unwrap().1;
            lines[i] = swap_event_time(&lines[i], tj);
            lines[j] = swap_event_time(&lines[j], ti);
            std::fs::write(victim, lines.join("\n") + "\n")?;
            Ok(victim.to_path_buf())
        }
        FaultKind::UnbalancedTrace => {
            // Drop one leave line: that rank ends with an open region.
            let text = std::fs::read_to_string(victim)?;
            let lines: Vec<&str> = text.lines().collect();
            let leaves: Vec<usize> = lines
                .iter()
                .enumerate()
                .filter(|(_, l)| l.starts_with("L "))
                .map(|(i, _)| i)
                .collect();
            if leaves.is_empty() {
                return Err(io::Error::other("trace has no leave lines to drop"));
            }
            let drop = leaves[(seed % leaves.len() as u64) as usize];
            let kept: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, l)| *l)
                .collect();
            std::fs::write(victim, kept.join("\n") + "\n")?;
            Ok(victim.to_path_buf())
        }
    }
}

/// `(start, end-with-newline)` byte spans of every `E `/`L ` line.
fn event_line_spans(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = 0;
    for line in text.split_inclusive('\n') {
        let end = start + line.len();
        if line.starts_with("E ") || line.starts_with("L ") {
            spans.push((start, end));
        }
        start = end;
    }
    spans
}

/// `(rank, time_ns)` of an event line, if it is one.
fn parse_event_line(line: &str) -> Option<(u32, u64)> {
    let rest = line
        .strip_prefix("E ")
        .or_else(|| line.strip_prefix("L "))?;
    let mut fields = rest.splitn(3, ' ');
    let rank = fields.next()?.parse().ok()?;
    let time = fields.next()?.parse().ok()?;
    Some((rank, time))
}

/// Rewrite an event line's timestamp field.
fn swap_event_time(line: &str, time_ns: u64) -> String {
    let mut parts: Vec<&str> = line.splitn(4, ' ').collect();
    let new = time_ns.to_string();
    parts[2] = &new;
    parts.join(" ")
}

/// Parse → mutate → rewrite one JSON file.
fn edit_json(
    path: &Path,
    mutate: impl FnOnce(&mut Json) -> Result<(), String>,
) -> io::Result<PathBuf> {
    let text = std::fs::read_to_string(path)?;
    let mut doc = Json::parse(&text)
        .map_err(|e| io::Error::other(format!("victim is not valid JSON: {e}")))?;
    mutate(&mut doc).map_err(io::Error::other)?;
    std::fs::write(path, doc.to_string_compact())?;
    Ok(path.to_path_buf())
}

/// Mutable access to an object member.
fn member_mut<'a>(doc: &'a mut Json, key: &str) -> Result<&'a mut Json, String> {
    let Json::Obj(members) = doc else {
        return Err("document is not an object".into());
    };
    members
        .iter_mut()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing member {key:?}"))
}

// ---------------------------------------------------------------------
// Live-contention chaos schedules.
// ---------------------------------------------------------------------

/// One writer operation in a [`ChaosSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosOp {
    /// Append a batch of this many fresh profiles.
    Append {
        /// Batch size (1..=3).
        profiles: usize,
    },
    /// Compact the store.
    Compact,
    /// Append with [`crate::StoreOptions::crash_after`] set to `point`
    /// — the writer dies at that crash point (or commits normally when
    /// `point` exceeds the write's crash-point count, which is itself a
    /// useful case: a "crash" that turns out to be a success).
    CrashedAppend {
        /// Crash point index to inject.
        point: usize,
    },
    /// Compact with a crash injected at `point` (same semantics as
    /// [`ChaosOp::CrashedAppend`]).
    CrashedCompact {
        /// Crash point index to inject.
        point: usize,
    },
}

/// A deterministic, infinite, seed-driven stream of [`ChaosOp`]s —
/// the writer half of a live-contention test. Roughly: 45% appends,
/// 20% compactions, 25% crashed appends, 10% crashed compactions,
/// crash points spread over `0..12` (clamp or mod by the write's
/// actual [`crate::WriteReport::crash_points`] if exactness matters).
///
/// The same seed yields the same schedule on every platform: the
/// generator is the xorshift64* PRNG used elsewhere in this crate.
#[derive(Debug, Clone)]
pub struct ChaosSchedule {
    state: u64,
}

impl ChaosSchedule {
    /// Schedule for `seed` (any value; 0 is remapped internally).
    pub fn new(seed: u64) -> ChaosSchedule {
        // SplitMix64 finalizer: whiten the seed, never zero.
        let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ChaosSchedule { state: (z ^ (z >> 31)) | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

impl Iterator for ChaosSchedule {
    type Item = ChaosOp;

    fn next(&mut self) -> Option<ChaosOp> {
        let r = self.next_u64();
        let roll = r % 100;
        let point = ((r >> 32) % 12) as usize;
        let profiles = ((r >> 16) % 3) as usize + 1;
        Some(match roll {
            0..=44 => ChaosOp::Append { profiles },
            45..=64 => ChaosOp::Compact,
            65..=89 => ChaosOp::CrashedAppend { point },
            _ => ChaosOp::CrashedCompact { point },
        })
    }
}

/// A scratch directory for one test: `thicket-<tag>-<pid>-<n>` under
/// the system temp dir, created empty and removed with its contents on
/// drop. The pid and a per-process counter keep concurrent test
/// threads and concurrent test processes out of each other's files;
/// derefs to [`Path`], so `dir.join(..)` and `&dir` work as for a path.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Create a fresh, empty directory tagged `tag`.
    ///
    /// # Panics
    ///
    /// Panics when the directory cannot be created.
    pub fn new(tag: &str) -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("thicket-{tag}-{}-{n}", std::process::id()));
        // Leftovers of an earlier process that had the same pid.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("creating scratch dir {}: {e}", dir.display()));
        ScratchDir(dir)
    }

    /// A fresh scratch directory tagged `tag` holding a copy of every
    /// file directly inside `src` (a private, writable copy of a
    /// checked-in store).
    ///
    /// # Panics
    ///
    /// Panics when `src` cannot be listed or a file cannot be copied.
    pub fn copy_of(tag: &str, src: &Path) -> ScratchDir {
        let dir = ScratchDir::new(tag);
        for entry in std::fs::read_dir(src).expect("listing the copy source") {
            let entry = entry.expect("listing the copy source");
            std::fs::copy(entry.path(), dir.join(entry.file_name())).expect("copying a file");
        }
        dir
    }
}

impl Deref for ScratchDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for ScratchDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::{load_dir, save_ensemble};
    use crate::ingest::Strictness;
    use crate::rajaperf::{simulate_cpu_run, CpuRunConfig};

    fn fresh_dir(n: u64) -> ScratchDir {
        let dir = ScratchDir::new("faults");
        let profiles: Vec<_> = (0..n)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        save_ensemble(&dir, &profiles).unwrap();
        dir
    }

    #[test]
    fn injection_is_deterministic() {
        let a = fresh_dir(8);
        let b = fresh_dir(8);
        let fa = inject_all(&a, 42).unwrap();
        let fb = inject_all(&b, 42).unwrap();
        let names = |v: &[(FaultKind, PathBuf)]| {
            v.iter()
                .map(|(k, p)| (*k, p.file_name().unwrap().to_string_lossy().into_owned()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&fa), names(&fb));
        // And the corrupted bytes themselves match.
        for ((_, pa), (_, pb)) in fa.iter().zip(fb.iter()) {
            if pa.is_file() {
                assert_eq!(std::fs::read(pa).unwrap(), std::fs::read(pb).unwrap());
            }
        }
    }

    #[test]
    fn each_fault_surfaces_as_its_typed_diagnostic() {
        for kind in FaultKind::ENSEMBLE.iter() {
            let dir = fresh_dir(6);
            let path = inject(&dir, *kind, 7).unwrap();
            let (profiles, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
            assert_eq!(
                report.diagnostics.len(),
                1,
                "{kind:?}: expected exactly one diagnostic, got {report}"
            );
            let diag = &report.diagnostics[0];
            assert!(
                kind.matches(&diag.kind),
                "{kind:?} produced mismatched diagnostic {:?}",
                diag.kind
            );
            assert_eq!(diag.source, path.display().to_string(), "{kind:?}");
            // Duplicate/unreadable faults add a file; the original
            // profiles all survive. Corruptors knock one out.
            let expected = match kind {
                FaultKind::DuplicateProfile | FaultKind::Unreadable => 6,
                _ => 5,
            };
            assert_eq!(profiles.len(), expected, "{kind:?}");
        }
    }

    #[test]
    fn inject_all_requires_enough_victims() {
        let dir = fresh_dir(3);
        assert!(inject_all(&dir, 0).is_err());
    }

    fn fresh_store(n: u64) -> ScratchDir {
        let dir = ScratchDir::new("faults-store");
        let profiles: Vec<_> = (0..n)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        let opts = crate::StoreOptions {
            shard_bytes: 1, // one record per shard: plenty of victims
            ..crate::StoreOptions::default()
        };
        crate::Store::save_opts(&dir, &profiles, &opts).unwrap();
        dir
    }

    #[test]
    fn store_faults_classify_under_fsck() {
        for kind in FaultKind::STORE.iter() {
            let dir = fresh_store(4);
            inject(&dir, *kind, 11).unwrap();
            let fsck = crate::Store::fsck(&dir).unwrap();
            assert!(!fsck.is_clean(), "{kind:?} left a clean store");
            let findings: Vec<_> = fsck.findings().collect();
            assert!(
                findings.iter().any(|d| kind.matches(&d.kind)),
                "{kind:?} produced findings {findings:?}"
            );
        }
    }

    #[test]
    fn store_inject_all_hits_distinct_victims() {
        let dir = fresh_store(5);
        let faults = inject_all(&dir, 3).unwrap();
        let kinds: Vec<FaultKind> = faults.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds, FaultKind::STORE.to_vec());
        // Torn shard and bit rot land on different files.
        assert_ne!(faults[0].1, faults[1].1);
        // With all three at once the manifest is stale, so fsck can
        // only say that much; recover's salvage walk classifies the
        // per-shard damage. Together every fault is accounted for.
        let fsck = crate::Store::fsck(&dir).unwrap();
        assert!(!fsck.is_clean());
        let rec = crate::Store::recover(&dir).unwrap();
        assert_eq!(rec.salvaged, 3, "two records lost to torn + rot");
        for (kind, _) in &faults {
            let classified = fsck.findings().any(|d| kind.matches(&d.kind))
                || rec.report.diagnostics.iter().any(|d| kind.matches(&d.kind));
            assert!(classified, "{kind:?} classified nowhere: {}", rec.report);
        }
        // The recovered store reloads clean.
        let (loaded, rep) = crate::Store::open(&dir).unwrap().load_all().unwrap();
        assert_eq!(loaded.len(), 3);
        assert!(rep.is_clean());
        assert!(crate::Store::fsck(&dir).unwrap().is_clean());
    }

    #[test]
    fn v3_payload_faults_pass_structural_checks_but_fail_deep_fsck() {
        for kind in FaultKind::STORE_V3.iter() {
            let dir = fresh_store(4);
            inject(&dir, *kind, 11).unwrap();
            // Every digest was recomputed, so the store still opens and
            // the manifest verifies...
            let reader = crate::Store::open(&dir).unwrap();
            assert_eq!(reader.entries().len(), 4, "{kind:?}");
            // ...but deep fsck runs each payload through the decoder
            // and classifies the damage at the poisoned record.
            let fsck = crate::Store::fsck(&dir).unwrap();
            assert!(!fsck.is_clean(), "{kind:?} left a clean store");
            let findings: Vec<_> = fsck.findings().collect();
            assert!(
                findings.iter().any(|d| kind.matches(&d.kind)),
                "{kind:?} produced findings {findings:?}"
            );
        }
    }

    #[test]
    fn store_inject_all_requires_two_shards() {
        let dir = ScratchDir::new("faults-store");
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        crate::Store::save(&dir, &[p]).unwrap();
        assert!(inject_all(&dir, 0).is_err());
    }

    #[test]
    fn coordination_faults_classify_and_reap() {
        for kind in FaultKind::COORDINATION.iter() {
            let dir = fresh_store(3);
            inject(&dir, *kind, 29).unwrap();
            // Every generation is still intact — the damage is pure
            // coordination wreckage...
            let fsck = crate::Store::fsck(&dir).unwrap();
            assert!(!fsck.is_clean(), "{kind:?} left a clean store");
            assert!(fsck.generations.iter().all(|g| g.intact), "{kind:?}");
            assert!(
                fsck.coordination.iter().any(|d| kind.matches(&d.kind)),
                "{kind:?} produced {:?}",
                fsck.coordination
            );
            // ...which readers shrug off, writers take over, and
            // recover reaps without touching a single record.
            let before = crate::Store::open(&dir).unwrap().entries().len();
            let rec = crate::Store::recover(&dir).unwrap();
            assert_eq!(rec.salvaged, 0, "{kind:?}");
            assert!(!rec.removed.is_empty(), "{kind:?} reaped nothing");
            assert!(crate::Store::fsck(&dir).unwrap().is_clean(), "{kind:?}");
            let after = crate::Store::open(&dir).unwrap().entries().len();
            assert_eq!(before, after, "{kind:?} lost records");
        }
    }

    #[test]
    fn garbage_lock_does_not_wedge_writers() {
        let dir = fresh_store(3);
        inject(&dir, FaultKind::LockGarbage, 5).unwrap();
        // The epoch-old garbage lock is past every ttl: an append takes
        // it over instead of waiting out the timeout.
        let p = simulate_cpu_run(&CpuRunConfig {
            seed: 99,
            ..CpuRunConfig::quartz_default()
        });
        let rep = crate::Store::append(&dir, &[p]).unwrap();
        assert_eq!(rep.appended, 1);
    }

    #[test]
    fn chaos_schedule_is_deterministic_and_mixed() {
        let a: Vec<ChaosOp> = ChaosSchedule::new(7).take(200).collect();
        let b: Vec<ChaosOp> = ChaosSchedule::new(7).take(200).collect();
        assert_eq!(a, b);
        let c: Vec<ChaosOp> = ChaosSchedule::new(8).take(200).collect();
        assert_ne!(a, c, "different seeds, same schedule");
        // All four op shapes appear in a 200-op window.
        assert!(a.iter().any(|o| matches!(o, ChaosOp::Append { .. })));
        assert!(a.iter().any(|o| matches!(o, ChaosOp::Compact)));
        assert!(a.iter().any(|o| matches!(o, ChaosOp::CrashedAppend { .. })));
        assert!(a.iter().any(|o| matches!(o, ChaosOp::CrashedCompact { .. })));
        // Batch sizes and crash points stay in their documented ranges.
        for op in &a {
            match op {
                ChaosOp::Append { profiles } => assert!((1..=3).contains(profiles)),
                ChaosOp::CrashedAppend { point } | ChaosOp::CrashedCompact { point } => {
                    assert!(*point < 12)
                }
                ChaosOp::Compact => {}
            }
        }
    }

    #[test]
    fn truncation_diagnostic_reports_offset() {
        let dir = fresh_dir(6);
        let path = inject(&dir, FaultKind::Truncate, 3).unwrap();
        let cut_len = std::fs::read(&path).unwrap().len();
        let (_, report) = load_dir(&dir, None, Strictness::Lenient).unwrap();
        match &report.diagnostics[0].kind {
            DiagKind::Parse { offset, .. } => {
                assert!(*offset <= cut_len, "offset {offset} beyond cut {cut_len}")
            }
            other => panic!("expected parse diagnostic, got {other:?}"),
        }
    }
}
