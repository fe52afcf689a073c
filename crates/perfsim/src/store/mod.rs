//! Crash-safe sharded ensemble store: the indexed on-disk layer beyond
//! the loose-JSON-directory loader in [`crate::ensemble`].
//!
//! Profiles are packed into fixed-size **shards**, each record framed as
//! `[u32 len][u32 crc32c(payload)][payload]` (one module, `frame`, owns
//! that layout), and committed under a
//! generation-numbered **manifest** (`MANIFEST-<gen>`, written via
//! temp-file + rename). The manifest carries per-shard digests, the
//! per-profile byte ranges, and a **columnar metadata index** — one
//! [`MetaBlock`] per key (presence mask + lazily-parsed values) — so
//! [`StoreReader::select_expr`] over a [`PredExpr`](thicket_dataframe::PredExpr)
//! decodes only the keys the predicate names and
//! [`StoreReader::load_matching`] skips whole shards the predicate
//! excludes without even opening them. Every record payload is a
//! `TKP3` binary profile ([`crate::binprofile`]): name-table-interned
//! strings plus columnar metric arrays, decoded by a bounds-checked
//! cursor instead of a parse tree. [`Store::append`] commits new
//! profiles as a new generation that reuses existing shards, and
//! [`Store::compact`] re-packs fragmented or salvaged shards.
//!
//! ## One format on the read path
//!
//! The store writes and serves one format ([`MANIFEST_FORMAT`]). A
//! newest generation an older build wrote (v1 per-entry metadata rows,
//! or v2 with JSON record payloads) is refused with
//! [`StoreError::NeedsMigration`]; [`Store::compact`] migrates it. What
//! those builds wrote decodes in one private module (`legacy`), which
//! only `compact` and the maintenance paths (fsck, recover, GC) reach.
//!
//! ## Commit protocol
//!
//! `save`, `append` and `compact` run one commit sequence, from the
//! first crash point to GC; each keeps only its read phase, the records
//! it writes and how it builds their metadata columns.
//!
//! 1. New shard files are written under names unique to the new
//!    generation (`shard-<gen>-<idx>.tks`). They are invisible to
//!    readers until a manifest references them, so a crash mid-write
//!    leaves only an orphan.
//! 2. The manifest is written to a dot-temp file, synced, then renamed
//!    to `MANIFEST-<gen>` — the atomic commit point.
//! 3. Only after the rename are generations older than the retention
//!    window garbage-collected; the previous generation stays readable
//!    until the new one is durable.
//!
//! Every writer crash point is enumerable and injectable
//! ([`StoreOptions::crash_after`]); the crash-point matrix test aborts
//! the writer at each one and asserts [`Store::recover`] always yields
//! exactly one complete generation — never a mix.
//!
//! ## Concurrency model
//!
//! The store is MVCC by construction — generations are immutable once
//! their manifest renames into place — and three mechanisms make that
//! safe to exploit from many threads *and* many processes:
//!
//! * **Commit lock.** `save`/`append`/`compact` serialize on an
//!   advisory `LOCK` file (owner pid + token inside, O_EXCL create).
//!   Contenders wait with jittered exponential [`Backoff`](crate::backoff::Backoff) up
//!   to [`StoreOptions::lock_timeout`], then surface
//!   [`StoreError::Busy`]. Locks whose owner pid is dead — or whose
//!   body is garbage and older than a 10 s liveness window — are
//!   taken over; a parseable lock with a live owner never is.
//! * **Optimistic rebase.** `append` stages (encodes) its batch before
//!   taking the lock and takes the newest manifest as its base after,
//!   through the manifest registry: a generation that landed in between
//!   simply becomes the new base, so a lost update is impossible.
//! * **Snapshot pinning.** [`Store::open_pinned`] returns a
//!   [`Snapshot`] that registers a lease file
//!   (`pin-<gen>-<pid>-<token>`, heartbeat = mtime) and reads through a
//!   handle held open on every shard file (an unlinked file keeps
//!   serving reads). GC skips generations with a live lease and reaps
//!   leases whose owner died or stopped heartbeating for 30 s. The
//!   handles belong to the generation's registry entry: the first pin
//!   opens them, later pins of the same manifest share them, and every
//!   shard read is positional, since snapshots on other threads read
//!   the same descriptor.
//! * **Manifest registry.** A process-wide registry (`registry`)
//!   shares one verified `Arc<Manifest>` per store directory among all
//!   readers and writers, so an open of an unchanged generation reads a
//!   13-byte header and takes one `fstat` instead of parsing the
//!   manifest. The key is (canonical directory, generation, header CRC,
//!   file length, inode, mtime); a file modified less than a second
//!   before its last verification has its body CRC re-checked on every
//!   hit, so an in-place rewrite is never served. Every commit
//!   registers the manifest it wrote, young, and `append` and `compact`
//!   take their base through the registry: a process that committed a
//!   generation grows it without parsing it again. Only the immutable
//!   manifest and, once a pin opened them, the handles on its shards are
//!   shared: leases and `bytes_read` stay per snapshot, commits open no
//!   handles, and query results are never cached. fsck, recover and GC
//!   read manifests from disk, and an older build's generation is never
//!   registered. The registry holds a fixed handful of directories,
//!   drops entries whose manifest file is gone, and never holds its
//!   lock across I/O or a parse. Replacing or evicting an entry closes
//!   its handles once no snapshot holds them, so a generation GC
//!   collects after this process pinned it keeps its shards' disk space
//!   until the process registers the directory's next generation (its
//!   own commit or its next open there), finds that manifest gone, or
//!   evicts the entry.
//!
//! `fsync` placement: shard files and the manifest temp are synced
//! before the commit rename; lock and lease files are not load-bearing
//! for durability (they only coordinate) and are written best-effort.
//!
//! ## Verification and recovery
//!
//! [`Store::fsck`] deep-verifies every generation (manifest self-CRC,
//! shard digests, per-record CRCs) and classifies what it finds into the
//! same typed [`DiagKind`](crate::ingest::DiagKind)s the lenient ingest path uses
//! ([`DiagKind::TornShard`](crate::ingest::DiagKind::TornShard), [`DiagKind::ChecksumMismatch`](crate::ingest::DiagKind::ChecksumMismatch),
//! [`DiagKind::StaleManifest`](crate::ingest::DiagKind::StaleManifest)) — plus stale coordination files
//! ([`DiagKind::StaleLock`](crate::ingest::DiagKind::StaleLock), [`DiagKind::StaleLease`](crate::ingest::DiagKind::StaleLease)).
//! [`Store::recover`] rolls the store back to the newest
//! fully-verifiable generation, or — when no generation verifies —
//! salvages every intact record into a fresh generation; stale
//! coordination files are reaped either way, live ones left untouched.

mod crc;
pub(crate) mod frame;
mod layout;
mod lease;
mod legacy;
mod lock;
mod manifest;
mod reader;
mod registry;
mod verify;
mod writer;

#[cfg(test)]
mod tests;

pub use crc::crc32c;
pub use frame::{RECORD_HEADER_BYTES, SHARD_MAGIC};
pub use manifest::{Manifest, MetaBlock, ShardInfo, StoreEntry};
pub use reader::{Snapshot, StoreReader};

use crate::ingest::{Diagnostic, IngestReport};
use crate::profile::{Profile, ProfileError};
use std::fmt;
use std::io;
use std::path::Path;
use std::time::Duration;

/// Magic prefix of every manifest file (followed by 8 hex CRC chars).
pub const MANIFEST_MAGIC: &[u8; 4] = b"TKM1";
/// Format tag of a manifest body: columnar metadata index, binary
/// `TKP3` record payloads. The only tag this build writes or serves.
pub const MANIFEST_FORMAT: &str = "thicket-store-3";

// ---------------------------------------------------------------------
// Errors, options, reports.
// ---------------------------------------------------------------------

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io(io::Error),
    /// Structural corruption that the requested operation cannot work
    /// around (recover can usually do better — see [`Store::recover`]).
    Corrupt(String),
    /// No verifiable generation exists in the directory.
    NoGeneration(String),
    /// A profile failed to (de)serialize.
    Profile(Box<ProfileError>),
    /// The commit lock stayed held by a live owner for the whole
    /// acquisition window ([`StoreOptions::lock_timeout`]). The store
    /// is untouched; retry later.
    Busy {
        /// How long the writer waited before giving up.
        waited: Duration,
    },
    /// The newest generation is in a format an older build wrote (its
    /// manifest's format tag is `format`). This build neither serves
    /// nor appends to it; run [`Store::compact`] once to migrate it.
    NeedsMigration {
        /// The generation that needs migrating.
        generation: u64,
        /// Its manifest's format tag.
        format: &'static str,
    },
    /// The crash-point harness aborted the writer (fault injection
    /// only; never produced by a real write).
    InjectedCrash {
        /// Which enumerated crash point fired.
        point: usize,
        /// The writer step the point models.
        label: &'static str,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O: {e}"),
            StoreError::Corrupt(m) => write!(f, "store corrupt: {m}"),
            StoreError::NoGeneration(m) => write!(f, "no usable generation: {m}"),
            StoreError::Profile(e) => write!(f, "store profile: {e}"),
            StoreError::Busy { waited } => {
                write!(f, "store busy: commit lock held for {waited:?}")
            }
            StoreError::NeedsMigration { generation, format } => write!(
                f,
                "generation {generation} is in the older format {format}; \
                 run Store::compact to migrate it"
            ),
            StoreError::InjectedCrash { point, label } => {
                write!(f, "injected crash at point {point} ({label})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<ProfileError> for StoreError {
    fn from(e: ProfileError) -> Self {
        StoreError::Profile(Box::new(e))
    }
}

/// Writer knobs.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Target payload bytes per shard; a shard closes once it holds at
    /// least this many payload bytes (every shard holds ≥ 1 record).
    pub shard_bytes: usize,
    /// How many generations *before* the new one to retain after a
    /// commit (`1` keeps the previous generation as a fallback; `0`
    /// garbage-collects everything but the new generation).
    pub keep_generations: usize,
    /// Fault injection: abort the writer when the crash point with this
    /// index is reached, leaving the directory exactly as a crash at
    /// that step would. `None` for normal operation. The total number
    /// of points a write passes is reported in
    /// [`WriteReport::crash_points`].
    pub crash_after: Option<usize>,
    /// How long a writer waits for the commit lock before returning
    /// [`StoreError::Busy`].
    pub lock_timeout: Duration,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            shard_bytes: 256 * 1024,
            keep_generations: 1,
            crash_after: None,
            lock_timeout: Duration::from_secs(30),
        }
    }
}

/// What a successful [`Store::save`] or [`Store::append`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReport {
    /// The generation this write committed.
    pub generation: u64,
    /// Number of shard files written.
    pub shards: usize,
    /// Number of profiles the committed generation holds in total.
    pub profiles: usize,
    /// How many distinct profiles this call newly added. Within one
    /// call, the first of the profiles that share a hash wins and the
    /// rest are not counted; for [`Store::save`] that leaves every
    /// distinct input, while [`Store::append`] also skips profiles
    /// whose hash the store already holds.
    pub appended: usize,
    /// Number of enumerated crash points the write passed through (the
    /// valid `crash_after` range for this input is `0..crash_points`).
    pub crash_points: usize,
}

/// What a successful [`Store::compact`] did.
#[derive(Debug, Clone)]
pub struct CompactReport {
    /// The generation the compaction committed.
    pub generation: u64,
    /// Number of shard files the new generation uses.
    pub shards: usize,
    /// Number of profiles carried into the new generation.
    pub profiles: usize,
    /// Number of enumerated crash points the compaction passed through.
    pub crash_points: usize,
    /// One typed diagnostic per record that could not be carried over
    /// (corrupt payloads are dropped, like [`Store::recover`] salvage).
    pub report: IngestReport,
}

/// Integrity status of one generation, from [`Store::fsck`].
#[derive(Debug, Clone)]
pub struct GenCheck {
    /// Generation number.
    pub generation: u64,
    /// Manifest file name.
    pub manifest: String,
    /// True when the manifest verifies and every referenced shard and
    /// record checks out.
    pub intact: bool,
    /// Classified findings (empty iff `intact`).
    pub findings: Vec<Diagnostic>,
}

/// What [`Store::fsck`] found.
#[derive(Debug, Clone)]
pub struct FsckReport {
    /// Every generation present, newest first.
    pub generations: Vec<GenCheck>,
    /// Shard files referenced by no manifest (e.g. left by a writer
    /// that crashed before its commit point).
    pub orphan_shards: Vec<String>,
    /// Leftover temporary files.
    pub temps: Vec<String>,
    /// Stale coordination files: a `LOCK` whose owner is gone, or
    /// `pin-*` leases whose owner died / stopped heartbeating. Typed
    /// as [`DiagKind::StaleLock`](crate::ingest::DiagKind::StaleLock) / [`DiagKind::StaleLease`](crate::ingest::DiagKind::StaleLease);
    /// [`Store::recover`] reaps them.
    pub coordination: Vec<Diagnostic>,
    /// A live commit lock, if one is held right now (description of
    /// the owner). Not a finding: writers hold this during every
    /// commit.
    pub live_lock: Option<String>,
    /// Live reader lease files. Not findings: pinned snapshots hold
    /// these for as long as they live.
    pub live_leases: Vec<String>,
    /// Newest generation that is fully intact, if any.
    pub newest_intact: Option<u64>,
}

impl FsckReport {
    /// True when the newest generation is intact and nothing else is
    /// lying around (no broken generations, orphans, temps, or stale
    /// coordination files). Live locks/leases do not count against
    /// cleanliness — a healthy concurrent store has them all the time.
    pub fn is_clean(&self) -> bool {
        self.orphan_shards.is_empty()
            && self.temps.is_empty()
            && self.coordination.is_empty()
            && self.generations.iter().all(|g| g.intact)
            && self
                .generations
                .first()
                .is_some_and(|g| Some(g.generation) == self.newest_intact)
    }

    /// All findings: per-generation damage (newest generation first),
    /// then stale coordination files.
    pub fn findings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.generations
            .iter()
            .flat_map(|g| g.findings.iter())
            .chain(self.coordination.iter())
    }
}

impl fmt::Display for FsckReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fsck: {} generation(s), newest intact: {}",
            self.generations.len(),
            match self.newest_intact {
                Some(g) => g.to_string(),
                None => "none".into(),
            }
        )?;
        for g in &self.generations {
            writeln!(
                f,
                "  gen {} ({}): {}",
                g.generation,
                g.manifest,
                if g.intact { "intact" } else { "BROKEN" }
            )?;
            for d in &g.findings {
                writeln!(f, "    {d}")?;
            }
        }
        for o in &self.orphan_shards {
            writeln!(f, "  orphan shard: {o}")?;
        }
        for t in &self.temps {
            writeln!(f, "  temp file: {t}")?;
        }
        for d in &self.coordination {
            writeln!(f, "  {d}")?;
        }
        if let Some(owner) = &self.live_lock {
            writeln!(f, "  live lock: {owner}")?;
        }
        for l in &self.live_leases {
            writeln!(f, "  live lease: {l}")?;
        }
        Ok(())
    }
}

/// What [`Store::recover`] did.
#[derive(Debug, Clone)]
pub struct RecoverReport {
    /// The generation the store serves after recovery.
    pub generation: u64,
    /// Records salvaged out of broken shards into a fresh generation
    /// (0 when an intact generation could simply be restored).
    pub salvaged: usize,
    /// Files deleted during recovery (broken manifests, unreferenced or
    /// corrupt shards, temps, stale coordination files).
    pub removed: Vec<String>,
    /// One typed diagnostic per record/manifest that could not be
    /// carried into the recovered generation.
    pub report: IngestReport,
}

// ---------------------------------------------------------------------
// The facade.
// ---------------------------------------------------------------------

/// The store facade: save / append / compact / open / fsck / recover on
/// a directory. Every mutating operation runs under the cross-process
/// commit lock (see the module docs' concurrency model).
pub struct Store;

impl Store {
    /// Write `profiles` as a new generation with default options.
    pub fn save(dir: impl AsRef<Path>, profiles: &[Profile]) -> Result<WriteReport, StoreError> {
        Store::save_opts(dir, profiles, &StoreOptions::default())
    }

    /// Write `profiles` as a new generation.
    ///
    /// The write follows the commit protocol documented at the module
    /// level; with [`StoreOptions::crash_after`] set it aborts at the
    /// chosen crash point, leaving the directory exactly as a crash at
    /// that step would have.
    pub fn save_opts(
        dir: impl AsRef<Path>,
        profiles: &[Profile],
        opts: &StoreOptions,
    ) -> Result<WriteReport, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Stage (encode) outside the lock; only I/O runs inside it.
        let staged = writer::stage(profiles);
        let lock = lock::CommitLock::acquire(dir, opts)?;
        lock.seal(writer::commit_staged(dir, &staged, None, opts))
    }

    /// [`Store::append`] with default options.
    pub fn append(dir: impl AsRef<Path>, profiles: &[Profile]) -> Result<WriteReport, StoreError> {
        Store::append_opts(dir, profiles, &StoreOptions::default())
    }

    /// Commit `profiles` **on top of** the newest verified generation
    /// as a new generation that reuses the existing shard files —
    /// nothing already stored is rewritten. Of in-batch duplicates the
    /// first wins, and profiles whose hash the store already holds are
    /// skipped; [`WriteReport::appended`] counts the rest.
    ///
    /// The batch is staged (encoded) before the commit lock is taken
    /// and the base manifest taken after — the optimistic rebase: a
    /// generation committed by someone else in between simply becomes
    /// the new base. The base comes through the manifest registry (see
    /// [`Store::open`]): a generation this process committed or
    /// verified is shared, not parsed again, and the manifest this
    /// commit writes is registered for the next one.
    ///
    /// The write follows the same stage-then-rename protocol as
    /// [`Store::save`]: new shards land under the new generation's
    /// names, the new manifest (old shards + old entries + the new
    /// ones) is renamed into place, and only then are out-of-retention
    /// generations GC'd — by reference, so shard files the new manifest
    /// still points at survive their original manifest's collection.
    /// On a directory that lists no generation this is exactly
    /// [`Store::save_opts`]. When generations are listed but none
    /// verifies, it fails with [`StoreError::NoGeneration`] (naming
    /// [`Store::recover`]) and writes nothing, so what recover can
    /// salvage stays on disk.
    ///
    /// The manifest work is proportional to the batch, apart from
    /// copying the base's index, serialising the result and writing it;
    /// a base this process did not commit or verify is also parsed, and
    /// its columns decoded. Every base metadata column not yet decoded
    /// is decoded before anything is written, so a base whose index
    /// does not decode fails with [`StoreError::Corrupt`] and leaves the
    /// directory unchanged. Every column keeps its stored text and gains
    /// the batch's values at its end; the new manifest's columns come
    /// decoded, by a decode of the batch's text alone. GC takes the
    /// shards of the base
    /// and of the new manifest from memory and reads from disk only
    /// other surviving generations (pinned, or kept by
    /// [`StoreOptions::keep_generations`] above 1).
    pub fn append_opts(
        dir: impl AsRef<Path>,
        profiles: &[Profile],
        opts: &StoreOptions,
    ) -> Result<WriteReport, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let staged = writer::stage(profiles);
        let lock = lock::CommitLock::acquire(dir, opts)?;
        lock.seal(writer::append_locked(dir, &staged, opts))
    }

    /// [`Store::compact`] with default options.
    pub fn compact(dir: impl AsRef<Path>) -> Result<CompactReport, StoreError> {
        Store::compact_opts(dir, &StoreOptions::default())
    }

    /// Rewrite the newest verified generation into freshly-packed full
    /// shards ([`StoreOptions::shard_bytes`]) — the answer to
    /// fragmentation from repeated appends or salvages. `TKP3` record
    /// payloads are carried over byte-for-byte (CRC-verified, never
    /// reparsed); JSON payloads an older build wrote are transcoded to
    /// `TKP3`. Corrupt records are dropped with typed diagnostics like
    /// [`Store::recover`] salvage. The rewrite runs under the same
    /// stage-then-rename protocol with the same enumerable crash
    /// points, so an interruption leaves the previous generation
    /// serving. The commit lock is held across the *whole* operation —
    /// read phase included — so the generation being rewritten cannot
    /// be superseded or collected mid-rewrite.
    ///
    /// `compact` is the migrator: it is the one operation that reads a
    /// generation an older build wrote ([`StoreError::NeedsMigration`]
    /// everywhere else), and it always writes [`MANIFEST_FORMAT`].
    /// With `keep_generations = 1` the pre-compaction generation (and
    /// its shards) survives until the next commit; set it to 0 to
    /// reclaim the space immediately.
    pub fn compact_opts(
        dir: impl AsRef<Path>,
        opts: &StoreOptions,
    ) -> Result<CompactReport, StoreError> {
        let dir = dir.as_ref();
        let lock = lock::CommitLock::acquire(dir, opts)?;
        lock.seal(writer::compact_locked(dir, opts))
    }

    /// Open the newest generation whose manifest self-verifies.
    ///
    /// Verification here is manifest-level only (cheap); record CRCs
    /// are checked as records are read, and [`Store::fsck`] deep-checks
    /// everything. A newest generation in an older build's format is
    /// refused with [`StoreError::NeedsMigration`]: opening never
    /// writes, so it never migrates. The returned reader holds no
    /// handles and no lease: under concurrent GC, prefer
    /// [`Store::open_pinned`].
    ///
    /// Readers in one process share each verified manifest. An open
    /// lists the directory, reads the newest manifest's 13-byte header
    /// and takes one `fstat`. When the canonical directory, generation,
    /// header CRC, length, inode and mtime match a manifest this
    /// process already verified, the reader shares it, decoded metadata
    /// columns included, instead of reading and parsing the body.
    /// Timestamps tick coarsely, so a file modified less than a second
    /// before its last verification has its body CRC re-checked before
    /// it is shared. Writers share the registry too: every commit
    /// registers the manifest it wrote, and [`Store::append`] and
    /// [`Store::compact`] take their base through it, so an open after a
    /// commit in this process shares the committed manifest. fsck,
    /// recover and GC always read manifests from disk, and an older
    /// build's generation is never shared.
    pub fn open(dir: impl AsRef<Path>) -> Result<StoreReader, StoreError> {
        let dir = dir.as_ref();
        // bytes_read starts at the manifest bytes consumed while
        // probing: pushdown accounting reflects true I/O, not just
        // shard payloads (a shared manifest costs its header).
        let (shared, manifest_bytes) = registry::newest(dir)?;
        shared.manifest.ensure_current()?;
        Ok(StoreReader::new(dir.to_path_buf(), shared, manifest_bytes))
    }

    /// Open the newest generation as a pinned [`Snapshot`]: shard
    /// handles held open and a GC lease registered, so concurrent
    /// appends, compactions, and GC (this process or another) can never
    /// tear the snapshot's reads. The open-then-pin race against a
    /// concurrent collection is retried internally with [`Backoff`](crate::backoff::Backoff);
    /// each retry re-opens whatever generation is newest. A directory
    /// with no verifiable generation fails at once with
    /// [`StoreError::NoGeneration`], without backing off.
    ///
    /// The manifest is shared as [`Store::open`] describes, and so are
    /// the shard handles: the first pin of a registered manifest opens
    /// them, and every later pin of it in this process shares them and
    /// opens nothing. They close once the registry replaces or evicts
    /// the generation and no snapshot holds them. The lease, the retry
    /// and `bytes_read` stay per snapshot.
    pub fn open_pinned(dir: impl AsRef<Path>) -> Result<Snapshot, StoreError> {
        reader::open_pinned(dir.as_ref())
    }

    /// Deep-verify every generation and classify all corruption —
    /// including stale coordination files (orphaned `LOCK` / `pin-*`
    /// leases).
    pub fn fsck(dir: impl AsRef<Path>) -> Result<FsckReport, StoreError> {
        verify::fsck(dir.as_ref())
    }

    /// Repair the directory to a consistent state:
    ///
    /// * If some generation is fully intact, the newest such generation
    ///   becomes the store's sole content set — broken manifests, their
    ///   exclusive shards, orphans, and temps are deleted (older intact
    ///   generations within retention are kept untouched).
    /// * If **no** generation verifies, every CRC-intact record
    ///   reachable from any manifest or shard file is salvaged into a
    ///   fresh generation (deduplicated by profile hash, first
    ///   occurrence in shard order wins), and every record that could
    ///   not be salvaged is reported as a typed diagnostic.
    ///
    /// Stale coordination files (a dead writer's `LOCK`, expired
    /// `pin-*` leases) are reaped either way; live ones are left
    /// untouched. The resulting directory passes [`Store::fsck`]
    /// cleanly and [`Store::open`] serves exactly one complete
    /// generation.
    pub fn recover(dir: impl AsRef<Path>) -> Result<RecoverReport, StoreError> {
        verify::recover(dir.as_ref())
    }
}
