// ---------------------------------------------------------------------
// Reader with metadata pushdown, plus generation-pinned snapshots.
// ---------------------------------------------------------------------

use super::crc::crc32c;
use super::frame;
use super::layout::manifest_name;
use super::lease::{self, LeaseCore};
use super::manifest::{Manifest, ShardInfo, StoreEntry};
use super::registry::SharedGen;
use super::{Store, StoreError};
use crate::backoff::Backoff;
use crate::ingest::{DiagKind, Diagnostic, IngestReport};
use crate::parallel::{parallel_map_catch, JobFailure};
use crate::profile::Profile;
use std::cell::Cell;
use std::collections::BTreeSet;
use std::fs::File;
use std::io;
use std::ops::{Deref, Range};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use thicket_dataframe::{BoundSource, PredExpr};

/// A read handle on one verified generation.
///
/// All loads are lenient in the ingest sense: corrupt records surface
/// as typed diagnostics in an [`IngestReport`], byte-identical for any
/// worker-thread count, and the healthy subset is returned.
pub struct StoreReader {
    dir: PathBuf,
    /// The manifest, and the shard handles a pin reads through: shared
    /// with every reader of the same manifest file in this process
    /// through the manifest registry.
    shared: Arc<SharedGen>,
    /// Bytes read so far (manifest probing + shard headers, payloads,
    /// and magics), for pushdown accounting.
    bytes_read: Cell<u64>,
    /// Set once the reader is pinned: reads go through the shared
    /// handles, which are then open. An unlinked-but-open file keeps
    /// serving reads, so GC by any process cannot tear a pinned load.
    /// An unpinned reader opens each shard it reads by name.
    pinned: bool,
}

impl StoreReader {
    pub(crate) fn new(dir: PathBuf, shared: Arc<SharedGen>, manifest_bytes: u64) -> StoreReader {
        StoreReader {
            dir,
            shared,
            bytes_read: Cell::new(manifest_bytes),
            pinned: false,
        }
    }

    /// Turn this reader into a generation-pinned [`Snapshot`].
    ///
    /// Pinning does two things, in this order:
    ///
    /// 1. registers a **lease** (`pin-<gen>-<pid>-<token>` file) that
    ///    tells every GC — this process or another — to keep the
    ///    generation's files;
    /// 2. makes sure a **handle** on every shard file is open, so even a
    ///    GC that never saw the lease (it scanned just before the file
    ///    appeared) cannot tear reads: an unlinked-but-open file keeps
    ///    serving.
    ///
    /// The handles belong to the generation's registry entry, not to
    /// the snapshot: the first pin of the entry opens them, and every
    /// later pin of the same manifest file in this process shares them
    /// and opens nothing. They stay open until the entry is replaced or
    /// evicted and no snapshot holds them.
    ///
    /// If the generation was collected in the window between
    /// [`Store::open`] and the handle opens, the pin fails with a
    /// retryable [`StoreError::NoGeneration`] — [`open_pinned`] wraps
    /// the open-pin-retry loop. On read-only media (where no lease file
    /// can be written, but no GC can run either) the snapshot degrades
    /// to handle-only pinning.
    pub(crate) fn pin(mut self) -> Result<Snapshot, StoreError> {
        let gen = self.generation();
        let lease = lease::acquire(&self.dir, gen)?;
        if self.shared.shards.get().is_none() {
            let mut handles = Vec::with_capacity(self.manifest().shards.len());
            for info in &self.manifest().shards {
                match File::open(self.dir.join(&info.file)) {
                    Ok(f) => handles.push(f),
                    Err(e) => {
                        return Err(StoreError::NoGeneration(format!(
                            "generation {gen} was collected while pinning ({}: {e}); \
                             reopen and retry",
                            info.file
                        )));
                    }
                }
            }
            // A pin racing this one may have opened them first; then
            // its set serves both, and these close.
            let _ = self.shared.shards.set(handles);
        }
        // The manifest itself must still exist *after* the lease and
        // handles are in place — if it does, either GC saw our lease
        // (generation protected) or GC already passed (handles protect
        // us); if it does not, we raced a collection and must retry.
        if !self.dir.join(manifest_name(gen)).exists() {
            return Err(StoreError::NoGeneration(format!(
                "generation {gen} was collected while pinning; reopen and retry"
            )));
        }
        self.pinned = true;
        Ok(Snapshot {
            reader: self,
            lease,
        })
    }

    /// The shared handle on shard `si`, when this reader is pinned.
    fn pinned_shard(&self, si: usize) -> Option<&File> {
        if !self.pinned {
            return None;
        }
        self.shared.shards.get().map(|hs| &hs[si])
    }

    /// The generation this reader serves.
    pub fn generation(&self) -> u64 {
        self.manifest().generation
    }

    /// The manifest's per-profile index, in storage order: each
    /// profile's hash and byte range. Decodes nothing; a profile's
    /// metadata lives only in the manifest's columnar index, which
    /// [`StoreReader::select_expr`] filters on.
    pub fn entries(&self) -> &[StoreEntry] {
        &self.manifest().profiles
    }

    /// The manifest (shard descriptors included).
    pub fn manifest(&self) -> &Manifest {
        &self.shared.manifest
    }

    /// The generation as this process shares it: the registry's entry
    /// for this reader's manifest file, with its shard handles.
    #[cfg(test)]
    pub(crate) fn shared(&self) -> &Arc<SharedGen> {
        &self.shared
    }

    /// Every metadata key this store can answer predicates about
    /// without shard I/O: the columnar index keys. The loader's planner
    /// uses this to decide which conjuncts push below the read.
    pub fn meta_keys(&self) -> BTreeSet<String> {
        self.manifest()
            .columns
            .iter()
            .map(|b| b.key().to_string())
            .collect()
    }

    /// Total bytes this reader has read so far — manifest bytes from
    /// [`Store::open`] plus shard I/O. Sparse selections are charged
    /// per record frame, the payload plus
    /// [`RECORD_HEADER_BYTES`](super::RECORD_HEADER_BYTES); dense
    /// selections bulk-read whole shard files and are charged the file
    /// size. Metadata-pushdown reads do strictly less I/O than a full
    /// load whenever the predicate excludes enough.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.get()
    }

    /// Entry indices (storage order) matching a predicate, without any
    /// shard I/O. Each named key binds its `MetaBlock` (values + presence
    /// mask) straight into the vectorized evaluator; unreferenced
    /// columns stay undecoded. A named column that fails to decode is
    /// [`StoreError::Corrupt`] (fsck classifies the damage).
    pub fn select_expr(&self, expr: &PredExpr) -> Result<Vec<usize>, StoreError> {
        let n = self.manifest().profiles.len();
        let mut src = BoundSource::new(n);
        for key in expr.fields() {
            if let Some(b) = self.manifest().column(key) {
                let vals = b.values().map_err(StoreError::Corrupt)?;
                src.bind_slice(key, vals, Some(b.present()));
            }
            // A key no profile carries simply never matches:
            // same semantics as a row whose meta lacks it.
        }
        Ok(expr.eval(&src).positions())
    }

    /// Load every profile.
    pub fn load_all(&self) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        self.load_matching(&PredExpr::True)
    }

    /// Load the profiles matching a predicate: columnar selection
    /// ([`StoreReader::select_expr`]) followed by range reads that skip
    /// shards the predicate excludes entirely. The decode fan-out uses
    /// the default worker count; [`StoreReader::load_indices`] takes an
    /// explicit one.
    pub fn load_matching(
        &self,
        expr: &PredExpr,
    ) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        let selected = self.select_expr(expr)?;
        let threads = crate::parallel::default_threads(self.manifest().profiles.len());
        self.load_indices(&selected, threads)
    }

    /// Load the profiles at `selected` entry indices (storage order,
    /// as returned by [`StoreReader::select_expr`]), skipping shards
    /// with no selected member. Results and diagnostics are
    /// byte-identical for any `threads ≥ 1`. This is the chunked-ingest
    /// primitive: select once, then load the matching indices a bounded
    /// batch at a time.
    pub fn load_indices(
        &self,
        selected: &[usize],
        threads: usize,
    ) -> Result<(Vec<Profile>, IngestReport), StoreError> {
        let raw = self.read_records(selected)?;

        // Partition into decode jobs (payloads move, never copy — a
        // bulk-read shard is shared by all its records through the Arc)
        // and an ordered skeleton that remembers where failures sit.
        let mut order: Vec<(usize, Option<Diagnostic>)> = Vec::with_capacity(raw.len());
        let mut jobs: Vec<(usize, PayloadSlice)> = Vec::with_capacity(raw.len());
        for (i, r) in raw {
            match r {
                Ok(p) => {
                    jobs.push((i, p));
                    order.push((i, None));
                }
                Err(d) => order.push((i, Some(d))),
            }
        }
        // Records decode as `TKP3` only. A JSON record an older build's
        // append left under a current manifest fails the magic check
        // as a `schema` diagnostic that names `Store::compact`.
        let parsed = parallel_map_catch(&jobs, threads, |(_, payload)| {
            crate::binprofile::decode_profile(payload.as_slice())
        });

        let mut profiles = Vec::with_capacity(jobs.len());
        let mut diagnostics = Vec::new();
        let mut parsed_iter = parsed.into_iter();
        for (i, d) in order {
            match d {
                Some(d) => diagnostics.push(d),
                None => match parsed_iter.next().expect("job per ok record") {
                    Ok(p) => profiles.push(p),
                    Err(JobFailure::Error(e)) => diagnostics.push(Diagnostic {
                        source: record_source(self.manifest(), i),
                        kind: DiagKind::from_profile_error(&e),
                    }),
                    Err(JobFailure::Panic(m)) => diagnostics.push(Diagnostic {
                        source: record_source(self.manifest(), i),
                        kind: DiagKind::WorkerPanic(m),
                    }),
                },
            }
        }
        let report = IngestReport {
            attempted: selected.len(),
            loaded: profiles.len(),
            diagnostics,
            pushdown: None,
        };
        Ok((profiles, report))
    }

    /// The records at `selected` entry indices, grouped by shard in one
    /// pass over the selection: shards in shard order, each shard's
    /// members in selection order. A shard with no selected member is
    /// skipped, not even opened. Loads and compaction read through this.
    pub(crate) fn read_records(&self, selected: &[usize]) -> Result<Vec<Record>, StoreError> {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); self.manifest().shards.len()];
        for &i in selected {
            members[self.manifest().profiles[i].shard].push(i);
        }
        let mut out = Vec::with_capacity(selected.len());
        for (si, members) in members.iter().enumerate() {
            if !members.is_empty() {
                self.read_shard_members(si, members, &mut out)?;
            }
        }
        Ok(out)
    }

    /// Read the framed records for `members` (entry indices, all in
    /// shard `si`), verifying framing and CRC as we go. Pushes one
    /// `(entry index, payload-or-diagnostic)` per member, in member
    /// order.
    ///
    /// Dense selections (members cover at least half the shard's bytes)
    /// read the whole file once and hand every record an `Arc` slice of
    /// that buffer; sparse selections read each record's frame alone,
    /// so skipped records cost no I/O. `bytes_read` reflects whichever
    /// actually happened. Every read is positional: a pinned reader
    /// reads through the generation's shared handle, which snapshots on
    /// other threads read at the same time, and which keeps serving
    /// after the file is unlinked.
    fn read_shard_members(
        &self,
        si: usize,
        members: &[usize],
        out: &mut Vec<Record>,
    ) -> Result<(), StoreError> {
        let info = &self.manifest().shards[si];
        let opened;
        let file = match self.pinned_shard(si) {
            Some(f) => f,
            None => match File::open(self.dir.join(&info.file)) {
                Ok(f) => {
                    opened = f;
                    &opened
                }
                Err(e) => return unreadable(info, members, e, out),
            },
        };
        let member_frame_bytes: u64 = members
            .iter()
            .map(|&i| frame::RECORD_HEADER_BYTES as u64 + self.manifest().profiles[i].len as u64)
            .sum();
        if member_frame_bytes.saturating_mul(2) >= info.bytes {
            return self.read_shard_bulk(si, file, members, out);
        }
        let file_len = file.metadata().map(|m| m.len()).unwrap_or(0);
        for &i in members {
            let record = self.frame_in_file(i, file_len).and_then(|span| {
                let mut frame = vec![0u8; (span.end - span.start) as usize];
                let read = file.read_exact_at(&mut frame, span.start);
                self.bytes_read
                    .set(self.bytes_read.get() + frame.len() as u64);
                match read {
                    Ok(()) => self.check_frame(i, Arc::new(frame), 0),
                    Err(e) => Err(Diagnostic {
                        source: record_source(self.manifest(), i),
                        kind: DiagKind::Io(format!("{}: {e}", info.file)),
                    }),
                }
            });
            out.push((i, record));
        }
        Ok(())
    }

    /// Dense-selection counterpart of [`Self::read_shard_members`]: one
    /// read of the whole shard `file`, then every member validates its
    /// frame against a shared `Arc` of that buffer. No per-record read
    /// or allocation. The buffer is sized by the file's `fstat`, never
    /// by the size the manifest declares.
    fn read_shard_bulk(
        &self,
        si: usize,
        file: &File,
        members: &[usize],
        out: &mut Vec<Record>,
    ) -> Result<(), StoreError> {
        let info = &self.manifest().shards[si];
        let whole = file.metadata().and_then(|meta| {
            let len = usize::try_from(meta.len()).map_err(io::Error::other)?;
            let mut buf = vec![0u8; len];
            file.read_exact_at(&mut buf, 0).map(|()| buf)
        });
        let bytes = match whole {
            Ok(b) => Arc::new(b),
            Err(e) => return unreadable(info, members, e, out),
        };
        self.bytes_read
            .set(self.bytes_read.get() + bytes.len() as u64);
        for &i in members {
            let record = self
                .frame_in_file(i, bytes.len() as u64)
                .and_then(|span| self.check_frame(i, Arc::clone(&bytes), span.start as usize));
            out.push((i, record));
        }
        Ok(())
    }

    /// Entry `i`'s declared frame, when it lies inside a shard file of
    /// `file_len` actual bytes (overflow-proof). Manifest parsing
    /// already bounds every entry against its shard's *declared* size;
    /// this re-checks against the *actual* size before the length is
    /// used to allocate, read or slice, so a truncated file or a stale
    /// manifest can never trigger an oversized or out-of-bounds read.
    fn frame_in_file(&self, i: usize, file_len: u64) -> Result<Range<u64>, Diagnostic> {
        let e = &self.manifest().profiles[i];
        if let Some(span) = frame::span(e.offset, e.len).filter(|s| s.end <= file_len) {
            return Ok(span);
        }
        Err(Diagnostic {
            source: record_source(self.manifest(), i),
            kind: DiagKind::TornShard {
                shard: self.manifest().shards[e.shard].file.clone(),
            },
        })
    }

    /// Entry `i`'s payload, read from the frame at `at` in `bytes`, when
    /// that frame agrees with the length and CRC the entry declares.
    fn check_frame(
        &self,
        i: usize,
        bytes: Arc<Vec<u8>>,
        at: usize,
    ) -> Result<PayloadSlice, Diagnostic> {
        let e = &self.manifest().profiles[i];
        if let Some((crc, payload)) = frame::read(&bytes[at..]) {
            let payload = at + payload.start..at + payload.end;
            let agrees = payload.len() == e.len as usize
                && crc == e.crc
                && crc32c(&bytes[payload.clone()]) == e.crc;
            if agrees {
                return Ok(PayloadSlice::shared(bytes, payload));
            }
        }
        Err(Diagnostic {
            source: record_source(self.manifest(), i),
            kind: DiagKind::ChecksumMismatch {
                shard: self.manifest().shards[e.shard].file.clone(),
                record: record_index_of(self.manifest(), i),
            },
        })
    }
}

/// The whole shard is unreadable: every member gets the same classified
/// diagnostic, and the load goes on (so this is always `Ok`).
fn unreadable(
    info: &ShardInfo,
    members: &[usize],
    e: io::Error,
    out: &mut Vec<Record>,
) -> Result<(), StoreError> {
    for &i in members {
        out.push((
            i,
            Err(Diagnostic {
                source: info.file.clone(),
                kind: DiagKind::Io(format!("{}: {e}", info.file)),
            }),
        ));
    }
    Ok(())
}

/// One selected record: its entry index, and its payload or the
/// diagnostic that replaced it.
pub(crate) type Record = (usize, Result<PayloadSlice, Diagnostic>);

/// A record payload: a range of its own frame's buffer (sparse reads)
/// or of a whole-shard read shared by every record in the shard (dense
/// bulk reads). Decoders borrow the slice either way — nothing is
/// copied between disk and the parser.
pub(crate) struct PayloadSlice {
    bytes: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl PayloadSlice {
    fn shared(bytes: Arc<Vec<u8>>, range: Range<usize>) -> Self {
        PayloadSlice { bytes, range }
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.bytes[self.range.clone()]
    }
}

/// `shard-file#record-index` label for a record-scoped diagnostic.
/// Walks the manifest, so only call it on the error path.
pub(crate) fn record_source(m: &Manifest, i: usize) -> String {
    format!(
        "{}#{}",
        m.shards[m.profiles[i].shard].file,
        record_index_of(m, i)
    )
}

/// Zero-based record index of entry `i` within its shard (entries are
/// stored in offset order per shard).
fn record_index_of(m: &Manifest, i: usize) -> usize {
    let e = &m.profiles[i];
    m.profiles
        .iter()
        .filter(|o| o.shard == e.shard && o.offset < e.offset)
        .count()
}

// ---------------------------------------------------------------------
// Pinned snapshots.
// ---------------------------------------------------------------------

/// A generation-pinned [`StoreReader`]: shard handles held open (reads
/// survive unlink) and a GC lease registered (GC skips the generation
/// while the snapshot lives). Created by [`Store::open_pinned`]; derefs
/// to [`StoreReader`], so every load and select method is available
/// unchanged.
///
/// In-process snapshots of the same (directory, generation) share one
/// lease file via a refcount; dropping the last snapshot removes it.
/// Snapshots of the same manifest file share one verified manifest (see
/// [`Store::open`]) and one set of shard handles, which the first pin
/// opened and which outlive the snapshot while the registry holds the
/// generation; dropping a snapshot closes none. `bytes_read` stays per
/// snapshot.
/// Using the snapshot heartbeats the lease (re-touches its mtime) so
/// long-lived pins are not mistaken for leaks by other processes' GC.
pub struct Snapshot {
    reader: StoreReader,
    /// `None` on read-only media: no lease file could be written, but
    /// no GC can run there either, so handles alone suffice.
    lease: Option<Arc<LeaseCore>>,
}

impl Snapshot {
    /// Whether a lease file backs this snapshot (false only on
    /// read-only media, where the pin degrades to handle-only).
    pub fn leased(&self) -> bool {
        self.lease.is_some()
    }

    /// The lease file's name in the store directory, if one exists.
    pub fn lease_file(&self) -> Option<String> {
        self.lease.as_ref().map(|l| l.file_name().to_string())
    }
}

impl Deref for Snapshot {
    type Target = StoreReader;

    fn deref(&self) -> &StoreReader {
        if let Some(lease) = &self.lease {
            lease.maybe_heartbeat();
        }
        &self.reader
    }
}

/// Open + pin with a bounded retry loop: the window between reading
/// the newest manifest and opening its shard handles can race a
/// concurrent GC (a pin-time [`StoreError::NoGeneration`]); every retry
/// re-opens whatever generation is newest *now*. An open that finds no
/// verifiable generation, and every other error, returns at once:
/// waiting cannot make an empty or broken store pinnable.
pub(crate) fn open_pinned(dir: &Path) -> Result<Snapshot, StoreError> {
    let mut backoff = Backoff::new(
        std::time::Duration::from_micros(100),
        std::time::Duration::from_millis(20),
        0,
    );
    let mut last = None;
    for attempt in 0..32 {
        if attempt > 0 {
            std::thread::sleep(backoff.next_delay());
        }
        match Store::open(dir)?.pin() {
            Ok(snap) => return Ok(snap),
            Err(e @ StoreError::NoGeneration(_)) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("32 attempts recorded an error"))
}
