//! The pull-based ingest abstraction behind [`Loader`](crate::Loader).
//!
//! [`ProfileSource`] is the one interface the loader consumes: a batched
//! pull model (`next_chunk`) that a source fills from wherever its
//! profiles live — an in-memory slice, a loose-JSON ensemble directory,
//! a sharded store, or a raw event trace that never fits in memory. The
//! directory and store `LoadSource` variants are thin adapters over
//! this trait ([`EnsembleSource`], [`StoreSource`]); in-memory profiles
//! compose directly, and [`SliceSource`] and [`OwnedSource`] wrap them
//! for generic plumbing. [`TraceSource`] is the streaming newcomer that
//! motivated the redesign.
//!
//! The chunk protocol is what makes bounded-memory ingest possible: the
//! loader composes each chunk into a thicket of its own and pools the
//! chunk thickets ([`concat_thickets_rows`](crate::concat_thickets_rows)),
//! so at no point do source-side profiles and a fully-materialized
//! input list coexist. Sources that are cheap to materialize simply
//! yield one chunk — the trait costs them nothing, and the loader
//! returns that chunk's composition without a pool.

use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::time::Duration;

use thicket_dataframe::PredExpr;
use thicket_perfsim::{
    default_threads, load_dir, DiagKind, IngestReport, Profile, Snapshot, Store, Strictness,
    TraceError, TraceReader,
};

use crate::thicket::ThicketError;
use crate::trace_agg::TraceAggregator;

/// A pull-based, chunked supplier of profiles — the one interface
/// [`Loader`](crate::Loader) consumes for every source kind.
///
/// The loader drives a source like this:
///
/// 1. If a filter is set, it asks [`meta_keys`](ProfileSource::meta_keys)
///    which fields the source can answer, splits the predicate there
///    (planner pushdown), and offers the pushable part via
///    [`push_filter`](ProfileSource::push_filter). A source that returns
///    `false` gets the filter applied by the loader on each chunk
///    instead.
/// 2. It pulls [`next_chunk`](ProfileSource::next_chunk) until `None`,
///    composing each chunk under the load's strictness and pooling the
///    chunk thickets.
/// 3. It collects [`take_report`](ProfileSource::take_report) and merges
///    it with the composition accounting.
///
/// Implement this to feed a thicket from a custom producer (a socket, a
/// generator, a foreign format) via
/// [`LoadSource::custom`](crate::LoadSource::custom).
pub trait ProfileSource {
    /// Pull the next batch of profiles. `Ok(None)` means the source is
    /// exhausted; an empty `Vec` is never returned in place of `None`.
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError>;

    /// The metadata fields this source can answer predicates about,
    /// for planner pushdown. Conjuncts over any other field stay above
    /// the read and run against the composed thicket.
    fn meta_keys(&mut self) -> BTreeSet<String>;

    /// Offer the pushable predicate part to the source. Return `true`
    /// to claim it (subsequent chunks must already satisfy it); return
    /// `false` (the default) and the loader evaluates it per chunk.
    fn push_filter(&mut self, _expr: &PredExpr) -> bool {
        false
    }

    /// Read-phase accounting: sources attempted/loaded and any
    /// diagnostics, gathered across all chunks. Called once, after the
    /// final chunk. The default (an empty report) tells the loader the
    /// source has no read phase of its own — composition accounting
    /// stands alone, as it always has for in-memory loads.
    fn take_report(&mut self) -> IngestReport {
        IngestReport::default()
    }
}

/// Adapter: borrowed in-memory profiles as a one-chunk source.
///
/// Yields a clone of the slice. The loader's in-memory fast path avoids
/// this adapter (and the clone) entirely; it exists so borrowed slices
/// can participate in generic [`ProfileSource`] plumbing and tests.
pub struct SliceSource<'a> {
    profiles: &'a [Profile],
    done: bool,
}

impl<'a> SliceSource<'a> {
    /// Wrap a borrowed slice.
    pub fn new(profiles: &'a [Profile]) -> Self {
        SliceSource {
            profiles,
            done: false,
        }
    }
}

impl ProfileSource for SliceSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        if self.done || self.profiles.is_empty() {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(self.profiles.to_vec()))
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        profile_meta_keys(self.profiles.iter())
    }
}

/// Adapter: owned in-memory profiles as a one-chunk source (no copy —
/// the vector moves out on the first [`ProfileSource::next_chunk`]).
pub struct OwnedSource {
    profiles: Vec<Profile>,
    done: bool,
}

impl OwnedSource {
    /// Wrap an owned vector.
    pub fn new(profiles: Vec<Profile>) -> Self {
        OwnedSource {
            profiles,
            done: false,
        }
    }
}

impl ProfileSource for OwnedSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        if self.done || self.profiles.is_empty() {
            return Ok(None);
        }
        self.done = true;
        Ok(Some(std::mem::take(&mut self.profiles)))
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        profile_meta_keys(self.profiles.iter())
    }
}

/// Adapter: a loose-JSON ensemble directory
/// ([`thicket_perfsim::ensemble`]) as a one-chunk source.
pub struct EnsembleSource {
    dir: PathBuf,
    threads: Option<usize>,
    strictness: Strictness,
    loaded: Option<(Vec<Profile>, IngestReport)>,
    done: bool,
}

impl EnsembleSource {
    /// Read the directory under the given worker count and strictness.
    pub fn new(dir: impl AsRef<Path>, threads: Option<usize>, strictness: Strictness) -> Self {
        EnsembleSource {
            dir: dir.as_ref().to_path_buf(),
            threads,
            strictness,
            loaded: None,
            done: false,
        }
    }

    fn ensure_loaded(&mut self) -> Result<(), ThicketError> {
        if self.loaded.is_none() {
            let (profiles, report) = load_dir(&self.dir, self.threads, self.strictness)?;
            self.loaded = Some((profiles, report));
        }
        Ok(())
    }
}

impl ProfileSource for EnsembleSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        if self.done {
            return Ok(None);
        }
        self.ensure_loaded()?;
        self.done = true;
        let profiles = std::mem::take(&mut self.loaded.as_mut().expect("just loaded").0);
        if profiles.is_empty() {
            return Ok(None);
        }
        Ok(Some(profiles))
    }

    /// Empty when the directory does not read; `next_chunk` then
    /// returns the error.
    fn meta_keys(&mut self) -> BTreeSet<String> {
        match self.ensure_loaded() {
            Ok(()) => profile_meta_keys(self.loaded.as_ref().expect("just loaded").0.iter()),
            Err(_) => BTreeSet::new(),
        }
    }

    fn take_report(&mut self) -> IngestReport {
        self.loaded
            .take()
            .map(|(_, report)| report)
            .unwrap_or_default()
    }
}

/// Adapter: a sharded store directory as a chunked source.
///
/// The source reads a generation-pinned [`Snapshot`] (lease
/// registered, shard handles held), so concurrent appends, compaction
/// or GC can never tear the read. On read-only media the pin holds its
/// shard handles only.
///
/// Selection (columnar manifest predicate evaluation) happens up front
/// and without shard I/O; shard reads then proceed in index chunks. The
/// default is a **single** chunk — identical I/O and threading to the
/// pre-streaming loader — because a store load is already one
/// memory-mapped pass; [`StoreSource::chunk_size`] opts into smaller
/// batches. Fail-fast strictness is enforced per chunk.
pub struct StoreSource {
    snap: Snapshot,
    threads: Option<usize>,
    strictness: Strictness,
    chunk_size: Option<usize>,
    expr: Option<PredExpr>,
    selected: Option<Vec<usize>>,
    pos: usize,
    report: IngestReport,
}

impl StoreSource {
    /// Open a store directory at a generation-pinned snapshot
    /// ([`Store::open_pinned`]).
    pub fn open(
        dir: impl AsRef<Path>,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> Result<Self, ThicketError> {
        Ok(StoreSource::from_snapshot(
            Store::open_pinned(dir)?,
            threads,
            strictness,
        ))
    }

    /// Wrap an already-pinned snapshot — e.g. a server's per-request
    /// pin — so the read goes through the same selection, chunking, and
    /// strictness machinery as every other store load.
    pub fn from_snapshot(
        snap: Snapshot,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> StoreSource {
        StoreSource {
            snap,
            threads,
            strictness,
            chunk_size: None,
            expr: None,
            selected: None,
            pos: 0,
            report: IngestReport::default(),
        }
    }

    /// Read the selected indices in batches of `n` instead of one pass.
    pub fn chunk_size(mut self, n: usize) -> Self {
        self.chunk_size = Some(n.max(1));
        self
    }

    fn ensure_selected(&mut self) -> Result<(), ThicketError> {
        if self.selected.is_some() {
            return Ok(());
        }
        let selected = match &self.expr {
            Some(expr) => self.snap.select_expr(expr)?,
            None => (0..self.snap.manifest().profiles.len()).collect(),
        };
        self.selected = Some(selected);
        Ok(())
    }
}

impl ProfileSource for StoreSource {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        self.ensure_selected()?;
        let selected = self.selected.as_ref().expect("just selected");
        // A batch whose every profile was dropped leniently yields
        // nothing: read on rather than return an empty chunk.
        while self.pos < selected.len() {
            let end = match self.chunk_size {
                Some(n) => (self.pos + n).min(selected.len()),
                None => selected.len(),
            };
            let batch = &selected[self.pos..end];
            let threads = self
                .threads
                .unwrap_or_else(|| default_threads(self.snap.manifest().profiles.len()));
            let (profiles, read) = self.snap.load_indices(batch, threads)?;
            self.pos = end;
            if matches!(self.strictness, Strictness::FailFast) && !read.is_clean() {
                return Err(ThicketError::Invalid(format!(
                    "store load failed under fail-fast strictness ({})",
                    read.summary()
                )));
            }
            self.report.attempted += read.attempted;
            self.report.loaded += read.loaded;
            self.report.diagnostics.extend(read.diagnostics);
            if !profiles.is_empty() {
                return Ok(Some(profiles));
            }
        }
        Ok(None)
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        self.snap.meta_keys()
    }

    fn push_filter(&mut self, expr: &PredExpr) -> bool {
        self.expr = Some(expr.clone());
        self.selected = None;
        true
    }

    fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.report)
    }
}

/// Streaming source: a raw event trace folded into per-rank (and, with
/// a window length, per-window) call-tree profiles in bounded memory.
///
/// Each [`ProfileSource::next_chunk`] reads at most
/// [`chunk_events`](TraceSource::chunk_events) events, pushes them into
/// a [`TraceAggregator`], and returns any windows that closed. The full
/// trace is never materialized: resident state is the per-rank graphs,
/// open-frame stacks, and accumulator rows — O(tree depth × ranks), not
/// O(events).
pub struct TraceSource<R: BufRead> {
    reader: Option<TraceReader<R>>,
    agg: Option<TraceAggregator>,
    chunk_events: usize,
    meta_keys: BTreeSet<String>,
    report: Option<IngestReport>,
}

impl TraceSource<BufReader<File>> {
    /// Open a trace file. Window `None` aggregates the whole trace into
    /// one profile per rank.
    pub fn open(
        path: impl AsRef<Path>,
        window: Option<Duration>,
        strictness: Strictness,
    ) -> Result<Self, ThicketError> {
        let path = path.as_ref();
        let reader = TraceReader::open(path)
            .map_err(|e| ThicketError::Invalid(format!("trace {}: {e}", path.display())))?;
        let metadata = reader.metadata().to_vec();
        let mut meta_keys: BTreeSet<String> =
            metadata.iter().map(|(k, _)| k.clone()).collect();
        // The aggregator stamps these onto every emitted profile.
        meta_keys.insert("rank".to_string());
        meta_keys.insert("window".to_string());
        meta_keys.insert("window start (ns)".to_string());
        let agg = TraceAggregator::new(metadata, window, strictness)
            .with_source_label(path.display().to_string());
        Ok(TraceSource {
            reader: Some(reader),
            agg: Some(agg),
            chunk_events: 4096,
            meta_keys,
            report: None,
        })
    }
}

impl<R: BufRead> TraceSource<R> {
    /// Events read per [`ProfileSource::next_chunk`] call (default
    /// 4096). Smaller chunks lower peak memory; larger amortize parse
    /// overhead.
    pub fn chunk_events(mut self, n: usize) -> Self {
        self.chunk_events = n.max(1);
        self
    }

    /// Stop reading and close out the aggregator, stashing the final
    /// profiles (returned) and the ingest report.
    fn finish(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        self.reader = None;
        let agg = self.agg.take().expect("aggregator finished twice");
        let (profiles, report) = agg.finish()?;
        self.report = Some(report);
        if profiles.is_empty() {
            Ok(None)
        } else {
            Ok(Some(profiles))
        }
    }
}

impl<R: BufRead> ProfileSource for TraceSource<R> {
    fn next_chunk(&mut self) -> Result<Option<Vec<Profile>>, ThicketError> {
        loop {
            if self.reader.is_none() {
                return Ok(None);
            }
            let events = match self
                .reader
                .as_mut()
                .expect("checked above")
                .next_events(self.chunk_events)
            {
                Ok(events) => events,
                Err(TraceError::Io(e)) => {
                    return Err(ThicketError::Invalid(format!("trace read failed: {e}")));
                }
                Err(TraceError::Torn { line, message }) => {
                    // Fail-fast: record_failure errors. Lenient: the
                    // diagnostic is kept, every rank's current window is
                    // dropped, and whatever closed before the tear
                    // survives.
                    self.agg
                        .as_mut()
                        .expect("aggregator alive while reader is")
                        .record_failure(DiagKind::TornTrace { line, message })?;
                    return self.finish();
                }
            };
            let agg = self.agg.as_mut().expect("aggregator alive while reader is");
            if events.is_empty() {
                return self.finish();
            }
            agg.push_events(&events)?;
            if !agg.ready_is_empty() {
                return Ok(Some(agg.drain_ready()));
            }
        }
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        self.meta_keys.clone()
    }

    fn take_report(&mut self) -> IngestReport {
        self.report.take().unwrap_or_default()
    }
}

/// Stream a trace file straight into a sharded store, one window batch
/// at a time, with **no intermediate thicket**: each chunk of closed
/// windows is committed via [`Store::append`] (which saves the first
/// batch when the directory holds no generation yet) and dropped. A
/// store whose every generation fails verification, or an older
/// build's store, fails typed before anything is written. Peak memory
/// is the aggregator state plus one batch of profiles.
///
/// Returns the trace's ingest report plus the number of profiles
/// written.
pub fn trace_to_store(
    trace: impl AsRef<Path>,
    store_dir: impl AsRef<Path>,
    window: Option<Duration>,
    strictness: Strictness,
) -> Result<(IngestReport, usize), ThicketError> {
    let store_dir = store_dir.as_ref();
    let mut src = TraceSource::open(trace, window, strictness)?;
    let mut written = 0usize;
    while let Some(profiles) = src.next_chunk()? {
        Store::append(store_dir, &profiles)?;
        written += profiles.len();
    }
    Ok((src.take_report(), written))
}

/// Union of metadata keys across profiles: what an in-memory or
/// ensemble source can answer before composition.
pub(crate) fn profile_meta_keys<'p>(
    profiles: impl Iterator<Item = &'p Profile>,
) -> BTreeSet<String> {
    profiles
        .flat_map(|p| p.metadata_iter().map(|(k, _)| k.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoadSource, Thicket};
    use thicket_graph::{Frame, Graph};
    use thicket_perfsim::ScratchDir;

    /// A lenient chunked load reads past every batch whose records were
    /// all dropped, however many there are, and ends in the typed
    /// zero-profile error.
    #[test]
    fn lenient_chunked_load_skips_thousands_of_unreadable_batches() {
        const N: usize = 3_000;
        let profiles: Vec<Profile> = (0..N)
            .map(|run| {
                let mut graph = Graph::new();
                let root = graph.add_root(Frame::named("main"));
                let mut p = Profile::new(graph);
                p.set_metric(root, "time", 1.0);
                p.set_metadata("run", run as i64);
                p
            })
            .collect();
        let dir = ScratchDir::new("source-unreadable");
        Store::save(&dir, &profiles).unwrap();
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "tks") {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&path)
                    .and_then(|f| f.set_len(8))
                    .unwrap();
            }
        }

        let src = StoreSource::open(&dir, Some(1), Strictness::Lenient)
            .unwrap()
            .chunk_size(1);
        let err = Thicket::loader(LoadSource::custom(src)).load().unwrap_err();
        assert!(err.to_string().contains("zero profiles"), "{err}");
    }
}
