//! The pull-based ingest abstraction behind [`Loader`](crate::Loader).
//!
//! [`ProfileSource`] is the one interface the loader consumes: a batched
//! pull model (`next_chunk`) that a source fills from wherever its
//! profiles live: profiles in memory, a loose-JSON ensemble directory
//! ([`EnsembleSource`]), a sharded store ([`StoreSource`]), or a raw
//! event trace that never fits in memory ([`TraceSource`]). Every
//! [`LoadSource`](crate::LoadSource) is one of these, and in-memory
//! profiles are a one-chunk source whose chunk borrows them.
//!
//! A source holds only where its profiles live and how to cut them
//! into chunks. The load's worker count and strictness are set on the
//! [`Loader`](crate::Loader) alone, which hands them to every pull.
//!
//! The chunk protocol is what makes bounded-memory ingest possible: the
//! loader composes each chunk into a thicket of its own and pools the
//! chunk thickets ([`concat_thickets_rows`](crate::concat_thickets_rows)),
//! so at no point do source-side profiles and a fully-materialized
//! input list coexist. Sources that are cheap to materialize simply
//! yield one chunk — the trait costs them nothing, and the loader
//! returns that chunk's composition without a pool.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::BufReader;
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
///    handing each pull the load's worker count and strictness,
///    composing each chunk under that strictness and pooling the chunk
///    thickets.
/// 3. It collects [`take_report`](ProfileSource::take_report) and merges
///    it with the composition accounting.
///
/// Implement this to feed a thicket from a custom producer (a socket, a
/// generator, a foreign format) via
/// [`LoadSource::custom`](crate::LoadSource::custom).
pub trait ProfileSource {
    /// Pull the next batch of profiles, read on `threads` workers
    /// (`None`: the source's default) under `strictness`. `Ok(None)`
    /// means the source is exhausted; an empty chunk is never returned
    /// in place of `None`. A chunk may borrow profiles the source holds
    /// or hand over profiles it read.
    fn next_chunk(
        &mut self,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError>;

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
    /// stands alone, as it does for in-memory loads.
    fn take_report(&mut self) -> IngestReport {
        IngestReport::default()
    }
}

/// Profiles in memory as a one-chunk source. The chunk borrows them, so
/// an unfiltered load copies no profile.
pub(crate) struct InMemorySource<'a> {
    profiles: Cow<'a, [Profile]>,
    pulled: bool,
}

impl<'a> InMemorySource<'a> {
    pub(crate) fn new(profiles: Cow<'a, [Profile]>) -> Self {
        InMemorySource {
            profiles,
            pulled: false,
        }
    }
}

impl ProfileSource for InMemorySource<'_> {
    fn next_chunk(
        &mut self,
        _threads: Option<usize>,
        _strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        if std::mem::replace(&mut self.pulled, true) || self.profiles.is_empty() {
            return Ok(None);
        }
        Ok(Some(Cow::Borrowed(&self.profiles)))
    }

    fn meta_keys(&mut self) -> BTreeSet<String> {
        profile_meta_keys(self.profiles.iter())
    }
}

/// Adapter: a loose-JSON ensemble directory
/// ([`thicket_perfsim::ensemble`]) as a one-chunk source.
pub struct EnsembleSource {
    dir: PathBuf,
    /// The lenient read that planning made before the first pull.
    planned: Option<(Vec<Profile>, IngestReport)>,
    report: IngestReport,
    pulled: bool,
}

impl EnsembleSource {
    /// A source over the directory; nothing is read before the loader
    /// asks.
    pub fn new(dir: impl AsRef<Path>) -> Self {
        EnsembleSource {
            dir: dir.as_ref().to_path_buf(),
            planned: None,
            report: IngestReport::default(),
            pulled: false,
        }
    }
}

impl ProfileSource for EnsembleSource {
    fn next_chunk(
        &mut self,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        if std::mem::replace(&mut self.pulled, true) {
            return Ok(None);
        }
        // A clean lenient read holds what a fail-fast read holds, so the
        // planning read serves every lenient load and every clean one.
        let (profiles, report) = match self.planned.take() {
            Some(read) if strictness == Strictness::Lenient || read.1.is_clean() => read,
            _ => load_dir(&self.dir, threads, strictness)?,
        };
        self.report = report;
        Ok((!profiles.is_empty()).then_some(Cow::Owned(profiles)))
    }

    /// The profiles' keys. Planning comes before the first pull, so it
    /// reads the directory leniently, at the default worker count; empty
    /// when the directory does not read, and the pull then fails.
    fn meta_keys(&mut self) -> BTreeSet<String> {
        if self.planned.is_none() {
            self.planned = load_dir(&self.dir, None, Strictness::Lenient).ok();
        }
        self.planned
            .as_ref()
            .map(|(profiles, _)| profile_meta_keys(profiles.iter()))
            .unwrap_or_default()
    }

    fn take_report(&mut self) -> IngestReport {
        std::mem::take(&mut self.report)
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
/// default is a **single** chunk, because a store load is already one
/// memory-mapped pass; [`StoreSource::chunk_size`] opts into smaller
/// batches. Fail-fast strictness is enforced per chunk.
pub struct StoreSource {
    snap: Snapshot,
    chunk_size: Option<usize>,
    expr: Option<PredExpr>,
    selected: Option<Vec<usize>>,
    pos: usize,
    report: IngestReport,
}

impl StoreSource {
    /// Open a store directory at a generation-pinned snapshot
    /// ([`Store::open_pinned`]).
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, ThicketError> {
        Ok(StoreSource::from_snapshot(Store::open_pinned(dir)?))
    }

    /// Wrap an already-pinned snapshot — e.g. a server's per-request
    /// pin — so the read goes through the same selection, chunking, and
    /// strictness machinery as every other store load.
    pub fn from_snapshot(snap: Snapshot) -> StoreSource {
        StoreSource {
            snap,
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
    /// `threads: None` reads on a worker count fitted to the catalog.
    fn next_chunk(
        &mut self,
        threads: Option<usize>,
        strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        self.ensure_selected()?;
        let selected = self.selected.as_ref().expect("just selected");
        let threads =
            threads.unwrap_or_else(|| default_threads(self.snap.manifest().profiles.len()));
        // A batch whose every profile was dropped leniently yields
        // nothing: read on rather than return an empty chunk.
        while self.pos < selected.len() {
            let end = match self.chunk_size {
                Some(n) => (self.pos + n).min(selected.len()),
                None => selected.len(),
            };
            let batch = &selected[self.pos..end];
            let (profiles, read) = self.snap.load_indices(batch, threads)?;
            self.pos = end;
            // The first bad record names the failure, so the error is
            // the same in any chunks.
            if let (Strictness::FailFast, Some(first)) = (strictness, read.diagnostics.first()) {
                return Err(ThicketError::Invalid(format!(
                    "store load failed under fail-fast strictness ({first})"
                )));
            }
            self.report.attempted += read.attempted;
            self.report.loaded += read.loaded;
            self.report.diagnostics.extend(read.diagnostics);
            if !profiles.is_empty() {
                return Ok(Some(Cow::Owned(profiles)));
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
/// The first pull builds a [`TraceAggregator`] under the load's
/// strictness. Each [`ProfileSource::next_chunk`] reads at most
/// [`chunk_events`](TraceSource::chunk_events) events, pushes them into
/// the aggregator, and returns any windows that closed. The full trace
/// is never materialized: resident state is the per-rank graphs,
/// open-frame stacks, and accumulator rows — O(tree depth × ranks), not
/// O(events).
pub struct TraceSource {
    reader: Option<TraceReader<BufReader<File>>>,
    label: String,
    window: Option<Duration>,
    agg: Option<TraceAggregator>,
    chunk_events: usize,
    report: Option<IngestReport>,
}

impl TraceSource {
    /// Open a trace file. Window `None` aggregates the whole trace into
    /// one profile per rank; a window length cuts each rank's time axis
    /// into windows, one profile per window that saw activity, with
    /// `window` / `window start (ns)` metadata.
    pub fn open(path: impl AsRef<Path>, window: Option<Duration>) -> Result<Self, ThicketError> {
        let path = path.as_ref();
        let reader = TraceReader::open(path)
            .map_err(|e| ThicketError::Invalid(format!("trace {}: {e}", path.display())))?;
        Ok(TraceSource {
            reader: Some(reader),
            label: path.display().to_string(),
            window,
            agg: None,
            chunk_events: 4096,
            report: None,
        })
    }

    /// Events read per [`ProfileSource::next_chunk`] call (default
    /// 4096). Smaller chunks lower peak memory; larger amortize parse
    /// overhead.
    pub fn chunk_events(mut self, n: usize) -> Self {
        self.chunk_events = n.max(1);
        self
    }

    /// Stop reading and close out the aggregator, stashing the final
    /// profiles (returned) and the ingest report.
    fn finish(&mut self) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        self.reader = None;
        let agg = self.agg.take().expect("aggregator built on the first pull");
        let (profiles, report) = agg.finish()?;
        self.report = Some(report);
        Ok((!profiles.is_empty()).then_some(Cow::Owned(profiles)))
    }
}

impl ProfileSource for TraceSource {
    fn next_chunk(
        &mut self,
        _threads: Option<usize>,
        strictness: Strictness,
    ) -> Result<Option<Cow<'_, [Profile]>>, ThicketError> {
        let Some(reader) = self.reader.as_mut() else {
            return Ok(None);
        };
        let agg = self.agg.get_or_insert_with(|| {
            TraceAggregator::new(reader.metadata().to_vec(), self.window, strictness)
                .with_source_label(self.label.clone())
        });
        loop {
            match reader.next_events(self.chunk_events) {
                Ok(events) if events.is_empty() => return self.finish(),
                Ok(events) => {
                    agg.push_events(&events)?;
                    if !agg.ready_is_empty() {
                        return Ok(Some(Cow::Owned(agg.drain_ready())));
                    }
                }
                Err(TraceError::Io(e)) => {
                    return Err(ThicketError::Invalid(format!("trace read failed: {e}")));
                }
                Err(TraceError::Torn { line, message }) => {
                    // Fail-fast: record_failure errors. Lenient: the
                    // diagnostic is kept, every rank's current window is
                    // dropped, and whatever closed before the tear
                    // survives.
                    agg.record_failure(DiagKind::TornTrace { line, message })?;
                    return self.finish();
                }
            }
        }
    }

    /// The header's metadata keys plus the ones the aggregator stamps
    /// onto every profile it emits.
    fn meta_keys(&mut self) -> BTreeSet<String> {
        let header = self
            .reader
            .iter()
            .flat_map(|r| r.metadata().iter().map(|(k, _)| k.clone()));
        header
            .chain(["rank", "window", "window start (ns)"].map(String::from))
            .collect()
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
    let mut src = TraceSource::open(trace, window)?;
    let mut written = 0usize;
    while let Some(profiles) = src.next_chunk(None, strictness)? {
        Store::append(store_dir, &profiles)?;
        written += profiles.len();
    }
    Ok((src.take_report(), written))
}

/// Union of metadata keys across profiles: what an in-memory or
/// ensemble source can answer before composition.
fn profile_meta_keys<'p>(profiles: impl Iterator<Item = &'p Profile>) -> BTreeSet<String> {
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

    /// An in-memory source's one chunk borrows the profiles it holds,
    /// borrowed or owned: no profile is copied.
    #[test]
    fn in_memory_chunk_borrows_its_profiles() {
        let mut graph = Graph::new();
        let root = graph.add_root(Frame::named("main"));
        let mut p = Profile::new(graph);
        p.set_metric(root, "time", 1.0);
        let profiles = vec![p.clone(), p];
        for held in [Cow::Borrowed(profiles.as_slice()), Cow::Owned(profiles.clone())] {
            let at = held.as_ptr();
            let mut src = InMemorySource::new(held);
            match src.next_chunk(None, Strictness::FailFast).unwrap() {
                Some(Cow::Borrowed(chunk)) => assert_eq!(chunk.as_ptr(), at),
                other => panic!("expected a borrowed chunk, got {other:?}"),
            }
            assert!(src.next_chunk(None, Strictness::FailFast).unwrap().is_none());
        }
    }

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

        let src = StoreSource::open(&dir).unwrap().chunk_size(1);
        let err = Thicket::loader(LoadSource::custom(src))
            .threads(1)
            .strictness(Strictness::Lenient)
            .load()
            .unwrap_err();
        assert!(err.to_string().contains("zero profiles"), "{err}");
    }
}
