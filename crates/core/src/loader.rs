//! The unified ingest builder: one front door for every way a
//! [`Thicket`] gets built.
//!
//! The legacy surface grew combinatorially — ten `Thicket::from_profiles*`
//! variants, four `load_ensemble*` free functions, and the
//! `from_store*`/`load_where*` families — one name per (source ×
//! strictness × threads × index) combination. [`Loader`] collapses all
//! of them behind a single builder:
//!
//! ```
//! use thicket_core::Thicket;
//! use thicket_perfsim::{simulate_cpu_run, CpuRunConfig};
//!
//! let profiles: Vec<_> = (0..4)
//!     .map(|seed| {
//!         let mut cfg = CpuRunConfig::quartz_default();
//!         cfg.seed = seed;
//!         simulate_cpu_run(&cfg)
//!     })
//!     .collect();
//! let (tk, report) = Thicket::loader(&profiles).load().unwrap();
//! assert_eq!(tk.profiles().len(), 4);
//! assert!(report.is_clean());
//! ```
//!
//! Sources are in-memory profile slices, loose-JSON ensemble
//! directories, sharded store directories, raw event traces, or any
//! custom [`ProfileSource`] ([`LoadSource`]). Internally the loader
//! consumes every source through the same pull-based chunk protocol
//! ([`ProfileSource`]): each chunk composes on its own, under the
//! load's strictness, and the chunk thickets pool along the profile
//! axis ([`crate::concat_thickets_rows`]), so a source larger than
//! memory (a trace) streams through without ever materializing.
//!
//! The same knobs apply to each source: [`Loader::threads`] pins the
//! worker count (default: auto), [`Loader::strictness`] picks fail-fast
//! vs lenient ingest, and [`Loader::filter`] takes a [`PredExpr`] —
//! the one predicate AST every filter surface compiles into. A planner
//! pushes its metadata conjuncts below the source read (columnar
//! manifest selection on store sources — non-matching shards are never
//! opened) and applies the residual after composition:
//!
//! ```no_run
//! use thicket_core::{LoadSource, PredExpr, Thicket};
//!
//! let pred = PredExpr::and([
//!     PredExpr::eq("cluster", "quartz"),
//!     PredExpr::ge("problem_size", 1024i64),
//! ]);
//! let (tk, report) = Thicket::loader(LoadSource::store("runs.tks"))
//!     .filter(pred)
//!     .load()
//!     .unwrap();
//! # let _ = (tk, report);
//! ```
//!
//! Streaming a trace with time windows:
//!
//! ```no_run
//! use std::time::Duration;
//! use thicket_core::{LoadSource, Thicket};
//!
//! let (tk, report) = Thicket::loader(
//!     LoadSource::trace("run.trace").windows(Duration::from_millis(100)),
//! )
//! .load()
//! .unwrap();
//! # let _ = (tk, report);
//! ```

use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;
use thicket_dataframe::{PredExpr, Value};
use thicket_perfsim::{default_threads, FilterPlan, IngestReport, Profile, Strictness};

use crate::rowconcat::concat_thickets_rows;
use crate::source::{
    profile_meta_keys, EnsembleSource, ProfileSource, StoreSource, TraceSource,
};
use crate::thicket::{Thicket, ThicketError, PROFILE_LEVEL};

/// Where a [`Loader`] reads its profiles from.
///
/// Constructed via `From` for in-memory slices (so
/// `Thicket::loader(&profiles)` just works) or the
/// [`LoadSource::ensemble`] / [`LoadSource::store`] /
/// [`LoadSource::trace`] / [`LoadSource::custom`] constructors.
pub enum LoadSource<'a> {
    /// Profiles already in memory.
    Profiles(&'a [Profile]),
    /// Profiles the loader takes ownership of. This is the wire-client
    /// plumbing: `ThicketClient::load_matching` hands back owned
    /// profiles with no slice to borrow from, and
    /// `Thicket::loader(profiles)` must work without the caller keeping
    /// a binding alive. Semantically identical to
    /// [`LoadSource::Profiles`].
    Owned(Vec<Profile>),
    /// A loose-JSON ensemble directory
    /// ([`thicket_perfsim::ensemble`]).
    Ensemble(PathBuf),
    /// A sharded, checksummed store directory
    /// ([`thicket_perfsim::store`]).
    Store(PathBuf),
    /// A raw event trace, streamed through a bounded-memory aggregator
    /// ([`crate::TraceAggregator`]) into per-rank (and per-window)
    /// profiles.
    Trace {
        /// The trace file path.
        path: PathBuf,
        /// Aggregation window; `None` folds the whole trace into one
        /// profile per rank.
        window: Option<Duration>,
        /// Events read per pull (`None`: the [`TraceSource`] default).
        chunk_events: Option<usize>,
    },
    /// Any custom [`ProfileSource`] implementation.
    Custom(Box<dyn ProfileSource + 'a>),
}

impl LoadSource<'_> {
    /// A loose-JSON ensemble directory source.
    pub fn ensemble(dir: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::Ensemble(dir.as_ref().to_path_buf())
    }

    /// A sharded store directory source.
    pub fn store(dir: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::Store(dir.as_ref().to_path_buf())
    }

    /// A raw event trace source: the trace streams through a
    /// bounded-memory aggregator into one profile per rank (add
    /// [`LoadSource::windows`] for one per rank per time window).
    pub fn trace(path: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::Trace {
            path: path.as_ref().to_path_buf(),
            window: None,
            chunk_events: None,
        }
    }

    /// Cut the trace's time axis into windows of `window` length: each
    /// rank emits one profile per window that saw activity, with
    /// `window` / `window start (ns)` metadata for filtering.
    ///
    /// # Panics
    ///
    /// Panics when called on a non-trace source — windows are a
    /// property of trace aggregation only.
    pub fn windows(self, window: Duration) -> Self {
        match self {
            LoadSource::Trace {
                path, chunk_events, ..
            } => LoadSource::Trace {
                path,
                window: Some(window),
                chunk_events,
            },
            _ => panic!("LoadSource::windows applies only to trace sources"),
        }
    }

    /// Events read per pull for a trace source (smaller: lower peak
    /// memory; larger: less parse overhead).
    ///
    /// # Panics
    ///
    /// Panics when called on a non-trace source.
    pub fn chunk_events(self, n: usize) -> Self {
        match self {
            LoadSource::Trace { path, window, .. } => LoadSource::Trace {
                path,
                window,
                chunk_events: Some(n),
            },
            _ => panic!("LoadSource::chunk_events applies only to trace sources"),
        }
    }
}

impl<'a> LoadSource<'a> {
    /// Wrap a custom [`ProfileSource`] implementation (a socket, a
    /// generator, a foreign format…). The loader drives it through the
    /// same chunked compose-then-pool protocol as every built-in
    /// source.
    pub fn custom(src: impl ProfileSource + 'a) -> LoadSource<'a> {
        LoadSource::Custom(Box::new(src))
    }
}

impl<'a> From<&'a [Profile]> for LoadSource<'a> {
    fn from(profiles: &'a [Profile]) -> Self {
        LoadSource::Profiles(profiles)
    }
}

impl<'a> From<&'a Vec<Profile>> for LoadSource<'a> {
    fn from(profiles: &'a Vec<Profile>) -> Self {
        LoadSource::Profiles(profiles)
    }
}

impl<'a, const N: usize> From<&'a [Profile; N]> for LoadSource<'a> {
    fn from(profiles: &'a [Profile; N]) -> Self {
        LoadSource::Profiles(profiles)
    }
}

impl From<Vec<Profile>> for LoadSource<'static> {
    fn from(profiles: Vec<Profile>) -> Self {
        LoadSource::Owned(profiles)
    }
}

/// Builder for every thicket ingest path; constructed by
/// [`Thicket::loader`].
pub struct Loader<'a> {
    source: LoadSource<'a>,
    threads: Option<usize>,
    strictness: Strictness,
    filter: Option<PredExpr>,
    profile_ids: Option<&'a [Value]>,
}

impl Thicket {
    /// Start building a thicket from `source` (an in-memory profile
    /// slice, [`LoadSource::ensemble`], [`LoadSource::store`],
    /// [`LoadSource::trace`], or [`LoadSource::custom`]).
    ///
    /// Defaults: auto worker count, [`Strictness::FailFast`], no
    /// filter, profile ids from [`Profile::profile_hash`].
    pub fn loader<'a>(source: impl Into<LoadSource<'a>>) -> Loader<'a> {
        Loader {
            source: source.into(),
            threads: None,
            strictness: Strictness::FailFast,
            filter: None,
            profile_ids: None,
        }
    }
}

impl<'a> Loader<'a> {
    /// Pin the worker count for the load and row-assembly fan-outs.
    /// The result is bit-identical for any `threads ≥ 1`; the default
    /// scales with the input size ([`default_threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Choose fail-fast (default) or lenient ingest. Lenient drops
    /// unhealthy sources with typed diagnostics in the returned
    /// [`IngestReport`]; fail-fast turns the first problem into an
    /// error — for store sources, *any* load diagnostic is fatal.
    pub fn strictness(mut self, strictness: Strictness) -> Self {
        self.strictness = strictness;
        self
    }

    /// Keep only profiles matching a predicate. The expression may
    /// reference metadata and performance-frame fields alike: the
    /// planner splits the top-level conjunction, pushes every conjunct
    /// whose fields the source's metadata can answer *below* the read
    /// (columnar manifest selection on store sources — non-matching
    /// shards are never opened), and applies the remainder after
    /// composition with exists-row semantics over the performance frame
    /// (a profile survives if at least one of its rows satisfies the
    /// conjunct; fields resolve to perf columns, then index levels, then
    /// profile metadata). The split is recorded in
    /// [`IngestReport::pushdown`].
    pub fn filter(mut self, pred: PredExpr) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Supply study-relevant profile index values (in-memory profile
    /// sources only; must be unique and match the slice length). The
    /// default indices are the deterministic metadata hashes.
    pub fn profile_ids(mut self, ids: &'a [Value]) -> Self {
        self.profile_ids = Some(ids);
        self
    }

    /// Run the load: read the source, apply the filter, compose the
    /// thicket. Returns the thicket plus an [`IngestReport`] covering
    /// both the read and the composition; the report is clean for
    /// fail-fast loads that return `Ok`. A store load always reads a
    /// generation-pinned snapshot ([`thicket_perfsim::Store::open_pinned`]),
    /// so a concurrent append, compaction or garbage collection can
    /// never tear it.
    ///
    /// Chunked sources (traces, [`StoreSource::chunk_size`], custom
    /// sources) compose each chunk on its own, under the load's
    /// strictness, never holding more than one chunk of source
    /// profiles, and pool the chunk thickets
    /// ([`crate::concat_thickets_rows`]). Pooling the loads of
    /// consecutive groups equals one load, so the result is the thicket
    /// one build over all the source's profiles makes: the same graph,
    /// perf data, metadata and report, whatever the chunk size. A load
    /// fails when no profile survives it.
    pub fn load(self) -> Result<(Thicket, IngestReport), ThicketError> {
        let Loader {
            source,
            threads,
            strictness,
            filter,
            profile_ids,
        } = self;

        // An owned source is a borrowed source whose backing storage we
        // carry ourselves: normalize it here so the zero-clone in-memory
        // fast path below serves both shapes.
        let owned_backing: Vec<Profile>;
        let source = match source {
            LoadSource::Owned(profiles) => {
                owned_backing = profiles;
                LoadSource::Profiles(&owned_backing)
            }
            other => other,
        };

        if profile_ids.is_some() && !matches!(source, LoadSource::Profiles(_)) {
            return Err(ThicketError::Invalid(
                "profile_ids applies only to in-memory profile sources; \
                 ensemble, store, and trace loads index by profile hash"
                    .into(),
            ));
        }

        match source {
            // Normalized away above; the compiler cannot see that.
            LoadSource::Owned(_) => unreachable!("Owned normalized to Profiles"),

            // In-memory fast path: no adapter, no clone for unfiltered
            // loads — the borrowed slice composes directly.
            LoadSource::Profiles(profiles) => {
                load_in_memory(profiles, profile_ids, threads, strictness, filter)
            }

            LoadSource::Ensemble(dir) => load_streaming(
                Box::new(EnsembleSource::new(&dir, threads, strictness)),
                threads,
                strictness,
                filter,
            ),

            LoadSource::Store(dir) => load_streaming(
                Box::new(StoreSource::open(&dir, threads, strictness)?),
                threads,
                strictness,
                filter,
            ),

            LoadSource::Trace {
                path,
                window,
                chunk_events,
            } => {
                let mut src = TraceSource::open(&path, window, strictness)?;
                if let Some(n) = chunk_events {
                    src = src.chunk_events(n);
                }
                load_streaming(Box::new(src), threads, strictness, filter)
            }

            LoadSource::Custom(src) => load_streaming(src, threads, strictness, filter),
        }
    }
}

/// The in-memory fast path: zero-clone composition of a borrowed slice
/// when unfiltered, one filtered copy otherwise. Equivalent to driving
/// a [`crate::SliceSource`] through [`load_streaming`], minus the
/// defensive clone the trait's owned-chunk protocol requires.
fn load_in_memory(
    profiles: &[Profile],
    profile_ids: Option<&[Value]>,
    threads: Option<usize>,
    strictness: Strictness,
    filter: Option<PredExpr>,
) -> Result<(Thicket, IngestReport), ThicketError> {
    use std::borrow::Cow;

    let mut plan: Option<FilterPlan> = None;
    let mut residual: Vec<PredExpr> = Vec::new();
    let (kept, kept_ids): (Cow<'_, [Profile]>, Option<Cow<'_, [Value]>>) = match filter {
        None => (Cow::Borrowed(profiles), profile_ids.map(Cow::Borrowed)),
        Some(expr) => {
            let keys = profile_meta_keys(profiles.iter());
            let (pushed, res, p) = plan_conjuncts(&expr, &keys);
            plan = Some(p);
            residual = res;
            if let Some(ids) = profile_ids {
                if ids.len() != profiles.len() {
                    return Err(ThicketError::Invalid(format!(
                        "{} profiles but {} profile ids",
                        profiles.len(),
                        ids.len()
                    )));
                }
                let (kept, kept_ids): (Vec<_>, Vec<_>) = profiles
                    .iter()
                    .zip(ids.iter())
                    .filter(|(p, _)| expr_matches_profile(&pushed, p))
                    .map(|(p, id)| (p.clone(), id.clone()))
                    .unzip();
                (Cow::Owned(kept), Some(Cow::Owned(kept_ids)))
            } else {
                (
                    Cow::Owned(
                        profiles
                            .iter()
                            .filter(|p| expr_matches_profile(&pushed, p))
                            .cloned()
                            .collect(),
                    ),
                    None,
                )
            }
        }
    };
    let ids = match kept_ids {
        Some(ids) => ids,
        None => Cow::Owned(hash_ids(&kept)),
    };
    let threads = threads.unwrap_or_else(|| default_threads(kept.len()));
    let (tk, report) =
        crate::engine::compose(&kept, &ids, &mut HashSet::new(), threads, strictness)?;
    let tk = tk.ok_or_else(|| nothing_survived(&report))?;
    finalize(tk, report, plan, &residual)
}

/// Drive any [`ProfileSource`] through the chunked compose-then-pool
/// protocol: plan the filter against the source's metadata keys, pull
/// chunks (applying the pushed predicate per chunk when the source
/// declined it), compose each chunk under the load's strictness, pool
/// the chunk thickets, then merge read and composition accounting.
///
/// The chunk thickets wait on a stack, pooled like a binary counter:
/// after each push, while the newest part holds at least as many
/// profiles as the one below it, the two pool into one. At most
/// log2(k) + 1 of k chunks' parts are alive, each row is copied
/// O(log k) times, and only consecutive groups ever pool. A one-chunk
/// load returns its composition as it is.
fn load_streaming(
    mut src: Box<dyn ProfileSource + '_>,
    threads: Option<usize>,
    strictness: Strictness,
    filter: Option<PredExpr>,
) -> Result<(Thicket, IngestReport), ThicketError> {
    let (plan, residual, chunk_pred) = match filter {
        None => (None, Vec::new(), None),
        Some(expr) => {
            let (pushed, residual, plan) = plan_conjuncts(&expr, &src.meta_keys());
            let chunk_pred = (!src.push_filter(&pushed)).then_some(pushed);
            (Some(plan), residual, chunk_pred)
        }
    };

    let mut parts: Vec<Thicket> = Vec::new();
    let mut build_report = IngestReport::default();
    // The ids earlier chunks admitted: a repeat in a later chunk is a
    // duplicate, as it is within one chunk.
    let mut admitted: HashSet<Value> = HashSet::new();
    while let Some(mut chunk) = src.next_chunk()? {
        if let Some(pred) = &chunk_pred {
            chunk.retain(|p| expr_matches_profile(pred, p));
        }
        if chunk.is_empty() {
            continue;
        }
        let ids = hash_ids(&chunk);
        let threads = threads.unwrap_or_else(|| default_threads(chunk.len()));
        let (tk, r) = crate::engine::compose(&chunk, &ids, &mut admitted, threads, strictness)?;
        build_report.attempted += r.attempted;
        build_report.loaded += r.loaded;
        build_report.diagnostics.extend(r.diagnostics);
        let Some(tk) = tk else { continue };
        parts.push(tk);
        while let [.., older, newer] = parts.as_slice() {
            if newer.metadata().len() < older.metadata().len() {
                break;
            }
            let pooled = concat_thickets_rows(&[older, newer])?;
            parts.truncate(parts.len() - 2);
            parts.push(pooled);
        }
    }
    let tk = match parts.len() {
        0 => return Err(nothing_survived(&build_report)),
        1 => parts.pop().expect("one part"),
        _ => concat_thickets_rows(&parts.iter().collect::<Vec<_>>())?,
    };

    // A trivial read report (no read phase of its own) means
    // composition accounting stands alone — exactly the classic
    // in-memory semantics. Otherwise chain read → compose the way the
    // two-phase loads always have.
    let mut report = src.take_report();
    if report.attempted == 0 && report.diagnostics.is_empty() {
        report = build_report;
    } else {
        report.absorb(build_report);
    }
    finalize(tk, report, plan, &residual)
}

/// The error a load fails with when no thicket survives it, given the
/// summed report of its compositions: no profile reached composition,
/// or composition dropped every one.
fn nothing_survived(report: &IngestReport) -> ThicketError {
    if report.attempted == 0 {
        return ThicketError::Invalid("cannot build a thicket from zero profiles".into());
    }
    let dropped: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    ThicketError::Invalid(format!("every profile was dropped: {}", dropped.join("; ")))
}

/// Record the pushdown plan and run residual conjuncts (exists-row
/// semantics over the composed frame).
fn finalize(
    tk: Thicket,
    mut report: IngestReport,
    plan: Option<FilterPlan>,
    residual: &[PredExpr],
) -> Result<(Thicket, IngestReport), ThicketError> {
    if plan.is_some() {
        report.pushdown = plan;
    }
    let mut tk = tk;
    for conjunct in residual {
        tk = residual_filter(&tk, conjunct)?;
    }
    Ok((tk, report))
}

/// Scalar engine evaluation of an expression against one profile's
/// metadata (missing key ⇒ false, like every other engine surface).
fn expr_matches_profile(expr: &PredExpr, p: &Profile) -> bool {
    expr.eval_lookup(&mut |k| p.metadata(k).cloned())
}

/// The planner: split `expr`'s top-level conjunction into the part the
/// source can answer from metadata alone (every field of the conjunct
/// is in `keys`) and the residual conjuncts that need the composed
/// performance frame, plus the [`FilterPlan`] describing the split.
fn plan_conjuncts(
    expr: &PredExpr,
    keys: &BTreeSet<String>,
) -> (PredExpr, Vec<PredExpr>, FilterPlan) {
    let mut pushed = Vec::new();
    let mut residual = Vec::new();
    for c in expr.conjuncts() {
        if c.fields().iter().all(|f| keys.contains(*f)) {
            pushed.push(c.clone());
        } else {
            residual.push(c.clone());
        }
    }
    let plan = FilterPlan {
        pushed: pushed.iter().map(|c| c.to_string()).collect(),
        residual: residual.iter().map(|c| c.to_string()).collect(),
    };
    (PredExpr::and(pushed), residual, plan)
}

/// Apply one residual conjunct with exists-row semantics: keep exactly
/// the profiles having at least one perf-data row that satisfies it.
/// Fields resolve to perf columns, then index levels, then profile
/// metadata columns (gathered per row; a null metadata cell is absent).
fn residual_filter(tk: &Thicket, conjunct: &PredExpr) -> Result<Thicket, ThicketError> {
    let perf = tk.perf_data();
    let prof_of_row = perf.index().level_values(PROFILE_LEVEL)?;
    let mut src = perf.bind_source(conjunct);
    let unbound: Vec<&str> = conjunct
        .fields()
        .into_iter()
        .filter(|f| !src.is_bound(f))
        .collect();
    if !unbound.is_empty() {
        let meta = tk.metadata();
        let meta_row: HashMap<&Value, usize> = meta
            .index()
            .keys()
            .iter()
            .enumerate()
            .map(|(i, k)| (&k[0], i))
            .collect();
        let rows: Vec<Option<usize>> = prof_of_row
            .iter()
            .map(|p| meta_row.get(p).copied())
            .collect();
        for field in unbound {
            let Ok(col) = meta.column_named(field) else {
                continue; // unanswerable anywhere: matches no rows
            };
            let mut values = Vec::with_capacity(perf.len());
            let mut present = Vec::with_capacity(perf.len());
            for r in &rows {
                let v = match r {
                    Some(i) => col.get(*i),
                    None => Value::Null,
                };
                present.push(!v.is_null());
                values.push(v);
            }
            src.bind_masked(field, values, present);
        }
    }
    let hits = conjunct.eval(&src);
    let mut seen = HashSet::new();
    let mut keep = Vec::new();
    for i in hits.positions() {
        if seen.insert(prof_of_row[i].clone()) {
            keep.push(prof_of_row[i].clone());
        }
    }
    Ok(tk.filter_profiles(&keep))
}

/// Default profile index values: the deterministic metadata hashes.
fn hash_ids(profiles: &[Profile]) -> Vec<Value> {
    profiles
        .iter()
        .map(|p| Value::Int(p.profile_hash()))
        .collect()
}
