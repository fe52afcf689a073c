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
//! Sources are profiles in memory (borrowed or owned), loose-JSON
//! ensemble directories, sharded store directories, raw event traces,
//! or any custom [`ProfileSource`] ([`LoadSource`]). The loader drives
//! every one of them through the same loop over the pull-based chunk
//! protocol ([`ProfileSource`]): each chunk composes on its own, under
//! the load's strictness, and the chunk thickets pool along the profile
//! axis ([`crate::concat_thickets_rows`]), so a source larger than
//! memory (a trace) streams through without ever materializing.
//! In-memory profiles are one chunk that borrows them.
//!
//! The load's settings live here and nowhere else: [`Loader::threads`]
//! pins the worker count (default: auto), [`Loader::strictness`] picks
//! fail-fast vs lenient ingest, and the loader hands both to every pull.
//! [`Loader::filter`] takes a [`PredExpr`] — the one predicate AST every
//! filter surface compiles into. A planner pushes its metadata
//! conjuncts below the source read (columnar manifest selection on
//! store sources — non-matching shards are never opened) and applies
//! the residual after composition:
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
//! A source's own shape (a trace's time windows, events per pull, a
//! store's chunk size) is set on the source, which
//! [`LoadSource::custom`] hands to the loader:
//!
//! ```no_run
//! use std::time::Duration;
//! use thicket_core::{LoadSource, Thicket, TraceSource};
//!
//! let trace = TraceSource::open("run.trace", Some(Duration::from_millis(100))).unwrap();
//! let (tk, report) = Thicket::loader(LoadSource::custom(trace)).load().unwrap();
//! # let _ = (tk, report);
//! ```

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::path::{Path, PathBuf};
use thicket_dataframe::{PredExpr, Value};
use thicket_perfsim::{default_threads, FilterPlan, IngestReport, Profile, Strictness};

use crate::rowconcat::concat_thickets_rows;
use crate::source::{EnsembleSource, InMemorySource, ProfileSource, StoreSource, TraceSource};
use crate::thicket::{Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};

/// Where a [`Loader`] reads its profiles from.
///
/// Constructed via `From` for in-memory profiles (so
/// `Thicket::loader(&profiles)` and `Thicket::loader(profiles)` just
/// work) or the [`LoadSource::ensemble`] / [`LoadSource::store`] /
/// [`LoadSource::trace`] / [`LoadSource::custom`] constructors.
pub enum LoadSource<'a> {
    /// Profiles in memory: borrowed from the caller, or owned by the
    /// load (a wire client hands back owned profiles with no slice to
    /// borrow from).
    Profiles(Cow<'a, [Profile]>),
    /// A sharded, checksummed store directory
    /// ([`thicket_perfsim::store`]), opened when the load runs.
    Store(PathBuf),
    /// A raw event trace, opened when the load runs and folded into one
    /// profile per rank ([`TraceSource`]).
    Trace(PathBuf),
    /// Any [`ProfileSource`]: an ensemble directory, a store or trace
    /// source shaped by its own builder, or a custom implementation.
    Custom(Box<dyn ProfileSource + 'a>),
}

impl LoadSource<'_> {
    /// A loose-JSON ensemble directory source ([`EnsembleSource`]).
    pub fn ensemble(dir: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::custom(EnsembleSource::new(dir))
    }

    /// A sharded store directory source, read in one chunk.
    pub fn store(dir: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::Store(dir.as_ref().to_path_buf())
    }

    /// A raw event trace source: the trace streams through a
    /// bounded-memory aggregator into one profile per rank. For one per
    /// rank per time window, or another number of events per pull,
    /// pass a [`TraceSource`] to [`LoadSource::custom`].
    pub fn trace(path: impl AsRef<Path>) -> LoadSource<'static> {
        LoadSource::Trace(path.as_ref().to_path_buf())
    }
}

impl<'a> LoadSource<'a> {
    /// Wrap a [`ProfileSource`] implementation (a socket, a generator, a
    /// foreign format…). The loader drives it through the same chunked
    /// compose-then-pool loop as every other source.
    pub fn custom(src: impl ProfileSource + 'a) -> LoadSource<'a> {
        LoadSource::Custom(Box::new(src))
    }
}

impl<'a> From<&'a [Profile]> for LoadSource<'a> {
    fn from(profiles: &'a [Profile]) -> Self {
        LoadSource::Profiles(Cow::Borrowed(profiles))
    }
}

impl<'a> From<&'a Vec<Profile>> for LoadSource<'a> {
    fn from(profiles: &'a Vec<Profile>) -> Self {
        LoadSource::Profiles(Cow::Borrowed(profiles))
    }
}

impl<'a, const N: usize> From<&'a [Profile; N]> for LoadSource<'a> {
    fn from(profiles: &'a [Profile; N]) -> Self {
        LoadSource::Profiles(Cow::Borrowed(profiles))
    }
}

impl From<Vec<Profile>> for LoadSource<'static> {
    fn from(profiles: Vec<Profile>) -> Self {
        LoadSource::Profiles(Cow::Owned(profiles))
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
    /// Start building a thicket from `source` (profiles in memory,
    /// [`LoadSource::ensemble`], [`LoadSource::store`],
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
    /// Pin the worker count for the read and row-assembly fan-outs.
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
    /// composition. A remaining conjunct that names a perf column or
    /// the `node` level keeps the profiles having at least one perf row
    /// that satisfies it (fields resolve to perf columns, then index
    /// levels, then profile metadata); any other is a profile-level
    /// predicate and filters the metadata frame, as
    /// [`Thicket::filter_metadata_where`] does. The split is recorded
    /// in [`IngestReport::pushdown`].
    pub fn filter(mut self, pred: PredExpr) -> Self {
        self.filter = Some(pred);
        self
    }

    /// Supply study-relevant profile index values (in-memory profile
    /// sources only; must be unique and match the profile count). The
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
    /// Every source runs through one loop: plan the filter against the
    /// source's metadata keys, pull chunks under the load's worker
    /// count and strictness (applying the pushed predicate per chunk
    /// when the source declined it), compose each chunk on its own,
    /// never holding more than one chunk of source profiles, and pool
    /// the chunk thickets ([`crate::concat_thickets_rows`]). Pooling the
    /// loads of consecutive groups equals one load, so the result is
    /// the thicket one build over all the source's profiles makes: the
    /// same graph, perf data, metadata and report, whatever the chunk
    /// size. A load fails when no profile survives it.
    pub fn load(self) -> Result<(Thicket, IngestReport), ThicketError> {
        let Loader {
            source,
            threads,
            strictness,
            filter,
            mut profile_ids,
        } = self;
        let mut src: Box<dyn ProfileSource + 'a> = match source {
            LoadSource::Profiles(profiles) => {
                if let Some(ids) = profile_ids.filter(|ids| ids.len() != profiles.len()) {
                    return Err(ThicketError::Invalid(format!(
                        "{} profiles but {} profile ids",
                        profiles.len(),
                        ids.len()
                    )));
                }
                Box::new(InMemorySource::new(profiles))
            }
            _ if profile_ids.is_some() => {
                return Err(ThicketError::Invalid(
                    "profile_ids applies only to in-memory profile sources; \
                     ensemble, store, and trace loads index by profile hash"
                        .into(),
                ))
            }
            LoadSource::Store(dir) => Box::new(StoreSource::open(&dir)?),
            LoadSource::Trace(path) => Box::new(TraceSource::open(&path, None)?),
            LoadSource::Custom(src) => src,
        };

        let (plan, residual, chunk_pred) = match filter {
            None => (None, Vec::new(), None),
            Some(expr) => {
                let (pushed, residual, plan) = plan_conjuncts(&expr, &src.meta_keys());
                let chunk_pred = (!src.push_filter(&pushed)).then_some(pushed);
                (Some(plan), residual, chunk_pred)
            }
        };

        // The chunk thickets wait on a stack, pooled like a binary
        // counter: after each push, while the newest part holds at least
        // as many profiles as the one below it, the two pool into one.
        // At most log2(k) + 1 of k chunks' parts are alive, each row is
        // copied O(log k) times, and only consecutive groups ever pool.
        // A one-chunk load returns its composition as it is.
        let mut parts: Vec<Thicket> = Vec::new();
        let mut build_report = IngestReport::default();
        // The ids earlier chunks admitted: a repeat in a later chunk is a
        // duplicate, as it is within one chunk.
        let mut admitted: HashSet<Value> = HashSet::new();
        while let Some(mut chunk) = src.next_chunk(threads, strictness)? {
            // Caller-supplied ids belong to the in-memory source's one chunk.
            let mut ids = profile_ids.take().map(Cow::Borrowed);
            if let Some(pred) = &chunk_pred {
                let keep: Vec<bool> = chunk
                    .iter()
                    .map(|p| expr_matches_profile(pred, p))
                    .collect();
                chunk = kept(chunk, &keep);
                ids = ids.map(|ids| kept(ids, &keep));
            }
            if chunk.is_empty() {
                continue;
            }
            let ids = ids.unwrap_or_else(|| Cow::Owned(hash_ids(&chunk)));
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
        let mut tk = match parts.len() {
            0 => return Err(nothing_survived(&build_report)),
            1 => parts.pop().expect("one part"),
            _ => concat_thickets_rows(&parts.iter().collect::<Vec<_>>())?,
        };

        // A trivial read report (no read phase of its own) means
        // composition accounting stands alone, as for in-memory loads.
        // Otherwise chain read → compose.
        let mut report = src.take_report();
        if report.attempted == 0 && report.diagnostics.is_empty() {
            report = build_report;
        } else {
            report.absorb(build_report);
        }
        if plan.is_some() {
            report.pushdown = plan;
        }
        for conjunct in &residual {
            tk = residual_filter(&tk, conjunct)?;
        }
        Ok((tk, report))
    }
}

/// The items whose `keep` flag is set, in order; no copy when every
/// flag is set.
fn kept<'c, T: Clone>(items: Cow<'c, [T]>, keep: &[bool]) -> Cow<'c, [T]> {
    if keep.iter().all(|&k| k) {
        return items;
    }
    let mut flags = keep.iter();
    match items {
        Cow::Owned(mut items) => {
            items.retain(|_| *flags.next().expect("one flag per item"));
            Cow::Owned(items)
        }
        Cow::Borrowed(items) => Cow::Owned(
            items
                .iter()
                .zip(flags)
                .filter(|(_, &k)| k)
                .map(|(item, _)| item.clone())
                .collect(),
        ),
    }
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

/// Apply one residual conjunct. A conjunct that names no perf column
/// and not the `node` level is a profile-level predicate: it filters the
/// metadata frame, as [`Thicket::filter_metadata_where`] does, so a
/// profile that measures nothing survives a predicate that holds for
/// it. Any other keeps exactly the profiles having at least one perf
/// row that satisfies it (exists-row semantics). Fields resolve to perf
/// columns, then index levels, then profile metadata columns (gathered
/// per row; a null metadata cell is absent).
fn residual_filter(tk: &Thicket, conjunct: &PredExpr) -> Result<Thicket, ThicketError> {
    let perf = tk.perf_data();
    let fields = conjunct.fields();
    if !fields
        .iter()
        .any(|f| *f == NODE_LEVEL || perf.column_named(f).is_ok())
    {
        return Ok(tk.filter_metadata_where(conjunct));
    }
    let prof_of_row = perf.index().level_values(PROFILE_LEVEL)?;
    let mut src = perf.bind_source(conjunct);
    let unbound: Vec<&str> = fields.into_iter().filter(|f| !src.is_bound(f)).collect();
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
