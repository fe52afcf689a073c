//! Spans around calls into the library, kept in memory while a traced
//! run measures, then written in Thicket's own trace format (one rank
//! per benchmark thread) and read back through `LoadSource::trace`. The
//! per-layer table's inclusive and self times are therefore computed by
//! the same aggregator that folds every other trace into profiles.

use std::collections::BTreeMap;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use thicket::core::{LoadSource, Thicket};
use thicket::dataframe::{ColKey, Value};
use thicket::perfsim::TraceWriter;

/// The spans and counters of one benchmark thread.
pub struct Rank {
    rank: u32,
    t0: Instant,
    /// `(ns since t0, Some(name) = enter | None = leave)`.
    events: Vec<(u64, Option<String>)>,
    open: Vec<u64>,
    last_ns: u64,
    /// Named sums of non-time quantities (bytes, counts) with how many
    /// values went into each.
    counters: BTreeMap<String, (f64, u64)>,
}

impl Rank {
    /// `t0` must be shared by every rank of one trace.
    pub fn new(rank: u32, t0: Instant) -> Rank {
        Rank {
            rank,
            t0,
            events: Vec::new(),
            open: Vec::new(),
            last_ns: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; returns a handle for [`Rank::rename`].
    pub fn enter(&mut self, name: &str) -> usize {
        debug_assert!(!name.contains('/'), "span names form paths");
        let ns = self.now();
        self.open.push(ns);
        self.events.push((ns, Some(name.to_string())));
        self.events.len() - 1
    }

    pub fn leave(&mut self) {
        let ns = self.now();
        let start = self.open.pop().expect("leave without enter");
        self.last_ns = ns - start;
        self.events.push((ns, None));
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.leave();
        out
    }

    /// Duration of the span closed last, in ms.
    pub fn last_ms(&self) -> f64 {
        self.last_ns as f64 / 1e6
    }

    /// Rename a span after the fact (e.g. once it is known whether a
    /// read overlapped a compaction).
    pub fn rename(&mut self, handle: usize, name: &str) {
        self.events[handle].1 = Some(name.to_string());
    }

    pub fn count(&mut self, name: &str, value: f64) {
        let c = self.counters.entry(name.to_string()).or_insert((0.0, 0));
        c.0 += value;
        c.1 += 1;
    }
}

/// [`Rank::span`] when tracing, a plain call otherwise.
pub fn span_if<T>(rank: &mut Option<&mut Rank>, name: &str, f: impl FnOnce() -> T) -> T {
    match rank {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// Mean of every counter across ranks.
pub fn counter_means(ranks: &[Rank]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for r in ranks {
        for (k, (sum, n)) in &r.counters {
            let e = sums.entry(k.clone()).or_insert((0.0, 0));
            e.0 += sum;
            e.1 += n;
        }
    }
    sums.into_iter()
        .map(|(k, (sum, n))| (k, sum / n.max(1) as f64))
        .collect()
}

/// Write every rank's spans as one trace, events merged in time order,
/// preceded by Adiak-style run metadata. Returns the event count.
pub fn write_trace(path: &Path, meta: &[(String, Value)], ranks: &[Rank]) -> std::io::Result<u64> {
    let mut w = TraceWriter::new(BufWriter::new(std::fs::File::create(path)?))?;
    for (k, v) in meta {
        w.metadata(k, v)?;
    }
    let mut merged: Vec<(u64, u32, usize)> = ranks
        .iter()
        .enumerate()
        .flat_map(|(ri, r)| {
            r.events
                .iter()
                .enumerate()
                .map(move |(i, e)| (e.0, ri as u32, i))
        })
        .collect();
    merged.sort_unstable();
    for (ns, ri, i) in merged {
        let rank = &ranks[ri as usize];
        match &rank.events[i].1 {
            Some(name) => w.enter(rank.rank, ns, name)?,
            None => w.leave(rank.rank, ns)?,
        }
    }
    let n = w.events_written();
    w.into_inner()?;
    Ok(n)
}

/// One call path of the loaded trace, summed over ranks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Row {
    pub visits: f64,
    pub inc_s: f64,
    pub exc_s: f64,
}

/// The loaded trace: call path (`root/child/...`) → row.
pub struct Layers {
    rows: BTreeMap<String, Row>,
}

impl Layers {
    /// Load a trace written by [`write_trace`] through the library's
    /// trace source: one profile per rank, metrics from the aggregator.
    pub fn load(path: &Path) -> Result<Layers, String> {
        let (tk, report) = Thicket::loader(LoadSource::trace(path))
            .load()
            .map_err(|e| format!("loading the span trace: {e}"))?;
        if !report.is_clean() {
            return Err(format!(
                "span trace did not load clean: {}",
                report.summary()
            ));
        }
        let graph = tk.graph();
        let profiles = tk.profiles();
        let keys = ["visits", "time (inc)", "time (exc)"].map(ColKey::new);
        let mut rows = BTreeMap::new();
        for id in graph.ids() {
            let mut names = vec![graph.node(id).name().to_string()];
            let mut at = id;
            while let Some(&parent) = graph.node(at).parents().first() {
                names.push(graph.node(parent).name().to_string());
                at = parent;
            }
            names.reverse();
            let sum = |k: &ColKey| -> f64 {
                profiles.iter().filter_map(|p| tk.metric_at(id, p, k)).sum()
            };
            let row = Row {
                visits: sum(&keys[0]),
                inc_s: sum(&keys[1]),
                exc_s: sum(&keys[2]),
            };
            let e: &mut Row = rows.entry(names.join("/")).or_default();
            e.visits += row.visits;
            e.inc_s += row.inc_s;
            e.exc_s += row.exc_s;
        }
        Ok(Layers { rows })
    }

    pub fn row(&self, path: &str) -> Row {
        self.rows.get(path).copied().unwrap_or_default()
    }

    /// Roots whose name starts with `prefix`.
    pub fn roots(&self, prefix: &str) -> Vec<&str> {
        self.rows
            .keys()
            .filter(|p| !p.contains('/') && p.starts_with(prefix))
            .map(String::as_str)
            .collect()
    }

    /// Inclusive ms of `child` under each root in `roots`, per visit of
    /// those roots: the layer's cost per workload operation.
    pub fn ms_per_op(&self, roots: &[&str], child: &str) -> f64 {
        let (inc, visits) = roots.iter().fold((0.0, 0.0), |(inc, v), root| {
            (
                inc + self.row(&format!("{root}/{child}")).inc_s,
                v + self.row(root).visits,
            )
        });
        if visits == 0.0 {
            0.0
        } else {
            inc * 1e3 / visits
        }
    }

    /// Inclusive ms per visit of `path` itself: the cost per call.
    pub fn ms_per_call(&self, path: &str) -> f64 {
        let r = self.row(path);
        if r.visits == 0.0 {
            0.0
        } else {
            r.inc_s * 1e3 / r.visits
        }
    }

    /// Self time of every root as a share of its inclusive time, in %:
    /// the part of each operation no layer span accounts for.
    pub fn unattributed_pct(&self) -> f64 {
        let (exc, inc) = self
            .rows
            .iter()
            .filter(|(p, _)| !p.contains('/'))
            .fold((0.0, 0.0), |(e, i), (_, r)| (e + r.exc_s, i + r.inc_s));
        if inc == 0.0 {
            0.0
        } else {
            exc / inc * 100.0
        }
    }

    /// The per-layer table: one line per call path.
    pub fn table(&self) -> Vec<String> {
        let mut out = vec![format!(
            "{:<48} {:>8} {:>12} {:>12} {:>12}",
            "call path", "visits", "inc ms", "self ms", "inc ms/visit"
        )];
        for (path, r) in &self.rows {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            out.push(format!(
                "{:<48} {:>8} {:>12.3} {:>12.3} {:>12.4}",
                format!("{}{name}", "  ".repeat(depth)),
                r.visits,
                r.inc_s * 1e3,
                r.exc_s * 1e3,
                if r.visits > 0.0 {
                    r.inc_s * 1e3 / r.visits
                } else {
                    0.0
                },
            ));
        }
        out
    }
}
