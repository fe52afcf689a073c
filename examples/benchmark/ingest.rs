//! `ingest`: a per-rank event trace streamed into a fresh store with
//! `trace_to_store` (one profile per rank per 1 s window, one commit per
//! chunk of closed windows), then compacted. The only workload in which
//! the trace reader, the aggregator and the store writer do the work; it
//! reads nothing back while it measures.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use thicket::core::{trace_to_store, LoadSource, PredExpr, Thicket, TraceAggregator};
use thicket::perfsim::{
    emit_trace_to_path, IngestReport, Store, Strictness, TraceConfig, TraceReader,
};

use crate::host::{dir_files, manifest_bytes, peak_rss_mib};
use crate::measure::{median, Outcome};
use crate::spans::{counter_means, Rank};
use crate::{finish_trace, setup, Ctx};

/// `TraceConfig::quartz(8, 1000, seed)`: 304k events, about 7 MiB,
/// 8.8k profiles in about 76 commits.
const RANKS: u32 = 8;
const PASSES: u32 = 1000;
const WINDOW: Duration = Duration::from_secs(1);
/// Events per read; the same as `TraceSource`'s default, so the
/// decomposed run commits exactly the chunks `trace_to_store` does.
const CHUNK_EVENTS: usize = 4096;

/// What the trace must turn into, counted from the trace itself.
struct TraceFacts {
    events: u64,
    windows: BTreeMap<u32, u64>,
}

impl TraceFacts {
    /// Every rank is busy from its first event to its last (passes are
    /// 50 µs apart, far less than a window), so it emits one profile for
    /// each window its events span.
    fn scan(path: &Path) -> Result<TraceFacts, String> {
        let mut reader = TraceReader::open(path).map_err(|e| e.to_string())?;
        let mut span: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut events = 0u64;
        loop {
            let chunk = reader.next_events(1 << 16).map_err(|e| e.to_string())?;
            if chunk.is_empty() {
                break;
            }
            events += chunk.len() as u64;
            for e in chunk {
                span.entry(e.rank).or_insert((e.time_ns, e.time_ns)).1 = e.time_ns;
            }
        }
        let w = WINDOW.as_nanos() as u64;
        let windows = span
            .into_iter()
            .map(|(rank, (first, last))| (rank, last / w - first / w + 1))
            .collect();
        Ok(TraceFacts { events, windows })
    }

    fn profiles(&self) -> usize {
        self.windows.values().sum::<u64>() as usize
    }
}

/// One trace → store → compact pass.
struct Rep {
    /// `trace_to_store` alone.
    ingest_s: f64,
    /// Ingest plus compaction.
    total_s: f64,
    report: IngestReport,
    written: usize,
    compacted: usize,
}

fn real_rep(trace: &Path, dir: &Path) -> Result<Rep, String> {
    let t = Instant::now();
    let (report, written) = trace_to_store(trace, dir, Some(WINDOW), Strictness::FailFast)
        .map_err(|e| format!("trace_to_store: {e}"))?;
    let ingest_s = t.elapsed().as_secs_f64();
    let compact = Store::compact(dir).map_err(|e| format!("compact: {e}"))?;
    let total_s = t.elapsed().as_secs_f64();
    if !compact.report.is_clean() {
        return Err(format!(
            "compaction dropped records: {}",
            compact.report.summary()
        ));
    }
    Ok(Rep {
        ingest_s,
        total_s,
        report,
        written,
        compacted: compact.profiles,
    })
}

/// What only the traced pass records about its commits.
struct Commits {
    /// ms of each `Store::append` call, in order.
    append_ms: Vec<f64>,
    /// Size of the manifest the last commit wrote.
    manifest_bytes: u64,
}

/// `trace_to_store` + `Store::compact` rebuilt from the public pieces
/// they are made of, each call inside a span.
fn traced_rep(trace: &Path, dir: &Path, r: &mut Rank) -> Result<(Rep, Commits), String> {
    let t = Instant::now();
    let mut append_ms = Vec::new();
    let mut written = 0;
    r.enter("ingest");
    let mut reader = r
        .span("trace.parse", || TraceReader::open(trace))
        .map_err(|e| e.to_string())?;
    let mut agg = TraceAggregator::new(
        reader.metadata().to_vec(),
        Some(WINDOW),
        Strictness::FailFast,
    )
    .with_source_label(trace.display().to_string());
    let mut commit = |r: &mut Rank, batch: Vec<_>| -> Result<(), String> {
        let res = if written == 0 {
            r.span("store.save", || Store::save(dir, &batch))
        } else {
            let res = r.span("store.append", || Store::append(dir, &batch));
            append_ms.push(r.last_ms());
            res
        };
        res.map_err(|e| format!("commit: {e}"))?;
        written += batch.len();
        r.span("profile.drop", || drop(batch));
        Ok(())
    };
    loop {
        let events = r
            .span("trace.parse", || reader.next_events(CHUNK_EVENTS))
            .map_err(|e| e.to_string())?;
        if events.is_empty() {
            break;
        }
        let ready = r
            .span("trace.aggregate", || {
                let pushed = agg.push_events(&events);
                drop(events);
                pushed.map(|()| agg.drain_ready())
            })
            .map_err(|e| e.to_string())?;
        if !ready.is_empty() {
            commit(r, ready)?;
        }
    }
    let (rest, report) = r
        .span("trace.aggregate", || agg.finish())
        .map_err(|e| e.to_string())?;
    if !rest.is_empty() {
        commit(r, rest)?;
    }
    let ingest_s = t.elapsed().as_secs_f64();
    let manifest_bytes = manifest_bytes(dir);
    let compact = r
        .span("store.compact", || Store::compact(dir))
        .map_err(|e| e.to_string())?;
    r.leave();
    let rep = Rep {
        ingest_s,
        total_s: t.elapsed().as_secs_f64(),
        report,
        written,
        compacted: compact.profiles,
    };
    Ok((
        rep,
        Commits {
            append_ms,
            manifest_bytes,
        },
    ))
}

fn check_rep(out: &mut Outcome, rep: &Rep, facts: &TraceFacts) {
    out.check(rep.report.is_clean(), || {
        format!("ingest report not clean: {}", rep.report.summary())
    });
    let want = facts.profiles();
    out.check(rep.written == want && rep.compacted == want, || {
        format!(
            "wrote {} / compacted {} profiles, the trace spans {want} rank windows",
            rep.written, rep.compacted
        )
    });
}

/// Sorted profile hashes of a store's newest generation.
fn hashes(dir: &Path) -> Result<Vec<i64>, String> {
    let reader = Store::open(dir).map_err(|e| e.to_string())?;
    let mut h: Vec<i64> = reader.entries().iter().map(|e| e.hash).collect();
    h.sort_unstable();
    Ok(h)
}

/// Checks on the final store — deep fsck and a predicate with a known
/// count — and its live bytes per profile.
fn check_store(out: &mut Outcome, dir: &Path, facts: &TraceFacts) -> Result<f64, String> {
    let fsck = Store::fsck(dir).map_err(|e| e.to_string())?;
    out.check(fsck.is_clean(), || format!("fsck after ingest: {fsck}"));
    let (tk, _) = Thicket::loader(LoadSource::store(dir))
        .filter(PredExpr::eq("rank", 0i64))
        .load()
        .map_err(|e| e.to_string())?;
    let want = facts.windows.get(&0).copied().unwrap_or(0) as usize;
    let got = tk.profiles().len();
    out.check(got == want, || {
        format!("rank == 0 selected {got} profiles, want {want}")
    });
    let reader = Store::open(dir).map_err(|e| e.to_string())?;
    let m = reader.manifest();
    let live = m.shards.iter().map(|s| s.bytes).sum::<u64>() + manifest_bytes(dir);
    Ok(live as f64 / m.profiles.len().max(1) as f64)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("ingest");
    let cfg = TraceConfig::quartz(RANKS, PASSES, ctx.seed);
    // Set-up: the trace and what it must turn into, counted from it.
    let ((trace, facts), setup_s) = setup(
        |i| {
            let path = ctx.scratch.path(&format!("run-{i}.trace"));
            emit_trace_to_path(&cfg, &path).map_err(|e| e.to_string())?;
            let facts = TraceFacts::scan(&path)?;
            Ok((path, facts))
        },
        |(old, _)| {
            let _ = std::fs::remove_file(old);
        },
    )?;
    out.check(facts.events == cfg.events_total(), || {
        format!(
            "trace holds {} events, the generator emits {}",
            facts.events,
            cfg.events_total()
        )
    });

    if ctx.trace.is_some() {
        return traced(ctx, out, &trace, &facts);
    }
    let start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    let mut last_dir = None;
    while reps.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.scratch.path(&format!("store-{}", reps.len()));
        let rep = real_rep(&trace, &dir);
        out.op(&rep);
        let rep = rep?;
        check_rep(&mut out, &rep, &facts);
        reps.push(rep);
        if let Some(old) = last_dir.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    // Peak RSS of set-up plus the measured phase, before the checks.
    out.metric_opt("peak_rss_mib", peak_rss_mib(), "MiB");
    let last_dir = last_dir.expect("at least one rep ran");
    let bytes_per_profile = check_store(&mut out, &last_dir, &facts)?;
    let events_per_s: Vec<f64> = reps
        .iter()
        .map(|r| facts.events as f64 / r.ingest_s)
        .collect();
    let rep_ms: Vec<f64> = reps.iter().map(|r| r.total_s * 1e3).collect();
    out.metric("setup_s", setup_s, "s");
    // Trace events per second of `trace_to_store`.
    out.metric_opt("rate_per_s", median(&events_per_s), "1/s");
    // A whole pass: `trace_to_store` and `Store::compact`.
    out.metric_opt("p50_ms", median(&rep_ms), "ms");
    out.metric("bytes_per_profile", bytes_per_profile, "bytes");
    out.metric("samples", reps.len() as f64, "count");
    Ok(out)
}

/// Traced run: pairs of passes, one through `trace_to_store` and one
/// taken apart into spans, in alternating order. Both must store the
/// same profiles; their time ratio is the tracing overhead.
fn traced(
    ctx: &Ctx,
    mut out: Outcome,
    trace: &Path,
    facts: &TraceFacts,
) -> Result<Outcome, String> {
    let mut rank = Rank::new(0, Instant::now());
    let (real_dir, traced_dir) = (ctx.scratch.path("real"), ctx.scratch.path("traced"));
    let mut ratios = Vec::new();
    let (mut firsts, mut lasts) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while ratios.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        for dir in [&real_dir, &traced_dir] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let mut real = None;
        if ratios.len() % 2 == 0 {
            real = Some(real_rep(trace, &real_dir));
        }
        let mine = traced_rep(trace, &traced_dir, &mut rank);
        let real = real.unwrap_or_else(|| real_rep(trace, &real_dir));
        out.op(&real);
        out.op(&mine);
        let (real, (mine, commits)) = (real?, mine?);
        check_rep(&mut out, &real, facts);
        check_rep(&mut out, &mine, facts);
        out.check(hashes(&traced_dir)? == hashes(&real_dir)?, || {
            "the decomposed ingest stored other profiles than trace_to_store".into()
        });
        ratios.push(mine.total_s / real.total_s);
        firsts.extend(commits.append_ms.first());
        lasts.extend(commits.append_ms.last());
        rank.count("store.manifest_bytes", commits.manifest_bytes as f64);
        rank.count(
            "store.disk_bytes",
            dir_files(&traced_dir, |_| true).1 as f64,
        );
        rank.count(
            "store.shard_files",
            dir_files(&traced_dir, |n| n.ends_with(".tks")).0 as f64,
        );
    }
    check_store(&mut out, &real_dir, facts)?;
    let layers = finish_trace(ctx, &mut out, std::slice::from_ref(&rank))?;
    let per_rep = |child: &str| layers.ms_per_op(&["ingest"], child);
    out.metric("trace.parse_ms", per_rep("trace.parse"), "ms");
    out.metric("trace.aggregate_ms", per_rep("trace.aggregate"), "ms");
    out.metric(
        "store.append_ms",
        layers.ms_per_call("ingest/store.append"),
        "ms",
    );
    out.metric_opt("store.append_first_ms", median(&firsts), "ms");
    out.metric_opt("store.append_last_ms", median(&lasts), "ms");
    let visits = |p: &str| layers.row(p).visits;
    let commits = (visits("ingest/store.save") + visits("ingest/store.append")) / visits("ingest");
    out.metric("store.commits", commits, "count");
    out.metric(
        "store.compact_ms",
        layers.ms_per_call("ingest/store.compact"),
        "ms",
    );
    for (name, value) in counter_means(std::slice::from_ref(&rank)) {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        out.metric(name, value, unit);
    }
    out.metric_opt(
        "bench.trace_overhead_pct",
        median(&ratios).map(|r| (r - 1.0) * 100.0),
        "%",
    );
    Ok(out)
}
