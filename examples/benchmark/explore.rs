//! `explore`: the analyst loop on a 20,000-profile catalog, ten times
//! the canonical 2,000. One thread runs sessions back to back (a closed
//! loop): filtered store load, statistics, a call-path query and a
//! groupby. Point sessions are dominated by pinning and reading the
//! manifest, scan sessions by decoding and composing; nothing touches
//! the wire or the writer.

use std::path::Path;
use std::time::Instant;

use thicket::core::{LoadSource, PredExpr, Thicket};
use thicket::dataframe::{AggFn, ColKey};
use thicket::perfsim::{default_threads, Store};

use crate::data::{Class, Deck, Ensemble, Expect, Rng, STREAM_QUERY};
use crate::host::peak_rss_mib;
use crate::measure::{median, percentile, timed, Outcome};
use crate::spans::{counter_means, span_if, Rank};
use crate::{finish_trace, setup, Ctx};

const PROFILES: usize = 20_000;

fn opt_key() -> ColKey {
    ColKey::new("compiler optimization")
}

/// What the session after the load produced, for the checks.
struct Seen {
    profiles: usize,
    query_nodes: usize,
    opt_groups: usize,
    stats_rows: usize,
    graph_nodes: usize,
}

/// The analysis after the load: statistics, a call-path query and a
/// groupby, each inside a span when tracing.
fn analyse(tk: &mut Thicket, rank: &mut Option<&mut Rank>) -> Result<Seen, String> {
    let stats = [(ColKey::new("time (exc)"), vec![AggFn::Mean, AggFn::Std])];
    span_if(rank, "core.stats", || tk.compute_stats(&stats)).map_err(|e| e.to_string())?;
    let queried = span_if(rank, "query.callpath", || tk.query_str(STREAM_QUERY))
        .map_err(|e| e.to_string())?;
    let groups =
        span_if(rank, "core.groupby", || tk.groupby(&[opt_key()])).map_err(|e| e.to_string())?;
    let seen = Seen {
        profiles: tk.profiles().len(),
        query_nodes: queried.graph().len(),
        opt_groups: groups.len(),
        stats_rows: tk.statsframe().len(),
        graph_nodes: tk.graph().len(),
    };
    span_if(rank, "core.drop", || drop((queried, groups)));
    Ok(seen)
}

/// The session as an analyst writes it. Returns the thicket too, so the
/// caller drops it after the clock stops, as a traced session's is.
fn real_session(dir: &Path, pred: PredExpr) -> Result<(Seen, Thicket), String> {
    let (mut tk, report) = Thicket::loader(LoadSource::store(dir))
        .filter(pred)
        .load()
        .map_err(|e| e.to_string())?;
    if !report.is_clean() {
        return Err(format!("load not clean: {}", report.summary()));
    }
    Ok((analyse(&mut tk, &mut None)?, tk))
}

/// The same session with the filtered load taken apart into the store
/// calls it is made of, each inside a span. Returns the composed thicket
/// too, for the equality check against the real loader.
fn traced_session(
    dir: &Path,
    pred: &PredExpr,
    class: Class,
    r: &mut Rank,
) -> Result<(Seen, Thicket), String> {
    r.enter(&format!("session.{}", class.name()));
    let snap = r
        .span("store.pin", || Store::open_pinned(dir))
        .map_err(|x| x.to_string())?;
    let selected = r
        .span("store.select", || snap.select_expr(pred))
        .map_err(|x| x.to_string())?;
    let threads = default_threads(snap.manifest().profiles.len());
    let (profiles, read) = r
        .span("store.read_decode", || {
            snap.load_indices(&selected, threads)
        })
        .map_err(|x| x.to_string())?;
    r.count(
        &format!("store.bytes_read.{}", class.name()),
        snap.bytes_read() as f64,
    );
    r.span("store.unpin", || drop(snap));
    if !read.is_clean() {
        return Err(format!("read not clean: {}", read.summary()));
    }
    let (mut tk, _) = r
        .span("core.compose", || Thicket::loader(profiles).load())
        .map_err(|x| x.to_string())?;
    let seen = analyse(&mut tk, &mut Some(&mut *r))?;
    r.leave();
    Ok((seen, tk))
}

fn check(out: &mut Outcome, class: Class, seen: &Seen, want: &Expect) {
    let got = (seen.profiles, seen.query_nodes, seen.opt_groups);
    let expected = (want.profiles, want.query_nodes, want.opt_groups);
    out.check(
        got == expected && seen.stats_rows == seen.graph_nodes,
        || {
            format!(
                "{} session: (profiles, query nodes, groups) = {got:?}, want {expected:?}; \
             {} stats rows for {} nodes",
                class.name(),
                seen.stats_rows,
                seen.graph_nodes
            )
        },
    );
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("explore");
    let ens = Ensemble::new(ctx.seed, PROFILES);
    let (dir, setup_s) = setup(
        |i| {
            let dir = ctx.scratch.path(&format!("catalog-{i}"));
            Store::save(&dir, &ens.profiles()).map_err(|e| e.to_string())?;
            Ok(dir)
        },
        |old| {
            let _ = std::fs::remove_dir_all(old);
        },
    )?;
    let mut rng = Rng::new(ctx.seed);
    let mut deck = Deck::new(ctx.seed);
    // Warm-up: one untimed session per class.
    for class in Class::ALL {
        let (pred, _) = ens.class_pred(class, &mut rng);
        real_session(&dir, pred)?;
    }

    if ctx.trace.is_some() {
        return traced(ctx, out, &dir, &ens, &mut rng, &mut deck);
    }

    let mut by_class: [Vec<f64>; 3] = Default::default();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let class = deck.deal();
        let (pred, want) = ens.class_pred(class, &mut rng);
        let (seen, ms) = timed(|| real_session(&dir, pred));
        if out.op(&seen) {
            check(&mut out, class, &seen?.0, &want);
            by_class[class as usize].push(ms);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    // Peak RSS of set-up plus the measured phase, before the checks.
    out.metric_opt("peak_rss_mib", peak_rss_mib(), "MiB");
    out.metric("setup_s", setup_s, "s");
    let sessions: usize = by_class.iter().map(Vec::len).sum();
    out.metric("rate_per_s", sessions as f64 / elapsed, "1/s");
    // The typical session is a point session (60% of them). The median
    // over all sessions sits at the point class's 83rd percentile, where
    // bursts of host memory contention move it by a third. About 220
    // point sessions a run leave ten beyond the 95th percentile.
    let point = &by_class[Class::Point as usize];
    out.metric_opt("p50_ms", median(point), "ms");
    out.metric_opt("p95_ms", percentile(point, 95.0), "ms");
    out.metric("samples", point.len() as f64, "count");
    // A run of a few sessions may deal no slice or scan.
    for class in [Class::Slice, Class::Scan] {
        if let Some(ms) = median(&by_class[class as usize]) {
            out.metric(format!("{}_ms", class.name()), ms, "ms");
        }
    }
    Ok(out)
}

/// Traced run: every session twice, as the real loader call and taken
/// apart into spans, in alternating order; the pair's time ratio is the
/// tracing overhead.
fn traced(
    ctx: &Ctx,
    mut out: Outcome,
    dir: &Path,
    ens: &Ensemble,
    rng: &mut Rng,
    deck: &mut Deck,
) -> Result<Outcome, String> {
    let mut rank = Rank::new(0, Instant::now());
    let mut ratios = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let class = deck.deal();
        let (pred, want) = ens.class_pred(class, rng);
        let mut real = None;
        if ratios.len() % 2 == 0 {
            real = Some(timed(|| real_session(dir, pred.clone())));
        }
        let (res, traced_ms) = timed(|| traced_session(dir, &pred, class, &mut rank));
        let (real, real_ms) = real.unwrap_or_else(|| timed(|| real_session(dir, pred.clone())));
        // A failure leaves spans open, so it ends the traced run.
        out.op(&res);
        let (seen, tk) = res?;
        check(&mut out, class, &seen, &want);
        if out.op(&real) {
            let (real_seen, real_tk) = real?;
            check(&mut out, class, &real_seen, &want);
            out.check(
                real_tk.perf_data() == tk.perf_data() && real_tk.metadata() == tk.metadata(),
                || format!("decomposed {} load differs from the loader's", class.name()),
            );
            ratios.push(traced_ms / real_ms);
        }
    }
    let layers = finish_trace(ctx, &mut out, std::slice::from_ref(&rank))?;
    for class in Class::ALL {
        let root = format!("session.{}", class.name());
        for (layer, child) in [
            ("store.pin_ms", "store.pin"),
            ("store.select_ms", "store.select"),
            ("store.read_decode_ms", "store.read_decode"),
            ("core.compose_ms", "core.compose"),
        ] {
            out.metric(
                format!("{layer}.{}", class.name()),
                layers.ms_per_op(&[&root], child),
                "ms",
            );
        }
    }
    let roots = layers.roots("session.");
    out.metric(
        "core.stats_ms",
        layers.ms_per_op(&roots, "core.stats"),
        "ms",
    );
    out.metric(
        "query.callpath_ms",
        layers.ms_per_op(&roots, "query.callpath"),
        "ms",
    );
    out.metric(
        "core.groupby_ms",
        layers.ms_per_op(&roots, "core.groupby"),
        "ms",
    );
    for (name, value) in counter_means(std::slice::from_ref(&rank)) {
        out.metric(name, value, "bytes");
    }
    out.metric_opt(
        "bench.trace_overhead_pct",
        median(&ratios).map(|r| (r - 1.0) * 100.0),
        "%",
    );
    Ok(out)
}
