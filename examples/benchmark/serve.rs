//! `serve`: an in-process `thicketd` (`Server::bind` with default
//! options, the code path of `thicketd serve`) over a 2,000-profile
//! store, driven by an open loop: seeded Poisson arrivals at fixed rates
//! over two persistent connections, each latency timed from the moment
//! the request was due. Exercises the JSON wire codec, framing and the
//! per-request pin, and shows queueing as the rate rises, which a closed
//! loop would hide. A closed loop on the same connections then measures
//! the rate the server sustains flat out and the latency a caller that
//! waits for each reply sees.

use std::path::Path;
use std::time::Instant;

use thicket::core::Thicket;
use thicket::perfsim::{default_threads, Store};
use thicket::query::parse_pred;
use thicket_serve::{Request, Response, StatusInfo, ThicketClient};

use crate::client::{
    client_call, count_ops, latencies, open_loop, overhead_pct, schedule, setup_served, shutdown,
    Call, Op, Sample, Served, TracedConn, PROFILES,
};
use crate::data::{Ensemble, Rng};
use crate::host::peak_rss_mib;
use crate::measure::{median, percentile, timed, Outcome};
use crate::spans::{counter_means, Rank};
use crate::{finish_trace, Ctx};

/// Offered rates (requests per second), each with its share of the run;
/// the closed loop gets the rest. The closed loop's latency and rate
/// are the gated numbers: at fixed rates the vCPUs idle between
/// requests and each request starts cold, which on a shared host made
/// the median's per-pair spread two to three times the closed loop's
/// (README.md, "Run-to-run spread and bounds").
const LADDER: [(f64, f64); 4] = [(50.0, 0.3), (150.0, 0.1), (250.0, 0.1), (350.0, 0.1)];
const SATURATION_SHARE: f64 = 0.4;
/// The rate a traced run sends at.
const TRACED_RATE: f64 = 50.0;
/// The p99 a rate must meet (with no failures and no growing backlog)
/// to count towards the highest sustainable rate.
const P99_LIMIT_MS: f64 = 50.0;
const CONNECTIONS: usize = 2;
const MIX: [(Op, u32); 4] = [
    (Op::Load, 40),
    (Op::Query, 20),
    (Op::Stats, 20),
    (Op::Status, 20),
];
/// Replays of each request type's server-side calls in a traced run.
const REPLAYS: usize = 20;

/// Results of one offered rate.
struct RateRun {
    rate: f64,
    samples: Vec<Sample>,
}

impl RateRun {
    fn lat(&self) -> Vec<f64> {
        latencies(&self.samples)
    }

    /// Meets the limit: every request sent and answered, p99 within the
    /// limit, and a backlog that does not grow over the phase.
    fn sustained(&self) -> bool {
        let all_ok = self.samples.iter().all(|s| s.ok);
        let p99 = percentile(&self.lat(), 99.0).unwrap_or(f64::INFINITY);
        let backlog: Vec<f64> = self.samples.iter().map(|s| s.sent - s.due).collect();
        let q = backlog.len() / 4;
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        let growing =
            q > 0 && mean(&backlog[backlog.len() - q..]) > 2.0 * mean(&backlog[..q]) + 0.001;
        all_ok && p99 <= P99_LIMIT_MS && !growing
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("serve");
    let ens = Ensemble::new(ctx.seed, PROFILES);
    let (served, setup_s) = setup_served(ctx, &ens)?;
    let addr = served.addr();
    let mut rng = Rng::new(ctx.seed);
    let mut clients: Vec<ThicketClient> = (0..CONNECTIONS)
        .map(|_| ThicketClient::new(&addr))
        .collect();

    if ctx.trace.is_some() {
        let result = traced(ctx, &mut out, &served, &ens, &mut rng, clients);
        let dir = shutdown(&mut out, served);
        let _ = std::fs::remove_dir_all(dir);
        result?;
        return Ok(out);
    }

    let mut runs = Vec::new();
    for (rate, share) in LADDER {
        let calls = schedule(&ens, &mut rng, rate, share * ctx.seconds, &MIX);
        let (samples, errors) = open_loop(&calls, &mut clients, Instant::now(), &client_call);
        count_ops(&mut out, &samples, errors);
        runs.push(RateRun { rate, samples });
    }
    let (saturated, closed) = closed_loop(
        &mut out,
        &ens,
        &mut rng,
        &mut clients,
        SATURATION_SHARE * ctx.seconds,
    );
    // Peak RSS of set-up plus the measured phase, before the checks.
    out.metric_opt("peak_rss_mib", peak_rss_mib(), "MiB");
    shutdown(&mut out, served);

    out.metric("setup_s", setup_s, "s");
    // Both connections sending flat out: requests per second, and the
    // latency of each (thousands a run, so p99 has ten beyond it).
    out.metric("rate_per_s", saturated, "1/s");
    out.metric_opt("p50_ms", median(&closed), "ms");
    out.metric_opt("p99_ms", percentile(&closed, 99.0), "ms");
    out.metric("samples", closed.len() as f64, "count");
    for r in &runs {
        let lat = r.lat();
        out.metric_opt(format!("r{}.p50_ms", r.rate), median(&lat), "ms");
        out.metric_opt(format!("r{}.p99_ms", r.rate), percentile(&lat, 99.0), "ms");
    }
    let max_rps = runs
        .iter()
        .filter(|r| r.sustained())
        .map(|r| r.rate)
        .fold(0.0, f64::max);
    out.metric("max_rps", max_rps, "1/s");
    let lags: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.samples.iter().map(|s| s.gen_lag * 1e3))
        .collect();
    out.metric_opt("gen_lag_p99_ms", percentile(&lags, 99.0), "ms");
    Ok(out)
}

/// Every connection sends back to back for `secs`; returns completed
/// requests per second and the latency (ms) of each.
fn closed_loop(
    out: &mut Outcome,
    ens: &Ensemble,
    rng: &mut Rng,
    clients: &mut [ThicketClient],
    secs: f64,
) -> (f64, Vec<f64>) {
    let calls: Vec<Call> = (0..4096)
        .map(|_| Call::new(Op::draw(rng, &MIX), ens, rng))
        .collect();
    let t0 = Instant::now();
    let results: Vec<(Vec<f64>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(k, c)| {
                let calls = &calls;
                s.spawn(move || {
                    let (mut lat, mut errors) = (Vec::new(), Vec::new());
                    // The threads start at different places in the calls.
                    for call in calls.iter().cycle().skip(k * calls.len() / 2) {
                        if t0.elapsed().as_secs_f64() >= secs {
                            break;
                        }
                        let (res, ms) = timed(|| client_call(c, call));
                        match res {
                            Ok(_) => lat.push(ms),
                            Err(e) => errors.push(e),
                        }
                    }
                    (lat, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut all = Vec::new();
    for (lat, errors) in results {
        out.attempted += (lat.len() + errors.len()) as u64;
        all.extend(lat);
        for e in errors {
            out.fail(e);
        }
    }
    (all.len() as f64 / elapsed, all)
}

/// A traced run's connections: one sends real calls, the other the
/// same kind of calls taken apart, so both meet the same load at once.
enum Conn {
    Real(ThicketClient),
    Traced(TracedConn),
}

fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    served: &Served,
    ens: &Ensemble,
    rng: &mut Rng,
    clients: Vec<ThicketClient>,
) -> Result<(), String> {
    let addr = served.addr();
    let t0 = Instant::now();
    let mut main = Rank::new(0, t0);
    // Each open connection holds one of the server's two workers: keep
    // one real client, and close the other before the wire connects.
    let real = clients.into_iter().next().expect("CONNECTIONS > 0");
    let mut conn = TracedConn::connect(&addr, 1, t0)?;
    // The decomposed client must get the very bytes the real one gets
    // (spans of this check go to a rank that is never written).
    let mut unwritten = Rank::new(u32::MAX, t0);
    let mut samples_by_op = Vec::new();
    for op in Op::ALL {
        let call = Call::new(op, ens, rng);
        let theirs = real.request(&call.req).map_err(|e| e.to_string())?;
        let (mine, _) = conn.wire.call(&call.req, &mut unwritten)?;
        let same = match (&theirs, &mine) {
            (Response::Status(_), Response::Status(_)) => true,
            _ => theirs.to_json() == mine.to_json(),
        };
        out.check(same, || {
            format!("decomposed {} call answered differently", op.name())
        });
        samples_by_op.push(mine);
    }

    let mut conns = vec![Conn::Real(real), Conn::Traced(conn)];
    let calls = schedule(ens, rng, TRACED_RATE, ctx.seconds, &MIX);
    let exec = |c: &mut Conn, call: &Call| match c {
        Conn::Real(client) => client_call(client, call),
        Conn::Traced(t) => t.call(&format!("request.{}", call.op.name()), call).1,
    };
    let (samples, errors) = open_loop(&calls, &mut conns, Instant::now(), &exec);
    count_ops(out, &samples, errors);
    let Some(Conn::Traced(conn)) = conns.pop() else {
        unreachable!("built above")
    };
    drop(conns);

    for (op, sample) in Op::ALL.into_iter().zip(&samples_by_op) {
        for _ in 0..REPLAYS {
            replay(&served.dir, &Call::new(op, ens, rng), sample, &mut main)?;
        }
    }

    let ranks = [main, conn.rank];
    let layers = finish_trace(ctx, out, &ranks)?;
    let requests = layers.roots("request.");
    out.metric(
        "serve.client.encode_ms",
        layers.ms_per_op(&requests, "serve.client.encode"),
        "ms",
    );
    for op in Op::ALL {
        let (name, root, replay_root) = (
            op.name(),
            format!("request.{}", op.name()),
            format!("replay.{}", op.name()),
        );
        let wait = layers.ms_per_op(&[&root], "serve.client.wait");
        out.metric(format!("serve.client.wait_ms.{name}"), wait, "ms");
        out.metric(
            format!("serve.client.decode_ms.{name}"),
            layers.ms_per_op(&[&root], "serve.client.decode"),
            "ms",
        );
        let mut server = 0.0;
        for step in ["pin", "load", "compose", "encode"] {
            let ms = layers.ms_per_op(&[&replay_root], &format!("serve.server.{step}"));
            server += ms;
            out.metric(format!("serve.server.{step}_ms.{name}"), ms, "ms");
        }
        for step in ["serve.server.unpin", "profile.drop"] {
            server += layers.ms_per_op(&[&replay_root], step);
        }
        out.metric(format!("serve.unattributed_ms.{name}"), wait - server, "ms");
    }
    for (name, value) in counter_means(&ranks) {
        out.metric(name, value, "bytes");
    }
    let lags: Vec<f64> = samples.iter().map(|s| s.gen_lag * 1e3).collect();
    out.metric(
        "serve.gen_lag_ms",
        lags.iter().sum::<f64>() / lags.len().max(1) as f64,
        "ms",
    );
    out.metric_opt("bench.trace_overhead_pct", overhead_pct(&samples), "%");
    Ok(())
}

/// The server's work for one request, replayed in process through the
/// same public calls the handler makes. `sample` stands in for a
/// response whose computation is private to the server (node stats).
fn replay(dir: &Path, call: &Call, sample: &Response, r: &mut Rank) -> Result<(), String> {
    r.enter(&format!("replay.{}", call.op.name()));
    let snap = r
        .span("serve.server.pin", || Store::open_pinned(dir))
        .map_err(|e| e.to_string())?;
    let generation = snap.generation();
    let pred = match &call.req {
        Request::LoadMatching { pred }
        | Request::Query { pred, .. }
        | Request::NodeStats { pred, .. } => pred.clone(),
        _ => None,
    };
    let resp = match pred {
        None => {
            let status = StatusInfo {
                generation,
                profiles: snap.manifest().profiles.len(),
                served: 0,
                shed: 0,
                uptime_ms: 0,
            };
            r.span("serve.server.unpin", || drop(snap));
            Response::Status(status)
        }
        Some(text) => {
            let profiles = r.span("serve.server.load", move || {
                let expr = parse_pred(&text).map_err(|e| e.to_string())?;
                let selected = snap.select_expr(&expr).map_err(|e| e.to_string())?;
                let threads = default_threads(snap.manifest().profiles.len());
                snap.load_indices(&selected, threads)
                    .map(|(p, _)| p)
                    .map_err(|e| e.to_string())
            })?;
            match &call.req {
                Request::Query { query, .. } => r.span("serve.server.compose", || {
                    let (tk, _) = Thicket::loader(profiles)
                        .load()
                        .map_err(|e| e.to_string())?;
                    let queried = tk.query_str(query).map_err(|e| e.to_string())?;
                    let graph = queried.graph();
                    let nodes = graph
                        .ids()
                        .map(|id| graph.node(id).name().to_string())
                        .collect();
                    Ok::<_, String>(Response::Nodes {
                        nodes,
                        rows: queried.perf_data().len(),
                    })
                })?,
                Request::LoadMatching { .. } => Response::Profiles {
                    generation,
                    profiles,
                },
                _ => {
                    r.span("profile.drop", || drop(profiles));
                    sample.clone()
                }
            }
        }
    };
    call.check(&resp)?;
    r.span("serve.server.encode", || resp.to_json().to_string_compact());
    r.leave();
    Ok(())
}
