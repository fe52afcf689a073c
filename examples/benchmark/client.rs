//! The client side shared by `serve` and `contend`: the request mix
//! with each request's expected answer, the open-loop generator, a raw
//! framed connection for traced runs, and the served 2,000-profile store.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use thicket::perfsim::{suite, Json, Store};
use thicket_serve::{
    read_frame, write_frame, Request, Response, ServeOptions, Server, ThicketClient,
    DEFAULT_MAX_FRAME,
};

use crate::data::{arrivals, Ensemble, Rng, STREAM_QUERY};
use crate::host::lease_count;
use crate::measure::{median, Outcome};
use crate::spans::Rank;
use crate::{setup, Ctx};

/// Profiles in the served store.
pub const PROFILES: usize = 2_000;
/// A request the generator could not send within this long of its due
/// time is dropped and counts as missing every limit; it keeps an
/// overloaded rate from stretching the run.
const MAX_LATE_S: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Load,
    Query,
    Stats,
    Status,
}

impl Op {
    pub const ALL: [Op; 4] = [Op::Load, Op::Query, Op::Stats, Op::Status];

    pub fn name(self) -> &'static str {
        match self {
            Op::Load => "load",
            Op::Query => "query",
            Op::Stats => "stats",
            Op::Status => "status",
        }
    }

    pub fn draw(rng: &mut Rng, mix: &[(Op, u32)]) -> Op {
        let total: u32 = mix.iter().map(|m| m.1).sum();
        let mut pick = rng.below(total as usize) as u32;
        for &(op, w) in mix {
            if pick < w {
                return op;
            }
            pick -= w;
        }
        unreachable!("pick < total")
    }
}

/// What a response must contain.
#[derive(Debug, Clone, Copy)]
enum Want {
    Profiles(usize),
    Nodes(usize),
    Stats { rows: usize, count: u64 },
    Status { min_profiles: usize },
}

/// One request with its expected response.
#[derive(Debug, Clone)]
pub struct Call {
    pub op: Op,
    pub req: Request,
    want: Want,
}

impl Call {
    /// A request of type `op` over a seeded window of the ensemble:
    /// loads and queries select 1% of it, stats 10%.
    pub fn new(op: Op, ens: &Ensemble, rng: &mut Rng) -> Call {
        let (req, want) = match op {
            Op::Load => {
                let (pred, e) = ens.dialect_window(rng, ens.len() / 100);
                (
                    Request::LoadMatching { pred: Some(pred) },
                    Want::Profiles(e.profiles),
                )
            }
            Op::Query => {
                let (pred, e) = ens.dialect_window(rng, ens.len() / 100);
                let req = Request::Query {
                    query: STREAM_QUERY.into(),
                    pred: Some(pred),
                };
                (req, Want::Nodes(e.query_nodes))
            }
            Op::Stats => {
                let (pred, e) = ens.dialect_window(rng, ens.len() / 10);
                let req = Request::NodeStats {
                    metric: "time (exc)".into(),
                    pred: Some(pred),
                };
                // `time (exc)` lives on kernels only, one per profile each.
                (
                    req,
                    Want::Stats {
                        rows: suite().len(),
                        count: e.profiles as u64,
                    },
                )
            }
            Op::Status => (
                Request::Status,
                Want::Status {
                    min_profiles: ens.len(),
                },
            ),
        };
        Call { op, req, want }
    }

    /// Check a response's shape and content against what the generator
    /// says the request selects.
    pub fn check(&self, resp: &Response) -> Result<(), String> {
        let ok = match (&self.want, resp) {
            (Want::Profiles(n), Response::Profiles { profiles, .. }) => profiles.len() == *n,
            (Want::Nodes(n), Response::Nodes { nodes, .. }) => nodes.len() == *n,
            (Want::Stats { rows, count }, Response::Stats { rows: got, .. }) => {
                got.len() == *rows && got.iter().all(|r| r.count == *count)
            }
            (Want::Status { min_profiles }, Response::Status(s)) => s.profiles >= *min_profiles,
            _ => false,
        };
        if ok {
            Ok(())
        } else {
            let text = resp.to_json().to_string_compact();
            let head: String = text.chars().take(160).collect();
            Err(format!(
                "{} answered {head}, want {:?}",
                self.op.name(),
                self.want
            ))
        }
    }
}

/// A raw framed connection: the client's calls taken apart into encode,
/// wait (frame out, frame in) and decode, each inside a span.
pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    pub fn connect(addr: &str) -> Result<Wire, String> {
        let stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        let _ = stream.set_nodelay(true);
        Ok(Wire { stream })
    }

    /// One request; the caller holds the enclosing root span open.
    pub fn call(&mut self, req: &Request, r: &mut Rank) -> Result<(Response, usize), String> {
        let payload = r.span("serve.client.encode", || {
            req.to_json().to_string_compact().into_bytes()
        });
        let frame = r.span("serve.client.wait", || {
            write_frame(&mut self.stream, &payload).map_err(|e| e.to_string())?;
            read_frame(&mut self.stream, DEFAULT_MAX_FRAME, Duration::from_secs(5))
                .map_err(|e| e.to_string())?
                .ok_or_else(|| "server closed the connection".to_string())
        })?;
        let bytes = frame.len();
        let resp = r.span("serve.client.decode", || {
            let text = std::str::from_utf8(&frame).map_err(|e| e.to_string())?;
            let doc = Json::parse(text).map_err(|e| e.to_string())?;
            Response::from_json(&doc)
        })?;
        Ok((resp, bytes))
    }
}

/// One open-loop request, all times in seconds since the phase start.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub due: f64,
    pub sent: f64,
    pub done: f64,
    /// Not sent: it fell more than [`MAX_LATE_S`] behind.
    pub skipped: bool,
    pub ok: bool,
    /// Sent through the traced (decomposed) client.
    pub traced: bool,
    /// How late the generator itself sent it: past both its due time
    /// and the previous reply on the same connection.
    pub gen_lag: f64,
}

impl Sample {
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

/// How an open loop sends one call on a connection of type `C`.
pub type Exec<C> = dyn Fn(&mut C, &Call) -> Result<bool, String> + Sync;

/// Send `calls` at their due times (seconds after `t0`), spread
/// round-robin over one thread per connection. `exec` fails unless the
/// response checked out (its error text is kept for the report), and
/// tells whether the call went through the traced client.
pub fn open_loop<C: Send>(
    calls: &[(f64, Call)],
    conns: &mut [C],
    t0: Instant,
    exec: &Exec<C>,
) -> (Vec<Sample>, Vec<String>) {
    let n = conns.len();
    let results: Vec<(Vec<Sample>, Vec<String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || {
                    let mut samples = Vec::new();
                    let mut errors = Vec::new();
                    let mut prev_done = 0.0f64;
                    for (due, call) in calls.iter().skip(k).step_by(n) {
                        let now = t0.elapsed().as_secs_f64();
                        if now < *due {
                            std::thread::sleep(Duration::from_secs_f64(due - now));
                        }
                        let sent = t0.elapsed().as_secs_f64();
                        let mut sample = Sample {
                            due: *due,
                            sent,
                            done: sent,
                            skipped: sent - due > MAX_LATE_S,
                            ok: false,
                            traced: false,
                            gen_lag: sent - due.max(prev_done),
                        };
                        if !sample.skipped {
                            let res = exec(conn, call);
                            sample.done = t0.elapsed().as_secs_f64();
                            match res {
                                Ok(traced) => (sample.ok, sample.traced) = (true, traced),
                                Err(e) => errors.push(e),
                            }
                            prev_done = sample.done;
                        }
                        samples.push(sample);
                    }
                    (samples, errors)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect()
    });
    let mut samples = Vec::new();
    let mut errors = Vec::new();
    for (s, e) in results {
        samples.extend(s);
        errors.extend(e);
    }
    samples.sort_by(|a, b| a.due.total_cmp(&b.due));
    (samples, errors)
}

/// Record a phase's sent requests as operations and failures.
pub fn count_ops(out: &mut Outcome, samples: &[Sample], errors: Vec<String>) {
    out.attempted += samples.iter().filter(|s| !s.skipped).count() as u64;
    // One error per sent request that failed.
    for e in errors {
        out.fail(e);
    }
}

/// Latencies (ms) of the requests that succeeded.
pub fn latencies(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(Sample::latency_ms)
        .collect()
}

/// Tracing overhead in %: median latency of the traced requests over
/// that of the real ones sent beside them.
pub fn overhead_pct(samples: &[Sample]) -> Option<f64> {
    let lat = |traced: bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| s.ok && s.traced == traced)
            .map(Sample::latency_ms)
            .collect()
    };
    Some((median(&lat(true))? / median(&lat(false))? - 1.0) * 100.0)
}

/// One real call through `ThicketClient`, checked; never traced.
pub fn client_call(c: &mut ThicketClient, call: &Call) -> Result<bool, String> {
    let resp = c.request(&call.req).map_err(|e| e.to_string())?;
    call.check(&resp)?;
    Ok(false)
}

/// A traced connection: the raw wire and the rank its spans go to.
pub struct TracedConn {
    pub wire: Wire,
    pub rank: Rank,
}

impl TracedConn {
    pub fn connect(addr: &str, rank: u32, t0: Instant) -> Result<TracedConn, String> {
        Ok(TracedConn {
            wire: Wire::connect(addr)?,
            rank: Rank::new(rank, t0),
        })
    }

    /// One decomposed call under a root span named `root`; returns the
    /// root's handle (for renaming) and the checked outcome.
    pub fn call(&mut self, root: &str, call: &Call) -> (usize, Result<bool, String>) {
        let handle = self.rank.enter(root);
        let res = self.wire.call(&call.req, &mut self.rank);
        self.rank.leave();
        let res = res.and_then(|(resp, bytes)| {
            self.rank.count(
                &format!("serve.response_bytes.{}", call.op.name()),
                bytes as f64,
            );
            call.check(&resp)
        });
        (handle, res.map(|()| true))
    }
}

/// Seeded calls at Poisson times for one phase.
pub fn schedule(
    ens: &Ensemble,
    rng: &mut Rng,
    rate: f64,
    secs: f64,
    mix: &[(Op, u32)],
) -> Vec<(f64, Call)> {
    arrivals(rng, rate, secs)
        .into_iter()
        .map(|t| (t, Call::new(Op::draw(rng, mix), ens, rng)))
        .collect()
}

/// A served store: the catalog directory and the running server.
pub struct Served {
    pub dir: PathBuf,
    pub server: Server,
}

impl Served {
    pub fn addr(&self) -> String {
        self.server.addr().to_string()
    }
}

/// Build the 2,000-profile store and bind a server on it, as many times
/// as setup is repeated; keeps the last.
pub fn setup_served(ctx: &Ctx, ens: &Ensemble) -> Result<(Served, f64), String> {
    setup(
        |i| {
            let dir = ctx.scratch.path(&format!("store-{i}"));
            Store::save(&dir, &ens.profiles()).map_err(|e| e.to_string())?;
            let server = Server::bind(&dir, "127.0.0.1:0", ServeOptions::default())
                .map_err(|e| format!("bind: {e}"))?;
            ThicketClient::new(server.addr().to_string())
                .status()
                .map_err(|e| format!("first status: {e}"))?;
            Ok(Served { dir, server })
        },
        |old| {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(old.dir);
        },
    )
}

/// Shut the server down and check it released every pin.
pub fn shutdown(out: &mut Outcome, served: Served) -> PathBuf {
    served.server.shutdown();
    let leases = lease_count(&served.dir);
    out.check(leases == 0, || {
        format!("{leases} pin leases left after Server::shutdown")
    });
    served.dir
}
