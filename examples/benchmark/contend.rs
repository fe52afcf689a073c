//! `contend`: readers and a writer on one store at once. Beside the
//! `serve` setup, one connection reads at a fixed 50 requests/s (an open
//! loop) while one writer thread appends 10 fresh profiles every 100 ms
//! and compacts every 50th append: leases against garbage collection,
//! a growing manifest, and compaction stalls. A change that helps one
//! side at the other's cost shows here.

use std::path::Path;
use std::time::{Duration, Instant};

use thicket::perfsim::{Profile, Store};
use thicket_serve::ThicketClient;

use crate::client::{
    client_call, count_ops, latencies, open_loop, overhead_pct, schedule, setup_served, shutdown,
    Call, Exec, Op, Sample, TracedConn, PROFILES,
};
use crate::data::{Ensemble, Rng};
use crate::host::{dir_files, manifest_bytes, peak_rss_mib};
use crate::measure::{median, percentile, Outcome};
use crate::spans::Rank;
use crate::{finish_trace, Ctx};

const READ_RATE: f64 = 50.0;
const READ_MIX: [(Op, u32); 2] = [(Op::Load, 70), (Op::Status, 30)];
const APPEND_EVERY: Duration = Duration::from_millis(100);
const APPEND_BATCH: usize = 10;
const COMPACT_EVERY: usize = 50;

/// What the writer did; times in seconds since the phase start.
#[derive(Default)]
struct Writes {
    append_ms: Vec<f64>,
    compact_ms: Vec<f64>,
    compactions: Vec<(f64, f64)>,
    appended: usize,
    errors: Vec<String>,
}

impl Writes {
    fn overlaps_compaction(&self, start: f64, end: f64) -> bool {
        self.compactions.iter().any(|&(a, b)| start < b && end > a)
    }
}

/// Run `f` inside `root` → `layer` spans when tracing.
fn spanned<T>(rank: &mut Option<&mut Rank>, root: &str, layer: &str, f: impl FnOnce() -> T) -> T {
    match rank {
        Some(r) => {
            r.enter(root);
            let out = r.span(layer, f);
            r.leave();
            out
        }
        None => f(),
    }
}

/// Append one pre-generated batch per tick until `secs` after `t0`,
/// compacting every [`COMPACT_EVERY`]th append.
fn writer(
    dir: &Path,
    batches: &mut impl Iterator<Item = Vec<Profile>>,
    t0: Instant,
    secs: f64,
    mut rank: Option<&mut Rank>,
) -> Writes {
    let mut w = Writes::default();
    for tick in 0u32.. {
        let due = APPEND_EVERY * tick;
        if due.as_secs_f64() >= secs {
            break;
        }
        if let Some(wait) = due.checked_sub(t0.elapsed()) {
            std::thread::sleep(wait);
        }
        let Some(batch) = batches.next() else { break };
        let t = Instant::now();
        let res = spanned(&mut rank, "write.append", "store.append", || {
            Store::append(dir, &batch)
        });
        w.append_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match res {
            Ok(rep) if rep.appended == batch.len() => w.appended += rep.appended,
            Ok(rep) => w
                .errors
                .push(format!("append stored {} of {}", rep.appended, batch.len())),
            Err(e) => w.errors.push(format!("append: {e}")),
        }
        if w.append_ms.len() % COMPACT_EVERY == 0 {
            let start = t0.elapsed().as_secs_f64();
            let res = spanned(&mut rank, "write.compact", "store.compact", || {
                Store::compact(dir)
            });
            let end = t0.elapsed().as_secs_f64();
            w.compact_ms.push((end - start) * 1e3);
            w.compactions.push((start, end));
            if let Err(e) = res {
                w.errors.push(format!("compact: {e}"));
            }
        }
    }
    w
}

fn count_writes(out: &mut Outcome, w: &Writes) {
    out.attempted += (w.append_ms.len() + w.compact_ms.len()) as u64;
    for e in &w.errors {
        out.fail(e.clone());
    }
}

/// Reads (`exec` on `conn` for each due call) and writes side by side
/// for `secs`, both timed from `t0`.
fn contend<C: Send>(
    dir: &Path,
    calls: &[(f64, Call)],
    (conn, exec): (&mut C, &Exec<C>),
    batches: &mut (impl Iterator<Item = Vec<Profile>> + Send),
    t0: Instant,
    secs: f64,
    rank: Option<&mut Rank>,
) -> (Vec<Sample>, Vec<String>, Writes) {
    std::thread::scope(|s| {
        let writes = s.spawn(move || writer(dir, batches, t0, secs, rank));
        let (samples, errors) = open_loop(calls, std::slice::from_mut(conn), t0, exec);
        (
            samples,
            errors,
            writes.join().expect("writer thread panicked"),
        )
    })
}

/// The read side of a traced run: every other read goes through the
/// real client, the rest through the decomposed one, each root span
/// remembered with its start and end so it can be classed by whether a
/// compaction overlapped it.
struct Reader {
    client: ThicketClient,
    traced: TracedConn,
    sent: usize,
    t0: Instant,
    roots: Vec<(usize, f64, f64)>,
}

impl Reader {
    fn read(&mut self, call: &Call) -> Result<bool, String> {
        self.sent += 1;
        if self.sent % 2 == 1 {
            return client_call(&mut self.client, call);
        }
        let start = self.t0.elapsed().as_secs_f64();
        let (handle, res) = self.traced.call("read", call);
        self.roots
            .push((handle, start, self.t0.elapsed().as_secs_f64()));
        res
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::new("contend");
    let ens = Ensemble::new(ctx.seed, PROFILES);
    let (served, setup_s) = setup_served(ctx, &ens)?;
    // Fresh profiles for every tick the run can reach, made up front so
    // the writer only writes.
    let ticks = (ctx.seconds / APPEND_EVERY.as_secs_f64()).ceil() as usize + 1;
    let fresh = ens.extra_profiles(PROFILES, ticks * APPEND_BATCH);
    let mut batches = fresh.chunks(APPEND_BATCH).map(<[Profile]>::to_vec);
    let mut rng = Rng::new(ctx.seed);
    let calls = schedule(&ens, &mut rng, READ_RATE, ctx.seconds, &READ_MIX);
    let client = ThicketClient::new(served.addr());
    let t0 = Instant::now();

    let (samples, errors, writes, traced) = if ctx.trace.is_some() {
        let mut reader = Reader {
            client,
            traced: TracedConn::connect(&served.addr(), 1, t0)?,
            sent: 0,
            t0,
            roots: Vec::new(),
        };
        let mut write_rank = Rank::new(0, t0);
        let exec = |r: &mut Reader, call: &Call| r.read(call);
        let (samples, errors, writes) = contend(
            &served.dir,
            &calls,
            (&mut reader, &exec),
            &mut batches,
            t0,
            ctx.seconds,
            Some(&mut write_rank),
        );
        (samples, errors, writes, Some((reader, write_rank)))
    } else {
        let mut client = client;
        let (samples, errors, writes) = contend(
            &served.dir,
            &calls,
            (&mut client, &client_call),
            &mut batches,
            t0,
            ctx.seconds,
            None,
        );
        (samples, errors, writes, None)
    };
    count_ops(&mut out, &samples, errors);
    count_writes(&mut out, &writes);
    // Peak RSS of set-up plus the measured phase, before the checks.
    out.metric_opt("peak_rss_mib", peak_rss_mib(), "MiB");
    let dir = shutdown(&mut out, served);
    let fsck = Store::fsck(&dir).map_err(|e| e.to_string())?;
    out.check(fsck.is_clean(), || format!("fsck after contend: {fsck}"));
    let stored = Store::open(&dir)
        .map_err(|e| e.to_string())?
        .entries()
        .len();
    out.check(stored == PROFILES + writes.appended, || {
        format!(
            "store holds {stored} profiles after {} appended onto {PROFILES}",
            writes.appended
        )
    });
    if let Some((reader, write_rank)) = traced {
        layer_metrics(ctx, &mut out, &dir, reader, write_rank, &writes)?;
        out.metric_opt("bench.trace_overhead_pct", overhead_pct(&samples), "%");
        return Ok(out);
    }

    let lat = latencies(&samples);
    let append_s: f64 = writes.append_ms.iter().sum::<f64>() / 1e3;
    out.metric("setup_s", setup_s, "s");
    // Profiles appended per second of `Store::append` time.
    out.metric("rate_per_s", writes.appended as f64 / append_s, "1/s");
    // Reads: about a thousand a run, so ten lie beyond the 99th percentile.
    out.metric_opt("p50_ms", median(&lat), "ms");
    out.metric_opt("p99_ms", percentile(&lat, 99.0), "ms");
    out.metric("samples", lat.len() as f64, "count");
    out.metric_opt("append_p90_ms", percentile(&writes.append_ms, 90.0), "ms");
    // A run shorter than 50 appends never compacts.
    if let Some(ms) = median(&writes.compact_ms) {
        out.metric("compact_ms", ms, "ms");
    }
    let during = samples
        .iter()
        .filter(|s| writes.overlaps_compaction(s.sent, s.done))
        .count();
    out.metric("reads_during_compact", during as f64, "count");
    Ok(out)
}

/// Class each traced read by whether a compaction overlapped it, write
/// the trace, and derive the per-layer metrics.
fn layer_metrics(
    ctx: &Ctx,
    out: &mut Outcome,
    dir: &Path,
    reader: Reader,
    write_rank: Rank,
    writes: &Writes,
) -> Result<(), String> {
    let mut read_rank = reader.traced.rank;
    for (handle, start, end) in reader.roots {
        let during = writes.overlaps_compaction(start, end);
        read_rank.rename(
            handle,
            if during {
                "read.during_compact"
            } else {
                "read.outside_compact"
            },
        );
    }
    let layers = finish_trace(ctx, out, &[write_rank, read_rank])?;
    for class in ["during_compact", "outside_compact"] {
        let ms = layers.ms_per_op(&[&format!("read.{class}")], "serve.client.wait");
        out.metric(format!("contend.read_wait_ms.{class}"), ms, "ms");
    }
    out.metric(
        "store.append_ms",
        layers.ms_per_call("write.append/store.append"),
        "ms",
    );
    out.metric(
        "store.compact_ms",
        layers.ms_per_call("write.compact/store.compact"),
        "ms",
    );
    out.metric("store.commits", layers.row("write.append").visits, "count");
    out.metric("store.manifest_bytes", manifest_bytes(dir) as f64, "bytes");
    out.metric(
        "store.disk_bytes",
        dir_files(dir, |_| true).1 as f64,
        "bytes",
    );
    out.metric(
        "store.shard_files",
        dir_files(dir, |n| n.ends_with(".tks")).0 as f64,
        "count",
    );
    Ok(())
}
