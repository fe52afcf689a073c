//! The repository benchmark: four workloads that drive the library only
//! through its public functions and time every call from outside.
//!
//! ```text
//! benchmark --workload <all|ingest|explore|serve|contend> [--seed N]
//!           [--seconds S] [--trace <0|1>] [--out DIR]
//! benchmark compare <DIR_A> <DIR_B>
//! ```
//!
//! `--out` collects results as `BENCH_<workload>.json`, and a traced
//! run's span traces as `<workload>.trace`, in `DIR`.
//!
//! Each workload runs in a re-executed child process, so its set-up time
//! and peak RSS belong to it alone. Standard output carries one
//! `workload metric value unit` line per metric and ends with one JSON
//! object: `correct`, `attempted`, `failed` and the metrics named in
//! `BENCHMARK.json` (end-to-end ones untraced, per-layer ones traced).
//! See README.md for the workloads, metrics and layers.

mod client;
mod contend;
mod data;
mod explore;
mod host;
mod ingest;
mod measure;
mod report;
mod serve;
mod spans;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use thicket::dataframe::Value;
use thicket::perfsim::Json;

use host::{HostInfo, Scratch};
use measure::{median, Outcome};
use report::Spec;
use spans::{write_trace, Layers, Rank};

pub const WORKLOADS: [&str; 4] = ["ingest", "explore", "serve", "contend"];
/// Set-up runs at least this many times per run, and again until the
/// run has spent [`SETUP_BUDGET_S`] on it; `setup_s` is the median, so
/// one set-up slowed by the host does not move it. Quick set-ups (about
/// 0.1 s) get the most repeats, as they spread the most.
const SETUP_MIN_REPEATS: usize = 3;
const SETUP_BUDGET_S: f64 = 1.0;
/// Unattributed (root self) time allowed in a traced run, in %.
const UNATTRIBUTED_LIMIT_PCT: f64 = 5.0;

const USAGE: &str = "usage:
  benchmark --workload <all|ingest|explore|serve|contend> [--seed N] [--seconds S] [--trace <0|1>] [--out DIR]
  benchmark compare <DIR_A> <DIR_B>";

/// One workload run, as its child process sees it.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Where a traced run writes its span trace; `None` when untraced.
    pub trace: Option<PathBuf>,
    pub scratch: Scratch,
}

/// Set the workload up repeatedly (see [`SETUP_MIN_REPEATS`]), keeping
/// the last result and handing earlier ones to `discard`; returns it
/// with the median set-up time in seconds.
pub fn setup<T>(
    mut make: impl FnMut(usize) -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times: Vec<f64> = Vec::new();
    let mut kept = None;
    while times.len() < SETUP_MIN_REPEATS || times.iter().sum::<f64>() < SETUP_BUDGET_S {
        let t = Instant::now();
        let made = make(times.len())?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(made) {
            discard(old);
        }
    }
    let median = median(&times).expect("set up at least once");
    Ok((kept.expect("set up at least once"), median))
}

/// Write a traced run's spans, load them back as a thicket, and fill in
/// the per-layer table and the unattributed-time check.
pub fn finish_trace(ctx: &Ctx, out: &mut Outcome, ranks: &[Rank]) -> Result<Layers, String> {
    let path = ctx
        .trace
        .as_ref()
        .expect("finish_trace runs only when tracing");
    let host = HostInfo::probe(&ctx.scratch.dir);
    let mut meta = vec![
        ("workload".to_string(), Value::from(out.workload.as_str())),
        ("seed".to_string(), Value::Int(ctx.seed as i64)),
        ("seconds".to_string(), Value::Float(ctx.seconds)),
    ];
    meta.extend(
        host.pairs()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::from(v))),
    );
    write_trace(path, &meta, ranks).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let layers = Layers::load(path)?;
    out.table = layers.table();
    let gap = layers.unattributed_pct();
    out.metric("bench.unattributed_pct", gap, "%");
    out.check(gap <= UNATTRIBUTED_LIMIT_PCT, || {
        format!("root spans' self time is {gap:.2}% of their inclusive time (limit {UNATTRIBUTED_LIMIT_PCT}%)")
    });
    Ok(layers)
}

struct Opts {
    workloads: Vec<String>,
    seed: u64,
    /// Measured seconds per workload; `run_seconds` of the spec if unset.
    seconds: Option<f64>,
    trace: bool,
    /// Where results go; a traced run keeps its span traces there too.
    out: Option<PathBuf>,
}

enum Cmd {
    Run(Opts),
    /// A re-executed child process running one workload.
    Child(Opts),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut opts = Opts {
        workloads: Vec::new(),
        seed: 1,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut child = false;
    let mut it = args.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "compare" => {
                let a = value(&mut it, "compare")?;
                let b = value(&mut it, "compare")?;
                return Ok(Cmd::Compare(a.into(), b.into()));
            }
            "child" => child = true,
            "--workload" => {
                opts.workloads = match value(&mut it, arg)?.as_str() {
                    "all" => WORKLOADS.map(String::from).to_vec(),
                    w if WORKLOADS.contains(&w) => vec![w.to_string()],
                    w => return Err(format!("unknown workload {w:?}")),
                }
            }
            "--seed" => {
                opts.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let secs: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !secs.is_finite() || secs <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                opts.seconds = Some(secs);
            }
            "--trace" => {
                opts.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => opts.out = Some(value(&mut it, arg)?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(if child {
        Cmd::Child(opts)
    } else {
        Cmd::Run(opts)
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cmd::Run(opts)) => parent(opts),
        Ok(Cmd::Child(opts)) => child(opts),
        Ok(Cmd::Compare(a, b)) => {
            match Spec::load().and_then(|spec| report::compare(&spec, &a, &b)) {
                Ok(true) => ExitCode::SUCCESS,
                Ok(false) => ExitCode::FAILURE,
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Child process: run one workload, print its outcome as JSON.
fn child(opts: Opts) -> ExitCode {
    let workload = opts.workloads[0].as_str();
    let scratch = match Scratch::new(workload) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{workload}: scratch dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(seconds) = opts.seconds else {
        eprintln!("{workload}: the child needs --seconds");
        return ExitCode::FAILURE;
    };
    let trace = opts.trace.then(|| match &opts.out {
        Some(dir) => dir.join(format!("{workload}.trace")),
        None => scratch.path("spans.trace"),
    });
    let ctx = Ctx {
        seed: opts.seed,
        seconds,
        trace,
        scratch,
    };
    let result = match workload {
        "ingest" => ingest::run(&ctx),
        "explore" => explore::run(&ctx),
        "serve" => serve::run(&ctx),
        _ => contend::run(&ctx),
    };
    drop(ctx);
    match result {
        Ok(mut out) => {
            out.metric("failed_share", out.failed_share(), "share");
            println!("{}", out.to_json().to_string_compact());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Run one workload in a fresh child process and collect its outcome.
fn spawn(workload: &str, opts: &Opts, seconds: f64) -> Outcome {
    let failed = |why: String| {
        let mut out = Outcome::new(workload);
        out.problems.push(why);
        out
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return failed(format!("current_exe: {e}")),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["child", "--workload", workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(dir) = &opts.out {
        cmd.arg("--out").arg(dir);
    }
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => return failed(format!("spawning the {workload} child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .and_then(|l| Json::parse(l).ok())
        .and_then(|doc| Outcome::from_json(&doc));
    match parsed {
        Some(out) if output.status.success() => out,
        _ => failed(format!(
            "{workload} child exited with {} and no result",
            output.status
        )),
    }
}

fn parent(opts: Opts) -> ExitCode {
    let spec = match Spec::load() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("benchmark: {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    let seconds = opts.seconds.unwrap_or(spec.run_seconds);
    let wanted = if opts.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };

    let mut outcomes = Vec::new();
    for w in &opts.workloads {
        let started = std::time::SystemTime::now();
        let mut out = spawn(w, &opts, seconds);
        if !opts.trace {
            let missing: Vec<String> = wanted
                .iter()
                .filter(|m| out.get(&m.name).is_none())
                .map(|m| format!("{w} did not report {}", m.name))
                .collect();
            out.problems.extend(missing);
        }
        for m in &out.metrics {
            println!("{w} {} {} {}", m.name, m.value, m.unit);
        }
        for line in &out.table {
            println!("# {w} | {line}");
        }
        for p in &out.problems {
            println!("# {w} CHECK FAILED: {p}");
        }
        if let Some(dir) = &opts.out {
            let run = report::Run {
                seed: opts.seed,
                seconds,
                traced: opts.trace,
                started,
            };
            if let Err(e) = report::record(dir, &out, &run) {
                out.problems.push(format!("writing results: {e}"));
            }
        }
        outcomes.push(out);
    }
    if opts.trace && opts.workloads.len() == WORKLOADS.len() {
        for m in wanted {
            if outcomes.iter().all(|o| o.get(&m.name).is_none()) {
                println!("# per-layer metric {} is reported by no workload", m.name);
                outcomes[0]
                    .problems
                    .push(format!("per-layer metric {} unreported", m.name));
            }
        }
    }

    let correct = outcomes.iter().all(|o| o.problems.is_empty());
    let single = outcomes.len() == 1;
    let mut metrics = Vec::new();
    for o in &outcomes {
        for m in wanted {
            // A layer the workload never calls costs it nothing.
            let value = o.get(&m.name).map_or(0.0, |got| got.value);
            let key = if single {
                m.name.clone()
            } else {
                format!("{}.{}", o.workload, m.name)
            };
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]);
            metrics.push((key, entry));
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        (
            "attempted".into(),
            Json::Num(outcomes.iter().map(|o| o.attempted).sum::<u64>().max(1) as f64),
        ),
        (
            "failed".into(),
            Json::Num(outcomes.iter().map(|o| o.failed).sum::<u64>() as f64),
        ),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", result.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
