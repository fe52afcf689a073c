//! `thicketd` — the Thicket query daemon, plus the client verbs that
//! drive it from scripts (tier1.sh's service smoke uses exactly these).
//!
//! ```text
//! thicketd seed <STORE_DIR> [--profiles N] [--base-seed S]
//! thicketd serve <STORE_DIR> [--addr HOST:PORT] [--workers N]
//!                            [--queue N] [--deadline-ms N] [--debug-ops]
//! thicketd query <ADDR> [PRED]          filtered load; prints counts
//! thicketd callpath <ADDR> <QUERY>      call-path query; prints nodes
//! thicketd status <ADDR>                server/store status
//! ```
//!
//! `serve` binds (port 0 = ephemeral), prints `listening on ADDR` to
//! stdout, and runs until SIGTERM — on which it stops accepting,
//! drains in-flight requests (releasing every per-request pin), and
//! exits 0.

use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicI32, Ordering};
use std::time::Duration;

use thicket_perfsim::{simulate_cpu_run, CpuRunConfig, Store};
use thicket_serve::{ServeOptions, Server, ThicketClient};

#[path = "common/output.rs"]
mod output;
use output::{run_to_stdout, Failure};

/// SIGTERM/SIGINT latch, set from the signal handler.
static TERM: AtomicBool = AtomicBool::new(false);

/// Write end of the self-pipe; the handler pokes it so the main
/// thread's blocking read wakes immediately (no poll tick).
static TERM_WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
    fn pipe(fds: *mut i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
}

extern "C" fn on_term(_sig: i32) {
    TERM.store(true, Ordering::SeqCst);
    // Self-pipe trick: `write(2)` is async-signal-safe, and one byte
    // into the pipe turns the latch into an event the blocked main
    // thread observes immediately.
    let fd = TERM_WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

/// Install the shutdown handler via libc `signal(2)` and create the
/// self-pipe it signals through — std links libc already, so no new
/// dependency. SIGTERM = 15, SIGINT = 2 on every platform this repo
/// targets. Returns the read end of the pipe (or -1 if `pipe(2)`
/// failed, in which case the wait falls back to polling the latch).
fn install_signal_handlers() -> i32 {
    let mut fds = [-1i32; 2];
    let piped = unsafe { pipe(fds.as_mut_ptr()) } == 0;
    if piped {
        TERM_WAKE_FD.store(fds[1], Ordering::SeqCst);
    }
    unsafe {
        signal(15, on_term as extern "C" fn(i32) as usize);
        signal(2, on_term as extern "C" fn(i32) as usize);
    }
    if piped {
        fds[0]
    } else {
        -1
    }
}

/// Block until the TERM latch is set: a blocking read on the
/// self-pipe's read end. The signal handler's write wakes the read;
/// an `EINTR` return re-checks the latch and re-blocks. Without a
/// pipe, degrade to the old 25 ms latch poll.
fn wait_for_term(pipe_rd: i32) {
    let mut buf = [0u8; 8];
    while !TERM.load(Ordering::SeqCst) {
        if pipe_rd < 0 {
            std::thread::sleep(Duration::from_millis(25));
            continue;
        }
        unsafe {
            read(pipe_rd, buf.as_mut_ptr(), buf.len());
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    run_to_stdout(
        "thicketd",
        "usage: thicketd <seed <DIR> [--profiles N] [--base-seed S]\n\
         \x20              | serve <DIR> [--addr A] [--workers N] [--queue N] [--deadline-ms N] [--debug-ops]\n\
         \x20              | query <ADDR> [PRED] | callpath <ADDR> <QUERY> | status <ADDR>>",
        |out| run(&args, out),
    )
}

/// Parse `--flag value` pairs and boolean `--flag`s from `args`.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_flag<T: std::str::FromStr>(
    args: &[String],
    flag: &str,
    default: T,
) -> Result<T, String> {
    match flag_value(args, flag) {
        None => Ok(default),
        Some(text) => text.parse().map_err(|_| format!("bad value for {flag}: {text:?}")),
    }
}

fn run(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let verb = args.first().map(String::as_str).ok_or("missing subcommand")?;
    let rest = &args[1..];
    match verb {
        "seed" => seed(rest, out),
        "serve" => serve(rest, out),
        "query" => {
            let addr = rest.first().ok_or("query needs an address")?;
            let pred = rest.get(1).map(String::as_str);
            let (generation, profiles) = ThicketClient::new(addr)
                .load_matching(pred)
                .map_err(|e| e.to_string())?;
            writeln!(
                out,
                "generation {generation}: {} matching profiles",
                profiles.len()
            )?;
            Ok(())
        }
        "callpath" => {
            let addr = rest.first().ok_or("callpath needs an address")?;
            let query = rest.get(1).ok_or("callpath needs a query string")?;
            let (nodes, rows) = ThicketClient::new(addr)
                .query_nodes(query, None)
                .map_err(|e| e.to_string())?;
            writeln!(out, "{} nodes, {rows} perf rows", nodes.len())?;
            for n in nodes {
                writeln!(out, "  {n}")?;
            }
            Ok(())
        }
        "status" => {
            let addr = rest.first().ok_or("status needs an address")?;
            let s = ThicketClient::new(addr).status().map_err(|e| e.to_string())?;
            writeln!(
                out,
                "generation {} · {} profiles · served {} · shed {} · up {} ms",
                s.generation, s.profiles, s.served, s.shed, s.uptime_ms
            )?;
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}").into()),
    }
}

/// Build a store of simulated RAJA-Perf runs to serve.
fn seed(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let dir = args.first().ok_or("seed needs a store directory")?;
    let n: usize = parse_flag(args, "--profiles", 16)?;
    let base: u64 = parse_flag(args, "--base-seed", 0)?;
    let profiles: Vec<_> = (0..n)
        .map(|i| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.seed = base + i as u64;
            // Two problem sizes so metadata predicates have something
            // to select on.
            if i % 2 == 1 {
                cfg.problem_size /= 2;
            }
            simulate_cpu_run(&cfg)
        })
        .collect();
    let report = Store::save(dir, &profiles).map_err(|e| e.to_string())?;
    writeln!(
        out,
        "seeded {} profiles into {dir} ({} shards)",
        n, report.shards
    )?;
    Ok(())
}

fn serve(args: &[String], out: &mut impl Write) -> Result<(), Failure> {
    let dir = args.first().ok_or("serve needs a store directory")?;
    let addr = flag_value(args, "--addr").unwrap_or("127.0.0.1:0");
    let mut opts = ServeOptions {
        workers: parse_flag(args, "--workers", 2)?,
        queue_depth: parse_flag(args, "--queue", 32)?,
        enable_debug_ops: args.iter().any(|a| a == "--debug-ops"),
        ..ServeOptions::default()
    };
    let deadline_ms: u64 = parse_flag(args, "--deadline-ms", 10_000)?;
    opts.request_deadline = Duration::from_millis(deadline_ms);

    // Refuse to serve a directory without a verifiable generation: a
    // typo'd path should fail at startup, not per-request.
    Store::open(dir).map_err(|e| format!("store {dir}: {e}"))?;

    let pipe_rd = install_signal_handlers();
    let server = Server::bind(dir, addr, opts).map_err(|e| format!("bind {addr}: {e}"))?;
    // The smoke script scrapes this line for the ephemeral port.
    writeln!(out, "listening on {}", server.addr())?;
    out.flush()?;

    wait_for_term(pipe_rd);
    let served = server.served();
    server.shutdown();
    writeln!(out, "drained after {served} requests; exiting")?;
    Ok(())
}
