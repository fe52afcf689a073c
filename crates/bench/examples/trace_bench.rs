//! PERF.md W7 driver: streaming trace ingest — events/sec and the
//! peak-RSS-vs-trace-length curve — plus the bounded-memory smoke that
//! tier1.sh runs under `--release`.
//!
//! ```sh
//! cargo run -p thicket-bench --release --example trace_bench             # W7 curve
//! cargo run -p thicket-bench --release --example trace_bench -- smoke    # RSS budget smoke (24 MiB)
//! cargo run -p thicket-bench --release --example trace_bench -- smoke 32 # explicit budget (MiB)
//! ```
//!
//! Each curve point re-execs this binary (`child` mode, via
//! `current_exe`) so every measurement gets a fresh process and an
//! untouched `VmHWM` high-water mark — the peak is attributable to that
//! one ingest, not to whichever earlier point grew the heap most.
//!
//! The smoke emits a trace at least 4× a configured RSS budget, streams
//! it through the `LoadSource::trace` pipeline in a child process, and
//! exits nonzero if the child's peak RSS reached the budget: the
//! bounded-memory claim (resident state is O(tree depth × ranks), not
//! O(events)) is enforced in CI, not just asserted in prose.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use thicket_core::{LoadSource, Thicket};
use thicket_perfsim::{emit_trace_to_path, ScratchDir, TraceConfig};

/// Peak resident set size of this process in KiB, from Linux procfs.
fn vmhwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Child mode: stream one trace into a thicket, report to stdout in a
/// `key=value` line the parent parses.
fn child(trace: &Path) {
    let t = Instant::now();
    let (tk, report) = Thicket::loader(LoadSource::trace(trace))
        .load()
        .expect("child ingest failed");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(report.is_clean(), "child ingest not clean: {}", report.summary());
    println!(
        "CHILD ms={ms:.1} profiles={} vmhwm_kib={}",
        tk.metadata().len(),
        vmhwm_kib().unwrap_or(0),
    );
}

/// Spawn `child` on a trace and return `(ingest ms, peak RSS KiB)`.
fn run_child(trace: &Path) -> (f64, u64) {
    let exe = std::env::current_exe().expect("current_exe");
    let out = Command::new(exe)
        .arg("child")
        .arg(trace)
        .output()
        .expect("spawn child");
    assert!(
        out.status.success(),
        "child failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let field = |key: &str| -> f64 {
        stdout
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("child output missing {key}: {stdout}"))
    };
    (field("ms"), field("vmhwm_kib") as u64)
}

/// W7 curve: ingest time and peak RSS at doubling trace lengths. The
/// headline is the last column staying flat while the first doubles.
fn curve() {
    let dir = ScratchDir::new("trace-bench-curve");
    println!("## W7: streaming trace ingest (`trace_bench`)");
    println!();
    println!("| events | trace size | ingest | events/s | peak RSS |");
    println!("|---|---|---|---|---|");
    for passes in [1000u32, 4000, 16000] {
        let cfg = TraceConfig::quartz(4, passes, 7);
        let path = dir.join(format!("w7-{passes}.trace"));
        let events = emit_trace_to_path(&cfg, &path).expect("emit trace");
        let bytes = std::fs::metadata(&path).expect("stat trace").len();
        let (ms, hwm_kib) = run_child(&path);
        println!(
            "| {events} | {:.1} MiB | {ms:.0} ms | {:.2}M | {:.1} MiB |",
            bytes as f64 / (1 << 20) as f64,
            events as f64 / (ms / 1e3) / 1e6,
            hwm_kib as f64 / 1024.0,
        );
    }
}

/// Bounded-memory smoke: a trace ≥ 4× the RSS budget must stream
/// through ingest with peak RSS strictly under the budget.
fn smoke(budget_mib: u64) {
    let budget_bytes = budget_mib * (1 << 20);
    let dir = ScratchDir::new("trace-bench-smoke");
    let path = dir.join("smoke.trace");

    // Size the trace from the per-pass event count (conservative 20
    // bytes/event estimate overshoots), then verify the real file.
    let per_pass = TraceConfig::quartz(8, 1, 3).events_total();
    let target_events = 4 * budget_bytes / 20;
    let passes = (target_events / per_pass + 1) as u32;
    let cfg = TraceConfig::quartz(8, passes, 3);
    let events = emit_trace_to_path(&cfg, &path).expect("emit trace");
    let bytes = std::fs::metadata(&path).expect("stat trace").len();
    assert!(
        bytes >= 4 * budget_bytes,
        "smoke trace undersized: {bytes} bytes for a {budget_mib} MiB budget"
    );

    let (ms, hwm_kib) = run_child(&path);
    let hwm_bytes = hwm_kib * 1024;
    println!(
        "W7 smoke: {events} events ({:.0} MiB trace) ingested in {ms:.0} ms \
         ({:.2}M events/s), peak RSS {:.1} MiB under a {budget_mib} MiB budget",
        bytes as f64 / (1 << 20) as f64,
        events as f64 / (ms / 1e3) / 1e6,
        hwm_kib as f64 / 1024.0,
    );
    drop(dir); // `exit` below skips destructors
    if hwm_bytes >= budget_bytes {
        eprintln!(
            "trace_bench: FAIL — peak RSS {hwm_bytes} bytes reached the \
             {budget_bytes}-byte budget on a {bytes}-byte trace"
        );
        std::process::exit(1);
    }
}

fn main() {
    if vmhwm_kib().is_none() {
        println!("trace_bench: no /proc/self/status (non-Linux host); skipping");
        return;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("child") => {
            let trace = args.get(1).expect("child mode needs a trace path");
            child(Path::new(trace));
        }
        Some("smoke") => {
            let budget = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(24);
            smoke(budget);
        }
        _ => curve(),
    }
}
