//! Bounded-memory trace ingest: a trace at least 4× a 24 MiB budget
//! streams through the `LoadSource::trace` pipeline with peak RSS
//! strictly under the budget. Resident state is O(tree depth × ranks),
//! not O(events), and this test enforces it.
//!
//! The parent emits the trace and re-runs this test binary
//! (`current_exe`, `--exact` on [`child_trace_ingest`]), so the ingest
//! runs in a fresh process whose `VmHWM` high-water mark covers that one
//! ingest only. The measurement means something on optimized builds
//! only, so the parent is ignored by default:
//!
//! ```sh
//! cargo test --release -p thicket-core --test trace_memory -- --include-ignored
//! ```

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use thicket_core::{LoadSource, Thicket};
use thicket_perfsim::{emit_trace_to_path, ScratchDir, TraceConfig};

/// The peak-RSS budget of the child ingest.
const BUDGET_MIB: u64 = 24;

/// Peak resident set size of this process in KiB, from Linux procfs.
fn vmhwm_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Subprocess body for [`trace_ingest_stays_under_its_rss_budget`]:
/// stream the trace named by `THICKET_CHILD_TRACE` into a thicket and
/// print this process's peak RSS. Normal test runs do nothing.
#[test]
fn child_trace_ingest() {
    let Ok(trace) = std::env::var("THICKET_CHILD_TRACE") else {
        return;
    };
    let (tk, report) = Thicket::loader(LoadSource::trace(Path::new(&trace)))
        .load()
        .expect("child ingest failed");
    assert!(
        report.is_clean(),
        "child ingest not clean: {}",
        report.summary()
    );
    println!(
        "CHILD profiles={} vmhwm_kib={}",
        tk.metadata().len(),
        vmhwm_kib().expect("procfs read in the child")
    );
}

#[test]
#[ignore = "release-only memory smoke; tier1.sh runs it"]
fn trace_ingest_stays_under_its_rss_budget() {
    if vmhwm_kib().is_none() {
        println!("no /proc/self/status (non-Linux host); skipping");
        return;
    }
    let budget_bytes = BUDGET_MIB << 20;
    let dir = ScratchDir::new("trace-memory");
    let path = dir.join("smoke.trace");

    // Size the trace from the per-pass event count (a conservative 20
    // bytes per event overshoots), then check the real file.
    let per_pass = TraceConfig::quartz(8, 1, 3).events_total();
    let passes = (4 * budget_bytes / 20 / per_pass + 1) as u32;
    let events = emit_trace_to_path(&TraceConfig::quartz(8, passes, 3), &path).unwrap();
    let bytes = std::fs::metadata(&path).unwrap().len();
    assert!(
        bytes >= 4 * budget_bytes,
        "trace undersized: {bytes} bytes for a {BUDGET_MIB} MiB budget"
    );

    let t = Instant::now();
    let out = Command::new(std::env::current_exe().unwrap())
        .args(["child_trace_ingest", "--exact", "--nocapture"])
        .env("THICKET_CHILD_TRACE", &path)
        .output()
        .expect("spawn child ingest");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let hwm_kib: u64 = stdout
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("vmhwm_kib="))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("child printed no peak RSS: {stdout}"));
    println!(
        "{events} events ({:.0} MiB trace) ingested by a child in {ms:.0} ms, \
         peak RSS {:.1} MiB (budget {BUDGET_MIB} MiB)",
        bytes as f64 / (1 << 20) as f64,
        hwm_kib as f64 / 1024.0,
    );
    assert!(
        hwm_kib * 1024 < budget_bytes,
        "peak RSS {hwm_kib} KiB reached the {BUDGET_MIB} MiB budget on a {bytes}-byte trace"
    );
}
