//! PERF.md workload driver: medians for the canonical ingest, predicate
//! and pinning experiments, printed as ready-to-paste markdown.
//!
//! ```sh
//! cargo run -p thicket-bench --release --example payload_bench            # all workloads, 2000 profiles
//! cargo run -p thicket-bench --release --example payload_bench -- 600    # smaller ensemble
//! cargo run -p thicket-bench --release --example payload_bench -- 60 w4  # W4 smoke only
//! ```
//!
//! Workloads (one change per experiment; W1 and W2, the v2-vs-v3 store
//! format comparison, left with the v2 writer — their PERF.md rows are
//! history):
//!
//! * **W3 — threaded ingest**: thicket assembly from 560 in-memory
//!   profiles at 1/2/4/8 worker threads (the multicore scaling curve;
//!   on a single-core host this measures the fan-out overhead floor).
//! * **W4 — predicate engine**: the same predicates evaluated by the
//!   per-row walk and by the vectorized bitmap evaluator, over store
//!   metadata (selection only) and over the composed perf frame, plus
//!   the end-to-end planner split (metadata conjunct pushed below the
//!   shard read, frame conjunct applied post-compose) vs a full load.
//! * **W5 — snapshot pinning**: a full load and a `seed`-pushdown read
//!   through a plain reader vs a generation-pinned snapshot (`Store::open_pinned`: lease file + held shard handles).
//!   The only variable is the pinning layer; it must be ~free.

use std::time::Instant;
use thicket_core::{LoadSource, Thicket};
use thicket_dataframe::{ColKey, PredExpr, Value};
use thicket_perfsim::{ScratchDir, Store};

const RUNS: usize = 5;

/// Median wall-clock milliseconds over [`RUNS`] runs of `f`.
fn median_ms(mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2000);
    let w4_only = std::env::args().nth(2).as_deref() == Some("w4");

    let nproc = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1);
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "rustc (version unavailable)".into());
    println!("_host: nproc = {nproc}, {rustc}_\n");

    eprintln!("generating {n} profiles...");
    let profiles = thicket_bench::data::quartz_runs(n, 1_048_576);

    if !w4_only {
        threaded_ingest_workload(&profiles, n, nproc);
    }
    predicate_engine_workload(&profiles, n);
    if !w4_only {
        pinning_workload(&profiles, n);
    }
    eprintln!("done");
}

/// W3: thicket assembly at 1/2/4/8 worker threads.
fn threaded_ingest_workload(profiles: &[thicket_perfsim::Profile], n: u64, nproc: usize) {
    let m = 560u64.min(n);
    let ingest: Vec<_> = profiles[..m as usize].to_vec();
    let ids: Vec<Value> = (0..m as i64).map(Value::Int).collect();
    println!("## Threaded ingest, {m} in-memory profiles → thicket\n");
    println!("| threads | median |");
    println!("|---|---|");
    for threads in [1usize, 2, 4, 8] {
        let ms = median_ms(|| {
            Thicket::loader(&ingest[..])
                .profile_ids(&ids)
                .threads(threads)
                .load()
                .unwrap();
        });
        println!("| {threads} | {ms:.0} ms |");
    }
    if nproc == 1 {
        println!(
            "\n_nproc = 1: the curve above is flat by construction (fan-out \
             overhead floor only). Re-record on a multicore host before \
             citing a scaling number._"
        );
    }
    println!();
}

/// W4: row-walk vs vectorized predicate evaluation, and the planner
/// split end-to-end.
fn predicate_engine_workload(profiles: &[thicket_perfsim::Profile], n: u64) {
    // Selection repeats per timed sample: the individual scans are
    // sub-millisecond, the ratio is what matters.
    let reps: usize = 100;
    let meta_cut = (n / 10).max(1) as i64; // keep ~10% of profiles

    println!("## W4: predicate engine, {n}-profile store (selection reps = {reps})\n");
    let dir = ScratchDir::new("payloadbench-w4");
    Store::save(&dir, profiles).unwrap();

    // --- metadata-only selection: row walk over materialized entries
    // vs vectorized evaluation straight off the columnar manifest.
    let meta_expr = PredExpr::lt("seed", meta_cut);
    let reader = Store::open(&dir).unwrap();
    let expect = reader.select_expr(&meta_expr).unwrap().len();
    assert_eq!(expect as i64, meta_cut.min(n as i64));
    let _ = reader.entries(); // materialize once; time the walk, not the decode
    let rw_meta = median_ms(|| {
        for _ in 0..reps {
            let hits = reader
                .entries()
                .iter()
                .filter(|e| meta_expr.eval_lookup(&mut |k| e.meta(k).cloned()))
                .count();
            assert_eq!(hits, expect);
        }
    });
    let vec_meta = median_ms(|| {
        for _ in 0..reps {
            assert_eq!(reader.select_expr(&meta_expr).unwrap().len(), expect);
        }
    });

    // --- frame-only selection over the composed perf frame: closure
    // row walk, the engine's row-wise reference, and the bitmap
    // evaluator, all selecting the same rows.
    let (tk, _) = Thicket::loader(LoadSource::store(&dir)).load().unwrap();
    let perf = tk.perf_data();
    let metric = ColKey::new("time (exc)");
    let mut times = perf.column(&metric).unwrap().numeric_values();
    times.sort_by(f64::total_cmp);
    let threshold = times[times.len() / 2]; // median ⇒ ~half the rows match
    let frame_expr = PredExpr::gt("time (exc)", threshold);
    let src = perf.bind_source(&frame_expr);
    let expect_rows = frame_expr.eval(&src).count_ones();
    let rw_frame = median_ms(|| {
        for _ in 0..reps {
            let hits = (0..perf.len())
                .filter(|&i| perf.row(i).f64("time (exc)").is_some_and(|v| v > threshold))
                .count();
            assert_eq!(hits, expect_rows);
        }
    });
    let ref_frame = median_ms(|| {
        for _ in 0..reps {
            assert_eq!(frame_expr.eval_rowwise(&src).count_ones(), expect_rows);
        }
    });
    let vec_frame = median_ms(|| {
        for _ in 0..reps {
            assert_eq!(frame_expr.eval(&src).count_ones(), expect_rows);
        }
    });

    println!("| selection ({reps} scans) | row walk | engine row-wise | vectorized | speedup (walk/vec) |");
    println!("|---|---|---|---|---|");
    println!(
        "| metadata `seed < {meta_cut}` ({} entries) | {rw_meta:.1} ms | — | {vec_meta:.1} ms | {:.2}x |",
        n,
        rw_meta / vec_meta
    );
    println!(
        "| perf frame `time (exc) > median` ({} rows) | {rw_frame:.1} ms | {ref_frame:.1} ms | {vec_frame:.1} ms | {:.2}x |",
        perf.len(),
        rw_frame / vec_frame
    );

    // --- end-to-end planner split: full load + post-filter vs a
    // planned filter pushing the metadata conjunct below the shard read.
    let mixed = PredExpr::and([
        PredExpr::lt("seed", meta_cut),
        PredExpr::gt("time (exc)", threshold),
    ]);
    let (planned, report) = Thicket::loader(LoadSource::store(&dir))
        .filter(mixed.clone())
        .load()
        .unwrap();
    let plan = report.pushdown.expect("planned filters record a plan");
    let full_ms = median_ms(|| {
        let (tk, _) = Thicket::loader(LoadSource::store(&dir)).load().unwrap();
        assert_eq!(tk.profiles().len() as u64, n);
    });
    let planned_ms = median_ms(|| {
        let (tk, _) = Thicket::loader(LoadSource::store(&dir))
            .filter(mixed.clone())
            .load()
            .unwrap();
        assert_eq!(tk.profiles().len(), planned.profiles().len());
    });

    // bytes_read: the pushed conjunct bounds the shard I/O; the full
    // load pays for every record.
    let full_reader = Store::open(&dir).unwrap();
    full_reader.load_all().unwrap();
    let full_bytes = full_reader.bytes_read();
    let push_reader = Store::open(&dir).unwrap();
    push_reader
        .load_matching(&PredExpr::lt("seed", meta_cut))
        .unwrap();
    let push_bytes = push_reader.bytes_read();

    println!("\n| end-to-end (mixed predicate) | median | bytes_read |");
    println!("|---|---|---|");
    println!("| full load, filter post-compose | {full_ms:.0} ms | {full_bytes} |");
    println!(
        "| planner split ({} kept) | {planned_ms:.0} ms | {push_bytes} |",
        planned.profiles().len()
    );
    println!("\nplan: {plan}");
    println!(
        "bytes ratio {:.2}x, end-to-end {:.2}x\n",
        full_bytes as f64 / push_bytes as f64,
        full_ms / planned_ms
    );
}

/// W5: pinned vs unpinned reads. `Snapshot` derefs to `StoreReader`,
/// so both columns time the identical load path — the delta is the
/// lease write + handle pinning at open, amortized over the read.
fn pinning_workload(profiles: &[thicket_perfsim::Profile], n: u64) {
    let meta_cut = (n / 10).max(1) as i64;
    println!("## W5: snapshot pinning, {n}-profile store (pinned vs unpinned)\n");
    let dir = ScratchDir::new("payloadbench-w5");
    Store::save(&dir, profiles).unwrap();

    let expr = PredExpr::lt("seed", meta_cut);
    let expect = meta_cut.min(n as i64) as usize;
    let full_plain = median_ms(|| {
        let (p, rep) = Store::open(&dir).unwrap().load_all().unwrap();
        assert!(rep.is_clean());
        assert_eq!(p.len() as u64, n);
    });
    let full_pinned = median_ms(|| {
        let (p, rep) = Store::open_pinned(&dir).unwrap().load_all().unwrap();
        assert!(rep.is_clean());
        assert_eq!(p.len() as u64, n);
    });
    let push_plain = median_ms(|| {
        let reader = Store::open(&dir).unwrap();
        let selected = reader.select_expr(&expr).unwrap();
        let (p, _) = reader.load_indices(&selected, 1).unwrap();
        assert_eq!(p.len(), expect);
    });
    let push_pinned = median_ms(|| {
        let snap = Store::open_pinned(&dir).unwrap();
        let selected = snap.select_expr(&expr).unwrap();
        let (p, _) = snap.load_indices(&selected, 1).unwrap();
        assert_eq!(p.len(), expect);
    });

    println!("| workload | unpinned | pinned | overhead |");
    println!("|---|---|---|---|");
    println!(
        "| full load ({n} profiles) | {full_plain:.1} ms | {full_pinned:.1} ms | {:+.1}% |",
        (full_pinned / full_plain - 1.0) * 1e2
    );
    println!(
        "| pushdown load ({expect} of {n}) | {push_plain:.2} ms | {push_pinned:.2} ms | {:+.1}% |",
        (push_pinned / push_plain - 1.0) * 1e2
    );
    println!();
}
