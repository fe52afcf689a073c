//! PERF.md workload driver: medians for the canonical store-format and
//! ingest experiments, printed as ready-to-paste markdown.
//!
//! ```sh
//! cargo run -p thicket-bench --release --example payload_bench            # all workloads, 2000 profiles
//! cargo run -p thicket-bench --release --example payload_bench -- 600    # smaller ensemble
//! cargo run -p thicket-bench --release --example payload_bench -- 60 w4  # W4 smoke only
//! ```
//!
//! Workloads (one change per experiment):
//!
//! * **W1 — store load, v2 vs v3**: the same 2,000-profile RAJAPerf
//!   ensemble saved under v2 (JSON payloads) and v3 (binary columnar
//!   payloads), timed through the identical `load_all` path. The only
//!   variable is the per-record decode.
//! * **W2 — pushdown read**: same stores, `seed < 10` predicate (10 of
//!   2,000 kept), plus the `bytes_read` accounting for each.
//! * **W3 — threaded ingest**: thicket assembly from 560 in-memory
//!   profiles at 1/2/4/8 worker threads (the multicore scaling curve;
//!   on a single-core host this measures the fan-out overhead floor).
//! * **W4 — predicate engine**: the same predicates evaluated by the
//!   per-row walk and by the vectorized bitmap evaluator, over store
//!   metadata (selection only) and over the composed perf frame, plus
//!   the end-to-end planner split (metadata conjunct pushed below the
//!   shard read, frame conjunct applied post-compose) vs a full load.
//! * **W5 — snapshot pinning**: the W1 full load and the W2-style
//!   pushdown read through a plain reader vs a generation-pinned
//!   snapshot (`Store::open_pinned`: lease file + held shard handles).
//!   The only variable is the pinning layer; it must be ~free.

use std::time::Instant;
use thicket_core::{LoadSource, Thicket};
use thicket_dataframe::{ColKey, PredExpr, Value};
use thicket_perfsim::{ManifestVersion, Store, StoreOptions};

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
        store_format_workloads(&profiles, n);
        threaded_ingest_workload(&profiles, n, nproc);
    }
    predicate_engine_workload(&profiles, n);
    if !w4_only {
        pinning_workload(&profiles, n);
    }
    eprintln!("done");
}

/// W1 + W2: v2 vs v3 full load and metadata pushdown.
fn store_format_workloads(profiles: &[thicket_perfsim::Profile], n: u64) {
    println!("## Store payload format: v2 (JSON) vs v3 (binary), {n} profiles\n");
    let mut dirs = Vec::new();
    let mut store_bytes = Vec::new();
    for (name, version) in [("v2", ManifestVersion::V2), ("v3", ManifestVersion::V3)] {
        let dir = std::env::temp_dir().join(format!("thicket-payloadbench-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            format: version,
            ..StoreOptions::default()
        };
        let t = Instant::now();
        Store::save_opts(&dir, profiles, &opts).unwrap();
        let save_ms = t.elapsed().as_secs_f64() * 1e3;
        let bytes: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().metadata().unwrap().len())
            .sum();
        println!("- {name}: save {save_ms:.0} ms, {:.1} MiB on disk", bytes as f64 / (1 << 20) as f64);
        dirs.push((name, dir));
        store_bytes.push(bytes);
    }
    println!();
    println!("| workload | v2 median | v3 median | speedup |");
    println!("|---|---|---|---|");

    let mut full = Vec::new();
    let mut push = Vec::new();
    let mut push_bytes = Vec::new();
    for (_, dir) in &dirs {
        full.push(median_ms(|| {
            let (p, rep) = Store::open(dir).unwrap().load_all().unwrap();
            assert!(rep.is_clean());
            assert_eq!(p.len() as u64, n);
        }));
        let reader = Store::open(dir).unwrap();
        let (kept, _) = reader.load_matching(&PredExpr::lt("seed", 10i64)).unwrap();
        assert_eq!(kept.len(), 10);
        push_bytes.push(reader.bytes_read());
        push.push(median_ms(|| {
            let (p, _) = Store::open(dir).unwrap().load_matching(&PredExpr::lt("seed", 10i64)).unwrap();
            assert_eq!(p.len(), 10);
        }));
    }
    println!(
        "| full load ({n} profiles) | {:.0} ms | {:.0} ms | {:.2}x |",
        full[0], full[1], full[0] / full[1]
    );
    println!(
        "| pushdown load (10 of {n}) | {:.1} ms | {:.1} ms | {:.2}x |",
        push[0], push[1], push[0] / push[1]
    );
    println!(
        "\npushdown bytes_read: v2 {} / v3 {}; store size: v2 {:.1} MiB / v3 {:.1} MiB ({:.2}x)\n",
        push_bytes[0],
        push_bytes[1],
        store_bytes[0] as f64 / (1 << 20) as f64,
        store_bytes[1] as f64 / (1 << 20) as f64,
        store_bytes[0] as f64 / store_bytes[1] as f64,
    );
    for (_, dir) in &dirs {
        std::fs::remove_dir_all(dir).ok();
    }
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
    let dir = std::env::temp_dir().join("thicket-payloadbench-w4");
    let _ = std::fs::remove_dir_all(&dir);
    Store::save_opts(
        &dir,
        profiles,
        &StoreOptions {
            format: ManifestVersion::V3,
            ..StoreOptions::default()
        },
    )
    .unwrap();

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

    std::fs::remove_dir_all(&dir).ok();
}

/// W5: pinned vs unpinned reads. `Snapshot` derefs to `StoreReader`,
/// so both columns time the identical load path — the delta is the
/// lease write + handle pinning at open, amortized over the read.
fn pinning_workload(profiles: &[thicket_perfsim::Profile], n: u64) {
    let meta_cut = (n / 10).max(1) as i64;
    println!("## W5: snapshot pinning, {n}-profile v3 store (pinned vs unpinned)\n");
    let dir = std::env::temp_dir().join("thicket-payloadbench-w5");
    let _ = std::fs::remove_dir_all(&dir);
    Store::save_opts(
        &dir,
        profiles,
        &StoreOptions {
            format: ManifestVersion::V3,
            ..StoreOptions::default()
        },
    )
    .unwrap();

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
    std::fs::remove_dir_all(&dir).ok();
}
