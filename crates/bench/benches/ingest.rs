//! Criterion benchmarks for the ingest fast path: serial vs parallel
//! loader row assembly, and the pairwise-chain vs single-pass
//! k-way join kernel, at 10/100/560-profile scale (560 is the Figure 13
//! study size).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use thicket_bench::data;
use thicket_core::Thicket;
use thicket_dataframe::{join_many, join_many_pairwise, Column, DataFrame, Index, JoinHow, Value};
use thicket_perfsim::default_threads;

fn bench_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("ingest");
    for &n in &[10u64, 100, 560] {
        let profiles = data::quartz_runs(n, 1_048_576);
        let ids: Vec<Value> = (0..profiles.len() as i64).map(Value::Int).collect();
        let input = (profiles, ids);
        group.bench_with_input(
            BenchmarkId::new("serial", n),
            &input,
            |b, (profiles, ids)| {
                b.iter(|| {
                    Thicket::loader(profiles)
                        .profile_ids(ids)
                        .threads(1)
                        .load()
                        .unwrap()
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parallel", n),
            &input,
            |b, (profiles, ids)| {
                // Force the threaded path even on a single-core host so
                // the bench always measures it (overhead there, speedup
                // on multicore) instead of silently re-running serial.
                let threads = default_threads(profiles.len()).max(2);
                b.iter(|| {
                    Thicket::loader(profiles)
                        .profile_ids(ids)
                        .threads(threads)
                        .load()
                        .unwrap()
                });
            },
        );
    }
    group.finish();
}

/// One float frame per profile, all keyed by the same node-id level —
/// the shape `concat_thickets` feeds the join kernel.
fn metric_frames(n_frames: usize, n_rows: usize) -> Vec<DataFrame> {
    (0..n_frames)
        .map(|f| {
            // Stagger key sets so Outer has genuine novel keys per frame.
            let keys: Vec<i64> = (0..n_rows as i64).map(|r| r + f as i64).collect();
            let vals: Vec<f64> = keys.iter().map(|k| *k as f64 + f as f64 * 0.5).collect();
            let mut df = DataFrame::new(Index::single("node", keys));
            df.insert(format!("m{f}"), Column::from_f64(vals)).unwrap();
            df
        })
        .collect()
}

fn bench_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_many");
    for &n in &[10usize, 100, 560] {
        let frames = metric_frames(n, 600);
        let refs: Vec<&DataFrame> = frames.iter().collect();
        group.bench_with_input(BenchmarkId::new("pairwise", n), &refs, |b, refs| {
            b.iter(|| join_many_pairwise(refs, JoinHow::Outer).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("kway", n), &refs, |b, refs| {
            b.iter(|| join_many(refs, JoinHow::Outer).unwrap());
        });
    }
    group.finish();
}

/// Sharded-store read path vs the JSON ensemble directory: full loads
/// at equal profile counts, plus the metadata-pushdown read that skips
/// whole shards (the predicate selects 10 of n profiles).
fn bench_store(c: &mut Criterion) {
    use thicket_dataframe::PredExpr;
    use thicket_perfsim::{load_dir, save_ensemble, ScratchDir, Store, Strictness};

    let mut group = c.benchmark_group("store");
    group.sample_size(10);
    for &n in &[100u64, 560] {
        let profiles = data::quartz_runs(n, 1_048_576);
        let json_dir = ScratchDir::new(&format!("bench-json-{n}"));
        let store_dir = ScratchDir::new(&format!("bench-store-{n}"));
        save_ensemble(&json_dir, &profiles).unwrap();
        Store::save(&store_dir, &profiles).unwrap();

        group.bench_with_input(BenchmarkId::new("load_dir", n), &json_dir, |b, dir| {
            b.iter(|| load_dir(dir, None, Strictness::FailFast).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("load_all", n), &store_dir, |b, dir| {
            b.iter(|| Store::open(dir).unwrap().load_all().unwrap());
        });
        group.bench_with_input(BenchmarkId::new("load_matching", n), &store_dir, |b, dir| {
            b.iter(|| {
                Store::open(dir)
                    .unwrap()
                    .load_matching(&PredExpr::lt("seed", 10i64))
                    .unwrap()
            });
        });
    }

    // Write-path maintenance at a fixed scale: append a small batch on
    // top of an existing generation (no rewrite of old shards) vs
    // re-saving everything, and compacting a fragmented store.
    {
        let base = data::quartz_runs(200, 1_048_576);
        let batch = data::quartz_runs_seeded(10, 1_048_576, 10_000);
        group.bench_function("append_10_onto_200", |b| {
            let dir = ScratchDir::new("bench-append");
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                Store::save(&dir, &base).unwrap();
                Store::append(&dir, &batch).unwrap()
            });
        });
        group.bench_function("compact_200_fragmented", |b| {
            let dir = ScratchDir::new("bench-compact");
            let frag = thicket_perfsim::StoreOptions {
                shard_bytes: 1, // one shard per profile: worst-case fragmentation
                ..thicket_perfsim::StoreOptions::default()
            };
            b.iter(|| {
                let _ = std::fs::remove_dir_all(&dir);
                Store::save_opts(&dir, &base, &frag).unwrap();
                Store::compact(&dir).unwrap()
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ingest, bench_join, bench_store);
criterion_main!(benches);
