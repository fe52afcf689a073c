//! One-shot measurement behind the EXPERIMENTS.md "Store format v2"
//! numbers: at 2,000 profiles, compare the v1 row manifest against the
//! v2 columnar manifest on (a) open/parse time, (b) pushdown selection
//! time, and (c) bytes actually read for a 10-of-2000 selection.
//!
//! Run with `cargo run --release -p thicket-bench --example pushdown_probe`.

use std::time::Instant;
use thicket_bench::data;
use thicket_dataframe::PredExpr;
use thicket_perfsim::{ManifestVersion, Store, StoreOptions};

fn main() {
    let n = 2000;
    let profiles = data::quartz_runs(n, 1_048_576);
    let pred = PredExpr::lt("seed", 10i64);

    for (label, format) in [("v1", ManifestVersion::V1), ("v2", ManifestVersion::V2)] {
        let dir = std::env::temp_dir().join(format!("thicket-pushdown-probe-{label}"));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            format,
            ..StoreOptions::default()
        };
        Store::save_opts(&dir, &profiles, &opts).unwrap();

        // (a) open = read + verify + parse the manifest.
        let t = Instant::now();
        let reader = Store::open(&dir).unwrap();
        let open_ms = t.elapsed().as_secs_f64() * 1e3;
        let manifest_bytes = reader.bytes_read();

        // (b) selection only (no shard I/O).
        let t = Instant::now();
        let selected = reader.select_expr(&pred).unwrap();
        let select_ms = t.elapsed().as_secs_f64() * 1e3;

        // (c) full pushdown load; bytes_read includes the manifest.
        let reader = Store::open(&dir).unwrap();
        let t = Instant::now();
        let (loaded, report) = reader.load_matching(&pred).unwrap();
        let load_ms = t.elapsed().as_secs_f64() * 1e3;
        assert!(report.is_clean());
        assert_eq!(loaded.len(), 10);
        assert_eq!(selected.len(), 10);

        // Reference: what a full load reads.
        let full = Store::open(&dir).unwrap();
        full.load_all().unwrap();

        println!(
            "{label}: manifest {manifest_bytes} B, open {open_ms:.2} ms, \
             select {select_ms:.3} ms, pushdown load {load_ms:.2} ms, \
             pushdown bytes {} B vs full load {} B",
            reader.bytes_read(),
            full.bytes_read(),
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
