//! The paper's first case study (§5.1): top-down analysis and K-means
//! clustering of the RAJA Performance Suite on Quartz.
//!
//! Reproduces the shape of Figure 10 (clusters of "Stream" kernels over
//! compiler optimization levels) and Figure 14 (top-down boundedness per
//! kernel and problem size).
//!
//! ```sh
//! cargo run --example rajaperf_topdown
//! ```

use thicket::prelude::*;
use thicket_learn::{kmeans, silhouette_score, KMeansConfig, StandardScaler};

fn main() {
    // ---- Figure 14: top-down metrics vs problem size -------------------
    let sizes = [1_048_576u64, 2_097_152, 4_194_304, 8_388_608];
    let mut profiles = Vec::new();
    for &size in &sizes {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.problem_size = size;
        cfg.seed = size;
        profiles.push(simulate_cpu_run(&cfg));
    }
    let tk = Thicket::loader(&profiles)
        .profile_ids(&sizes.iter().map(|&s| Value::Int(s as i64)).collect::<Vec<_>>())
        .load()
        .expect("compose")
        .0;

    println!("top-down boundedness by kernel and problem size:");
    println!("{:<28} {:>9}  {:>8}  {:>8}", "kernel", "size", "retiring", "backend");
    for kernel in ["Apps_NODAL_ACCUMULATION_3D", "Apps_VOL3D", "Lcals_HYDRO_1D", "Stream_DOT"] {
        let node = tk.find_node(kernel).expect("kernel node");
        for &size in &sizes {
            let profile = Value::Int(size as i64);
            let ret = tk.metric_at(node, &profile, &ColKey::new("Retiring")).unwrap();
            let be = tk.metric_at(node, &profile, &ColKey::new("Backend bound")).unwrap();
            println!("{kernel:<28} {size:>9}  {ret:>8.3}  {be:>8.3}");
        }
    }

    // ---- Figure 10: K-means over Stream kernels × opt levels -----------
    // Four profiles at size 8388608, one per -O level.
    let mut opt_profiles = Vec::new();
    for opt in 0..=3u32 {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.problem_size = 8_388_608;
        cfg.opt_level = opt;
        cfg.seed = 100 + opt as u64;
        opt_profiles.push(simulate_cpu_run(&cfg));
    }
    let opt_tk = Thicket::loader(&opt_profiles)
        .profile_ids(&(0..4).map(Value::Int).collect::<Vec<_>>())
        .load()
        .expect("compose")
        .0;

    // Query out the Stream kernels (the paper uses the query language).
    let q = Query::builder()
        .any("*")
        .node(".", pred::name_starts_with("Stream_"))
        .build();
    let streams = opt_tk.query(&q);

    // Speedup relative to -O0, plus top-down features, per (kernel, opt).
    let kernels = ["Stream_ADD", "Stream_COPY", "Stream_DOT", "Stream_MUL", "Stream_TRIAD"];
    let mut rows: Vec<(String, i64, Vec<f64>)> = Vec::new();
    for kernel in kernels {
        let node = streams.find_node(kernel).expect("stream kernel");
        let t0 = streams
            .metric_at(node, &Value::Int(0), &ColKey::new("time (exc)"))
            .expect("baseline time");
        for opt in 0..4i64 {
            let p = Value::Int(opt);
            let t = streams.metric_at(node, &p, &ColKey::new("time (exc)")).unwrap();
            let ret = streams.metric_at(node, &p, &ColKey::new("Retiring")).unwrap();
            let be = streams.metric_at(node, &p, &ColKey::new("Backend bound")).unwrap();
            rows.push((kernel.to_string(), opt, vec![t0 / t, ret, be]));
        }
    }

    // StandardScaler → silhouette scan → K-means (the paper's pipeline).
    let features: Vec<Vec<f64>> = rows.iter().map(|(_, _, f)| f.clone()).collect();
    let (_, scaled) = StandardScaler::fit_transform(&features);
    let mut best = (2, f64::MIN);
    for k in 2..=6 {
        let km = kmeans(&scaled, &KMeansConfig::new(k).with_seed(17));
        if let Some(s) = silhouette_score(&scaled, &km.labels) {
            if s > best.1 {
                best = (k, s);
            }
        }
    }
    println!("\nsilhouette selects k = {} (score {:.3})", best.0, best.1);
    let km = kmeans(&scaled, &KMeansConfig::new(best.0).with_seed(17));

    println!("{:<14} {:>4} {:>9} {:>9} {:>9}  cluster", "kernel", "opt", "speedup", "retiring", "backend");
    for ((kernel, opt, f), label) in rows.iter().zip(km.labels.iter()) {
        println!(
            "{kernel:<14} -O{opt} {:>9.3} {:>9.3} {:>9.3}  {label}",
            f[0], f[1], f[2]
        );
    }

    // The paper's conclusion: -O2 is the best level for every kernel.
    for kernel in kernels {
        let mut times: Vec<(i64, f64)> = rows
            .iter()
            .filter(|(k, _, _)| k == kernel)
            .map(|(_, o, f)| (*o, f[0]))
            .collect();
        times.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("{kernel}: best optimization level is -O{}", times[0].0);
    }
}
