//! Multi-architecture analysis (paper §5.1.2, Figures 4 and 15): compose
//! a CPU thicket and a GPU thicket along the column axis and derive the
//! CPU→GPU speedup per kernel.
//!
//! ```sh
//! cargo run --example multi_arch
//! ```

use thicket::prelude::*;

fn main() {
    let sizes = [1_048_576u64, 4_194_304, 8_388_608];

    // One CPU profile (Quartz) and one GPU profile (Lassen) per size.
    let cpu_profiles: Vec<_> = sizes
        .iter()
        .map(|&s| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.problem_size = s;
            cfg.seed = s;
            simulate_cpu_run(&cfg)
        })
        .collect();
    let gpu_profiles: Vec<_> = sizes
        .iter()
        .map(|&s| {
            let mut cfg = GpuRunConfig::lassen_default();
            cfg.problem_size = s;
            cfg.seed = s;
            simulate_gpu_run(&cfg)
        })
        .collect();

    // Build one thicket per architecture and re-index profiles by the
    // problem size so the two ensembles share a secondary index.
    let cpu = Thicket::loader(&cpu_profiles).load()
        .unwrap()
        .0
        .reindex_profiles_by(&ColKey::new("problem size"))
        .unwrap();
    let gpu = Thicket::loader(&gpu_profiles).load()
        .unwrap()
        .0
        .reindex_profiles_by(&ColKey::new("problem size"))
        .unwrap();

    // Hierarchical composition with a (CPU, GPU) column index; the CPU
    // tree (Base_Seq) and GPU tree (Base_CUDA) differ in shape, so nodes
    // match by kernel name, as the paper's cross-tool table does.
    let mut composed = concat_thickets(&[("CPU", &cpu), ("GPU", &gpu)], NodeMatch::Name)
        .expect("column-axis composition");

    // The derived speedup column of Figure 15: CPU time (exc) / GPU time.
    composed
        .add_derived_column(ColKey::grouped("Derived", "speedup"), |r| {
            match (
                r.f64(ColKey::grouped("CPU", "time (exc)")),
                r.f64(ColKey::grouped("GPU", "time (gpu)")),
            ) {
                (Some(c), Some(g)) if g > 0.0 => Value::Float(c / g),
                _ => Value::Null,
            }
        })
        .expect("derived column");

    // Print the Figure 15 table for the two featured kernels.
    let view = composed
        .perf_data_named()
        .sort_by_index()
        .select(&[
            ColKey::grouped("CPU", "time (exc)"),
            ColKey::grouped("CPU", "Retiring"),
            ColKey::grouped("CPU", "Backend bound"),
            ColKey::grouped("GPU", "time (gpu)"),
            ColKey::grouped("GPU", "gpu__dram_throughput"),
            ColKey::grouped("GPU", "sm__throughput"),
            ColKey::grouped("Derived", "speedup"),
        ])
        .unwrap()
        .filter(|r| {
            matches!(
                r.level("node").as_str(),
                Some("Apps_VOL3D") | Some("Lcals_HYDRO_1D")
            )
        });
    println!("{view}");

    // The paper's finding: VOL3D (compute-heavy, high retiring) gains
    // more from the GPU than HYDRO_1D (backend bound, bandwidth-limited).
    let speedup = ColKey::grouped("Derived", "speedup");
    let speedup_at = |kernel: &str, size: i64| -> f64 {
        let node = composed.find_node(kernel).expect("a composed kernel");
        composed
            .metric_at(node, &Value::Int(size), &speedup)
            .unwrap_or(f64::NAN)
    };
    let vol = speedup_at("Apps_VOL3D", 8_388_608);
    let hydro = speedup_at("Lcals_HYDRO_1D", 8_388_608);
    println!("speedup at 8388608: Apps_VOL3D = {vol:.2}x, Lcals_HYDRO_1D = {hydro:.2}x");
    assert!(vol > hydro, "VOL3D should gain more on the GPU");
}
