//! Workload generators for the figure regenerators: the exact ensembles
//! the paper's evaluation collected (Figure 13 and Figure 16
//! configuration tables).

use thicket_core::Thicket;
use thicket_dataframe::Value;
use thicket_perfsim::{
    marbl_ensemble, simulate_cpu_run, simulate_gpu_run, Compiler, CpuRunConfig, GpuRunConfig,
    Profile, Variant,
};

/// The paper's four RAJA problem sizes.
pub const SIZES: [u64; 4] = [1_048_576, 2_097_152, 4_194_304, 8_388_608];

/// The paper's CUDA block sizes (Figure 13 row 4).
pub const BLOCK_SIZES: [u32; 4] = [128, 256, 512, 1024];

/// One row of the Figure 13 configuration table.
#[derive(Debug, Clone)]
pub struct RajaConfigRow {
    /// Cluster name.
    pub cluster: &'static str,
    /// System type.
    pub systype: &'static str,
    /// Problem sizes swept.
    pub problem_sizes: Vec<u64>,
    /// CPU compiler.
    pub compiler: String,
    /// `-O` levels swept.
    pub optimizations: Vec<u32>,
    /// OpenMP threads.
    pub omp_threads: u32,
    /// CUDA compiler (GPU rows only).
    pub cuda_compiler: Option<String>,
    /// CUDA block sizes (GPU rows only).
    pub block_sizes: Vec<u32>,
    /// RAJA variant.
    pub variant: &'static str,
    /// Total profiles this row contributes (10 runs per configuration).
    pub profiles: usize,
}

/// The five experiment configurations of Figure 13 (560 profiles total).
pub fn figure13_configs() -> Vec<RajaConfigRow> {
    let seq = |compiler: String| RajaConfigRow {
        cluster: "quartz",
        systype: "toss_3_x86_64_ib",
        problem_sizes: SIZES.to_vec(),
        compiler,
        optimizations: vec![0, 1, 2, 3],
        omp_threads: 1,
        cuda_compiler: None,
        block_sizes: vec![],
        variant: "Sequential",
        profiles: 4 * 4 * 10,
    };
    let omp = |compiler: String| RajaConfigRow {
        cluster: "quartz",
        systype: "toss_3_x86_64_ib",
        problem_sizes: SIZES.to_vec(),
        compiler,
        optimizations: vec![0],
        omp_threads: 72,
        cuda_compiler: None,
        block_sizes: vec![],
        variant: "OpenMP",
        profiles: 4 * 10,
    };
    vec![
        seq(Compiler::clang9().name),
        seq(Compiler::gcc8().name),
        omp(Compiler::clang9().name),
        omp(Compiler::gcc8().name),
        RajaConfigRow {
            cluster: "lassen",
            systype: "blueos_3_ppc64le_ib_p9",
            problem_sizes: SIZES.to_vec(),
            compiler: Compiler::xl16().name,
            optimizations: vec![0],
            omp_threads: 1,
            cuda_compiler: Some("nvcc-11.2.152".into()),
            block_sizes: BLOCK_SIZES.to_vec(),
            variant: "CUDA",
            profiles: 4 * 4 * 10,
        },
    ]
}

/// Generate the full Figure 13 ensemble (all 560 profiles).
pub fn figure13_profiles() -> Vec<Profile> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    for row in figure13_configs() {
        for &size in &row.problem_sizes {
            match row.variant {
                "CUDA" => {
                    for &block in &row.block_sizes {
                        for _run in 0..10 {
                            let mut cfg = GpuRunConfig::lassen_default();
                            cfg.block_size = block;
                            cfg.problem_size = size;
                            cfg.seed = seed;
                            seed += 1;
                            out.push(simulate_gpu_run(&cfg));
                        }
                    }
                }
                variant => {
                    for &opt in &row.optimizations {
                        for _run in 0..10 {
                            let mut cfg = CpuRunConfig::quartz_default();
                            cfg.compiler = if row.compiler.starts_with("clang") {
                                Compiler::clang9()
                            } else {
                                Compiler::gcc8()
                            };
                            cfg.opt_level = opt;
                            cfg.threads = row.omp_threads;
                            cfg.variant = if variant == "OpenMP" {
                                Variant::OpenMp
                            } else {
                                Variant::Sequential
                            };
                            cfg.problem_size = size;
                            cfg.seed = seed;
                            seed += 1;
                            out.push(simulate_cpu_run(&cfg));
                        }
                    }
                }
            }
        }
    }
    out
}

/// A small Quartz ensemble: `runs` repetitions at one configuration.
pub fn quartz_runs(runs: u64, problem_size: u64) -> Vec<Profile> {
    (0..runs)
        .map(|seed| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.problem_size = problem_size;
            cfg.seed = seed;
            simulate_cpu_run(&cfg)
        })
        .collect()
}

/// One Quartz profile per problem size, thicket-composed and indexed by
/// size.
pub fn cpu_by_size_thicket() -> Thicket {
    let profiles: Vec<Profile> = SIZES
        .iter()
        .map(|&s| {
            let mut cfg = CpuRunConfig::quartz_default();
            cfg.problem_size = s;
            cfg.seed = s;
            simulate_cpu_run(&cfg)
        })
        .collect();
    Thicket::loader(&profiles)
        .profile_ids(&SIZES.iter().map(|&s| Value::Int(s as i64)).collect::<Vec<_>>())
        .load()
        .expect("compose")
        .0
}

/// One Lassen CUDA profile per problem size, indexed by size.
pub fn gpu_by_size_thicket() -> Thicket {
    let profiles: Vec<Profile> = SIZES
        .iter()
        .map(|&s| {
            let mut cfg = GpuRunConfig::lassen_default();
            cfg.problem_size = s;
            cfg.seed = s;
            simulate_gpu_run(&cfg)
        })
        .collect();
    Thicket::loader(&profiles)
        .profile_ids(&SIZES.iter().map(|&s| Value::Int(s as i64)).collect::<Vec<_>>())
        .load()
        .expect("compose")
        .0
}

/// The MARBL study ensemble (Figure 16): both clusters × six node counts
/// × five runs.
pub fn marbl_study() -> Vec<Profile> {
    marbl_ensemble(&[1, 2, 4, 8, 16, 32], 5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure13_totals() {
        let rows = figure13_configs();
        assert_eq!(rows.len(), 5);
        let total: usize = rows.iter().map(|r| r.profiles).sum();
        assert_eq!(total, 560); // 160 + 160 + 40 + 40 + 160
    }

    #[test]
    fn figure13_profiles_match_declared_counts() {
        let profiles = figure13_profiles();
        assert_eq!(profiles.len(), 560);
        let cuda = profiles
            .iter()
            .filter(|p| p.metadata("variant").unwrap().as_str() == Some("CUDA"))
            .count();
        assert_eq!(cuda, 160);
    }

    #[test]
    fn size_thickets_have_four_profiles() {
        assert_eq!(cpu_by_size_thicket().profiles().len(), 4);
        assert_eq!(gpu_by_size_thicket().profiles().len(), 4);
    }

    #[test]
    fn marbl_study_size() {
        assert_eq!(marbl_study().len(), 60);
    }
}
