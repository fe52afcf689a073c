//! One regenerator per table/figure of the paper (DESIGN.md experiment
//! index). Each produces a text artifact and, where the original is
//! graphical, SVG artifacts.

use crate::data;
use thicket_core::{concat_thickets, model_metric, NodeMatch, Thicket};
use thicket_dataframe::{render, AggFn, ColKey, Value};
use thicket_graph::{Frame, Graph};
use thicket_learn::{kmeans, silhouette_score, KMeansConfig, StandardScaler};
use thicket_perfsim::{simulate_gpu_run, GpuRunConfig, Profile};
use thicket_query::{pred, Query};
use thicket_viz::{
    heatmap_chart, histogram_chart, line_chart, parallel_coordinates, scatter_chart,
    stacked_bars, AxisScale, BarStack, ChartOptions, PcpAxis, Series,
};

/// One regenerated artifact.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Experiment id (`fig04`, ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The regenerated table/series, as text.
    pub text: String,
    /// Named SVG artifacts.
    pub svgs: Vec<(String, String)>,
}

/// Regenerate every figure, in paper order.
pub fn all_figures() -> Vec<FigureReport> {
    vec![
        fig02(),
        fig03(),
        fig04(),
        fig05(),
        fig06(),
        fig07(),
        fig08(),
        fig09(),
        fig10(),
        fig11(),
        fig12(),
        fig13(),
        fig14(),
        fig15(),
        fig16(),
        fig17(),
        fig18(),
    ]
}

/// Figure 2: the relation between call-tree nodes and performance-data /
/// metadata / statistics rows, on the paper's toy MAIN/FOO/BAR/BAZ code.
pub fn fig02() -> FigureReport {
    let make_profile = |run: i64| {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("MAIN"));
        let region_a = g.add_child(main, Frame::named("FOO"));
        let region_b = g.add_child(main, Frame::named("BAR"));
        let leaf = g.add_child(region_a, Frame::named("BAZ"));
        let mut p = Profile::new(g);
        p.set_metadata("user", if run == 1 { "John" } else { "Jane" });
        p.set_metadata("run", run);
        for (i, id) in [main, region_a, region_b, leaf].into_iter().enumerate() {
            p.set_metric(id, "time", (4 - i) as f64 * run as f64 * 0.5);
            p.set_metric(id, "L1 cache misses", (i as f64 + 1.0) * 1000.0 * run as f64);
        }
        p
    };
    let mut tk = Thicket::loader(&[make_profile(1), make_profile(2)])
        .profile_ids(&[Value::Int(1), Value::Int(2)])
        .load()
        .expect("toy thicket")
        .0;
    tk.compute_stats_all(AggFn::Mean).expect("stats");

    let mut text = String::new();
    text.push_str("(A) call tree:\n");
    text.push_str(&thicket_viz::render_tree(tk.graph(), |_| None));
    text.push_str("\n(C) multi-profile performance data (two rows per node):\n");
    text.push_str(&render(&tk.perf_data_named()));
    text.push_str("\n(D) metadata (one row per profile):\n");
    text.push_str(&render(tk.metadata()));
    text.push_str("\n(E) aggregated statistics (one row per node):\n");
    text.push_str(&render(&tk.statsframe_named()));
    FigureReport {
        id: "fig02",
        title: "Call tree vs thicket component rows",
        text,
        svgs: vec![],
    }
}

/// Figure 3: the entity-relationship keys linking the three components.
pub fn fig03() -> FigureReport {
    let tk = Thicket::loader(data::quartz_runs(2, 1_048_576)).load().expect("thicket").0;
    let mut text = String::new();
    text.push_str("component keys (bold/fixed in the paper's ER diagram):\n");
    text.push_str(&format!(
        "  performance data : primary key ({})\n",
        tk.perf_data().index().names().join(", ")
    ));
    text.push_str(&format!(
        "  metadata         : primary key ({})\n",
        tk.metadata().index().names().join(", ")
    ));
    text.push_str("  statsframe       : primary key (node)\n");
    text.push_str("relations:\n");
    text.push_str("  metadata.profile   1 -> N  perf_data.(node, profile)\n");
    text.push_str("  statsframe.node    1 -> N  perf_data.(node, profile)\n");
    FigureReport {
        id: "fig03",
        title: "Thicket component entity relationships",
        text,
        svgs: vec![],
    }
}

/// Figure 4: CPU and GPU thickets composed on a (kernel, problem size)
/// hierarchical index with a two-level (CPU | GPU) column header.
pub fn fig04() -> FigureReport {
    let sizes = [1_048_576i64, 4_194_304];
    let cpu = data::cpu_by_size_thicket()
        .filter_profiles(&sizes.iter().map(|&s| Value::Int(s)).collect::<Vec<_>>());
    let gpu = data::gpu_by_size_thicket()
        .filter_profiles(&sizes.iter().map(|&s| Value::Int(s)).collect::<Vec<_>>());
    let composed =
        concat_thickets(&[("CPU", &cpu), ("GPU", &gpu)], NodeMatch::Name).expect("compose");
    let view = composed
        .perf_data_named()
        .sort_by_index()
        .select(&[
            ColKey::grouped("CPU", "time (exc)"),
            ColKey::grouped("CPU", "Reps"),
            ColKey::grouped("CPU", "Retiring"),
            ColKey::grouped("CPU", "Backend bound"),
            ColKey::grouped("GPU", "time (gpu)"),
            ColKey::grouped("GPU", "gpu__compute_memory_throughput"),
            ColKey::grouped("GPU", "gpu__dram_throughput"),
            ColKey::grouped("GPU", "sm__throughput"),
        ])
        .expect("columns")
        .filter(|r| {
            matches!(
                r.level("node").as_str(),
                Some("Apps_NODAL_ACCUMULATION_3D")
                    | Some("Apps_VOL3D")
                    | Some("Lcals_HYDRO_1D")
                    | Some("Stream_DOT")
            )
        });
    FigureReport {
        id: "fig04",
        title: "Composed CPU/GPU performance data, problem-size secondary index",
        text: render(&view),
        svgs: vec![],
    }
}

fn figure5_thicket() -> Thicket {
    use thicket_perfsim::{simulate_cpu_run, Compiler, CpuRunConfig};
    let mut profiles = Vec::new();
    let specs = [
        (Compiler::clang9(), 1_048_576u64, "John", "2022-11-30 02:09:27"),
        (Compiler::xl16(), 4_194_304, "John", "2022-11-16 00:53:01"),
        (Compiler::xl16(), 1_048_576, "Jane", "2022-11-16 00:45:08"),
        (Compiler::clang9(), 4_194_304, "John", "2022-11-30 02:17:27"),
    ];
    for (i, (compiler, size, user, date)) in specs.into_iter().enumerate() {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.compiler = compiler;
        cfg.problem_size = size;
        cfg.user = user.into();
        cfg.launchdate = date.into();
        cfg.seed = i as u64;
        profiles.push(simulate_cpu_run(&cfg));
    }
    Thicket::loader(&profiles).load().expect("figure 5 thicket").0
}

/// Figure 5: the metadata table of four RAJA profiles on two clusters.
pub fn fig05() -> FigureReport {
    let tk = figure5_thicket();
    let view = tk
        .metadata()
        .select(&[
            ColKey::new("problem size"),
            ColKey::new("compiler"),
            ColKey::new("raja version"),
            ColKey::new("cluster"),
            ColKey::new("launchdate"),
            ColKey::new("user"),
        ])
        .expect("metadata columns");
    FigureReport {
        id: "fig05",
        title: "Metadata table of four RAJA Performance Suite profiles",
        text: render(&view),
        svgs: vec![],
    }
}

/// Figure 6: `filter_metadata(compiler == clang-9.0.0)`.
pub fn fig06() -> FigureReport {
    let tk = figure5_thicket();
    let filtered = tk.filter_metadata(|r| r.str("compiler").as_deref() == Some("clang-9.0.0"));
    let view = filtered
        .metadata()
        .select(&[
            ColKey::new("problem size"),
            ColKey::new("compiler"),
            ColKey::new("cluster"),
            ColKey::new("user"),
        ])
        .expect("metadata columns");
    let mut text = String::from(
        "t_obj.filter_metadata(lambda x: x[\"compiler\"] == \"clang-9.0.0\")\n\n",
    );
    text.push_str(&render(&view));
    FigureReport {
        id: "fig06",
        title: "Metadata after filtering on the compiler column",
        text,
        svgs: vec![],
    }
}

/// Figure 7: `groupby([compiler, problem size])` → four thickets.
pub fn fig07() -> FigureReport {
    let tk = figure5_thicket();
    let groups = tk
        .groupby(&[ColKey::new("compiler"), ColKey::new("problem size")])
        .expect("groupby");
    let mut text = format!("{} thickets created...\n", groups.len());
    let keys: Vec<String> = groups
        .iter()
        .map(|(k, _)| format!("('{}', {})", k[0], k[1]))
        .collect();
    text.push_str(&format!("[{}]\n\n", keys.join(", ")));
    for (_, sub) in &groups {
        let view = sub
            .metadata()
            .select(&[
                ColKey::new("problem size"),
                ColKey::new("compiler"),
                ColKey::new("cluster"),
                ColKey::new("user"),
            ])
            .expect("metadata columns");
        text.push_str(&render(&view));
        text.push('\n');
    }
    FigureReport {
        id: "fig07",
        title: "Grouping profiles by unique (compiler, problem size)",
        text,
        svgs: vec![],
    }
}

/// Figure 8: the call-path query for `*.block_128` leaves, before/after.
pub fn fig08() -> FigureReport {
    let mut b128 = GpuRunConfig::lassen_default();
    b128.block_size = 128;
    let mut b256 = GpuRunConfig::lassen_default();
    b256.block_size = 256;
    let tk = Thicket::loader(&[simulate_gpu_run(&b128), simulate_gpu_run(&b256)])
        .profile_ids(&[Value::Int(128), Value::Int(256)])
        .load()
        .expect("CUDA thicket")
        .0;

    let query = Query::builder()
        .node(".", pred::name_eq("Base_CUDA"))
        .any("*")
        .node(".", pred::name_ends_with("block_128"))
        .build();
    let filtered = tk.query(&query);

    let mut text = String::from("before:\n");
    text.push_str(&tk.tree(&ColKey::new("time (gpu)"), &Value::Int(128)));
    text.push_str("\nquery = QueryMatcher().match('.', name == 'Base_CUDA')\n");
    text.push_str("                      .rel('*')\n");
    text.push_str("                      .rel('.', name.endswith('block_128'))\n\nafter:\n");
    text.push_str(&filtered.tree(&ColKey::new("time (gpu)"), &Value::Int(128)));
    FigureReport {
        id: "fig08",
        title: "Call Path Query Language: block_128 paths",
        text,
        svgs: vec![],
    }
}

/// Figure 9: aggregated std statistics and `filter_stats`.
pub fn fig09() -> FigureReport {
    let mut tk = Thicket::loader(data::quartz_runs(10, 4_194_304)).load().expect("ensemble").0;
    tk.compute_stats(&[
        (ColKey::new("Retiring"), vec![AggFn::Std]),
        (ColKey::new("Backend bound"), vec![AggFn::Std]),
        (ColKey::new("time (exc)"), vec![AggFn::Std]),
    ])
    .expect("stats");
    let interesting = [
        "Apps_NODAL_ACCUMULATION_3D",
        "Apps_VOL3D",
        "Lcals_HYDRO_1D",
        "Polybench_GESUMMV",
        "Stream_DOT",
    ];
    let shown = tk.filter_stats(|r| {
        interesting.contains(&tk.node_name(&r.level("node")).as_str())
    });
    let mut text = String::from("aggregated statistics (std over 10 profiles):\n");
    text.push_str(&render(&shown.statsframe_named()));
    let filtered = shown.filter_stats(|r| {
        matches!(
            tk.node_name(&r.level("node")).as_str(),
            "Apps_NODAL_ACCUMULATION_3D" | "Apps_VOL3D"
        )
    });
    text.push_str("\nt_obj.filter_stats(node in [Apps_NODAL_ACCUMULATION_3D, Apps_VOL3D]):\n");
    text.push_str(&render(&filtered.statsframe_named()));
    FigureReport {
        id: "fig09",
        title: "Aggregated statistics before/after filter_stats",
        text,
        svgs: vec![],
    }
}

/// Figure 10: k-means clusters of Stream kernels over optimization
/// levels, in (speedup, retiring/backend) space.
pub fn fig10() -> FigureReport {
    use thicket_perfsim::{simulate_cpu_run, CpuRunConfig};
    let mut profiles = Vec::new();
    for opt in 0..=3u32 {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.problem_size = 8_388_608;
        cfg.opt_level = opt;
        cfg.seed = 90 + opt as u64;
        profiles.push(simulate_cpu_run(&cfg));
    }
    let tk = Thicket::loader(&profiles)
        .profile_ids(&(0..4i64).map(Value::Int).collect::<Vec<_>>())
        .load()
        .expect("opt thicket")
        .0;

    let kernels = ["Stream_ADD", "Stream_COPY", "Stream_DOT", "Stream_MUL", "Stream_TRIAD"];
    let mut rows = Vec::new();
    for kernel in kernels {
        let node = tk.find_node(kernel).expect("kernel");
        let t0 = tk
            .metric_at(node, &Value::Int(0), &ColKey::new("time (exc)"))
            .expect("baseline");
        for opt in 0..4i64 {
            let p = Value::Int(opt);
            let t = tk.metric_at(node, &p, &ColKey::new("time (exc)")).unwrap();
            let ret = tk.metric_at(node, &p, &ColKey::new("Retiring")).unwrap();
            let be = tk.metric_at(node, &p, &ColKey::new("Backend bound")).unwrap();
            rows.push((kernel, opt, t0 / t, ret, be));
        }
    }
    let features: Vec<Vec<f64>> = rows
        .iter()
        .map(|&(_, _, s, r, b)| vec![s, r, b])
        .collect();
    let (_, scaled) = StandardScaler::fit_transform(&features);
    let mut best = (2usize, f64::MIN);
    for k in 2..=6 {
        let km = kmeans(&scaled, &KMeansConfig::new(k).with_seed(17));
        if let Some(s) = silhouette_score(&scaled, &km.labels) {
            if s > best.1 {
                best = (k, s);
            }
        }
    }
    let km = kmeans(&scaled, &KMeansConfig::new(best.0).with_seed(17));

    let mut text = format!(
        "silhouette analysis selects k = {} (score {:.3})\n\n",
        best.0, best.1
    );
    text.push_str(&format!(
        "{:<14} {:>4} {:>9} {:>9} {:>9}  cluster\n",
        "kernel", "opt", "speedup", "retiring", "backend"
    ));
    for (&(kernel, opt, s, r, b), &label) in rows.iter().zip(km.labels.iter()) {
        text.push_str(&format!(
            "{kernel:<14} -O{opt} {s:>9.3} {r:>9.3} {b:>9.3}  {label}\n"
        ));
    }

    // Scatter: speedup vs retiring, one series per cluster.
    let mut svgs = Vec::new();
    for (metric_name, metric_idx) in [("retiring", 3usize), ("backend_bound", 4)] {
        let mut series = Vec::new();
        for c in 0..best.0 {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .zip(km.labels.iter())
                .filter(|(_, &l)| l == c)
                .map(|(&(_, _, s, r, b), _)| (s, if metric_idx == 3 { r } else { b }))
                .collect();
            series.push(Series::new(format!("cluster {c}"), pts));
        }
        let svg = scatter_chart(
            &series,
            &ChartOptions {
                title: format!("K-means clusters: {metric_name} vs speedup (rel. -O0)"),
                x_label: "Speedup".into(),
                y_label: metric_name.replace('_', " "),
                ..ChartOptions::default()
            },
        );
        svgs.push((format!("fig10_{metric_name}.svg"), svg));
    }
    FigureReport {
        id: "fig10",
        title: "K-means clustering of Stream kernels over -O levels",
        text,
        svgs,
    }
}

/// Figure 11: Extra-P models of `M_solver->Mult` on CTS and AWS.
pub fn fig11() -> FigureReport {
    let profiles = data::marbl_study();
    let tk = Thicket::loader(&profiles).load().expect("marbl thicket").0;
    let mut text = String::new();
    let mut svgs = Vec::new();
    for (arch, label) in [("CTS1", "CTS"), ("C5n.18xlarge", "AWS")] {
        let sub = tk.filter_metadata(|r| r.str("arch").as_deref() == Some(arch));
        let models = model_metric(
            &sub,
            &ColKey::new("avg#inclusive#sum#time.duration"),
            &ColKey::new("mpi.world.size"),
        )
        .expect("models");
        let solver = models
            .iter()
            .find(|m| m.name == "M_solver->Mult")
            .expect("solver model");
        text.push_str(&format!(
            "{label} Extra-P model: {}\n  (SMAPE {:.2} %, adjusted R2 {:.4})\n",
            solver.model.formula(),
            solver.model.smape,
            solver.model.adjusted_r2
        ));
        let measured = Series::new("M_solver->Mult", solver.points.clone());
        let curve: Vec<(f64, f64)> = (1..=35)
            .map(|i| {
                let p = 36.0 * 100.0 * i as f64 / 35.0;
                (p, solver.model.eval(p))
            })
            .collect();
        let model_series = Series::dashed("model", curve);
        let svg = line_chart(
            &[model_series, measured],
            &ChartOptions {
                title: format!("{label} Extra-P model: {}", solver.model.formula()),
                x_label: "nprocs".into(),
                y_label: "Avg time/rank_mean (s)".into(),
                ..ChartOptions::default()
            },
        );
        svgs.push((format!("fig11_{}.svg", label.to_lowercase()), svg));
    }
    FigureReport {
        id: "fig11",
        title: "Extra-P models of a MARBL function on CTS and AWS",
        text,
        svgs,
    }
}

/// Figure 12: heatmap of std metrics plus histograms of the outliers.
pub fn fig12() -> FigureReport {
    let mut tk = Thicket::loader(data::quartz_runs(10, 4_194_304)).load().expect("ensemble").0;
    tk.compute_stats(&[
        (ColKey::new("Retiring"), vec![AggFn::Std]),
        (ColKey::new("Backend bound"), vec![AggFn::Std]),
        (ColKey::new("time (exc)"), vec![AggFn::Std]),
    ])
    .expect("stats");

    let kernels = [
        "Apps_NODAL_ACCUMULATION_3D",
        "Apps_VOL3D",
        "Lcals_HYDRO_1D",
        "Polybench_GESUMMV",
        "Stream_DOT",
    ];
    let cols = ["Retiring_std", "Backend bound_std", "time (exc)_std"];
    let mut values = Vec::new();
    for kernel in kernels {
        let node = tk.find_node(kernel).unwrap();
        let node_v = tk.value_of_node(node);
        let row = tk
            .statsframe()
            .index()
            .keys()
            .iter()
            .position(|k| k[0] == node_v)
            .unwrap();
        values.push(
            cols.iter()
                .map(|c| {
                    tk.statsframe()
                        .column(&ColKey::new(*c))
                        .unwrap()
                        .get_f64(row)
                        .unwrap()
                })
                .collect::<Vec<f64>>(),
        );
    }
    let row_labels: Vec<String> = kernels.iter().map(|s| s.to_string()).collect();
    let col_labels: Vec<String> = cols.iter().map(|s| s.to_string()).collect();
    let mut text = String::from("std heatmap (text form):\n");
    text.push_str(&thicket_viz::text_heatmap(&row_labels, &col_labels, &values));
    let mut svgs = vec![(
        "fig12_heatmap.svg".to_string(),
        heatmap_chart(&row_labels, &col_labels, &values, "std of metrics across 10 runs"),
    )];

    // Histograms of the two highlighted nodes.
    for kernel in ["Polybench_GESUMMV", "Lcals_HYDRO_1D"] {
        let node = tk.find_node(kernel).unwrap();
        let times: Vec<f64> = tk
            .metric_series(node, &ColKey::new("time (exc)"))
            .into_iter()
            .map(|(_, v)| v)
            .collect();
        let hist = thicket_stats::histogram(&times, 5).unwrap();
        text.push_str(&format!("\nhistogram of time (exc) for {kernel}:\n"));
        text.push_str(&thicket_viz::text_histogram(&hist, 30));
        svgs.push((
            format!("fig12_hist_{kernel}.svg"),
            histogram_chart(&hist, kernel, "time (exc)"),
        ));
    }
    FigureReport {
        id: "fig12",
        title: "Heatmap and histograms for outlier identification",
        text,
        svgs,
    }
}

/// Figure 13: the RAJA Performance Suite configuration table.
pub fn fig13() -> FigureReport {
    let rows = data::figure13_configs();
    let mut text = format!(
        "{:<8} {:<22} {:<14} {:<14} {:<16} {:<4} {:<14} {:<20} {:<10} {:>9}\n",
        "cluster", "systype", "problem sizes", "compiler", "optimizations", "omp",
        "cuda compiler", "block sizes", "variant", "#profiles"
    );
    for r in &rows {
        text.push_str(&format!(
            "{:<8} {:<22} {:<14} {:<14} {:<16} {:<4} {:<14} {:<20} {:<10} {:>9}\n",
            r.cluster,
            r.systype,
            format!("{} sizes", r.problem_sizes.len()),
            r.compiler,
            format!("{:?}", r.optimizations.iter().map(|o| format!("-O{o}")).collect::<Vec<_>>()),
            r.omp_threads,
            r.cuda_compiler.clone().unwrap_or_else(|| "N/A".into()),
            if r.block_sizes.is_empty() { "N/A".to_string() } else { format!("{:?}", r.block_sizes) },
            r.variant,
            r.profiles,
        ));
    }
    let total: usize = rows.iter().map(|r| r.profiles).sum();
    text.push_str(&format!("total profiles: {total}\n"));

    // Actually generate the full ensemble and verify it composes.
    let profiles = data::figure13_profiles();
    let by_variant = |v: &str| {
        profiles
            .iter()
            .filter(|p| p.metadata("variant").unwrap().as_str() == Some(v))
            .count()
    };
    text.push_str(&format!(
        "generated: {} profiles (Sequential {}, OpenMP {}, CUDA {})\n",
        profiles.len(),
        by_variant("Sequential"),
        by_variant("OpenMP"),
        by_variant("CUDA"),
    ));
    FigureReport {
        id: "fig13",
        title: "RAJA Performance Suite configurations (560 profiles)",
        text,
        svgs: vec![],
    }
}

/// Figure 14: the top-down visualization — stacked boundedness bars per
/// kernel, grouped by problem size (10 profiles each, averaged).
pub fn fig14() -> FigureReport {
    use thicket_perfsim::{simulate_cpu_run, CpuRunConfig};
    let kernels = [
        "Apps_NODAL_ACCUMULATION_3D",
        "Apps_VOL3D",
        "Lcals_HYDRO_1D",
        "Stream_DOT",
    ];
    let categories: Vec<String> = [
        "Retiring",
        "Frontend bound",
        "Backend bound",
        "Bad speculation",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();

    let mut text = format!(
        "{:<28} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "kernel", "size", "retiring", "frontend", "backend", "badspec"
    );
    let mut groups: Vec<(String, Vec<BarStack>)> = Vec::new();
    for kernel in kernels {
        let mut bars = Vec::new();
        for &size in &data::SIZES {
            // Ten profiles per configuration, averaged (the paper's bars).
            let mut sums = [0.0f64; 4];
            for run in 0..10 {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.problem_size = size;
                cfg.seed = size ^ run;
                let p = simulate_cpu_run(&cfg);
                let node = p.graph().find_by_name(kernel).unwrap();
                for (acc, metric) in sums.iter_mut().zip(categories.iter()) {
                    *acc += p.metric(node, metric).unwrap();
                }
            }
            let avg: Vec<f64> = sums.iter().map(|v| v / 10.0).collect();
            text.push_str(&format!(
                "{kernel:<28} {size:>9} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
                avg[0], avg[1], avg[2], avg[3]
            ));
            bars.push(BarStack {
                label: format!("{}", size / 1_048_576),
                segments: avg,
            });
        }
        groups.push((kernel.to_string(), bars));
    }
    let svg = stacked_bars(
        &categories,
        &groups,
        "Top-down boundedness by kernel and problem size (×2^20 elements)",
    );
    FigureReport {
        id: "fig14",
        title: "Top-down analysis visualization",
        text,
        svgs: vec![("fig14_topdown.svg".into(), svg)],
    }
}

/// Figure 15: the composed CPU/GPU table with the derived speedup column.
pub fn fig15() -> FigureReport {
    let size = Value::Int(8_388_608);
    let cpu = data::cpu_by_size_thicket().filter_profiles(std::slice::from_ref(&size));
    let gpu = data::gpu_by_size_thicket().filter_profiles(std::slice::from_ref(&size));
    let mut composed =
        concat_thickets(&[("CPU", &cpu), ("GPU", &gpu)], NodeMatch::Name).expect("compose");
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
        .expect("derived");
    let view = composed
        .perf_data_named()
        .sort_by_index()
        .select(&[
            ColKey::grouped("CPU", "time (exc)"),
            ColKey::grouped("CPU", "Bytes/Rep"),
            ColKey::grouped("CPU", "Flops/Rep"),
            ColKey::grouped("CPU", "Retiring"),
            ColKey::grouped("CPU", "Backend bound"),
            ColKey::grouped("GPU", "time (gpu)"),
            ColKey::grouped("GPU", "gpu__compute_memory_throughput"),
            ColKey::grouped("GPU", "gpu__dram_throughput"),
            ColKey::grouped("GPU", "sm__throughput"),
            ColKey::grouped("GPU", "sm__warps_active"),
            ColKey::grouped("Derived", "speedup"),
        ])
        .expect("columns")
        .filter(|r| {
            matches!(
                r.level("node").as_str(),
                Some("Apps_VOL3D") | Some("Lcals_HYDRO_1D")
            )
        });
    FigureReport {
        id: "fig15",
        title: "Multi-architecture table with derived CPU→GPU speedup",
        text: render(&view),
        svgs: vec![],
    }
}

/// Figure 16: the MARBL configuration table.
pub fn fig16() -> FigureReport {
    let profiles = data::marbl_study();
    let tk = Thicket::loader(&profiles).load().expect("marbl thicket").0;
    let mut text = format!(
        "{:<14} {:<40} {:<8} {:<22} {:<22} {:<28} {:>9}\n",
        "cluster", "ccompiler", "mpi", "version", "numhosts", "mpi.world.size", "#profiles"
    );
    for arch in ["C5n.18xlarge", "CTS1"] {
        let sub = tk.filter_metadata(|r| r.str("arch").as_deref() == Some(arch));
        let meta = sub.metadata();
        let hosts = sub_unique(meta, "numhosts");
        let ranks = sub_unique(meta, "mpi.world.size");
        let row0 = meta.row(0);
        text.push_str(&format!(
            "{:<14} {:<40} {:<8} {:<22} {:<22} {:<28} {:>9}\n",
            row0.str("cluster").unwrap_or_default(),
            row0.str("ccompiler").unwrap_or_default(),
            row0.str("mpi").unwrap_or_default(),
            row0.str("version").unwrap_or_default(),
            format!("{hosts:?}"),
            format!("{ranks:?}"),
            meta.len(),
        ));
    }
    FigureReport {
        id: "fig16",
        title: "MARBL configurations (two clusters, 30 profiles each)",
        text,
        svgs: vec![],
    }
}

fn sub_unique(meta: &thicket_dataframe::DataFrame, col: &str) -> Vec<i64> {
    let mut v: Vec<i64> = meta
        .unique(&ColKey::new(col))
        .unwrap_or_default()
        .into_iter()
        .filter_map(|x| x.as_i64())
        .collect();
    v.sort_unstable();
    v
}

/// Figure 17: MARBL node-to-node strong scaling with ideal lines.
pub fn fig17() -> FigureReport {
    let profiles = data::marbl_study();
    let tk = Thicket::loader(&profiles).load().expect("marbl thicket").0;
    let nodes = [1u32, 2, 4, 8, 16, 32];
    let mut text = format!(
        "{:<26} {:>6} {:>14} {:>12}\n",
        "series", "nodes", "time/cycle(s)", "std"
    );
    let mut series = Vec::new();
    for (arch, label, mpi) in [
        ("C5n.18xlarge", "C5n.18xlarge-IntelMPI", "impi"),
        ("CTS1", "CTS1-OpenMPI", "openmpi"),
    ] {
        let sub = tk.filter_metadata(|r| r.str("arch").as_deref() == Some(arch));
        let step = sub.find_node("timeStepLoop").expect("timeStepLoop");
        let hosts = sub.metadata_column(&ColKey::new("numhosts")).unwrap();
        let mut pts = Vec::new();
        for &n in &nodes {
            let samples: Vec<f64> = sub
                .metric_series(step, &ColKey::new("time per cycle"))
                .into_iter()
                .filter(|(p, _)| hosts.get(p).and_then(|v| v.as_i64()) == Some(n as i64))
                .map(|(_, v)| v)
                .collect();
            let mean = thicket_stats::mean(&samples).unwrap();
            let std = thicket_stats::std_dev(&samples).unwrap_or(0.0);
            text.push_str(&format!(
                "{label:<26} {n:>6} {mean:>14.4} {std:>12.4}\n"
            ));
            pts.push((n as f64, mean));
        }
        // Ideal line anchored at the single-node mean.
        let t1 = pts[0].1;
        let ideal: Vec<(f64, f64)> = nodes.iter().map(|&n| (n as f64, t1 / n as f64)).collect();
        series.push(Series::dashed(format!("{label}-ideal"), ideal));
        series.push(Series::new(label, pts));
        let _ = mpi;
    }
    let svg = line_chart(
        &series,
        &ChartOptions {
            title: "MARBL (lag) -- Triple-Pt-3D -- node-to-node strong scaling: timeStepLoop"
                .into(),
            x_label: "compute nodes [log2]".into(),
            y_label: "time per cycle (s) [log2]".into(),
            x_scale: AxisScale::Log2,
            y_scale: AxisScale::Log2,
            ..ChartOptions::default()
        },
    );
    FigureReport {
        id: "fig17",
        title: "MARBL strong scaling",
        text,
        svgs: vec![("fig17_scaling.svg".into(), svg)],
    }
}

/// Figure 18: the metadata scatter plots and parallel coordinate plot.
pub fn fig18() -> FigureReport {
    let profiles = data::marbl_study();
    let tk = Thicket::loader(&profiles).load().expect("marbl thicket").0;
    let meta = tk.metadata();
    let step = tk.find_node("timeStepLoop").expect("timeStepLoop");

    // Per-profile vectors aligned with the metadata index.
    let series_by_profile: std::collections::HashMap<Value, f64> = tk
        .metric_series(step, &ColKey::new("min#inclusive#sum#time.duration"))
        .into_iter()
        .collect();
    let mut num_elems = Vec::new();
    let mut ranks = Vec::new();
    let mut walltime = Vec::new();
    let mut steploop = Vec::new();
    let mut arch_class = Vec::new();
    for row in 0..meta.len() {
        let r = meta.row(row);
        num_elems.push(r.f64("num_elems_max_per_rank").unwrap());
        ranks.push(r.f64("mpi.world.size").unwrap());
        walltime.push(r.f64("walltime").unwrap());
        let profile = meta.index().key(row)[0].clone();
        steploop.push(*series_by_profile.get(&profile).expect("profile series"));
        arch_class.push(if r.str("arch").as_deref() == Some("CTS1") { 0 } else { 1 });
    }

    #[allow(clippy::type_complexity)]
    let split = |vals: &[f64]| -> (Vec<(f64, f64)>, Vec<(f64, f64)>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for ((x, y), &c) in num_elems.iter().zip(vals.iter()).zip(arch_class.iter()) {
            if c == 0 {
                a.push((*x, *y));
            } else {
                b.push((*x, *y));
            }
        }
        (a, b)
    };
    let (cts_pts, aws_pts) = split(&steploop);
    let left = scatter_chart(
        &[
            Series::new("CTS1", cts_pts),
            Series::new("C5n.18xlarge", aws_pts),
        ],
        &ChartOptions {
            title: "timeStepLoop time vs elements per rank".into(),
            x_label: "num_elems_max_per_rank".into(),
            y_label: "min#inclusive#sum#time.duration".into(),
            ..ChartOptions::default()
        },
    );
    // Right scatter: two performance-data variables against each other.
    let mut cts2 = Vec::new();
    let mut aws2 = Vec::new();
    for ((x, y), &c) in steploop.iter().zip(walltime.iter()).zip(arch_class.iter()) {
        if c == 0 {
            cts2.push((*x, *y));
        } else {
            aws2.push((*x, *y));
        }
    }
    let right = scatter_chart(
        &[Series::new("CTS1", cts2), Series::new("C5n.18xlarge", aws2)],
        &ChartOptions {
            title: "timeStepLoop time vs walltime".into(),
            x_label: "min#inclusive#sum#time.duration".into(),
            y_label: "walltime".into(),
            ..ChartOptions::default()
        },
    );
    let pcp = parallel_coordinates(
        &[
            PcpAxis {
                name: "num_elems_max_per_rank".into(),
                values: num_elems.clone(),
            },
            PcpAxis {
                name: "mpi.world.size".into(),
                values: ranks.clone(),
            },
            PcpAxis {
                name: "walltime".into(),
                values: walltime.clone(),
            },
        ],
        &arch_class,
        "MARBL metadata parallel coordinates (color = architecture)",
    );

    let rho_ranks_wall = thicket_stats::spearman(&ranks, &walltime).unwrap();
    let rho_elems_wall = thicket_stats::spearman(&num_elems, &walltime).unwrap();
    let text = format!(
        "spearman(mpi.world.size, walltime)       = {rho_ranks_wall:.3}  (criss-crossing PCP lines)\n\
         spearman(num_elems/rank, walltime)       = {rho_elems_wall:.3}  (parallel PCP lines)\n",
    );
    FigureReport {
        id: "fig18",
        title: "MARBL metadata PCP and scatter plots",
        text,
        svgs: vec![
            ("fig18_scatter_left.svg".into(), left),
            ("fig18_scatter_right.svg".into(), right),
            ("fig18_pcp.svg".into(), pcp),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The (kernel, problem size) labels of a composed table's rows, as
    /// the figure prints them below the header rule.
    fn row_labels(report: &FigureReport) -> Vec<(String, i64)> {
        let rows = report.text.lines().skip_while(|l| !l.starts_with("---"));
        rows.skip(1)
            .map(|row| {
                let mut words = row.split_whitespace();
                let kernel = words.next().expect("a kernel").to_string();
                let size = words.next().expect("a size").parse().expect("an int");
                (kernel, size)
            })
            .collect()
    }

    #[test]
    fn composed_figures_list_their_kernels_by_problem_size() {
        let label = |k: &str, s: i64| (k.to_string(), s);
        assert_eq!(
            row_labels(&fig04()),
            [
                label("Apps_NODAL_ACCUMULATION_3D", 1_048_576),
                label("Apps_NODAL_ACCUMULATION_3D", 4_194_304),
                label("Apps_VOL3D", 1_048_576),
                label("Apps_VOL3D", 4_194_304),
                label("Lcals_HYDRO_1D", 1_048_576),
                label("Lcals_HYDRO_1D", 4_194_304),
                label("Stream_DOT", 1_048_576),
                label("Stream_DOT", 4_194_304),
            ]
        );
        assert_eq!(
            row_labels(&fig15()),
            [
                label("Apps_VOL3D", 8_388_608),
                label("Lcals_HYDRO_1D", 8_388_608)
            ]
        );
    }
}
