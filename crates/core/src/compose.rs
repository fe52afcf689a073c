//! Hierarchical (column-axis) composition of thickets (paper §3.2.2,
//! Figures 4 and 15): joining multiple thickets' performance data
//! side-by-side under a new top-level column index.
//!
//! Both node-matching modes re-key every input's perf rows onto node ids
//! of the composed graph in one loop, so a composition is a thicket like
//! any other: its node level holds ids of its own graph, and every
//! operation (query, squash, pooling, statistics) applies to it.

use crate::thicket::{input_failure, Thicket, ThicketError, PROFILE_LEVEL};
use std::collections::{HashMap, HashSet};
use thicket_dataframe::{join_many, DataFrame, DfError, JoinHow};
use thicket_graph::{Graph, GraphUnion, NodeId};

/// How call-tree nodes are matched across the composed thickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMatch {
    /// Match by full call path (structural union) — the default when the
    /// inputs come from the same code shape. The composed graph is the
    /// union of the inputs' graphs.
    Path,
    /// Match by node *name* — needed when different tools produce
    /// different tree shapes around the same kernels (the paper's
    /// CPU-Caliper vs GPU-NCU composition, Figure 15). The composed
    /// graph is the first input's: each input's node maps onto the first
    /// input's first node of the same name that holds rows, so the first
    /// input keeps its ids, and a row whose name the first input lacks is
    /// dropped, as the inner join would drop it. Names of measured nodes
    /// must be unique within each input.
    Name,
}

impl Thicket {
    /// Replace the profile index with the values of a metadata column
    /// (e.g. `problem size`), as the paper does before composing CPU and
    /// GPU thickets on a shared secondary index (Figure 4). The column's
    /// values must be unique across profiles.
    pub fn reindex_profiles_by(
        &self,
        column: &thicket_dataframe::ColKey,
    ) -> Result<Thicket, ThicketError> {
        let map = self.metadata_column(column)?;
        {
            let mut seen = HashSet::new();
            for v in map.values() {
                if !seen.insert(v.clone()) {
                    return Err(ThicketError::Invalid(format!(
                        "metadata column {column} is not unique across profiles"
                    )));
                }
            }
        }
        // Every perf row's profile has a metadata row, so every row maps.
        let remap = |old: &_| Ok::<_, DfError>(map.get(old).cloned());
        let perf_data = self.perf_data.map_level(PROFILE_LEVEL, remap)?;
        let metadata = self.metadata.map_level(PROFILE_LEVEL, remap)?;
        Thicket::from_components(self.graph.clone(), perf_data.sort_by_index(), metadata)
    }
}

/// Compose thickets along the column axis: each input's performance-data
/// and metadata columns appear under its group label; rows are the
/// `(node, profile)` pairs present in **all** inputs (inner join — the
/// paper's intersection semantics).
///
/// Each input's perf frame is re-keyed onto the composed graph and
/// column-grouped on its own worker; the frames then meet in one k-way
/// inner join. An input that maps two of its measured nodes onto one
/// composed node (two sibling nodes with the same frame in `Path` mode,
/// two measured nodes of one name in `Name` mode) is rejected, naming
/// its label.
pub fn concat_thickets(
    inputs: &[(&str, &Thicket)],
    match_on: NodeMatch,
) -> Result<Thicket, ThicketError> {
    let Some(&(_, first)) = inputs.first() else {
        return Err(ThicketError::Invalid("concat_thickets of nothing".into()));
    };
    {
        let mut seen = HashSet::new();
        for (label, _) in inputs {
            if !seen.insert(*label) {
                return Err(ThicketError::Invalid(format!(
                    "duplicate group label {label:?}"
                )));
            }
        }
    }

    // Where each input's nodes land in the composed graph.
    let (graph, mappings): (Graph, Vec<Vec<Option<NodeId>>>) = match match_on {
        NodeMatch::Path => {
            let graphs: Vec<&Graph> = inputs.iter().map(|(_, t)| t.graph()).collect();
            let union = GraphUnion::build(&graphs);
            let mappings = union
                .mappings
                .iter()
                .map(|m| m.iter().copied().map(Some).collect())
                .collect();
            (union.graph, mappings)
        }
        NodeMatch::Name => {
            let mut holds_rows = vec![false; first.graph.len()];
            for key in first.perf_data.index().keys() {
                if let Some(id) = first.node_of_value(&key[0]) {
                    holds_rows[id.index()] = true;
                }
            }
            let mut by_name: HashMap<&str, NodeId> = HashMap::new();
            for id in first.graph.ids().filter(|id| holds_rows[id.index()]) {
                by_name.entry(first.graph.node(id).name()).or_insert(id);
            }
            let mappings = inputs
                .iter()
                .map(|(_, tk)| {
                    let g = tk.graph();
                    g.ids()
                        .map(|id| by_name.get(g.node(id).name()).copied())
                        .collect()
                })
                .collect();
            (first.graph.clone(), mappings)
        }
    };

    let items: Vec<_> = inputs.iter().zip(&mappings).collect();
    let threads = thicket_perfsim::default_threads(items.len());
    let perf_frames =
        thicket_perfsim::try_parallel_map(&items, threads, |((label, tk), mapping)| {
            let frame = tk
                .perf_rekeyed(|old| mapping[old.index()])
                .with_column_group(label);
            if frame.index().is_unique() {
                return Ok(frame);
            }
            Err(ThicketError::Invalid(match match_on {
                NodeMatch::Path => {
                    format!("input {label:?} has two sibling nodes with the same frame")
                }
                NodeMatch::Name => {
                    format!("node names are not unique in input {label:?}; use NodeMatch::Path")
                }
            }))
        })
        .map_err(|e| input_failure(e, "input thicket"))?;
    let refs: Vec<&DataFrame> = perf_frames.iter().collect();
    let perf_data = join_many(&refs, JoinHow::Inner)?;

    // Metadata composes the same way (outer join keeps every profile).
    let meta_frames: Vec<DataFrame> = inputs
        .iter()
        .map(|(label, tk)| tk.metadata.with_column_group(label))
        .collect();
    let mrefs: Vec<&DataFrame> = meta_frames.iter().collect();
    let metadata = join_many(&mrefs, JoinHow::Outer)?;

    Thicket::from_components(graph, perf_data.sort_by_index(), metadata)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concat_thickets_rows;
    use std::collections::BTreeMap;
    use thicket_dataframe::{AggFn, ColKey, Index, Value};
    use thicket_graph::Frame;
    use thicket_perfsim::{
        simulate_cpu_run, simulate_gpu_run, CpuRunConfig, GpuRunConfig, Profile,
    };

    const SIZES: [u64; 2] = [1_048_576, 4_194_304];

    fn cpu_thicket() -> Thicket {
        cpu_at(&SIZES)
    }

    fn gpu_thicket() -> Thicket {
        gpu_at(&SIZES)
    }

    fn cpu_at(sizes: &[u64]) -> Thicket {
        let profiles: Vec<_> = sizes
            .iter()
            .map(|&size| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.problem_size = size;
                simulate_cpu_run(&cfg)
            })
            .collect();
        Thicket::loader(&profiles).load()
            .unwrap()
            .0
            .reindex_profiles_by(&ColKey::new("problem size"))
            .unwrap()
    }

    fn gpu_at(sizes: &[u64]) -> Thicket {
        let profiles: Vec<_> = sizes
            .iter()
            .map(|&size| {
                let mut cfg = GpuRunConfig::lassen_default();
                cfg.problem_size = size;
                simulate_gpu_run(&cfg)
            })
            .collect();
        Thicket::loader(&profiles).load()
            .unwrap()
            .0
            .reindex_profiles_by(&ColKey::new("problem size"))
            .unwrap()
    }

    /// The quartz and lassen thickets at `sizes`, composed by name.
    fn composed_at(sizes: &[u64]) -> Thicket {
        concat_thickets(
            &[("CPU", &cpu_at(sizes)), ("GPU", &gpu_at(sizes))],
            NodeMatch::Name,
        )
        .unwrap()
    }

    /// One profile over the call paths `paths` (`main/a/x`); every node
    /// but those named in `unmeasured` measures `time`.
    fn over_paths(paths: &[&str], unmeasured: &[&str]) -> Thicket {
        let mut g = Graph::new();
        for path in paths {
            let mut at = None;
            for name in path.split('/') {
                let frame = Frame::named(name);
                let found = match at {
                    None => g.root_with_frame(&frame),
                    Some(p) => g.child_with_frame(p, &frame),
                };
                at = Some(found.unwrap_or_else(|| match at {
                    None => g.add_root(frame),
                    Some(p) => g.add_child(p, frame),
                }));
            }
        }
        let nodes: Vec<_> = g.ids().collect();
        let mut p = Profile::new(g);
        p.set_metadata("run", 1);
        for id in nodes {
            if !unmeasured.contains(&p.graph().node(id).name()) {
                p.set_metric(id, "time", 1.0);
            }
        }
        Thicket::loader(&[p][..]).load().unwrap().0
    }

    /// The non-null cells of `metric`, keyed by (node name, profile).
    fn by_name(tk: &Thicket, metric: &ColKey) -> BTreeMap<(String, Value), f64> {
        let col = tk.perf_data().column(metric).unwrap();
        let keys = tk.perf_data().index().keys().iter().enumerate();
        keys.filter_map(|(row, k)| Some(((tk.node_name(&k[0]), k[1].clone()), col.get_f64(row)?)))
            .collect()
    }

    #[test]
    fn reindex_replaces_profile_level() {
        let tk = cpu_thicket();
        assert_eq!(
            tk.profiles(),
            vec![Value::Int(1_048_576), Value::Int(4_194_304)]
        );
        // Perf rows carry the new index too.
        let sizes: HashSet<Value> = tk
            .perf_data()
            .index()
            .keys()
            .iter()
            .map(|k| k[1].clone())
            .collect();
        assert_eq!(sizes.len(), 2);
        assert!(sizes.contains(&Value::Int(1_048_576)));
    }

    #[test]
    fn reindex_requires_unique_values() {
        let profiles: Vec<_> = (0..2)
            .map(|seed| {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.seed = seed;
                simulate_cpu_run(&cfg)
            })
            .collect();
        let tk = Thicket::loader(&profiles).load().unwrap().0;
        // Both runs share the same problem size.
        assert!(tk.reindex_profiles_by(&ColKey::new("problem size")).is_err());
    }

    /// A perf row whose profile has no metadata row never reaches
    /// `reindex_profiles_by`: `from_components` rejects it, naming the
    /// profile.
    #[test]
    fn reindex_rejects_orphaned_perf_profile() {
        let tk = cpu_thicket();
        let orphan = Value::Int(999_999);
        let mut keys: Vec<Vec<Value>> = tk.perf_data().index().keys().to_vec();
        keys[0][1] = orphan.clone();
        let index = Index::new(["node", "profile"], keys).unwrap();
        let mut perf = DataFrame::new(index);
        for (k, c) in tk.perf_data().columns() {
            perf.insert(k.clone(), c.clone()).unwrap();
        }
        let err =
            Thicket::from_components(tk.graph().clone(), perf, tk.metadata().clone()).unwrap_err();
        assert!(matches!(err, ThicketError::Invalid(_)), "{err}");
        assert!(
            err.to_string().contains("999999"),
            "error should name the orphaned profile: {err}"
        );
        assert!(err.to_string().contains("no metadata row"), "{err}");
    }

    #[test]
    fn from_components_rejects_a_node_outside_the_graph() {
        let tk = cpu_thicket();
        let outside = Value::Int(tk.graph().len() as i64);
        let named = Value::from("Stream_DOT");
        for bad in [outside, named] {
            let perf = tk
                .perf_data()
                .map_level("node", |_| Ok::<_, DfError>(Some(bad.clone())))
                .unwrap();
            let err = Thicket::from_components(tk.graph().clone(), perf, tk.metadata().clone())
                .unwrap_err();
            assert!(matches!(err, ThicketError::Invalid(_)), "{err}");
            assert!(err.to_string().contains("not a node of the graph"), "{err}");
        }
    }

    #[test]
    fn figure4_cpu_gpu_composition() {
        let composed =
            concat_thickets(&[("CPU", &cpu_thicket()), ("GPU", &gpu_thicket())], NodeMatch::Name)
                .unwrap();
        // Grouped columns from both sides.
        assert!(composed
            .perf_data()
            .has_column(&ColKey::grouped("CPU", "time (exc)")));
        assert!(composed
            .perf_data()
            .has_column(&ColKey::grouped("GPU", "time (gpu)")));
        assert!(composed
            .perf_data()
            .has_column(&ColKey::grouped("GPU", "gpu__dram_throughput")));
        // Rows exist only for shared (kernel, size) pairs; every row has
        // both CPU and GPU values.
        assert!(!composed.perf_data().is_empty());
        let cpu_col = composed
            .perf_data()
            .column(&ColKey::grouped("CPU", "time (exc)"))
            .unwrap();
        let gpu_col = composed
            .perf_data()
            .column(&ColKey::grouped("GPU", "time (gpu)"))
            .unwrap();
        for row in 0..composed.perf_data().len() {
            assert!(!cpu_col.is_null_at(row));
            assert!(!gpu_col.is_null_at(row));
        }
        // Two rows (problem sizes) per shared kernel node (Figure 4).
        let dot = composed.value_of_node(composed.find_node("Stream_DOT").unwrap());
        let dot_rows = composed
            .perf_data()
            .index()
            .keys()
            .iter()
            .filter(|k| k[0] == dot)
            .count();
        assert_eq!(dot_rows, 2);
        // Metadata composed with group labels.
        assert!(composed
            .metadata()
            .has_column(&ColKey::grouped("CPU", "compiler")));
        assert!(composed
            .metadata()
            .has_column(&ColKey::grouped("GPU", "cuda compiler")));
    }

    #[test]
    fn path_mode_requires_shared_paths() {
        // CPU trees share paths with themselves: compose two CPU thickets.
        let a = cpu_thicket();
        let b = cpu_thicket();
        let composed = concat_thickets(&[("A", &a), ("B", &b)], NodeMatch::Path).unwrap();
        assert!(composed
            .perf_data()
            .has_column(&ColKey::grouped("A", "time (exc)")));
        assert_eq!(composed.perf_data().len(), a.perf_data().len());
        // CPU vs GPU trees diverge below the root → path intersection has
        // no measured common rows.
        let cross =
            concat_thickets(&[("CPU", &a), ("GPU", &gpu_thicket())], NodeMatch::Path).unwrap();
        assert_eq!(cross.perf_data().len(), 0);
    }

    #[test]
    fn duplicate_labels_rejected() {
        let a = cpu_thicket();
        assert!(concat_thickets(&[("X", &a), ("X", &a)], NodeMatch::Name).is_err());
        assert!(concat_thickets(&[], NodeMatch::Name).is_err());
    }

    #[test]
    fn figure15_derived_speedup() {
        let mut composed =
            concat_thickets(&[("CPU", &cpu_thicket()), ("GPU", &gpu_thicket())], NodeMatch::Name)
                .unwrap();
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
            .unwrap();
        let speedup = composed
            .perf_data()
            .column(&ColKey::grouped("Derived", "speedup"))
            .unwrap();
        assert!(speedup.numeric_values().iter().all(|v| *v > 0.0));
    }

    /// A composition by name is a thicket like any other: its rows name
    /// nodes of its graph, so every operation finds the kernels' rows.
    #[test]
    fn name_composition_is_a_thicket() {
        let (cpu, gpu) = (cpu_thicket(), gpu_thicket());
        let composed = composed_at(&SIZES);
        let cpu_time = ColKey::grouped("CPU", "time (exc)");
        let gpu_time = ColKey::grouped("GPU", "time (gpu)");
        let cells = by_name(&composed, &cpu_time);
        assert_eq!(composed.perf_data().len(), 26);
        assert_eq!(cells.len(), 26);
        // Each side's cells are its input's, keyed by kernel name.
        let cpu_cells = by_name(&cpu, &ColKey::new("time (exc)"));
        let gpu_cells = by_name(&gpu, &ColKey::new("time (gpu)"));
        for (key, v) in &cells {
            assert_eq!(cpu_cells.get(key), Some(v), "{key:?}");
        }
        for (key, v) in by_name(&composed, &gpu_time) {
            assert_eq!(gpu_cells.get(&key), Some(&v), "{key:?}");
        }

        // Lookups by node id.
        let kernels: Vec<NodeId> = composed
            .graph()
            .ids()
            .filter(|&id| !composed.metric_series(id, &cpu_time).is_empty())
            .collect();
        assert_eq!(kernels.len(), 13);
        for &id in &kernels {
            let name = composed.graph().node(id).name().to_string();
            assert_eq!(composed.metric_series(id, &gpu_time).len(), 2, "{name}");
            for size in composed.profiles() {
                let want = cpu_cells[&(name.clone(), size.clone())];
                assert_eq!(
                    composed.metric_at(id, &size, &cpu_time),
                    Some(want),
                    "{name}"
                );
            }
        }
        let pivot = composed.pivot_metric(&gpu_time).unwrap();
        assert_eq!((pivot.len(), pivot.ncols()), (13, 2));

        // Operations that narrow the thicket keep the kernels' rows.
        let vol3d = composed
            .query_str(r#"("*") -> (".", name == "Apps_VOL3D")"#)
            .unwrap();
        let want: BTreeMap<_, _> = cells
            .iter()
            .filter(|((name, _), _)| name == "Apps_VOL3D")
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        assert_eq!(want.len(), 2);
        assert_eq!(by_name(&vol3d, &cpu_time), want);
        assert_eq!(by_name(&composed.squash(), &cpu_time), cells);
        assert_eq!(by_name(&composed.intersect_nodes(), &cpu_time), cells);

        // Pooling, with the composition first and later.
        let other = composed_at(&[8_388_608]);
        let mut both = cells.clone();
        both.extend(by_name(&other, &cpu_time));
        assert_eq!(both.len(), 39);
        for inputs in [[&composed, &other], [&other, &composed]] {
            let pooled = concat_thickets_rows(&inputs).unwrap();
            assert_eq!(by_name(&pooled, &cpu_time), both);
        }

        // Statistics keyed by node ids.
        let mut stats = composed.clone();
        stats
            .compute_stats(&[(cpu_time, vec![AggFn::Mean])])
            .unwrap();
        let nodes: Vec<NodeId> = stats
            .statsframe()
            .index()
            .keys()
            .iter()
            .map(|k| stats.node_of_value(&k[0]).unwrap())
            .collect();
        assert_eq!(nodes, kernels);
    }

    #[test]
    fn an_input_that_folds_two_measured_nodes_into_one_is_rejected() {
        // Name: the later input measures two `x` nodes, and both map onto
        // the first input's `x`.
        let one_x = over_paths(&["main/a/x"], &[]);
        let two_x = over_paths(&["main/a/x", "main/b/x"], &[]);
        let err =
            concat_thickets(&[("one", &one_x), ("two", &two_x)], NodeMatch::Name).unwrap_err();
        assert!(matches!(err, ThicketError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("input \"two\""), "{err}");
        // Path: squashing main→a→x, main→b→x (a and b unmeasured) leaves
        // two `x` under main, which fold onto one node of the union.
        let squashed = over_paths(&["main/a/x", "main/b/x"], &["a", "b"]).squash();
        let err = concat_thickets(
            &[("whole", &two_x), ("squashed", &squashed)],
            NodeMatch::Path,
        )
        .unwrap_err();
        assert!(matches!(err, ThicketError::Invalid(_)), "{err}");
        assert!(err.to_string().contains("input \"squashed\""), "{err}");
    }
}
