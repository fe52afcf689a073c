//! Hierarchical (column-axis) composition of thickets (paper §3.2.2,
//! Figures 4 and 15): joining multiple thickets' performance data
//! side-by-side under a new top-level column index.

use crate::thicket::{input_failure, Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};
use std::collections::HashSet;
use thicket_dataframe::{join_many, DataFrame, Index, JoinHow, Value};
use thicket_graph::GraphUnion;

/// How call-tree nodes are matched across the composed thickets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeMatch {
    /// Match by full call path (structural union) — the default when the
    /// inputs come from the same code shape.
    Path,
    /// Match by node *name* — needed when different tools produce
    /// different tree shapes around the same kernels (the paper's
    /// CPU-Caliper vs GPU-NCU composition, Figure 15). Node names must
    /// be unique within each input.
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
        // A perf row whose profile id has no metadata row cannot be
        // re-keyed; silently mapping it to null would corrupt the index.
        let remap = |old: &Value| -> Result<Option<Value>, ThicketError> {
            match map.get(old) {
                Some(new) => Ok(Some(new.clone())),
                None => Err(ThicketError::Invalid(format!(
                    "perf data references profile {old} which has no metadata row; \
                     cannot reindex by {column}"
                ))),
            }
        };
        let perf_data = self.perf_data.map_level(PROFILE_LEVEL, remap)?;
        let metadata = self.metadata.map_level(PROFILE_LEVEL, remap)?;
        Thicket::from_components(
            self.graph.clone(),
            perf_data.sort_by_index(),
            metadata,
            DataFrame::new(Index::empty([NODE_LEVEL])),
        )
    }
}

/// Compose thickets along the column axis: each input's performance-data
/// and metadata columns appear under its group label; rows are the
/// `(node, profile)` pairs present in **all** inputs (inner join — the
/// paper's intersection semantics).
///
/// Each input's re-keyed, column-grouped perf frame is built on its own
/// worker; the frames then meet in one k-way inner join.
pub fn concat_thickets(
    inputs: &[(&str, &Thicket)],
    match_on: NodeMatch,
) -> Result<Thicket, ThicketError> {
    if inputs.is_empty() {
        return Err(ThicketError::Invalid("concat_thickets of nothing".into()));
    }
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

    // Build each input's perf frame (re-keyed node level + grouped
    // columns) on the workers, in input order.
    let threads = thicket_perfsim::default_threads(inputs.len());
    let (perf_frames, result_graph) = match match_on {
        NodeMatch::Path => {
            let graphs: Vec<&thicket_graph::Graph> =
                inputs.iter().map(|(_, t)| t.graph()).collect();
            let union = GraphUnion::build(&graphs);
            let items: Vec<_> = inputs.iter().zip(union.mappings.iter()).collect();
            let frames =
                thicket_perfsim::try_parallel_map(&items, threads, |((label, tk), mapping)| {
                    let frame = tk.perf_rekeyed(|old| Some(mapping[old.index()]))?;
                    Ok::<_, ThicketError>(frame.with_column_group(label))
                })
                .map_err(|e| input_failure(e, "input thicket"))?;
            (frames, union.graph)
        }
        NodeMatch::Name => {
            let frames = thicket_perfsim::try_parallel_map(inputs, threads, |(label, tk)| {
                let frame = tk.perf_data.map_level(NODE_LEVEL, |v| {
                    Ok::<_, ThicketError>(Some(Value::from(tk.node_name(v).as_str())))
                })?;
                if !frame.index().is_unique() {
                    return Err(ThicketError::Invalid(format!(
                        "node names are not unique in input {label:?}; use NodeMatch::Path"
                    )));
                }
                Ok(frame.with_column_group(label))
            })
            .map_err(|e| input_failure(e, "input thicket"))?;
            (frames, inputs[0].1.graph().clone())
        }
    };

    let refs: Vec<&DataFrame> = perf_frames.iter().collect();
    let perf_data = join_many(&refs, JoinHow::Inner)?;

    // Metadata composes the same way (outer join keeps every profile).
    let meta_frames: Vec<DataFrame> = inputs
        .iter()
        .map(|(label, tk)| tk.metadata.with_column_group(label))
        .collect();
    let mrefs: Vec<&DataFrame> = meta_frames.iter().collect();
    let metadata = join_many(&mrefs, JoinHow::Outer)?;

    // In Name mode the node level holds names, not arena ids; keep the
    // graph for display but note lookups go through names.
    Thicket::from_components(
        result_graph,
        perf_data.sort_by_index(),
        metadata,
        DataFrame::new(Index::empty([NODE_LEVEL])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_dataframe::ColKey;
    use thicket_perfsim::{
        simulate_cpu_run, simulate_gpu_run, CpuRunConfig, GpuRunConfig,
    };

    fn cpu_thicket() -> Thicket {
        let profiles: Vec<_> = [1_048_576u64, 4_194_304]
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

    fn gpu_thicket() -> Thicket {
        let profiles: Vec<_> = [1_048_576u64, 4_194_304]
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

    #[test]
    fn reindex_rejects_orphaned_perf_profile() {
        // Hand-build a thicket whose perf data references a profile id
        // that has no metadata row.
        let tk = cpu_thicket();
        let mut perf = tk.perf_data().clone();
        let orphan = Value::Int(999_999);
        let mut keys: Vec<Vec<Value>> = perf.index().keys().to_vec();
        keys[0][1] = orphan.clone();
        let index = Index::new(["node", "profile"], keys).unwrap();
        let mut rekeyed = DataFrame::new(index);
        for (k, c) in perf.columns() {
            rekeyed.insert(k.clone(), c.clone()).unwrap();
        }
        perf = rekeyed;
        let broken = Thicket::from_components(
            tk.graph().clone(),
            perf,
            tk.metadata().clone(),
            DataFrame::new(Index::empty(["node"])),
        )
        .unwrap();
        let err = broken
            .reindex_profiles_by(&ColKey::new("problem size"))
            .unwrap_err();
        assert!(
            err.to_string().contains("999999"),
            "error should name the orphaned profile: {err}"
        );
        assert!(err.to_string().contains("no metadata row"), "{err}");
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
        let dot_rows = composed
            .perf_data()
            .index()
            .keys()
            .iter()
            .filter(|k| k[0] == Value::from("Stream_DOT"))
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
}
