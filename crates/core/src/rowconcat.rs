//! Row-axis (index) concatenation of thickets: pooling several ensembles
//! into one larger ensemble — the counterpart of the column-axis
//! composition in [`crate::concat_thickets`]. Thicket's Python API calls
//! this `concat_thickets(axis="index")`.

use crate::thicket::{input_failure, Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};
use std::collections::HashSet;
use thicket_dataframe::{DataFrame, Index, Key, Value};
use thicket_graph::GraphUnion;

/// Pool the profiles of several thickets into one thicket: call graphs
/// are structurally unified, performance rows re-keyed onto the unified
/// node ids, and metadata rows concatenated (missing columns null-fill).
/// Profile ids must be globally unique across inputs.
///
/// Each input's perf frame is re-keyed on its own worker; the frames
/// then stack in input order with [`DataFrame::concat_rows`] and are
/// ordered by `(node, profile)`, the way [`Thicket::extend`] merges.
pub fn concat_thickets_rows(inputs: &[&Thicket]) -> Result<Thicket, ThicketError> {
    if inputs.is_empty() {
        return Err(ThicketError::Invalid("concat_thickets_rows of nothing".into()));
    }
    {
        let mut seen: HashSet<Value> = HashSet::new();
        for tk in inputs {
            for p in tk.profiles() {
                if !seen.insert(p.clone()) {
                    return Err(ThicketError::Invalid(format!(
                        "profile id {p} appears in more than one input"
                    )));
                }
            }
        }
    }

    let graphs: Vec<&thicket_graph::Graph> = inputs.iter().map(|t| t.graph()).collect();
    let union = GraphUnion::build(&graphs);

    // Perf rows: each worker re-keys its input's node level through the
    // graph mapping and keeps the input's columns whole (inputs are
    // already columnar, so no per-cell boxing). `concat_rows` then
    // null-fills metric columns an input lacks.
    let items: Vec<_> = inputs.iter().zip(union.mappings.iter()).collect();
    let threads = thicket_perfsim::default_threads(inputs.len());
    let frames: Vec<DataFrame> =
        thicket_perfsim::try_parallel_map(&items, threads, |(tk, mapping)| {
            let keys: Vec<Key> = tk
                .perf_data()
                .index()
                .keys()
                .iter()
                .map(|key| {
                    let old = tk.node_of_value(&key[0]).ok_or_else(|| {
                        ThicketError::Invalid("perf row references unknown node".into())
                    })?;
                    Ok(vec![
                        Value::Int(mapping[old.index()].index() as i64),
                        key[1].clone(),
                    ])
                })
                .collect::<Result<_, ThicketError>>()?;
            let index = Index::new([NODE_LEVEL, PROFILE_LEVEL], keys)?;
            let columns = tk.perf_data().columns().map(|(k, c)| (k.clone(), c.clone()));
            Ok(DataFrame::from_columns(index, columns)?)
        })
        .map_err(|e| input_failure(e, "input thicket"))?;
    let frames: Vec<&DataFrame> = frames.iter().collect();
    let perf_data = DataFrame::concat_rows(&frames)?.sort_by_index();

    // Metadata rows stack the same way; columns union, null fill.
    let metas: Vec<&DataFrame> = inputs.iter().map(|tk| tk.metadata()).collect();
    let metadata = DataFrame::concat_rows(&metas)?;

    Thicket::from_components(
        union.graph,
        perf_data,
        metadata,
        DataFrame::new(Index::empty([NODE_LEVEL])),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_dataframe::ColKey;
    use thicket_perfsim::{simulate_cpu_run, simulate_gpu_run, CpuRunConfig, GpuRunConfig};

    fn cpu(seed: u64) -> Thicket {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.seed = seed;
        Thicket::loader(&[simulate_cpu_run(&cfg)][..])
            .load()
            .map(|(tk, _)| tk)
            .unwrap()
    }

    #[test]
    fn pools_profiles_and_unifies_graphs() {
        let a = cpu(1);
        let b = cpu(2);
        let pooled = concat_thickets_rows(&[&a, &b]).unwrap();
        assert_eq!(pooled.profiles().len(), 2);
        // Same tree shape → same unified size.
        assert_eq!(pooled.graph().len(), a.graph().len());
        assert_eq!(
            pooled.perf_data().len(),
            a.perf_data().len() + b.perf_data().len()
        );
        // Metric values preserved under re-keying.
        let dot_a = a.find_node("Stream_DOT").unwrap();
        let dot_p = pooled.find_node("Stream_DOT").unwrap();
        let profile = a.profiles()[0].clone();
        assert_eq!(
            a.metric_at(dot_a, &profile, &ColKey::new("time (exc)")),
            pooled.metric_at(dot_p, &profile, &ColKey::new("time (exc)"))
        );
    }

    #[test]
    fn mixed_tools_null_fill() {
        let cpu_tk = cpu(1);
        let gpu_tk =
            Thicket::loader(&[simulate_gpu_run(&GpuRunConfig::lassen_default())][..])
            .load()
            .map(|(tk, _)| tk)
            .unwrap();
        let pooled = concat_thickets_rows(&[&cpu_tk, &gpu_tk]).unwrap();
        assert_eq!(pooled.profiles().len(), 2);
        // Graph is the union of the two shapes.
        assert!(pooled.graph().len() > cpu_tk.graph().len());
        // CPU metric exists but is null on GPU rows and vice versa.
        let cpu_col = pooled.perf_data().column(&ColKey::new("time (exc)")).unwrap();
        let gpu_col = pooled.perf_data().column(&ColKey::new("time (gpu)")).unwrap();
        assert!(cpu_col.count_valid() > 0);
        assert!(gpu_col.count_valid() > 0);
        // No row carries both: the two tools measured disjoint trees.
        for row in 0..pooled.perf_data().len() {
            assert!(cpu_col.is_null_at(row) || gpu_col.is_null_at(row));
        }
        // Metadata columns from both sides.
        assert!(pooled.metadata().has_column(&ColKey::new("compiler")));
        assert!(pooled.metadata().has_column(&ColKey::new("cuda compiler")));
    }

    #[test]
    fn duplicate_profile_ids_rejected() {
        let a = cpu(1);
        assert!(concat_thickets_rows(&[&a, &a]).is_err());
        assert!(concat_thickets_rows(&[]).is_err());
    }

    #[test]
    fn stats_work_after_pooling() {
        let a = cpu(1);
        let b = cpu(2);
        let mut pooled = concat_thickets_rows(&[&a, &b]).unwrap();
        pooled
            .compute_stats(&[(ColKey::new("time (exc)"), vec![thicket_dataframe::AggFn::Std])])
            .unwrap();
        // Two runs → std defined on every kernel node.
        let col = pooled
            .statsframe()
            .column(&ColKey::new("time (exc)_std"))
            .unwrap();
        assert!(col.count_valid() > 0);
    }
}
