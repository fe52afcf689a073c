//! Row-axis (index) concatenation of thickets: pooling several ensembles
//! into one larger ensemble — the counterpart of the column-axis
//! composition in [`crate::concat_thickets`]. Thicket's Python API calls
//! this `concat_thickets(axis="index")`.

use crate::thicket::{input_failure, Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};
use std::collections::HashSet;
use thicket_dataframe::{merge_fragments, ColumnFragments, DataFrame, Index, Key, Value};
use thicket_graph::GraphUnion;

/// Pool the profiles of several thickets into one thicket: call graphs
/// are structurally unified, performance rows re-keyed onto the unified
/// node ids, and metadata rows concatenated (missing columns null-fill).
/// Profile ids must be globally unique across inputs.
///
/// Per-input row batches are extracted on worker threads; see
/// [`concat_thickets_rows_threads`] for an explicit count.
pub fn concat_thickets_rows(inputs: &[&Thicket]) -> Result<Thicket, ThicketError> {
    concat_thickets_rows_threads(inputs, thicket_perfsim::default_threads(inputs.len()))
}

/// [`concat_thickets_rows`] with an explicit worker count. Each input's
/// re-keyed row batch is built on its own worker; batches merge into the
/// frame serially in input order, so the result is identical for any
/// `threads ≥ 1`.
pub fn concat_thickets_rows_threads(
    inputs: &[&Thicket],
    threads: usize,
) -> Result<Thicket, ThicketError> {
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
    // graph mapping and emits a typed column batch — the index fragment
    // plus the input's columns, cloned whole (inputs are already
    // columnar, so no per-cell boxing). `merge_fragments` then
    // null-fills metric columns an input lacks in one schema-union
    // pass, keeping row order independent of the thread count.
    let items: Vec<_> = inputs.iter().zip(union.mappings.iter()).collect();
    let frags: Vec<ColumnFragments> =
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
            let mut frag = ColumnFragments::with_keys([NODE_LEVEL, PROFILE_LEVEL], keys)?;
            for (k, c) in tk.perf_data().columns() {
                frag.push_column(k.clone(), c.clone())?;
            }
            Ok(frag)
        })
        .map_err(|e| input_failure(e, "input thicket"))?;
    let perf_data =
        crate::order::sort_frame_by_index_threads(&merge_fragments(&frags)?, threads);

    // Metadata rows concatenate the same way; columns union, null fill.
    let mut meta_frags: Vec<ColumnFragments> = Vec::with_capacity(inputs.len());
    for tk in inputs {
        let keys: Vec<Key> = tk
            .metadata()
            .index()
            .keys()
            .iter()
            .map(|key| vec![key[0].clone()])
            .collect();
        let mut frag = ColumnFragments::with_keys([PROFILE_LEVEL], keys)?;
        for (k, c) in tk.metadata().columns() {
            frag.push_column(k.clone(), c.clone())?;
        }
        meta_frags.push(frag);
    }
    let metadata = merge_fragments(&meta_frags)?;

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
