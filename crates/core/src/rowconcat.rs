//! Row-axis (index) concatenation of thickets: pooling several ensembles
//! into one larger ensemble — the counterpart of the column-axis
//! composition in [`crate::concat_thickets`]. Thicket's Python API calls
//! this `concat_thickets(axis="index")`.

use crate::thicket::{input_failure, Thicket, ThicketError};
use std::collections::{HashMap, HashSet};
use thicket_dataframe::{ColKey, DataFrame, Value};
use thicket_graph::{Graph, GraphUnion};

/// Pool the profiles of several thickets into one thicket: call graphs
/// are structurally unified, performance rows re-keyed onto the unified
/// node ids, and metadata rows concatenated (missing columns null-fill).
/// Profile ids must be globally unique across inputs.
///
/// The union is seeded with the first input's graph, so the first input
/// keeps its node ids and its rows are neither re-keyed nor re-sorted.
/// Each later input's rows are re-keyed on its own worker, stacked with
/// [`DataFrame::concat_rows`] and merged into the first input's rows in
/// `(node, profile)` order, with its new metric columns in the order one
/// load would meet them. Because the union walks every graph in arena
/// order, pooling the loads of consecutive groups of profiles builds
/// the thicket one load of all of them builds.
///
/// A later input whose graph holds two sibling nodes with the same frame
/// (as [`Thicket::squash`] and [`Thicket::query`] can leave) is
/// rejected: both would fold onto one pooled node and collide.
pub fn concat_thickets_rows(inputs: &[&Thicket]) -> Result<Thicket, ThicketError> {
    let Some((first, rest)) = inputs.split_first() else {
        return Err(ThicketError::Invalid(
            "concat_thickets_rows of nothing".into(),
        ));
    };
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
    let graphs: Vec<&Graph> = rest.iter().map(|t| t.graph()).collect();
    let union = GraphUnion::build_onto(first.graph().clone(), &graphs);
    for (i, mapping) in union.mappings.iter().enumerate() {
        let mut seen = HashSet::with_capacity(mapping.len());
        if !mapping.iter().all(|n| seen.insert(n)) {
            return Err(ThicketError::Invalid(format!(
                "input thicket {} has two sibling nodes with the same frame",
                i + 1
            )));
        }
    }

    let perf_data = if rest.is_empty() {
        first.perf_data().clone()
    } else {
        let items: Vec<_> = rest.iter().zip(&union.mappings).collect();
        let threads = thicket_perfsim::default_threads(items.len());
        let mut frames: Vec<DataFrame> =
            thicket_perfsim::try_parallel_map(&items, threads, |(tk, mapping)| {
                let frame = tk.perf_rekeyed(|old| Some(mapping[old.index()]));
                Ok::<_, ThicketError>(in_load_column_order(frame, tk, first.perf_data()))
            })
            .map_err(|mut e| {
                e.index += 1; // `rest` starts at input 1
                input_failure(e, "input thicket")
            })?;
        let later = match frames.len() {
            1 => frames.pop().expect("one frame"),
            _ => DataFrame::concat_rows(&frames.iter().collect::<Vec<_>>())?,
        };
        first.perf_data().merge_sorted(&later)?
    };

    // Metadata rows stack in input order; columns union, null fill.
    let metas: Vec<&DataFrame> = inputs.iter().map(|tk| tk.metadata()).collect();
    let metadata = DataFrame::concat_rows(&metas)?;

    Thicket::from_components(union.graph, perf_data, metadata)
}

/// `frame`, the rows of `input` re-keyed onto the pooled graph, with its
/// columns in the order one load of its profiles gives them. A load
/// meets columns profile by profile, each profile's rows in node order,
/// a row's metrics by name; re-keying renumbers the nodes, so the
/// input's own order can differ. Only columns the first input's frame
/// `seen` lacks can land in a new place, so with fewer than two of
/// them the frame is returned as it is.
fn in_load_column_order(frame: DataFrame, input: &Thicket, seen: &DataFrame) -> DataFrame {
    if frame.columns().filter(|(k, _)| !seen.has_column(k)).count() < 2 {
        return frame;
    }
    let profiles = input.profiles();
    let position: HashMap<&Value, usize> =
        profiles.iter().enumerate().map(|(i, p)| (p, i)).collect();
    let rows: Vec<(usize, &Value)> = frame
        .index()
        .keys()
        .iter()
        .map(|k| (position.get(&k[1]).copied().unwrap_or(usize::MAX), &k[0]))
        .collect();
    // Each column's first cell in that reading; columns without one last.
    let mut order: Vec<(Option<(usize, &Value)>, ColKey)> = frame
        .columns()
        .map(|(k, c)| {
            let first = (0..rows.len())
                .filter(|&r| !c.is_null_at(r))
                .map(|r| rows[r])
                .min();
            (first, k.clone())
        })
        .collect();
    order.sort_by(|(a, ka), (b, kb)| (a.is_none(), a, ka).cmp(&(b.is_none(), b, kb)));
    let keys: Vec<ColKey> = order.into_iter().map(|(_, k)| k).collect();
    if keys == frame.column_keys() {
        frame
    } else {
        frame.select(&keys).expect("the frame's own columns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_dataframe::ColKey;
    use thicket_graph::Frame;
    use thicket_perfsim::{
        simulate_cpu_run, simulate_gpu_run, CpuRunConfig, GpuRunConfig, Profile,
    };

    fn cpu(seed: u64) -> Thicket {
        let mut cfg = CpuRunConfig::quartz_default();
        cfg.seed = seed;
        Thicket::loader(&[simulate_cpu_run(&cfg)][..])
            .load()
            .map(|(tk, _)| tk)
            .unwrap()
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

    /// A profile over the call paths `paths` (`main/a/c`), created in the
    /// order listed; every node but those named in `unmeasured` measures
    /// `time`.
    fn profile(run: i64, paths: &[&str], unmeasured: &[&str]) -> Profile {
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
        p.set_metadata("run", run);
        for id in nodes {
            if !unmeasured.contains(&p.graph().node(id).name()) {
                p.set_metric(id, "time", (10 * run) as f64 + id.index() as f64);
            }
        }
        p
    }

    fn load(profiles: &[Profile]) -> Thicket {
        Thicket::loader(profiles).load().unwrap().0
    }

    fn names(tk: &Thicket) -> Vec<&str> {
        tk.graph()
            .ids()
            .map(|id| tk.graph().node(id).name())
            .collect()
    }

    /// Pooling the loads of `groups` builds one load of all their
    /// profiles, whose arena holds `arena`.
    fn assert_pool_is_one_load(groups: &[Vec<Profile>], arena: &[&str]) {
        let whole = load(&groups.concat());
        let loads: Vec<Thicket> = groups.iter().map(|g| load(g)).collect();
        let pooled = concat_thickets_rows(&loads.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(names(&whole), arena);
        assert_eq!(names(&pooled), arena);
        assert_eq!(pooled.perf_data(), whole.perf_data());
        assert_eq!(pooled.metadata(), whole.metadata());
    }

    #[test]
    fn pooling_keeps_the_first_inputs_arena() {
        // The load of [P1, P2] has the arena main, a, b, c, which is not
        // its pre-order (main, a, c, b).
        let p1 = profile(1, &["main/a", "main/b"], &[]);
        let p2 = profile(2, &["main/a/c"], &[]);
        let p3 = profile(3, &["main/a", "main/b"], &[]);
        assert_pool_is_one_load(&[vec![p1, p2], vec![p3]], &["main", "a", "b", "c"]);
    }

    #[test]
    fn pooling_walks_later_inputs_in_arena_order() {
        // The load of B has the arena main, x, w, z; a pre-order walk of
        // it would add z before w.
        let a = profile(1, &["main/q"], &[]);
        let b1 = profile(2, &["main/x", "main/w"], &[]);
        let b2 = profile(3, &["main/x/z"], &[]);
        assert_pool_is_one_load(&[vec![a], vec![b1, b2]], &["main", "q", "x", "w", "z"]);
    }

    #[test]
    fn later_input_with_sibling_frames_twice_is_rejected() {
        // Squashing main→a→x, main→b→x (a and b unmeasured) leaves two
        // `x` under main, which would fold onto one pooled node.
        let squashed = |run: i64| {
            let p = profile(run, &["main/a/x", "main/b/x"], &["a", "b"]);
            Thicket::loader(&[p][..])
                .profile_ids(&[Value::Int(run)])
                .load()
                .unwrap()
                .0
                .squash()
        };
        let (one, two) = (squashed(1), squashed(2));
        assert_eq!(names(&one), ["main", "x", "x"]);
        let err = concat_thickets_rows(&[&one, &two]).unwrap_err();
        assert!(err.to_string().contains("input thicket 1"), "{err}");
        // As the first input, it keeps its two nodes apart.
        let pooled = concat_thickets_rows(&[&one]).unwrap();
        assert!(pooled.perf_data().index().is_unique());
    }
}
