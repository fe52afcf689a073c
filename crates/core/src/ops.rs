//! The thicket manipulation operations (paper §4.1): metadata filtering,
//! grouping, and call-path querying. Each operation returns *new*
//! thickets, never mutating the original (the paper's explicit design
//! point to avoid unintended modification).

use crate::thicket::{Thicket, ThicketError, NODE_LEVEL, PROFILE_LEVEL};
use std::collections::HashSet;
use thicket_dataframe::{ColKey, DataFrame, GroupBy, PredExpr, RowRef, Value};
use thicket_graph::NodeId;
use thicket_query::Query;

impl Thicket {
    /// Keep only the profiles whose *metadata row* satisfies `pred`
    /// (paper §4.1.1, Figure 6). Both the metadata and the performance
    /// data shrink to the selected profiles.
    pub fn filter_metadata<F>(&self, pred: F) -> Thicket
    where
        F: FnMut(RowRef<'_>) -> bool,
    {
        let metadata = self.metadata.filter(pred);
        let keep: HashSet<Value> = metadata
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        self.with_profiles(&keep, metadata)
    }

    /// [`Thicket::filter_metadata`] with a typed [`PredExpr`]: the same
    /// expression AST the store pushdown and the query dialect compile
    /// into, evaluated by the vectorized engine directly over the
    /// metadata frame's columnar storage. Fields resolve to metadata
    /// columns first, then index levels; a field the frame doesn't
    /// have matches no rows.
    pub fn filter_metadata_where(&self, expr: &PredExpr) -> Thicket {
        let metadata = self.metadata.filter_expr(expr);
        let keep: HashSet<Value> = metadata
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        self.with_profiles(&keep, metadata)
    }

    /// Keep an explicit set of profile index values.
    pub fn filter_profiles(&self, profiles: &[Value]) -> Thicket {
        let keep: HashSet<Value> = profiles.iter().cloned().collect();
        let metadata = self.metadata.filter(|r| keep.contains(&r.level(PROFILE_LEVEL)));
        self.with_profiles(&keep, metadata)
    }

    fn with_profiles(&self, keep: &HashSet<Value>, metadata: DataFrame) -> Thicket {
        // One `In` over the profile index level, evaluated by the
        // vectorized engine — the same path metadata filters and store
        // pushdown use.
        let keep_expr = PredExpr::is_in(PROFILE_LEVEL, keep.iter().cloned());
        let perf_data = self.perf_data.filter_expr(&keep_expr);
        // Statistics describe the previous profile set; they start empty.
        Thicket::unchecked(self.graph.clone(), perf_data, metadata)
    }

    /// Split into one thicket per distinct combination of metadata
    /// `columns` (paper §4.1.2, Figure 7). Returns `(key, thicket)`
    /// pairs in first-seen order.
    pub fn groupby(
        &self,
        columns: &[ColKey],
    ) -> Result<Vec<(Vec<Value>, Thicket)>, ThicketError> {
        let groups = GroupBy::by_columns(&self.metadata, columns)?;
        let mut out = Vec::with_capacity(groups.len());
        for (key, meta_subset) in groups.iter() {
            let keep: HashSet<Value> = meta_subset
                .index()
                .keys()
                .iter()
                .map(|k| k[0].clone())
                .collect();
            out.push((key.clone(), self.with_profiles(&keep, meta_subset)));
        }
        Ok(out)
    }

    /// Apply a call-path query (paper §4.1.3, Figure 8): the result keeps
    /// only matched nodes, with the call tree re-rooted through nearest
    /// kept ancestors, and the performance data filtered and re-keyed
    /// accordingly.
    pub fn query(&self, query: &Query) -> Thicket {
        self.induced(&query.apply(&self.graph))
    }

    /// The thicket over the nodes `keep`: the subgraph they induce, with
    /// each kept node re-rooted under its nearest kept ancestor, and the
    /// perf rows of kept nodes re-keyed onto it.
    pub(crate) fn induced(&self, keep: &HashSet<NodeId>) -> Thicket {
        let (subgraph, mapping) = self.graph.induced_subgraph(keep);
        let perf_data = self.perf_rekeyed(|old| mapping.get(&old).copied());
        Thicket::unchecked(subgraph, perf_data.sort_by_index(), self.metadata.clone())
    }

    /// Keep only the statsframe rows (call-tree nodes) satisfying `pred`
    /// (paper §4.2.1, Figure 9 bottom). The closure sees the statsframe
    /// as [`Thicket::statsframe`] holds it: its `node` level is node ids,
    /// so a predicate on call-site names goes through
    /// [`Thicket::node_name`]. Requires [`crate::Thicket::compute_stats`]
    /// to have run.
    pub fn filter_stats<F>(&self, mut pred: F) -> Thicket
    where
        F: FnMut(RowRef<'_>) -> bool,
    {
        let kept_rows: Vec<usize> = (0..self.statsframe.len())
            .filter(|&i| pred(self.statsframe.row(i)))
            .collect();
        let statsframe = self.statsframe.take(&kept_rows);
        let keep: HashSet<Value> = statsframe
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        let perf_data = self
            .perf_data
            .filter(|r| keep.contains(&r.level(NODE_LEVEL)));
        Thicket {
            graph: self.graph.clone(),
            perf_data,
            metadata: self.metadata.clone(),
            statsframe,
        }
    }

    /// [`Thicket::filter_stats`] with a typed [`PredExpr`], evaluated
    /// against the *named* statsframe ([`Thicket::statsframe_named`]) so
    /// predicates can compare the `node` level against call-site names.
    /// Requires [`crate::Thicket::compute_stats`] to have run.
    pub fn filter_stats_where(&self, expr: &PredExpr) -> Thicket {
        let named = self.statsframe_named();
        let kept_rows = named.select_rows(expr).positions();
        let statsframe = self.statsframe.take(&kept_rows);
        let keep: Vec<Value> = statsframe
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect();
        let keep_expr = PredExpr::is_in(NODE_LEVEL, keep);
        let perf_data = self.perf_data.filter_expr(&keep_expr);
        Thicket {
            graph: self.graph.clone(),
            perf_data,
            metadata: self.metadata.clone(),
            statsframe,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_dataframe::AggFn;
    use thicket_perfsim::{simulate_cpu_run, Compiler, CpuRunConfig};
    use thicket_query::pred;

    /// Four profiles: 2 compilers × 2 problem sizes (the Figure 5 shape).
    fn sample() -> Thicket {
        let mut profiles = Vec::new();
        for (ci, compiler) in [Compiler::clang9(), Compiler::xl16()].iter().enumerate() {
            for (si, size) in [1_048_576u64, 4_194_304].iter().enumerate() {
                let mut cfg = CpuRunConfig::quartz_default();
                cfg.compiler = compiler.clone();
                cfg.problem_size = *size;
                cfg.seed = (ci * 2 + si) as u64;
                profiles.push(simulate_cpu_run(&cfg));
            }
        }
        Thicket::loader(&profiles).load().unwrap().0
    }

    #[test]
    fn filter_metadata_selects_compiler() {
        let tk = sample();
        let clang = tk.filter_metadata(|r| {
            r.str("compiler").as_deref() == Some("clang-9.0.0")
        });
        assert_eq!(clang.metadata().len(), 2);
        assert_eq!(clang.profiles().len(), 2);
        // Perf data shrank proportionally.
        assert_eq!(clang.perf_data().len(), tk.perf_data().len() / 2);
        // Original untouched.
        assert_eq!(tk.metadata().len(), 4);
    }

    #[test]
    fn filter_metadata_empty_result() {
        let tk = sample();
        let none = tk.filter_metadata(|_| false);
        assert_eq!(none.metadata().len(), 0);
        assert_eq!(none.perf_data().len(), 0);
    }

    #[test]
    fn filter_metadata_where_agrees_with_closure() {
        let tk = sample();
        let by_expr = tk.filter_metadata_where(&PredExpr::eq("compiler", "clang-9.0.0"));
        let by_closure = tk.filter_metadata(|r| {
            r.str("compiler").as_deref() == Some("clang-9.0.0")
        });
        assert_eq!(by_expr.profiles(), by_closure.profiles());
        assert_eq!(by_expr.metadata().len(), 2);
        assert_eq!(by_expr.perf_data().len(), by_closure.perf_data().len());
    }

    #[test]
    fn filter_metadata_where_compound() {
        let tk = sample();
        let expr = PredExpr::and([
            PredExpr::eq("compiler", "clang-9.0.0"),
            PredExpr::gt("problem size", 2_000_000i64),
        ]);
        let one = tk.filter_metadata_where(&expr);
        assert_eq!(one.metadata().len(), 1);
        assert_eq!(one.profiles().len(), 1);
        // A field no frame has matches nothing.
        let none = tk.filter_metadata_where(&PredExpr::eq("nope", 1i64));
        assert_eq!(none.metadata().len(), 0);
        assert_eq!(none.perf_data().len(), 0);
    }

    #[test]
    fn filter_stats_where_matches_closure_filter() {
        let mut tk = sample();
        tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Std])])
            .unwrap();
        let expr = PredExpr::is_in(
            NODE_LEVEL,
            ["Apps_VOL3D", "Apps_NODAL_ACCUMULATION_3D"],
        );
        let filtered = tk.filter_stats_where(&expr);
        assert_eq!(filtered.statsframe().len(), 2);
        assert_eq!(filtered.perf_data().len(), 8);
        let closure = tk.filter_stats(|r| {
            let name = tk.node_name(&r.level(NODE_LEVEL));
            name == "Apps_VOL3D" || name == "Apps_NODAL_ACCUMULATION_3D"
        });
        assert_eq!(
            filtered.statsframe().index().keys(),
            closure.statsframe().index().keys()
        );
        // Predicates over stats columns agree with the closure
        // spelling (null std cells are absent ⇒ false on both paths).
        let by_expr = tk.filter_stats_where(&PredExpr::ge("time (exc)_std", 0.0));
        let by_closure =
            tk.filter_stats(|r| r.f64("time (exc)_std").is_some_and(|v| v >= 0.0));
        assert_eq!(by_expr.statsframe().len(), by_closure.statsframe().len());
    }

    #[test]
    fn groupby_compiler_and_size_gives_four() {
        let tk = sample();
        let groups = tk
            .groupby(&[ColKey::new("compiler"), ColKey::new("problem size")])
            .unwrap();
        assert_eq!(groups.len(), 4);
        for (key, sub) in &groups {
            assert_eq!(key.len(), 2);
            assert_eq!(sub.metadata().len(), 1);
            assert_eq!(sub.profiles().len(), 1);
        }
        // Keys cover both compilers.
        let compilers: HashSet<String> = groups
            .iter()
            .map(|(k, _)| k[0].as_str().unwrap().to_string())
            .collect();
        assert_eq!(compilers.len(), 2);
    }

    #[test]
    fn groupby_missing_column_errors() {
        let tk = sample();
        assert!(tk.groupby(&[ColKey::new("nope")]).is_err());
    }

    #[test]
    fn query_restricts_nodes() {
        let tk = sample();
        let q = Query::builder()
            .any("*")
            .node(".", pred::name_starts_with("Stream_"))
            .build();
        let streams = tk.query(&q);
        // Result contains Stream kernels plus their ancestors.
        assert!(streams.find_node("Stream_DOT").is_some());
        assert!(streams.find_node("Apps_VOL3D").is_none());
        assert!(streams.graph().len() < tk.graph().len());
        // Perf data only covers kept nodes.
        for key in streams.perf_data().index().keys() {
            let name = streams.node_name(&key[0]);
            assert!(
                name.starts_with("Stream")
                    || name == "Base_Seq"
                    || name == "Stream",
                "unexpected node {name}"
            );
        }
        // All four profiles retained.
        assert_eq!(streams.metadata().len(), 4);
    }

    #[test]
    fn query_no_match_empties_thicket() {
        let tk = sample();
        let q = Query::builder().node(".", pred::name_eq("nope")).build();
        let none = tk.query(&q);
        assert_eq!(none.graph().len(), 0);
        assert_eq!(none.perf_data().len(), 0);
    }

    #[test]
    fn filter_stats_narrows_nodes() {
        let mut tk = sample();
        tk.compute_stats(&[(ColKey::new("time (exc)"), vec![AggFn::Std])])
            .unwrap();
        let nodes_before = tk.statsframe().len();
        assert!(nodes_before > 0);
        let filtered = tk.filter_stats(|r| {
            let name = tk.node_name(&r.level(NODE_LEVEL));
            name == "Apps_VOL3D" || name == "Apps_NODAL_ACCUMULATION_3D"
        });
        assert_eq!(filtered.statsframe().len(), 2);
        // Perf data narrowed to the two nodes × 4 profiles.
        assert_eq!(filtered.perf_data().len(), 8);
    }
}
