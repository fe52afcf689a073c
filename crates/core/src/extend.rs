//! Additional thicket operations beyond the paper's §4 core set: graph
//! squashing (Hatchet's `squash`), node intersection across profiles,
//! string-dialect querying, and CSV export.

use crate::thicket::{Thicket, ThicketError, NODE_LEVEL};
use std::collections::{HashMap, HashSet};
use thicket_dataframe::{to_csv, ColKey, Value};
use thicket_query::Query;

impl Thicket {
    /// Remove call-graph nodes that carry no performance data (e.g.
    /// structural interior nodes another profile contributed), rebuilding
    /// ancestry through nearest kept ancestors — Hatchet's `squash`.
    pub fn squash(&self) -> Thicket {
        let measured: HashSet<_> = self
            .perf_data
            .index()
            .keys()
            .iter()
            .filter_map(|k| self.node_of_value(&k[0]))
            .collect();
        self.induced(&measured)
    }

    /// Keep only call-tree nodes measured in **every** profile — the
    /// strict intersection semantics of the paper's hierarchical
    /// composition, applied within a single thicket.
    pub fn intersect_nodes(&self) -> Thicket {
        let nprofiles = self.metadata.len();
        let mut counts: HashMap<Value, HashSet<Value>> = HashMap::new();
        for key in self.perf_data.index().keys() {
            counts
                .entry(key[0].clone())
                .or_default()
                .insert(key[1].clone());
        }
        let keep: HashSet<Value> = counts
            .into_iter()
            .filter(|(_, profiles)| profiles.len() == nprofiles)
            .map(|(node, _)| node)
            .collect();
        let perf_data = self
            .perf_data
            .filter(|r| keep.contains(&r.level(NODE_LEVEL)));
        Thicket::unchecked(self.graph.clone(), perf_data, self.metadata.clone()).squash()
    }

    /// Apply a query written in the string dialect (see
    /// [`thicket_query::Query::parse`]), e.g.
    /// `(".", name == "Base_CUDA") -> ("*") -> (".", name endswith "block_128")`.
    pub fn query_str(&self, query: &str) -> Result<Thicket, ThicketError> {
        let q = Query::parse(query)
            .map_err(|e| ThicketError::Invalid(format!("query dialect: {e}")))?;
        Ok(self.query(&q))
    }

    /// Performance data as CSV, with the node level rendered as names.
    pub fn perf_csv(&self) -> String {
        to_csv(&self.perf_data_named())
    }

    /// Metadata table as CSV.
    pub fn metadata_csv(&self) -> String {
        to_csv(&self.metadata)
    }

    /// Aggregated statistics as CSV, node level rendered as names.
    pub fn stats_csv(&self) -> String {
        to_csv(&self.statsframe_named())
    }

    /// Structural diff of this thicket's call graph against another's
    /// (which call paths appeared/disappeared between two ensembles).
    pub fn graph_diff(&self, other: &Thicket) -> thicket_graph::GraphDiff {
        thicket_graph::GraphDiff::compute(self.graph(), other.graph())
    }

    /// Per-profile totals of one metric (summed over nodes) — a quick
    /// whole-run figure of merit.
    pub fn profile_totals(&self, metric: &ColKey) -> Result<Vec<(Value, f64)>, ThicketError> {
        let col = self.perf_data.column(metric)?;
        let mut acc: HashMap<Value, f64> = HashMap::new();
        for (row, key) in self.perf_data.index().keys().iter().enumerate() {
            if let Some(v) = col.get_f64(row) {
                *acc.entry(key[1].clone()).or_insert(0.0) += v;
            }
        }
        // Report in metadata (profile) order.
        Ok(self
            .profiles()
            .into_iter()
            .filter_map(|p| acc.get(&p).map(|v| (p.clone(), *v)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_graph::{Frame, Graph};
    use thicket_perfsim::Profile;

    /// Profile with interior nodes that carry no metrics.
    fn profile_with_structure(run: i64, with_extra: bool) -> Profile {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("main"));
        let wrapper = g.add_child(main, Frame::named("wrapper"));
        let kernel = g.add_child(wrapper, Frame::named("kernel"));
        let mut p = Profile::new(g);
        p.set_metadata("run", run);
        p.set_metric(kernel, "time", run as f64);
        if with_extra {
            let extra = p.graph().find_by_name("wrapper").unwrap();
            p.set_metric(extra, "time", run as f64 * 0.1);
        }
        p
    }

    fn build(profiles: &[Profile]) -> Thicket {
        Thicket::loader(profiles).load().map(|(tk, _)| tk).unwrap()
    }

    fn build_indexed(profiles: &[Profile], ids: &[Value]) -> Thicket {
        Thicket::loader(profiles)
            .profile_ids(ids)
            .load()
            .map(|(tk, _)| tk)
            .unwrap()
    }

    #[test]
    fn squash_drops_unmeasured_nodes() {
        let tk = build(&[
            profile_with_structure(1, false),
            profile_with_structure(2, false),
        ]);
        assert_eq!(tk.graph().len(), 3);
        let squashed = tk.squash();
        // Only `kernel` carries metrics.
        assert_eq!(squashed.graph().len(), 1);
        assert_eq!(squashed.perf_data().len(), 2);
        let kernel = squashed.find_node("kernel").unwrap();
        assert_eq!(
            squashed.metric_at(kernel, &tk.profiles()[0], &ColKey::new("time")),
            Some(1.0)
        );
    }

    #[test]
    fn squash_preserves_measured_ancestry() {
        let tk = build(&[profile_with_structure(1, true)]);
        let squashed = tk.squash();
        assert_eq!(squashed.graph().len(), 2);
        let kernel = squashed.find_node("kernel").unwrap();
        // kernel's parent is now the measured wrapper.
        assert_eq!(
            squashed.graph().node(squashed.graph().node(kernel).parents()[0]).name(),
            "wrapper"
        );
    }

    #[test]
    fn intersect_nodes_keeps_common_only() {
        // Profile 2 has an extra measured node (wrapper).
        let tk = build(&[
            profile_with_structure(1, false),
            profile_with_structure(2, true),
        ]);
        let common = tk.intersect_nodes();
        // Only `kernel` is measured in both profiles.
        assert_eq!(common.graph().len(), 1);
        assert_eq!(common.perf_data().len(), 2);
    }

    #[test]
    fn query_str_end_to_end() {
        let tk = build(&[profile_with_structure(1, true)]);
        let hit = tk.query_str(r#"("*") -> (".", name == "kernel")"#).unwrap();
        assert!(hit.find_node("kernel").is_some());
        assert!(tk.query_str("((((").is_err());
    }

    #[test]
    fn csv_exports() {
        let mut tk = build(&[
            profile_with_structure(1, false),
            profile_with_structure(2, false),
        ]);
        tk.compute_stats_all(thicket_dataframe::AggFn::Mean).unwrap();
        let perf = tk.perf_csv();
        assert!(perf.lines().next().unwrap().starts_with("node,profile"));
        assert!(perf.contains("kernel"));
        let meta = tk.metadata_csv();
        assert_eq!(meta.lines().count(), 3);
        let stats = tk.stats_csv();
        assert!(stats.contains("time_mean"));
    }

    #[test]
    fn graph_diff_between_thickets() {
        let a = build(&[profile_with_structure(1, false)]);
        let b = build(&[profile_with_structure(2, false)]);
        let d = a.graph_diff(&b);
        assert!(d.is_identical());
        assert_eq!(d.similarity(), 1.0);
    }

    #[test]
    fn profile_totals_sum_metrics() {
        let tk = build_indexed(
            &[profile_with_structure(1, true), profile_with_structure(2, true)],
            &[Value::Int(1), Value::Int(2)],
        );
        let totals = tk.profile_totals(&ColKey::new("time")).unwrap();
        assert_eq!(totals.len(), 2);
        assert!((totals[0].1 - 1.1).abs() < 1e-12);
        assert!((totals[1].1 - 2.2).abs() < 1e-12);
        assert!(tk.profile_totals(&ColKey::new("nope")).is_err());
    }
}
