//! The [`Thicket`] struct: construction from profile ensembles and
//! component access.

use std::collections::{HashMap, HashSet};
use std::fmt;
use thicket_dataframe::{ColKey, DataFrame, DfError, Index, Value};
use thicket_graph::{Graph, NodeId};

/// Name of the call-tree-node index level.
pub(crate) const NODE_LEVEL: &str = "node";
/// Name of the profile index level.
pub(crate) const PROFILE_LEVEL: &str = "profile";

/// Errors raised by thicket operations.
#[derive(Debug)]
pub enum ThicketError {
    /// Underlying dataframe failure.
    Df(DfError),
    /// Invalid construction input.
    Invalid(String),
    /// A worker thread panicked while processing one source; the panic
    /// was captured and isolated (it never crosses the API boundary as
    /// an unwind).
    Worker {
        /// The source the worker was processing (a profile id).
        source: String,
        /// The captured panic message.
        message: String,
    },
    /// The sharded on-disk store could not be opened or read.
    Store(thicket_perfsim::StoreError),
    /// An ensemble directory could not be read under fail-fast
    /// strictness (the first bad profile aborts the load).
    Profile(Box<thicket_perfsim::ProfileError>),
}

impl fmt::Display for ThicketError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThicketError::Df(e) => write!(f, "dataframe: {e}"),
            ThicketError::Invalid(m) => f.write_str(m),
            ThicketError::Worker { source, message } => {
                write!(f, "worker panicked on {source}: {message}")
            }
            ThicketError::Store(e) => write!(f, "store: {e}"),
            ThicketError::Profile(e) => write!(f, "profile: {e}"),
        }
    }
}

impl std::error::Error for ThicketError {}

impl From<DfError> for ThicketError {
    fn from(e: DfError) -> Self {
        ThicketError::Df(e)
    }
}

impl From<thicket_perfsim::StoreError> for ThicketError {
    fn from(e: thicket_perfsim::StoreError) -> Self {
        ThicketError::Store(e)
    }
}

impl From<thicket_perfsim::ProfileError> for ThicketError {
    fn from(e: thicket_perfsim::ProfileError) -> Self {
        ThicketError::Profile(Box::new(e))
    }
}

/// A unified, multi-run performance dataset (paper Figure 3).
#[derive(Debug, Clone)]
pub struct Thicket {
    /// The unified call graph of the ensemble.
    pub(crate) graph: Graph,
    /// `(node, profile)`-indexed metric table.
    pub(crate) perf_data: DataFrame,
    /// `profile`-indexed metadata table.
    pub(crate) metadata: DataFrame,
    /// `node`-indexed aggregated statistics (empty until computed).
    pub(crate) statsframe: DataFrame,
}

impl Thicket {
    /// Assemble a thicket from a graph, a `(node, profile)`-indexed perf
    /// table and a `profile`-indexed metadata table, with an empty
    /// statsframe. This is where the invariant every thicket keeps is
    /// checked: every perf node value is the id of a node of `graph`
    /// ([`Thicket::node_of_value`]), and every perf row's profile has a
    /// metadata row. Composition and pooling build through here; a
    /// load, and the operations that only narrow a thicket (`query`,
    /// `squash`, `groupby`, the `filter_*` family), keep the invariant
    /// by construction and skip this O(rows) check.
    pub fn from_components(
        graph: Graph,
        perf_data: DataFrame,
        metadata: DataFrame,
    ) -> Result<Thicket, ThicketError> {
        if perf_data.index().names() != [NODE_LEVEL, PROFILE_LEVEL] {
            return Err(ThicketError::Invalid(format!(
                "perf_data index must be (node, profile), got {:?}",
                perf_data.index().names()
            )));
        }
        if metadata.index().names() != [PROFILE_LEVEL] {
            return Err(ThicketError::Invalid(
                "metadata index must be (profile)".into(),
            ));
        }
        let tk = Thicket::unchecked(graph, perf_data, metadata);
        let profiles: HashSet<&Value> = tk.metadata.index().keys().iter().map(|k| &k[0]).collect();
        for key in tk.perf_data.index().keys() {
            if tk.node_of_value(&key[0]).is_none() {
                return Err(ThicketError::Invalid(format!(
                    "perf row references node {}, which is not a node of the graph",
                    key[0]
                )));
            }
            if !profiles.contains(&key[1]) {
                return Err(ThicketError::Invalid(format!(
                    "perf data references profile {} which has no metadata row",
                    key[1]
                )));
            }
        }
        Ok(tk)
    }

    /// [`Thicket::from_components`] without the check, for parts that
    /// keep the invariant by construction.
    pub(crate) fn unchecked(graph: Graph, perf_data: DataFrame, metadata: DataFrame) -> Thicket {
        Thicket {
            graph,
            perf_data,
            metadata,
            statsframe: DataFrame::new(Index::empty([NODE_LEVEL])),
        }
    }

    /// The unified call graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The `(node, profile)`-indexed performance-data table.
    pub fn perf_data(&self) -> &DataFrame {
        &self.perf_data
    }

    /// The profile-indexed metadata table.
    pub fn metadata(&self) -> &DataFrame {
        &self.metadata
    }

    /// The node-indexed aggregated-statistics table (empty until
    /// [`crate::Thicket::compute_stats`] runs).
    pub fn statsframe(&self) -> &DataFrame {
        &self.statsframe
    }

    /// Profile index values, in metadata order.
    pub fn profiles(&self) -> Vec<Value> {
        self.metadata
            .index()
            .keys()
            .iter()
            .map(|k| k[0].clone())
            .collect()
    }

    /// The `NodeId` a perf-data node index value refers to: O(1), `None`
    /// unless `v` is an `Int` naming a node of the graph.
    pub fn node_of_value(&self, v: &Value) -> Option<NodeId> {
        self.graph.id_at(usize::try_from(v.as_i64()?).ok()?)
    }

    /// The node index value for a `NodeId`.
    pub fn value_of_node(&self, id: NodeId) -> Value {
        Value::Int(id.index() as i64)
    }

    /// Node name for a node index value (for display).
    pub fn node_name(&self, v: &Value) -> String {
        match self.node_of_value(v) {
            Some(id) => self.graph.node(id).name().to_string(),
            None => v.display_cell().into_owned(),
        }
    }

    /// First node id whose name matches (pre-order).
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.graph.find_by_name(name)
    }

    /// One metric value for `(node, profile)`, if measured. O(1)
    /// amortized: the lookup goes through the index's cached
    /// key → position map instead of scanning every row.
    pub fn metric_at(&self, node: NodeId, profile: &Value, metric: &ColKey) -> Option<f64> {
        let col = self.perf_data.column(metric).ok()?;
        let key = vec![self.value_of_node(node), profile.clone()];
        let row = self.perf_data.index().position_of(&key)?;
        col.get_f64(row)
    }

    /// All `(profile, value)` pairs of one metric at one node, in
    /// perf-data order.
    pub fn metric_series(&self, node: NodeId, metric: &ColKey) -> Vec<(Value, f64)> {
        let node_v = self.value_of_node(node);
        let Ok(col) = self.perf_data.column(metric) else {
            return Vec::new();
        };
        self.perf_data
            .index()
            .keys()
            .iter()
            .enumerate()
            .filter(|(_, k)| k[0] == node_v)
            .filter_map(|(row, k)| col.get_f64(row).map(|v| (k[1].clone(), v)))
            .collect()
    }

    /// A metadata attribute per profile, as a map.
    pub fn metadata_column(&self, key: &ColKey) -> Result<HashMap<Value, Value>, ThicketError> {
        let col = self.metadata.column(key)?;
        Ok(self
            .metadata
            .index()
            .keys()
            .iter()
            .enumerate()
            .map(|(row, k)| (k[0].clone(), col.get(row)))
            .collect())
    }

    /// Copy of the perf-data table with the node level rendered as node
    /// *names* — the human-readable form the paper's tables print.
    pub fn perf_data_named(&self) -> DataFrame {
        named(&self.perf_data, |v| self.node_name(v))
    }

    /// Copy of the statsframe with node names (Figure 9 display form).
    pub fn statsframe_named(&self) -> DataFrame {
        named(&self.statsframe, |v| self.node_name(v))
    }

    /// The perf rows re-keyed onto another graph: `map` sends a node of
    /// this graph to its node there, and a row it sends to `None` is
    /// dropped. Rows keep their order.
    pub(crate) fn perf_rekeyed(&self, map: impl Fn(NodeId) -> Option<NodeId>) -> DataFrame {
        self.perf_data
            .map_level(NODE_LEVEL, |v| {
                let new = self.node_of_value(v).and_then(&map);
                Ok::<_, DfError>(new.map(|id| self.value_of_node(id)))
            })
            .expect("the perf frame has a node level")
    }

    /// Render the call tree annotated with one metric from one profile
    /// (Figure 8's display).
    pub fn tree(&self, metric: &ColKey, profile: &Value) -> String {
        thicket_viz::render_tree(&self.graph, |id| self.metric_at(id, profile, metric))
    }

    /// Extract a row-major sample matrix from perf-data columns for
    /// data-science routines (k-means, PCA). Rows with any null are
    /// dropped; returns the kept `(node, profile)` keys alongside.
    #[allow(clippy::type_complexity)]
    pub fn to_samples(
        &self,
        columns: &[ColKey],
    ) -> Result<(Vec<Vec<f64>>, Vec<Vec<Value>>), ThicketError> {
        let cols: Vec<_> = columns
            .iter()
            .map(|k| self.perf_data.column(k))
            .collect::<Result<_, _>>()?;
        let mut samples = Vec::new();
        let mut keys = Vec::new();
        for row in 0..self.perf_data.len() {
            let vals: Option<Vec<f64>> = cols.iter().map(|c| c.get_f64(row)).collect();
            if let Some(v) = vals {
                samples.push(v);
                keys.push(self.perf_data.index().key(row).clone());
            }
        }
        Ok((samples, keys))
    }

    /// Add a derived perf-data column computed from each row (the paper's
    /// Figure 15 `speedup` column under the `Derived` header).
    pub fn add_derived_column<F>(
        &mut self,
        key: impl Into<ColKey>,
        f: F,
    ) -> Result<(), ThicketError>
    where
        F: Fn(thicket_dataframe::RowRef<'_>) -> Value,
    {
        let values: Vec<Value> = (0..self.perf_data.len())
            .map(|row| f(self.perf_data.row(row)))
            .collect();
        self.perf_data.insert_values(key, values)?;
        Ok(())
    }
}

/// `frame` with its node level rendered through `name`.
fn named(frame: &DataFrame, name: impl Fn(&Value) -> String) -> DataFrame {
    frame
        .map_level(NODE_LEVEL, |v| {
            Ok::<_, DfError>(Some(Value::from(name(v).as_str())))
        })
        .expect("the frame has a node level")
}

/// Collapse a worker failure from a concat/compose fan-out into a
/// [`ThicketError`]: plain errors pass through, captured panics become
/// [`ThicketError::Worker`] naming the input by position.
pub(crate) fn input_failure(
    e: thicket_perfsim::JobError<ThicketError>,
    what: &str,
) -> ThicketError {
    match e.failure {
        thicket_perfsim::JobFailure::Error(inner) => inner,
        thicket_perfsim::JobFailure::Panic(message) => ThicketError::Worker {
            source: format!("{what} {}", e.index),
            message,
        },
    }
}

impl fmt::Display for Thicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Thicket: {} nodes, {} profiles, {} perf rows, {} metrics",
            self.graph.len(),
            self.metadata.len(),
            self.perf_data.len(),
            self.perf_data.ncols(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_graph::Frame;
    use thicket_perfsim::{IngestReport, Profile, Strictness};

    /// Loader-builder spellings of the historical constructors, so the
    /// tests read as tersely as the old API.
    fn build(profiles: &[Profile]) -> Result<Thicket, ThicketError> {
        Thicket::loader(profiles).load().map(|(tk, _)| tk)
    }

    fn build_indexed(profiles: &[Profile], ids: &[Value]) -> Result<Thicket, ThicketError> {
        Thicket::loader(profiles)
            .profile_ids(ids)
            .load()
            .map(|(tk, _)| tk)
    }

    fn build_lenient(profiles: &[Profile]) -> Result<(Thicket, IngestReport), ThicketError> {
        Thicket::loader(profiles)
            .strictness(Strictness::Lenient)
            .load()
    }

    fn build_indexed_lenient(
        profiles: &[Profile],
        ids: &[Value],
        threads: Option<usize>,
    ) -> Result<(Thicket, IngestReport), ThicketError> {
        let mut loader = Thicket::loader(profiles)
            .profile_ids(ids)
            .strictness(Strictness::Lenient);
        if let Some(t) = threads {
            loader = loader.threads(t);
        }
        loader.load()
    }

    fn profile(run: i64, extra_node: bool) -> Profile {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("MAIN"));
        let foo = g.add_child(main, Frame::named("FOO"));
        let bar = g.add_child(main, Frame::named("BAR"));
        let mut nodes = vec![main, foo, bar];
        if extra_node {
            nodes.push(g.add_child(foo, Frame::named("BAZ")));
        }
        let mut p = Profile::new(g);
        p.set_metadata("cluster", "quartz");
        p.set_metadata("run", run);
        for (i, id) in nodes.into_iter().enumerate() {
            p.set_metric(id, "time", (i as f64 + 1.0) * run as f64);
        }
        p
    }

    #[test]
    fn construction_shapes() {
        let tk = build(&[profile(1, false), profile(2, false)]).unwrap();
        assert_eq!(tk.graph().len(), 3);
        assert_eq!(tk.metadata().len(), 2);
        assert_eq!(tk.perf_data().len(), 6);
        assert_eq!(tk.profiles().len(), 2);
        assert!(tk.perf_data().has_column(&ColKey::new("time")));
    }

    #[test]
    fn divergent_trees_union_with_nulls() {
        let tk = build(&[profile(1, false), profile(2, true)]).unwrap();
        assert_eq!(tk.graph().len(), 4); // MAIN FOO BAR BAZ
        // BAZ has a row only for profile 2: 3 + 4 = 7 rows.
        assert_eq!(tk.perf_data().len(), 7);
    }

    #[test]
    fn custom_profile_index() {
        let tk = build_indexed(
            &[profile(1, false), profile(2, false)],
            &[Value::Int(1048576), Value::Int(4194304)],
        )
        .unwrap();
        assert_eq!(tk.profiles(), vec![Value::Int(1048576), Value::Int(4194304)]);
    }

    #[test]
    fn invalid_inputs() {
        assert!(build(&[]).is_err());
        assert!(build_indexed(
            &[profile(1, false)],
            &[Value::Int(1), Value::Int(2)]
        )
        .is_err());
        // Duplicate ids rejected.
        assert!(build_indexed(
            &[profile(1, false), profile(2, false)],
            &[Value::Int(5), Value::Int(5)]
        )
        .is_err());
    }

    #[test]
    fn metric_lookup() {
        let tk = build_indexed(
            &[profile(1, false), profile(3, false)],
            &[Value::Int(10), Value::Int(30)],
        )
        .unwrap();
        let foo = tk.find_node("FOO").unwrap();
        assert_eq!(tk.metric_at(foo, &Value::Int(10), &ColKey::new("time")), Some(2.0));
        assert_eq!(tk.metric_at(foo, &Value::Int(30), &ColKey::new("time")), Some(6.0));
        assert_eq!(tk.metric_at(foo, &Value::Int(99), &ColKey::new("time")), None);
        let series = tk.metric_series(foo, &ColKey::new("time"));
        assert_eq!(series.len(), 2);
    }

    #[test]
    fn named_tables_show_node_names() {
        let tk = build(&[profile(1, false)]).unwrap();
        let named = tk.perf_data_named();
        let first = named.index().key(0);
        assert_eq!(first[0], Value::from("MAIN"));
    }

    #[test]
    fn tree_rendering() {
        let tk = build_indexed(&[profile(1, false)], &[Value::Int(7)]).unwrap();
        let s = tk.tree(&ColKey::new("time"), &Value::Int(7));
        assert!(s.contains("MAIN"));
        assert!(s.contains("├─") || s.contains("└─"));
        assert!(s.contains("1.000"));
    }

    #[test]
    fn to_samples_drops_nulls() {
        let tk = build(&[profile(1, false), profile(2, true)]).unwrap();
        let (samples, keys) = tk.to_samples(&[ColKey::new("time")]).unwrap();
        assert_eq!(samples.len(), 7);
        assert_eq!(keys.len(), 7);
        assert!(tk.to_samples(&[ColKey::new("nope")]).is_err());
    }

    #[test]
    fn derived_column() {
        let mut tk = build(&[profile(2, false)]).unwrap();
        tk.add_derived_column("time2x", |r| {
            Value::Float(r.f64("time").unwrap_or(f64::NAN) * 2.0)
        })
        .unwrap();
        let col = tk.perf_data().column(&ColKey::new("time2x")).unwrap();
        assert_eq!(col.get_f64(0), Some(tk.perf_data().column(&ColKey::new("time")).unwrap().get_f64(0).unwrap() * 2.0));
    }

    #[test]
    fn lenient_matches_strict_on_healthy_input() {
        let profiles = [profile(1, false), profile(2, true)];
        let strict = build(&profiles).unwrap();
        let (lenient, report) = build_lenient(&profiles).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.attempted, 2);
        assert_eq!(report.loaded, 2);
        assert_eq!(strict.perf_data().len(), lenient.perf_data().len());
        assert_eq!(strict.profiles(), lenient.profiles());
    }

    #[test]
    fn lenient_drops_duplicates_and_non_finite() {
        let mut poisoned = profile(3, false);
        let foo = poisoned.graph().find_by_name("FOO").unwrap();
        poisoned.set_metric(foo, "time", f64::NAN);
        let profiles = [profile(1, false), profile(2, false), poisoned];
        let ids = [Value::Int(10), Value::Int(10), Value::Int(30)];
        let mut reports = Vec::new();
        for threads in [1, 2, 8] {
            let (tk, report) =
                build_indexed_lenient(&profiles, &ids, Some(threads)).unwrap();
            assert_eq!(tk.profiles(), vec![Value::Int(10)], "threads={threads}");
            assert_eq!(report.loaded, 1);
            assert_eq!(report.dropped(), 2);
            assert!(matches!(
                report.diagnostics[0].kind,
                thicket_perfsim::DiagKind::DuplicateProfile { .. }
            ));
            assert!(matches!(
                report.diagnostics[1].kind,
                thicket_perfsim::DiagKind::NonFiniteMetric { .. }
            ));
            reports.push(report);
        }
        // Byte-identical diagnostics regardless of worker count.
        assert_eq!(reports[0], reports[1]);
        assert_eq!(reports[1], reports[2]);
    }

    #[test]
    fn lenient_errs_when_nothing_survives() {
        let mut bad = profile(3, false);
        let main = bad.graph().find_by_name("MAIN").unwrap();
        bad.set_metric(main, "time", f64::NAN);
        let r = build_indexed_lenient(&[bad], &[Value::Int(9)], None);
        assert!(r.is_err(), "sole poisoned profile must hard-error");
        assert!(build_lenient(&[]).is_err());
    }

    #[test]
    fn metadata_column_map() {
        let tk = build_indexed(
            &[profile(1, false), profile(2, false)],
            &[Value::Int(1), Value::Int(2)],
        )
        .unwrap();
        let m = tk.metadata_column(&ColKey::new("run")).unwrap();
        assert_eq!(m[&Value::Int(1)], Value::Int(1));
        assert_eq!(m[&Value::Int(2)], Value::Int(2));
    }
}
