//! The profile data model: one run's call tree, per-node metrics, and
//! metadata — the Caliper-output equivalent that Thicket consumes
//! (paper §2, step 2), plus its on-disk JSON format.

use crate::json::{Json, JsonError};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use thicket_dataframe::{intern, Value};
use thicket_graph::{Frame, Graph, NodeId};

/// A single run's profile: metadata + call tree + per-node metrics.
///
/// Metric maps are keyed by interner-shared `Arc<str>`: an ensemble
/// measures the same handful of metric names on every node of every
/// run, so per-node maps hold refcounts into the global intern table
/// instead of an owned `String` per (node, metric) pair. Ordering and
/// lookup are by string contents, exactly as with owned keys.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Run metadata (build settings, execution context), insertion-ordered.
    metadata: Vec<(String, Value)>,
    /// The call tree (or DAG).
    graph: Graph,
    /// Per-node metric maps, indexed by `NodeId::index()`.
    metrics: Vec<BTreeMap<Arc<str>, f64>>,
}

/// Errors from profile construction and I/O.
#[derive(Debug)]
pub enum ProfileError {
    /// Underlying JSON problem.
    Json(JsonError),
    /// Structurally invalid profile document.
    Malformed(String),
    /// A metric value is NaN or infinite — rejected on ingest so a
    /// poisoned run cannot silently contaminate ensemble statistics.
    NonFinite {
        /// Node index carrying the bad value.
        node: usize,
        /// Metric name.
        metric: String,
    },
    /// Filesystem failure.
    Io(std::io::Error),
    /// A worker thread processing this profile panicked; the captured
    /// panic message.
    Panicked(String),
    /// An error annotated with the file it came from (ensemble loads).
    InFile {
        /// The offending file.
        path: PathBuf,
        /// The underlying failure.
        source: Box<ProfileError>,
    },
}

impl ProfileError {
    /// Attach a file path to this error (idempotent-ish: nested paths
    /// keep the innermost error reachable through `source`).
    pub fn in_file(self, path: impl Into<PathBuf>) -> ProfileError {
        ProfileError::InFile {
            path: path.into(),
            source: Box::new(self),
        }
    }

    /// The innermost error, unwrapping any [`ProfileError::InFile`] layers.
    pub fn root_cause(&self) -> &ProfileError {
        match self {
            ProfileError::InFile { source, .. } => source.root_cause(),
            other => other,
        }
    }

    /// The file this error is annotated with, if any.
    pub fn path(&self) -> Option<&Path> {
        match self {
            ProfileError::InFile { path, .. } => Some(path),
            _ => None,
        }
    }
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Json(e) => write!(f, "profile JSON: {e}"),
            ProfileError::Malformed(m) => write!(f, "malformed profile: {m}"),
            ProfileError::NonFinite { node, metric } => {
                write!(f, "non-finite metric {metric:?} on node {node}")
            }
            ProfileError::Io(e) => write!(f, "profile I/O: {e}"),
            ProfileError::Panicked(m) => write!(f, "profile worker panicked: {m}"),
            ProfileError::InFile { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for ProfileError {}

impl From<JsonError> for ProfileError {
    fn from(e: JsonError) -> Self {
        ProfileError::Json(e)
    }
}

impl From<std::io::Error> for ProfileError {
    fn from(e: std::io::Error) -> Self {
        ProfileError::Io(e)
    }
}

impl Profile {
    /// New profile around a call graph, with empty metrics and metadata.
    pub fn new(graph: Graph) -> Self {
        let n = graph.len();
        Profile {
            metadata: Vec::new(),
            graph,
            metrics: vec![BTreeMap::new(); n],
        }
    }

    /// The call graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Set (or replace) a metadata attribute.
    pub fn set_metadata(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.metadata.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.metadata.push((key, value));
        }
    }

    /// Metadata lookup.
    pub fn metadata(&self, key: &str) -> Option<&Value> {
        self.metadata.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// All metadata attributes in insertion order.
    pub fn metadata_iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.metadata.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Set one metric value on one node. The name is interned so
    /// repeated sets across nodes and profiles share one allocation.
    pub fn set_metric(&mut self, node: NodeId, metric: impl AsRef<str>, value: f64) {
        self.metrics[node.index()].insert(intern(metric.as_ref()), value);
    }

    /// Metric lookup.
    pub fn metric(&self, node: NodeId, metric: &str) -> Option<f64> {
        self.metrics[node.index()].get(metric).copied()
    }

    /// All metrics of one node, name-ordered.
    pub fn node_metrics(&self, node: NodeId) -> &BTreeMap<Arc<str>, f64> {
        &self.metrics[node.index()]
    }

    /// The sorted union of metric names across all nodes.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .metrics
            .iter()
            .flat_map(|m| m.keys().map(|k| k.to_string()))
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Deterministic profile identity: FNV-1a over the metadata, cast to
    /// `i64` — reproducing the signed hash profile indices the paper's
    /// metadata tables show (Figure 5).
    pub fn profile_hash(&self) -> i64 {
        let mut h: u64 = 0xcbf29ce484222325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100000001b3);
            }
        };
        for (k, v) in &self.metadata {
            eat(k.as_bytes());
            eat(v.display_cell().as_bytes());
            eat(&[0]);
        }
        h as i64
    }

    /// Serialize to the on-disk JSON document.
    pub fn to_json(&self) -> Json {
        let metadata = Json::Obj(
            self.metadata
                .iter()
                .map(|(k, v)| (k.clone(), value_to_json(v)))
                .collect(),
        );
        let nodes = Json::Arr(
            self.graph
                .ids()
                .map(|id| {
                    let i = id.index();
                    let node = self.graph.node(id);
                    let frame = Json::Obj(
                        node.frame()
                            .iter()
                            .map(|(k, v)| (k.to_string(), value_to_json(v)))
                            .collect(),
                    );
                    let children = Json::Arr(
                        node.children()
                            .iter()
                            .map(|c| Json::Num(c.index() as f64))
                            .collect(),
                    );
                    let metrics = Json::Obj(
                        self.metrics[i]
                            .iter()
                            .map(|(k, v)| (k.to_string(), Json::Num(*v)))
                            .collect(),
                    );
                    Json::Obj(vec![
                        ("frame".into(), frame),
                        ("children".into(), children),
                        ("metrics".into(), metrics),
                    ])
                })
                .collect(),
        );
        let roots = Json::Arr(
            self.graph
                .roots()
                .iter()
                .map(|r| Json::Num(r.index() as f64))
                .collect(),
        );
        Json::Obj(vec![
            ("format".into(), Json::Str("thicket-profile-1".into())),
            ("metadata".into(), metadata),
            ("nodes".into(), nodes),
            ("roots".into(), roots),
        ])
    }

    /// Deserialize from the on-disk JSON document, validating structure.
    pub fn from_json(doc: &Json) -> Result<Profile, ProfileError> {
        let fmt_tag = doc
            .get("format")
            .and_then(Json::as_str)
            .ok_or_else(|| ProfileError::Malformed("missing format tag".into()))?;
        if fmt_tag != "thicket-profile-1" {
            return Err(ProfileError::Malformed(format!(
                "unsupported format {fmt_tag:?}"
            )));
        }
        let nodes = doc
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProfileError::Malformed("missing nodes array".into()))?;
        let roots = doc
            .get("roots")
            .and_then(Json::as_arr)
            .ok_or_else(|| ProfileError::Malformed("missing roots array".into()))?;
        let n = nodes.len();
        if n == 0 {
            return Err(ProfileError::Malformed(
                "empty call tree (zero nodes)".into(),
            ));
        }

        // Parse node shells first.
        let mut shells = Vec::with_capacity(n);
        for (i, nj) in nodes.iter().enumerate() {
            let frame_obj = nj
                .get("frame")
                .and_then(Json::as_obj)
                .ok_or_else(|| ProfileError::Malformed(format!("node {i}: missing frame")))?;
            let frame = Frame::from_attrs(
                frame_obj
                    .iter()
                    .map(|(k, v)| (k.clone(), json_to_value(v)))
                    .collect::<Vec<_>>(),
            );
            let children = nj
                .get("children")
                .and_then(Json::as_arr)
                .ok_or_else(|| ProfileError::Malformed(format!("node {i}: missing children")))?
                .iter()
                .map(|c| {
                    c.as_i64()
                        .filter(|&v| v >= 0 && (v as usize) < n)
                        .map(|v| v as usize)
                        .ok_or_else(|| {
                            ProfileError::Malformed(format!("node {i}: bad child index"))
                        })
                })
                .collect::<Result<Vec<usize>, _>>()?;
            let ms = nj.get("metrics").and_then(Json::as_obj).ok_or_else(|| {
                ProfileError::Malformed(format!("node {i}: missing metrics object"))
            })?;
            let mut metrics = BTreeMap::new();
            for (k, v) in ms {
                let f = v.as_f64().ok_or_else(|| {
                    ProfileError::Malformed(format!("node {i}: metric {k:?} not numeric"))
                })?;
                if !f.is_finite() {
                    return Err(ProfileError::NonFinite {
                        node: i,
                        metric: k.clone(),
                    });
                }
                metrics.insert(intern(k), f);
            }
            shells.push(Shell {
                frame,
                children,
                metrics,
            });
        }

        let root_idxs: Vec<usize> = roots
            .iter()
            .map(|r| {
                r.as_i64()
                    .filter(|&v| v >= 0 && (v as usize) < n)
                    .map(|v| v as usize)
                    .ok_or_else(|| ProfileError::Malformed("bad root index".into()))
            })
            .collect::<Result<_, _>>()?;
        let metadata = match doc.get("metadata").and_then(Json::as_obj) {
            Some(meta) => meta
                .iter()
                .map(|(k, v)| (k.clone(), json_to_value(v)))
                .collect(),
            None => Vec::new(),
        };
        assemble_profile(shells, &root_idxs, metadata)
    }

    /// Serialize to a string.
    pub fn to_string_pretty(&self) -> String {
        self.to_json().to_string_compact()
    }

    /// Parse from a string.
    pub fn parse(text: &str) -> Result<Profile, ProfileError> {
        Profile::from_json(&Json::parse(text)?)
    }

    /// Write the profile to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ProfileError> {
        std::fs::write(path, self.to_string_pretty())?;
        Ok(())
    }

    /// Load a profile from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Profile, ProfileError> {
        let text = std::fs::read_to_string(path)?;
        Profile::parse(&text)
    }
}

/// A parsed-but-unassembled node, shared by the JSON and binary payload
/// decoders so both enforce identical forest-shape validation.
pub(crate) struct Shell {
    pub(crate) frame: Frame,
    pub(crate) children: Vec<usize>,
    pub(crate) metrics: BTreeMap<Arc<str>, f64>,
}

/// Determine which nodes are roots vs children, validate forest shape
/// (root/child exclusivity, reachability, topological parent order) and
/// metadata (each key once: a profile's metadata is a map, and a
/// repeated key would give the ensemble's metadata table two cells for
/// one profile), and rebuild through Graph's constructor API in an order
/// that preserves indices (parents must precede children). Child and
/// root indices must already be `< shells.len()`.
pub(crate) fn assemble_profile(
    mut shells: Vec<Shell>,
    root_idxs: &[usize],
    metadata: Vec<(String, Value)>,
) -> Result<Profile, ProfileError> {
    let mut keys: Vec<&str> = metadata.iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    if let Some(pair) = keys.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(ProfileError::Malformed(format!(
            "metadata key {:?} appears more than once",
            pair[0]
        )));
    }
    let n = shells.len();
    let mut first_parent: Vec<Option<usize>> = vec![None; n];
    let mut extra_edges: Vec<(usize, usize)> = Vec::new();
    for (p, shell) in shells.iter().enumerate() {
        for &c in &shell.children {
            if first_parent[c].is_none() {
                first_parent[c] = Some(p);
            } else {
                extra_edges.push((p, c));
            }
        }
    }
    for (i, fp) in first_parent.iter().enumerate() {
        let is_root = root_idxs.contains(&i);
        if is_root && fp.is_some() {
            return Err(ProfileError::Malformed(format!(
                "node {i} is both a root and a child"
            )));
        }
        if !is_root && fp.is_none() {
            return Err(ProfileError::Malformed(format!("node {i} is unreachable")));
        }
        if let Some(p) = fp {
            if *p >= i {
                return Err(ProfileError::Malformed(format!(
                    "node {i}: parent {p} does not precede child (non-topological order)"
                )));
            }
        }
    }

    let mut graph = Graph::new();
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    for i in 0..n {
        // Move the frame out rather than clone: a frame is a
        // BTreeMap<String, Value>, and this runs once per node on the
        // ingest hot path.
        let frame = std::mem::take(&mut shells[i].frame);
        let id = match first_parent[i] {
            None => graph.add_root(frame),
            Some(p) => graph.add_child(ids[p], frame),
        };
        debug_assert_eq!(id.index(), i);
        ids.push(id);
    }
    for (p, c) in extra_edges {
        graph.add_edge(ids[p], ids[c]);
    }

    let mut profile = Profile::new(graph);
    for (i, shell) in shells.into_iter().enumerate() {
        profile.metrics[i] = shell.metrics;
    }
    profile.metadata = metadata;
    Ok(profile)
}

/// Map a Value into its JSON encoding. Integers beyond 2⁵³ are wrapped as
/// `{"$i": "<decimal>"}` so profile hashes survive the float round trip;
/// integral and non-finite floats as `{"$f": "<repr>"}`.
pub(crate) fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => {
            if i.abs() < (1i64 << 53) {
                Json::Num(*i as f64)
            } else {
                Json::Obj(vec![("$i".into(), Json::Str(i.to_string()))])
            }
        }
        Value::Float(f) => {
            if *f == f.trunc() || !f.is_finite() {
                // An integral float would parse back as Int, and JSON
                // has no NaN or infinity: tag both so the dtype (and the
                // profile hash) survives. `{:?}` prints `NaN`, `inf` and
                // `-inf`, which `str::parse::<f64>` reads back.
                Json::Obj(vec![("$f".into(), Json::Str(format!("{f:?}")))])
            } else {
                Json::Num(*f)
            }
        }
        Value::Str(s) => Json::Str(s.to_string()),
    }
}

/// Inverse of [`value_to_json`].
pub(crate) fn json_to_value(j: &Json) -> Value {
    match j {
        Json::Null => Value::Null,
        Json::Bool(b) => Value::Bool(*b),
        Json::Num(n) => {
            if *n == n.trunc() && n.abs() < 9.0e15 {
                Value::Int(*n as i64)
            } else {
                Value::Float(*n)
            }
        }
        Json::Str(s) => Value::from(s.as_str()),
        Json::Obj(m) => {
            if let [(k, Json::Str(s))] = m.as_slice() {
                if k == "$i" {
                    if let Ok(i) = s.parse::<i64>() {
                        return Value::Int(i);
                    }
                }
                if k == "$f" {
                    if let Ok(f) = s.parse::<f64>() {
                        return Value::Float(f);
                    }
                }
            }
            Value::Null
        }
        Json::Arr(_) => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut g = Graph::new();
        let main = g.add_root(Frame::with_type("MAIN", "function"));
        let foo = g.add_child(main, Frame::named("FOO"));
        let bar = g.add_child(main, Frame::named("BAR"));
        let mut p = Profile::new(g);
        p.set_metadata("cluster", "quartz");
        p.set_metadata("problem size", 1048576i64);
        p.set_metric(main, "time (inc)", 2.0);
        p.set_metric(foo, "time (exc)", 1.5);
        p.set_metric(bar, "time (exc)", 0.5);
        p
    }

    #[test]
    fn metadata_and_metrics() {
        let p = sample();
        assert_eq!(p.metadata("cluster"), Some(&Value::from("quartz")));
        assert_eq!(p.metadata("nope"), None);
        let foo = p.graph().find_by_name("FOO").unwrap();
        assert_eq!(p.metric(foo, "time (exc)"), Some(1.5));
        assert_eq!(p.metric(foo, "nope"), None);
        assert_eq!(
            p.metric_names(),
            vec!["time (exc)".to_string(), "time (inc)".to_string()]
        );
    }

    #[test]
    fn metadata_replacement() {
        let mut p = sample();
        p.set_metadata("cluster", "lassen");
        assert_eq!(p.metadata("cluster"), Some(&Value::from("lassen")));
        assert_eq!(p.metadata_iter().count(), 2);
    }

    #[test]
    fn profile_hash_deterministic_and_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.profile_hash(), b.profile_hash());
        let mut c = sample();
        c.set_metadata("user", "Jane");
        assert_ne!(a.profile_hash(), c.profile_hash());
    }

    #[test]
    fn json_roundtrip() {
        let p = sample();
        let text = p.to_string_pretty();
        let q = Profile::parse(&text).unwrap();
        assert_eq!(q.graph().len(), 3);
        assert_eq!(q.metadata("problem size"), Some(&Value::Int(1048576)));
        let foo = q.graph().find_by_name("FOO").unwrap();
        assert_eq!(q.metric(foo, "time (exc)"), Some(1.5));
        assert_eq!(q.profile_hash(), p.profile_hash());
        // Structure preserved.
        let main = q.graph().roots()[0];
        assert_eq!(q.graph().node(main).children().len(), 2);
    }

    #[test]
    fn file_roundtrip() {
        let p = sample();
        let dir = crate::faults::ScratchDir::new("profile-test");
        let path = dir.join("p1.json");
        p.save(&path).unwrap();
        let q = Profile::load(&path).unwrap();
        assert_eq!(q.graph().len(), p.graph().len());
    }

    #[test]
    fn huge_int_metadata_survives() {
        let mut p = sample();
        p.set_metadata("profile", -5810787656424201390i64);
        let q = Profile::parse(&p.to_string_pretty()).unwrap();
        assert_eq!(
            q.metadata("profile"),
            Some(&Value::Int(-5810787656424201390))
        );
    }

    #[test]
    fn malformed_documents_rejected() {
        for bad in [
            r#"{"nodes": [], "roots": []}"#, // no format
            r#"{"format": "other", "nodes": [], "roots": []}"#,
            r#"{"format": "thicket-profile-1", "roots": []}"#, // no nodes
            // Child index out of range.
            r#"{"format": "thicket-profile-1",
                "nodes": [{"frame": {"name": "a"}, "children": [5], "metrics": {}}],
                "roots": [0]}"#,
            // Cycle-ish: node 0 child of itself.
            r#"{"format": "thicket-profile-1",
                "nodes": [{"frame": {"name": "a"}, "children": [0], "metrics": {}}],
                "roots": [0]}"#,
            // Unreachable node.
            r#"{"format": "thicket-profile-1",
                "nodes": [{"frame": {"name": "a"}, "children": [], "metrics": {}},
                          {"frame": {"name": "b"}, "children": [], "metrics": {}}],
                "roots": [0]}"#,
            // Non-numeric metric.
            r#"{"format": "thicket-profile-1",
                "nodes": [{"frame": {"name": "a"}, "children": [], "metrics": {"t": "x"}}],
                "roots": [0]}"#,
        ] {
            assert!(Profile::parse(bad).is_err(), "should fail: {bad}");
        }
    }

    #[test]
    fn repeated_metadata_key_rejected() {
        let text = sample().to_string_pretty().replacen(
            "\"metadata\":{",
            "\"metadata\":{\"problem size\":7,",
            1,
        );
        match Profile::parse(&text) {
            Err(ProfileError::Malformed(m)) => assert!(m.contains("\"problem size\""), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }

    #[test]
    fn non_finite_metrics_rejected_with_location() {
        // 1e999 overflows f64 to +inf; the JSON layer accepts it, the
        // profile layer must not.
        let doc = r#"{"format": "thicket-profile-1",
            "nodes": [{"frame": {"name": "a"}, "children": [], "metrics": {}},
                      {"frame": {"name": "b"}, "children": [], "metrics": {"t": 1e999}}],
            "roots": [0, 1]}"#;
        match Profile::parse(doc).unwrap_err() {
            ProfileError::NonFinite { node, metric } => {
                assert_eq!(node, 1);
                assert_eq!(metric, "t");
            }
            other => panic!("expected NonFinite, got {other}"),
        }
    }

    #[test]
    fn empty_call_tree_and_missing_metrics_rejected() {
        let empty = r#"{"format": "thicket-profile-1", "nodes": [], "roots": []}"#;
        assert!(matches!(
            Profile::parse(empty),
            Err(ProfileError::Malformed(m)) if m.contains("empty call tree")
        ));
        let no_metrics = r#"{"format": "thicket-profile-1",
            "nodes": [{"frame": {"name": "a"}, "children": []}],
            "roots": [0]}"#;
        assert!(matches!(
            Profile::parse(no_metrics),
            Err(ProfileError::Malformed(m)) if m.contains("missing metrics")
        ));
    }

    #[test]
    fn in_file_context_wraps_and_unwraps() {
        let inner = ProfileError::Malformed("bad".into());
        let wrapped = inner.in_file("/tmp/p.json");
        assert_eq!(wrapped.path(), Some(Path::new("/tmp/p.json")));
        assert!(matches!(wrapped.root_cause(), ProfileError::Malformed(_)));
        assert!(wrapped.to_string().contains("/tmp/p.json"));
    }

    #[test]
    fn dag_profile_roundtrip() {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("MAIN"));
        let a = g.add_child(main, Frame::named("A"));
        let b = g.add_child(main, Frame::named("B"));
        let shared = g.add_child(a, Frame::named("SHARED"));
        g.add_edge(b, shared);
        let p = Profile::new(g);
        let q = Profile::parse(&p.to_string_pretty()).unwrap();
        let s = q.graph().find_by_name("SHARED").unwrap();
        assert_eq!(q.graph().node(s).parents().len(), 2);
    }
}
