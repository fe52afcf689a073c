//! A second on-disk profile format: a Caliper-flavoured *text* format.
//!
//! Hatchet reads several tool formats (HPCToolkit, Caliper, …); Thicket
//! inherits its readers. To exercise that multi-reader design, this
//! module implements a line-oriented format next to the JSON one:
//!
//! ```text
//! #thicket-cali 1
//! @ cluster=quartz
//! @ problem size=1048576
//! main                      time (inc)=2.5  visits=1
//! main/solve                time (exc)=1.5
//! main/solve/MPI_Allreduce  time (exc)=0.25
//! ```
//!
//! `@` lines carry metadata (`key=value`, value type inferred); each
//! remaining line is one call-tree node identified by its
//! slash-separated root path, followed by whitespace-separated
//! `metric=value` pairs. Node names containing `/`, `=`, or leading `@`
//! are escaped with `\`.

use crate::profile::{Profile, ProfileError};
use std::path::Path;
use thicket_dataframe::Value;
use thicket_graph::{Frame, Graph, NodeId};

const HEADER: &str = "#thicket-cali 1";

/// Serialize a profile to the text format. Multi-parent (DAG) graphs are
/// rejected — the path-based format can only express trees.
pub fn to_cali_text(profile: &Profile) -> Result<String, ProfileError> {
    let g = profile.graph();
    if !g.is_tree() {
        return Err(ProfileError::Malformed(
            "cali text format cannot express DAGs; use the JSON format".into(),
        ));
    }
    let mut out = String::from(HEADER);
    out.push('\n');
    for (k, v) in profile.metadata_iter() {
        out.push_str(&format!("@ {}={}\n", escape(k), escape(&v.display_cell())));
    }
    for id in g.preorder() {
        let path: Vec<String> = g
            .path_to(id)
            .into_iter()
            .map(|n| escape(g.node(n).name()))
            .collect();
        out.push_str(&path.join("/"));
        for (metric, value) in profile.node_metrics(id) {
            out.push_str(&format!("\t{}={value:?}", escape(metric)));
        }
        out.push('\n');
    }
    Ok(out)
}

/// Parse the text format back into a profile.
pub fn from_cali_text(text: &str) -> Result<Profile, ProfileError> {
    let mut lines = text.lines();
    let header = lines.next().unwrap_or_default();
    if header.trim() != HEADER {
        return Err(ProfileError::Malformed(format!(
            "bad header {header:?}; expected {HEADER:?}"
        )));
    }
    let mut graph = Graph::new();
    let mut metadata: Vec<(String, Value)> = Vec::new();
    let mut metrics: Vec<(NodeId, String, f64)> = Vec::new();

    for (lineno, raw) in lines.enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| ProfileError::Malformed(format!("line {}: {msg}", lineno + 2));
        if let Some(rest) = line.strip_prefix("@ ") {
            let (k, v) = split_kv(rest).ok_or_else(|| err("metadata needs key=value".into()))?;
            metadata.push((unescape(&k), infer(&unescape(&v))));
            continue;
        }
        // Path, then metric fields, separated by unescaped tabs.
        let fields_vec = split_unescaped_tabs(line);
        let mut fields = fields_vec.iter().filter(|f| !f.is_empty());
        let path_text = fields.next().ok_or_else(|| err("empty node line".into()))?;
        let segments = split_path(path_text.trim());
        if segments.is_empty() {
            return Err(err("empty call path".into()));
        }
        // Walk/create the path.
        let mut cur: Option<NodeId> = None;
        for seg in &segments {
            let frame = Frame::named(unescape(seg));
            let next = match cur {
                None => graph
                    .root_with_frame(&frame)
                    .unwrap_or_else(|| graph.add_root(frame)),
                Some(parent) => graph
                    .child_with_frame(parent, &frame)
                    .unwrap_or_else(|| graph.add_child(parent, frame)),
            };
            cur = Some(next);
        }
        let node = cur.expect("non-empty path");
        for field in fields {
            let (k, v) = split_kv(field.trim())
                .ok_or_else(|| err(format!("bad metric field {field:?}")))?;
            let value: f64 = v
                .parse()
                .map_err(|_| err(format!("metric {k:?} value {v:?} is not numeric")))?;
            metrics.push((node, unescape(&k), value));
        }
    }

    let mut profile = Profile::new(graph);
    for (k, v) in metadata {
        profile.set_metadata(k, v);
    }
    for (node, metric, value) in metrics {
        profile.set_metric(node, metric, value);
    }
    Ok(profile)
}

/// Write the text format to a file.
pub fn save_cali_text(profile: &Profile, path: impl AsRef<Path>) -> Result<(), ProfileError> {
    std::fs::write(path, to_cali_text(profile)?)?;
    Ok(())
}

/// Read the text format from a file.
pub fn load_cali_text(path: impl AsRef<Path>) -> Result<Profile, ProfileError> {
    from_cali_text(&std::fs::read_to_string(path)?)
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        if matches!(c, '/' | '=' | '\\' | '\t' | '@') {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            if let Some(next) = chars.next() {
                out.push(next);
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Split on the first *unescaped* `=`.
fn split_kv(s: &str) -> Option<(String, String)> {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'=' => return Some((s[..i].to_string(), s[i + 1..].to_string())),
            _ => i += 1,
        }
    }
    None
}

/// Split a line on unescaped tabs (escaped tabs stay inside fields).
fn split_unescaped_tabs(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                cur.push('\\');
                if let Some(next) = chars.next() {
                    cur.push(next);
                }
            }
            '\t' => out.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    out.push(cur);
    out
}

/// Split a path on unescaped `/`.
fn split_path(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        match c {
            '\\' => {
                cur.push('\\');
                if let Some(next) = chars.next() {
                    cur.push(next);
                }
            }
            '/' => out.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

fn infer(s: &str) -> Value {
    if let Ok(i) = s.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = s.parse::<f64>() {
        return Value::Float(f);
    }
    match s {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        other => Value::from(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rajaperf::{simulate_cpu_run, CpuRunConfig};

    #[test]
    fn roundtrip_simulated_profile() {
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        let text = to_cali_text(&p).unwrap();
        assert!(text.starts_with(HEADER));
        let q = from_cali_text(&text).unwrap();
        assert_eq!(q.graph().len(), p.graph().len());
        assert_eq!(q.metadata("cluster"), p.metadata("cluster").cloned().as_ref());
        let a = p.graph().find_by_name("Stream_DOT").unwrap();
        let b = q.graph().find_by_name("Stream_DOT").unwrap();
        assert_eq!(p.metric(a, "time (exc)"), q.metric(b, "time (exc)"));
        // Path structure preserved.
        assert_eq!(
            q.graph().path_to(b).len(),
            p.graph().path_to(a).len()
        );
    }

    #[test]
    fn weird_names_escaped() {
        let mut g = Graph::new();
        let root = g.add_root(Frame::named("a/b=c\\d"));
        g.add_child(root, Frame::named("x@y\tz"));
        let mut p = Profile::new(g);
        p.set_metadata("key=odd", "value/with=specials");
        let root_id = p.graph().roots()[0];
        p.set_metric(root_id, "m=1", 4.5);
        let q = from_cali_text(&to_cali_text(&p).unwrap()).unwrap();
        assert_eq!(q.graph().node(q.graph().roots()[0]).name(), "a/b=c\\d");
        assert!(q.graph().find_by_name("x@y\tz").is_some());
        assert_eq!(
            q.metadata("key=odd"),
            Some(&Value::from("value/with=specials"))
        );
        assert_eq!(q.metric(q.graph().roots()[0], "m=1"), Some(4.5));
    }

    #[test]
    fn dag_rejected() {
        let mut g = Graph::new();
        let r = g.add_root(Frame::named("r"));
        let a = g.add_child(r, Frame::named("a"));
        let b = g.add_child(r, Frame::named("b"));
        let s = g.add_child(a, Frame::named("s"));
        g.add_edge(b, s);
        assert!(to_cali_text(&Profile::new(g)).is_err());
    }

    #[test]
    fn malformed_inputs() {
        assert!(from_cali_text("").is_err());
        assert!(from_cali_text("#wrong header\n").is_err());
        assert!(from_cali_text("#thicket-cali 1\n@ nokv\n").is_err());
        assert!(from_cali_text("#thicket-cali 1\nmain\tbadfield\n").is_err());
        assert!(from_cali_text("#thicket-cali 1\nmain\tt=notnum\n").is_err());
        // Blank lines are fine.
        assert!(from_cali_text("#thicket-cali 1\n\nmain\tt=1.0\n").is_ok());
    }

    #[test]
    fn file_roundtrip_and_thicket_compose() {
        let dir = crate::faults::ScratchDir::new("calitxt");
        let p = simulate_cpu_run(&CpuRunConfig::quartz_default());
        let path = dir.join("run.cali.txt");
        save_cali_text(&p, &path).unwrap();
        let q = load_cali_text(&path).unwrap();
        assert_eq!(q.profile_hash(), p.profile_hash());
    }
}
