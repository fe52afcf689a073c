//! Binary shard payload codec (`TKP3`): the store's one record
//! encoding. Where a JSON document pays a full parse tree plus a
//! per-token allocation on every load, a `TKP3` payload is decoded with
//! a bounds-checked cursor over the read buffer — strings are borrowed as
//! `&str` slices straight out of the buffer and only materialized once
//! (metadata/frame keys as owned `String`s, string *values* through the
//! global `Arc<str>` interner), and metric columns are bulk-copied.
//!
//! ## Layout
//!
//! All integers are little-endian. Every variable-length region is
//! length-prefixed, and every declared length or count is validated
//! against the bytes actually remaining **before** any allocation or
//! slice — a corrupt length surfaces as [`ProfileError::Malformed`]
//! (never an OOM or panic), which the store classifies as a
//! `Schema` diagnostic.
//!
//! ```text
//! magic        b"TKP3"
//! name table   u32 count, then per string: u32 byte len + UTF-8 bytes
//! metadata     u32 pair count, then per pair: u32 name idx + value
//! nodes        u32 node count, then per node:
//!                u32 attr count,  per attr:  u32 name idx + value
//!                u32 child count, per child: u32 node idx
//! roots        u32 count, then u32 node idx each
//! metrics      u32 column count, then per column (node-sorted):
//!                u32 name idx, u32 entry count m, u32 crc32c(data)
//!                data = m × u32 node idx, then m × f64 value bits
//! value        u8 tag: 0 Null · 1 false · 2 true · 3 Int + i64
//!              · 4 Float + f64 bits · 5 Str + u32 name idx
//! ```
//!
//! Metric values live in per-metric *columns* (node-index array +
//! contiguous `f64` array) rather than per-node maps, each column under
//! its own CRC32C so fault injection can target exactly one column.
//! Non-finite metric bits are rejected with the same
//! [`ProfileError::NonFinite`] the JSON decoder raises, and the
//! assembled forest goes through the exact validation path JSON uses
//! (`profile::assemble_profile`) — a payload that decodes at all decodes
//! to a bit-identical [`Profile`].

use crate::profile::{assemble_profile, Profile, ProfileError, Shell};
use crate::store::crc32c;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use thicket_dataframe::{intern, Value};
use thicket_graph::Frame;

/// Magic prefix of every binary profile payload. The JSON records an
/// older build wrote start with `{`, so the first bytes alone tell the
/// migrator's decoder which encoding a record uses.
pub const PROFILE_MAGIC: &[u8; 4] = b"TKP3";

fn malformed(msg: impl Into<String>) -> ProfileError {
    ProfileError::Malformed(msg.into())
}

// ---------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------

/// Deduplicating name table: every distinct string in the profile
/// (metadata keys, frame attribute keys, string values, metric names)
/// is written once, in first-use order, and referenced by index.
#[derive(Default)]
struct NameTable<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, u32>,
}

impl<'a> NameTable<'a> {
    fn idx(&mut self, s: &'a str) -> u32 {
        if let Some(&i) = self.index.get(s) {
            return i;
        }
        let i = self.names.len() as u32;
        self.names.push(s);
        self.index.insert(s, i);
        i
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_value<'a>(out: &mut Vec<u8>, names: &mut NameTable<'a>, v: &'a Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(false) => out.push(1),
        Value::Bool(true) => out.push(2),
        Value::Int(i) => {
            out.push(3);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(f) => {
            out.push(4);
            out.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(5);
            put_u32(out, names.idx(s));
        }
    }
}

/// Encode a profile as a `TKP3` binary payload.
pub fn encode_profile(p: &Profile) -> Vec<u8> {
    let mut names = NameTable::default();
    let mut body = Vec::new();

    // Metadata, insertion-ordered (profile_hash depends on this order).
    let meta: Vec<(&str, &Value)> = p.metadata_iter().collect();
    put_u32(&mut body, meta.len() as u32);
    for (k, v) in meta {
        put_u32(&mut body, names.idx(k));
        put_value(&mut body, &mut names, v);
    }

    // Nodes: frame attrs (key order, as Frame::iter yields) + children.
    let graph = p.graph();
    put_u32(&mut body, graph.len() as u32);
    for id in graph.ids() {
        let node = graph.node(id);
        let frame = node.frame();
        put_u32(&mut body, frame.len() as u32);
        for (k, v) in frame.iter() {
            put_u32(&mut body, names.idx(k));
            put_value(&mut body, &mut names, v);
        }
        let children = node.children();
        put_u32(&mut body, children.len() as u32);
        for c in children {
            put_u32(&mut body, c.index() as u32);
        }
    }

    // Roots.
    let roots = graph.roots();
    put_u32(&mut body, roots.len() as u32);
    for r in roots {
        put_u32(&mut body, r.index() as u32);
    }

    // Metric columns: one per metric name (sorted), entries in node
    // order, node-index array then contiguous value bits, each column
    // under its own CRC.
    let mut metric_names: Vec<&str> = graph
        .ids()
        .flat_map(|id| p.node_metrics(id).keys().map(|s| &**s))
        .collect();
    metric_names.sort_unstable();
    metric_names.dedup();
    put_u32(&mut body, metric_names.len() as u32);
    for &m in &metric_names {
        let entries: Vec<(u32, f64)> = graph
            .ids()
            .filter_map(|id| p.metric(id, m).map(|v| (id.index() as u32, v)))
            .collect();
        put_u32(&mut body, names.idx(m));
        put_u32(&mut body, entries.len() as u32);
        let mut data = Vec::with_capacity(entries.len() * 12);
        for (ni, _) in &entries {
            put_u32(&mut data, *ni);
        }
        for (_, v) in &entries {
            data.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        put_u32(&mut body, crc32c(&data));
        body.extend_from_slice(&data);
    }

    // Assemble: magic + name table + body.
    let mut out = Vec::with_capacity(body.len() + 64);
    out.extend_from_slice(PROFILE_MAGIC);
    put_u32(&mut out, names.names.len() as u32);
    for s in &names.names {
        put_u32(&mut out, s.len() as u32);
        out.extend_from_slice(s.as_bytes());
    }
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------

/// Bounds-checked read cursor. Every `take` validates the requested
/// length against the bytes remaining *before* slicing, and every
/// `count` caps a declared element count by what the remaining bytes
/// could possibly hold *before* any `with_capacity` — a flipped length
/// byte yields a typed error, never an over-allocation or panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], ProfileError> {
        if n > self.remaining() {
            return Err(malformed(format!(
                "truncated {what}: {n} bytes declared, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, ProfileError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, ProfileError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    fn u64(&mut self, what: &str) -> Result<u64, ProfileError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A declared element count, rejected up front if even `min_elem`
    /// bytes per element would run past the end of the buffer.
    fn count(&mut self, min_elem: usize, what: &str) -> Result<usize, ProfileError> {
        let c = self.u32(what)? as usize;
        if min_elem > 0 && c > self.remaining() / min_elem {
            return Err(malformed(format!(
                "{what} count {c} exceeds what {} remaining bytes can hold",
                self.remaining()
            )));
        }
        Ok(c)
    }

    /// A length-prefixed UTF-8 string, borrowed from the buffer.
    fn str(&mut self, what: &str) -> Result<&'a str, ProfileError> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes).map_err(|_| malformed(format!("{what} is not UTF-8")))
    }
}

fn name<'a>(names: &[&'a str], idx: u32, what: &str) -> Result<&'a str, ProfileError> {
    names
        .get(idx as usize)
        .copied()
        .ok_or_else(|| malformed(format!("{what}: name index {idx} out of range ({} names)", names.len())))
}

/// The interned `Arc<str>` for name-table entry `idx` — materialized
/// through the global interner once per table entry, not per
/// occurrence (the `cache` slot), so repeated names across profiles
/// share one allocation.
fn cached_arc(
    names: &[&str],
    cache: &mut [Option<Arc<str>>],
    idx: u32,
    what: &str,
) -> Result<Arc<str>, ProfileError> {
    let s = name(names, idx, what)?;
    let slot = &mut cache[idx as usize];
    if slot.is_none() {
        *slot = Some(intern(s));
    }
    Ok(slot.clone().expect("just filled"))
}

fn get_value(
    cur: &mut Cursor<'_>,
    names: &[&str],
    cache: &mut [Option<Arc<str>>],
    what: &str,
) -> Result<Value, ProfileError> {
    match cur.u8(what)? {
        0 => Ok(Value::Null),
        1 => Ok(Value::Bool(false)),
        2 => Ok(Value::Bool(true)),
        3 => Ok(Value::Int(cur.u64(what)? as i64)),
        4 => Ok(Value::Float(f64::from_bits(cur.u64(what)?))),
        5 => {
            let idx = cur.u32(what)?;
            Ok(Value::Str(cached_arc(names, cache, idx, what)?))
        }
        t => Err(malformed(format!("{what}: unknown value tag {t}"))),
    }
}

/// Decode a `TKP3` binary payload, validating every length and count
/// against the remaining buffer before use. Structural failures are
/// [`ProfileError::Malformed`]; non-finite metric bits are
/// [`ProfileError::NonFinite`] with node/metric coordinates, exactly as
/// the JSON decoder reports them. A record without the magic — such as
/// a JSON record an older build wrote — is malformed, and the message
/// names the migrator.
pub fn decode_profile(bytes: &[u8]) -> Result<Profile, ProfileError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4, "payload magic")? != PROFILE_MAGIC {
        return Err(malformed(
            "bad payload magic (expected TKP3); a record from an older store \
             format is migrated by Store::compact",
        ));
    }

    // Name table. Shortest possible entry: 4 length bytes.
    let name_count = cur.count(4, "name table")?;
    let mut names: Vec<&str> = Vec::with_capacity(name_count);
    for _ in 0..name_count {
        names.push(cur.str("name table entry")?);
    }

    // Per-name-table cache of interned names, shared by the metadata,
    // frame-attr, and metric-column loops below.
    let mut interned: Vec<Option<Arc<str>>> = vec![None; names.len()];

    // Metadata. Shortest pair: 4 index bytes + 1 tag byte.
    let meta_count = cur.count(5, "metadata")?;
    let mut metadata = Vec::with_capacity(meta_count);
    for _ in 0..meta_count {
        let what = "metadata pair";
        let k = name(&names, cur.u32(what)?, what)?;
        let v = get_value(&mut cur, &names, &mut interned, what)?;
        metadata.push((k.to_string(), v));
    }

    // Nodes. Shortest node: two empty counts = 8 bytes.
    let n = cur.count(8, "nodes")?;
    if n == 0 {
        return Err(malformed("empty call tree (zero nodes)"));
    }
    let mut shells = Vec::with_capacity(n);
    for i in 0..n {
        let attr_count = cur.count(5, "frame attrs")?;
        let mut attrs = Vec::with_capacity(attr_count);
        for _ in 0..attr_count {
            // A plain `&str` context: this loop runs once per frame
            // attribute across the whole ensemble, and a `format!`
            // here costs an allocation even on the success path.
            let what = "node frame attr";
            let k = cached_arc(&names, &mut interned, cur.u32(what)?, what)?;
            let v = get_value(&mut cur, &names, &mut interned, what)?;
            attrs.push((k, v));
        }
        let child_count = cur.count(4, "children")?;
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let c = cur.u32("child index")? as usize;
            if c >= n {
                return Err(malformed(format!("node {i}: bad child index")));
            }
            children.push(c);
        }
        shells.push(Shell {
            frame: Frame::from_attrs(attrs),
            children,
            metrics: BTreeMap::new(),
        });
    }

    // Roots.
    let root_count = cur.count(4, "roots")?;
    let mut root_idxs = Vec::with_capacity(root_count);
    for _ in 0..root_count {
        let r = cur.u32("root index")? as usize;
        if r >= n {
            return Err(malformed("bad root index"));
        }
        root_idxs.push(r);
    }

    // Metric columns. Shortest column: name idx + count + crc = 12.
    // Columns are written in ascending name order, so each node's
    // pairs accumulate already sorted and the per-node maps bulk-build
    // from sorted vecs below instead of paying a tree insert per entry
    // (out-of-order or duplicate names in a hand-crafted payload still
    // land correctly: `collect` sorts, and the last duplicate wins,
    // matching insert semantics).
    let metric_count = cur.count(12, "metric columns")?;
    let mut node_metrics: Vec<Vec<(Arc<str>, f64)>> = vec![Vec::new(); n];
    for _ in 0..metric_count {
        let mname = cached_arc(
            &names,
            &mut interned,
            cur.u32("metric column name")?,
            "metric column",
        )?;
        let m = cur.count(12, "metric column entries")?;
        let declared_crc = cur.u32("metric column crc")?;
        let data_len = m
            .checked_mul(12)
            .ok_or_else(|| malformed("metric column size overflow"))?;
        let data = cur.take(data_len, "metric column data")?;
        if crc32c(data) != declared_crc {
            return Err(malformed(format!(
                "metric column {mname:?}: checksum mismatch"
            )));
        }
        let (idx_bytes, val_bytes) = data.split_at(m * 4);
        for j in 0..m {
            let node =
                u32::from_le_bytes(idx_bytes[j * 4..j * 4 + 4].try_into().unwrap()) as usize;
            if node >= n {
                return Err(malformed(format!(
                    "metric column {mname:?}: node index {node} out of range ({n} nodes)"
                )));
            }
            let v = f64::from_bits(u64::from_le_bytes(
                val_bytes[j * 8..j * 8 + 8].try_into().unwrap(),
            ));
            if !v.is_finite() {
                return Err(ProfileError::NonFinite {
                    node,
                    metric: mname.to_string(),
                });
            }
            node_metrics[node].push((mname.clone(), v));
        }
    }
    for (shell, pairs) in shells.iter_mut().zip(node_metrics) {
        shell.metrics = pairs.into_iter().collect();
    }

    if cur.remaining() != 0 {
        return Err(malformed(format!(
            "{} trailing bytes after profile body",
            cur.remaining()
        )));
    }
    assemble_profile(shells, &root_idxs, metadata)
}

/// Absolute byte offsets of one metric column inside a `TKP3` payload.
///
/// This is the fault-injection map for [`crate::faults`]: each field
/// locates a rewritable scalar (or the data block) so a corruptor can
/// violate exactly one structural invariant and nothing else.
#[derive(Debug, Clone)]
pub(crate) struct ColumnSpan {
    /// Offset of the column's `u32` name-table index.
    pub(crate) name_idx_at: usize,
    /// Offset of the column's `u32` entry count.
    pub(crate) count_at: usize,
    /// Offset of the column's `u32` data CRC.
    pub(crate) crc_at: usize,
    /// Byte range of the column data (node indices + value bits).
    pub(crate) data: std::ops::Range<usize>,
}

/// Skip one tagged value without materializing it.
fn skip_value(cur: &mut Cursor<'_>, what: &str) -> Result<(), ProfileError> {
    match cur.u8(what)? {
        0..=2 => Ok(()),
        3 | 4 => cur.u64(what).map(|_| ()),
        5 => cur.u32(what).map(|_| ()),
        t => Err(malformed(format!("{what}: unknown value tag {t}"))),
    }
}

/// Walk a well-formed `TKP3` payload and return the byte layout of its
/// metric columns. Used by the fault corruptors, which must target a
/// *healthy* record — structural failures mean the victim was already
/// corrupt and are returned as errors, not skipped.
pub(crate) fn metric_column_spans(bytes: &[u8]) -> Result<Vec<ColumnSpan>, ProfileError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(4, "payload magic")? != PROFILE_MAGIC {
        return Err(malformed("bad payload magic (expected TKP3)"));
    }
    let name_count = cur.count(4, "name table")?;
    for i in 0..name_count {
        cur.str(&format!("name table entry {i}"))?;
    }
    let meta_count = cur.count(5, "metadata")?;
    for i in 0..meta_count {
        let what = format!("metadata pair {i}");
        cur.u32(&what)?;
        skip_value(&mut cur, &what)?;
    }
    let n = cur.count(8, "nodes")?;
    for i in 0..n {
        let attr_count = cur.count(5, "frame attrs")?;
        for _ in 0..attr_count {
            let what = format!("node {i} frame attr");
            cur.u32(&what)?;
            skip_value(&mut cur, &what)?;
        }
        let child_count = cur.count(4, "children")?;
        cur.take(child_count * 4, "child indices")?;
    }
    let root_count = cur.count(4, "roots")?;
    cur.take(root_count * 4, "root indices")?;

    let metric_count = cur.count(12, "metric columns")?;
    let mut spans = Vec::with_capacity(metric_count);
    for _ in 0..metric_count {
        let name_idx_at = cur.pos;
        cur.u32("metric column name")?;
        let count_at = cur.pos;
        let m = cur.count(12, "metric column entries")?;
        let crc_at = cur.pos;
        cur.u32("metric column crc")?;
        let data_start = cur.pos;
        cur.take(m * 12, "metric column data")?;
        spans.push(ColumnSpan {
            name_idx_at,
            count_at,
            crc_at,
            data: data_start..cur.pos,
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use thicket_graph::Graph;

    fn sample() -> Profile {
        let mut g = Graph::new();
        let main = g.add_root(Frame::with_type("MAIN", "function"));
        let foo = g.add_child(main, Frame::named("FOO"));
        let bar = g.add_child(main, Frame::named("BAR"));
        let mut p = Profile::new(g);
        p.set_metadata("cluster", "quartz");
        p.set_metadata("problem size", 1048576i64);
        p.set_metadata("tuning", Value::Float(0.25));
        p.set_metadata("debug", Value::Bool(false));
        p.set_metadata("note", Value::Null);
        p.set_metric(main, "time (inc)", 2.0);
        p.set_metric(foo, "time (exc)", 1.5);
        p.set_metric(bar, "time (exc)", 0.5);
        p
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let p = sample();
        let bytes = encode_profile(&p);
        assert!(bytes.starts_with(PROFILE_MAGIC));
        let q = decode_profile(&bytes).unwrap();
        assert_eq!(q.profile_hash(), p.profile_hash());
        assert_eq!(q.graph().len(), 3);
        assert_eq!(q.metadata("problem size"), Some(&Value::Int(1048576)));
        assert_eq!(q.metadata("tuning"), Some(&Value::Float(0.25)));
        assert_eq!(q.metadata("note"), Some(&Value::Null));
        let foo = q.graph().find_by_name("FOO").unwrap();
        assert_eq!(q.metric(foo, "time (exc)"), Some(1.5));
        let main = q.graph().roots()[0];
        assert_eq!(q.graph().node(main).children().len(), 2);
        // Binary and JSON decode to the same document.
        let via_json = Profile::parse(&p.to_string_pretty()).unwrap();
        assert_eq!(via_json.to_string_pretty(), q.to_string_pretty());
    }

    #[test]
    fn binary_beats_json_on_size() {
        let p = crate::rajaperf::simulate_cpu_run(&crate::rajaperf::CpuRunConfig::quartz_default());
        let bin = encode_profile(&p);
        let json = p.to_string_pretty().into_bytes();
        assert!(
            bin.len() < json.len(),
            "binary {} >= json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn dag_roundtrip() {
        let mut g = Graph::new();
        let main = g.add_root(Frame::named("MAIN"));
        let a = g.add_child(main, Frame::named("A"));
        let b = g.add_child(main, Frame::named("B"));
        let shared = g.add_child(a, Frame::named("SHARED"));
        g.add_edge(b, shared);
        let p = Profile::new(g);
        let q = decode_profile(&encode_profile(&p)).unwrap();
        let s = q.graph().find_by_name("SHARED").unwrap();
        assert_eq!(q.graph().node(s).parents().len(), 2);
    }

    #[test]
    fn huge_int_metadata_survives() {
        let mut p = sample();
        p.set_metadata("profile", -5810787656424201390i64);
        let q = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(
            q.metadata("profile"),
            Some(&Value::Int(-5810787656424201390))
        );
    }

    #[test]
    fn truncation_anywhere_is_a_typed_error() {
        let p = sample();
        let bytes = encode_profile(&p);
        for cut in 0..bytes.len() {
            match decode_profile(&bytes[..cut]) {
                Err(ProfileError::Malformed(_)) | Err(ProfileError::NonFinite { .. }) => {}
                Ok(_) => panic!("decoded a truncated payload (cut {cut})"),
                Err(other) => panic!("unexpected error kind at cut {cut}: {other}"),
            }
        }
    }

    #[test]
    fn huge_declared_counts_do_not_allocate() {
        // A payload whose name-table count claims u32::MAX entries:
        // the cursor must reject the count against remaining bytes, not
        // try to reserve 4 billion slots.
        let mut bytes = PROFILE_MAGIC.to_vec();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_profile(&bytes),
            Err(ProfileError::Malformed(m)) if m.contains("count")
        ));
    }

    #[test]
    fn bad_name_index_and_tag_rejected() {
        let p = sample();
        let good = encode_profile(&p);
        // Mutate each byte to a large value and confirm decoding never
        // panics — it either still decodes or fails typed.
        for i in 4..good.len() {
            let mut b = good.clone();
            b[i] = 0xff;
            let _ = decode_profile(&b);
        }
    }

    #[test]
    fn non_finite_metric_bits_rejected_with_location() {
        let p = sample();
        let mut bytes = encode_profile(&p);
        // Find the f64 bits of 1.5 ("time (exc)" on node 1) and replace
        // them with +inf, re-fixing the column CRC so the corruption
        // reaches the finiteness check.
        let needle = 1.5f64.to_bits().to_le_bytes();
        let pos = bytes
            .windows(8)
            .position(|w| w == needle)
            .expect("1.5 present");
        bytes[pos..pos + 8].copy_from_slice(&f64::INFINITY.to_bits().to_le_bytes());
        // Recompute every column CRC by re-walking: simplest is to
        // decode-with-fixup — locate the column holding the mutated
        // value. The "time (exc)" column has 2 entries => data length
        // 24; its CRC field sits 4 bytes before the data.
        // Brute-force: try fixing the CRC at every plausible offset.
        let mut fixed = None;
        for crc_at in (4..bytes.len().saturating_sub(4)).rev() {
            for dlen in [12usize, 24, 36] {
                if crc_at + 4 + dlen > bytes.len() {
                    continue;
                }
                let span = crc_at + 4..crc_at + 4 + dlen;
                if !(span.contains(&pos)) {
                    continue;
                }
                let mut b = bytes.clone();
                let crc = crc32c(&b[span.clone()]);
                b[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
                if let Err(ProfileError::NonFinite { metric, .. }) = decode_profile(&b) {
                    fixed = Some(metric);
                    break;
                }
            }
            if fixed.is_some() {
                break;
            }
        }
        assert_eq!(fixed.as_deref(), Some("time (exc)"));
    }

    #[test]
    fn repeated_metadata_key_rejected() {
        // Two keys of equal length, then the second renamed in the name
        // table: the record now repeats `cluster`.
        let mut p = sample();
        p.set_metadata("clustex", "ruby");
        let mut bytes = encode_profile(&p);
        let at = bytes
            .windows(7)
            .position(|w| w == b"clustex")
            .expect("name in the table");
        bytes[at..at + 7].copy_from_slice(b"cluster");
        match decode_profile(&bytes) {
            Err(ProfileError::Malformed(m)) => assert!(m.contains("\"cluster\""), "{m}"),
            other => panic!("expected Malformed, got {other:?}"),
        }
    }
}
