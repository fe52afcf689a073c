// ---------------------------------------------------------------------
// Manifest model.
// ---------------------------------------------------------------------

use super::crc::crc32c;
use super::frame::{self, SHARD_MAGIC};
use super::{legacy, StoreError, MANIFEST_FORMAT, MANIFEST_MAGIC};
use crate::json::{write_num, write_str, Json, HEX_DIGITS};
use crate::profile::{json_to_value, value_to_json, Profile};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::OnceLock;
use thicket_dataframe::Value;

/// One shard as the manifest describes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardInfo {
    /// File name (relative to the store directory).
    pub file: String,
    /// Total file length in bytes (magic included).
    pub bytes: u64,
    /// CRC32C of the whole file.
    pub crc: u32,
    /// Number of records.
    pub records: usize,
}

/// One profile as the manifest indexes it: identity and byte range.
/// Its metadata lives only in the manifest's columnar index
/// ([`Manifest::columns`]), which a
/// [`StoreReader::select_expr`](super::StoreReader::select_expr)
/// predicate filters on without touching the shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Deterministic profile identity ([`Profile::profile_hash`]).
    pub hash: i64,
    /// Index into [`Manifest::shards`].
    pub shard: usize,
    /// Byte offset of the record *payload* within the shard file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC32C of the payload.
    pub crc: u32,
}

/// One key's column in the manifest's metadata index: a presence
/// mask plus the key's values for the profiles that carry it, held as
/// unparsed JSON text until first use. Selection against a predicate
/// decodes only the blocks whose keys the predicate names.
#[derive(Debug, Clone)]
pub struct MetaBlock {
    key: String,
    /// `present[i]` ⇔ profile `i` carries this key.
    present: Vec<bool>,
    /// Compact JSON array of the present profiles' values, in profile
    /// order — *not* parsed until [`MetaBlock::values`] is called.
    raw: String,
    /// Lazily decoded values, full profile length with `Value::Null`
    /// in absent slots (the presence mask stays authoritative: an
    /// absent key and a stored `Null` are distinguishable).
    decoded: OnceLock<Result<Vec<Value>, String>>,
}

impl PartialEq for MetaBlock {
    fn eq(&self, other: &Self) -> bool {
        // The decode cache is derived state, not identity.
        self.key == other.key && self.present == other.present && self.raw == other.raw
    }
}

impl MetaBlock {
    /// The metadata key this block indexes.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Whether profile `i` carries this key.
    pub fn present_at(&self, i: usize) -> bool {
        self.present.get(i).copied().unwrap_or(false)
    }

    /// The full presence mask, one flag per profile in storage order —
    /// the predicate engine binds this directly as a columnar view.
    pub fn present(&self) -> &[bool] {
        &self.present
    }

    /// True once this block's value text has been parsed — selection
    /// must leave blocks for keys a predicate never names undecoded.
    pub fn is_decoded(&self) -> bool {
        self.decoded.get().is_some()
    }

    /// Decode (once) and return the full-length value column;
    /// `Value::Null` fills absent slots.
    pub fn values(&self) -> Result<&[Value], String> {
        self.decoded
            .get_or_init(|| decode_column(&self.key, &self.raw, &self.present))
            .as_deref()
            .map_err(|e| e.clone())
    }

    /// This block with `cells` appended: the mask and the value text
    /// gain the cells at their end. The result comes decoded, with this
    /// block's values plus a decode of the text the cells add, so its
    /// values are what a cold decode of its whole text gives. Fails when
    /// this block does not decode.
    fn appended(&self, cells: &[Option<&Value>]) -> Result<MetaBlock, String> {
        let base = self.values()?;
        let present: Vec<bool> = self
            .present
            .iter()
            .copied()
            .chain(cells.iter().map(Option::is_some))
            .collect();
        // The cells' values as an array of their own: the text this
        // commit adds, checked by decoding it.
        let mut added = String::from("[");
        for v in cells.iter().flatten() {
            push_value(&mut added, v);
        }
        added.push(']');
        let tail = decode_column(&self.key, &added, &present[base.len()..])?;
        let values: Vec<Value> = base.iter().cloned().chain(tail).collect();
        // `values` parsed the text as one array: past its last value
        // come JSON whitespace, `]` and JSON whitespace.
        let head = self.raw.trim_end();
        let head = head[..head.len() - 1].trim_end();
        let added = &added[1..added.len() - 1];
        let mut raw = String::with_capacity(head.len() + 1 + added.len() + 1);
        raw.push_str(head);
        if !added.is_empty() && !head.ends_with('[') {
            raw.push(',');
        }
        raw.push_str(added);
        raw.push(']');
        Ok(MetaBlock {
            key: self.key.clone(),
            present,
            raw,
            decoded: OnceLock::from(Ok(values)),
        })
    }
}

/// One column's values from its value text and presence mask: one
/// array value per present slot, `Value::Null` in the absent ones.
fn decode_column(key: &str, raw: &str, present: &[bool]) -> Result<Vec<Value>, String> {
    let doc = Json::parse(raw).map_err(|e| format!("meta column {key}: {e}"))?;
    let arr = doc
        .as_arr()
        .ok_or_else(|| format!("meta column {key}: not an array"))?;
    let n_present = present.iter().filter(|&&p| p).count();
    if arr.len() != n_present {
        return Err(format!(
            "meta column {key}: {} values for {n_present} present rows",
            arr.len()
        ));
    }
    let mut full = vec![Value::Null; present.len()];
    let mut vals = arr.iter();
    for (slot, &p) in full.iter_mut().zip(present) {
        if p {
            *slot = json_to_value(vals.next().expect("counted above"));
        }
    }
    Ok(full)
}

/// `key`'s value in a key-sorted metadata row.
fn cell<'a>(row: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    row.binary_search_by(|(k, _)| k.as_str().cmp(key))
        .ok()
        .map(|pos| &row[pos].1)
}

/// Append `v`'s compact JSON to a column's value text, after a comma
/// unless it is the first value.
fn push_value(raw: &mut String, v: &Value) {
    if !raw.ends_with('[') {
        raw.push(',');
    }
    value_to_json(v).write(raw);
}

/// Encode one key's column from its per-profile cells (`None` = absent);
/// `None` when no profile carries the key.
fn encode_column<'a>(
    key: &str,
    cells: impl Iterator<Item = Option<&'a Value>>,
) -> Option<MetaBlock> {
    let mut present = Vec::new();
    let mut raw = String::from("[");
    for c in cells {
        present.push(c.is_some());
        if let Some(v) = c {
            push_value(&mut raw, v);
        }
    }
    raw.push(']');
    present.contains(&true).then(|| MetaBlock {
        key: key.to_string(),
        present,
        raw,
        decoded: OnceLock::new(),
    })
}

/// Build the sorted columnar index from per-profile key-sorted rows.
pub(crate) fn build_columns<R: AsRef<[(String, Value)]>>(rows: &[R]) -> Vec<MetaBlock> {
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for row in rows {
        for (k, _) in row.as_ref() {
            keys.insert(k);
        }
    }
    keys.into_iter()
        .filter_map(|key| encode_column(key, rows.iter().map(|r| cell(r.as_ref(), key))))
        .collect()
}

/// The columnar index after an append, from the base's `columns` over
/// `n_base` profiles and the `tail` rows that follow the base. Equal to
/// [`build_columns`] over the resulting rows, without rebuilding the
/// base:
///
/// * every base block is decoded first (at most once: a block keeps its
///   decode), so a base whose column does not decode fails the append
///   before anything is built;
/// * every base block keeps its mask and value text verbatim and gains
///   the tail's values at the end;
/// * a key new in the tail gets an all-absent prefix;
/// * every block comes decoded, at the cost of decoding the tail's text
///   ([`MetaBlock::appended`]).
pub(crate) fn append_columns(
    columns: &[MetaBlock],
    n_base: usize,
    tail: &[&[(String, Value)]],
) -> Result<Vec<MetaBlock>, String> {
    for b in columns {
        b.values()?;
    }
    let mut new_keys: BTreeSet<&str> = BTreeSet::new();
    for row in tail {
        new_keys.extend(row.iter().map(|(k, _)| k.as_str()));
    }
    let mut out = Vec::with_capacity(columns.len() + new_keys.len());
    let cells =
        |key: &str| -> Vec<Option<&Value>> { tail.iter().map(|row| cell(row, key)).collect() };
    for b in columns {
        new_keys.remove(b.key.as_str());
        out.push(b.appended(&cells(&b.key))?);
    }
    for key in new_keys {
        let absent = MetaBlock {
            key: key.to_string(),
            present: vec![false; n_base],
            raw: "[]".to_string(),
            decoded: OnceLock::from(Ok(vec![Value::Null; n_base])),
        };
        out.push(absent.appended(&cells(key))?);
    }
    out.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(out)
}

/// The columnar index of the profiles at `rows`, in that order, of a
/// manifest whose index is `columns`: equal to [`build_columns`] over
/// those profiles' metadata rows, encoded block by block from the
/// decoded values. Fails when a column does not decode.
pub(crate) fn select_columns(
    columns: &[MetaBlock],
    rows: &[usize],
) -> Result<Vec<MetaBlock>, String> {
    let mut out = Vec::with_capacity(columns.len());
    for b in columns {
        let values = b.values()?;
        let cells = rows.iter().map(|&i| b.present[i].then(|| &values[i]));
        out.extend(encode_column(&b.key, cells));
    }
    Ok(out)
}

/// A profile's scalar metadata as a key-sorted row (the order the
/// column builders' binary search requires).
pub(crate) fn sorted_meta(p: &Profile) -> Vec<(String, Value)> {
    let mut meta: Vec<(String, Value)> = p
        .metadata_iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    meta.sort_by(|a, b| a.0.cmp(&b.0));
    meta
}

/// Append a presence mask as lowercase hex, one byte per 8 profiles,
/// LSB-first within each byte.
pub(crate) fn push_mask_hex(present: &[bool], out: &mut String) {
    for chunk in present.chunks(8) {
        let byte = chunk
            .iter()
            .enumerate()
            .fold(0u8, |byte, (bit, &p)| byte | (u8::from(p) << bit));
        out.push(HEX_DIGITS[usize::from(byte >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(byte & 0xf)] as char);
    }
}

/// Hex mask → presence vector of exactly `n` profiles. Rejects wrong
/// lengths and stray set bits past `n`.
pub(crate) fn mask_from_hex(hex: &str, n: usize) -> Result<Vec<bool>, String> {
    let expect = n.div_ceil(8) * 2;
    if hex.len() != expect {
        return Err(format!("mask is {} hex chars, expected {expect}", hex.len()));
    }
    let mut present = Vec::with_capacity(n);
    for (bi, pair) in hex.as_bytes().chunks(2).enumerate() {
        let s = std::str::from_utf8(pair).map_err(|_| "mask not UTF-8".to_string())?;
        let byte = u8::from_str_radix(s, 16).map_err(|_| "mask not hex".to_string())?;
        for bit in 0..8 {
            let i = bi * 8 + bit;
            let set = byte & (1 << bit) != 0;
            if i < n {
                present.push(set);
            } else if set {
                return Err("mask has bits past the profile count".into());
            }
        }
    }
    Ok(present)
}

/// Bytes of a manifest file's header: the magic, the body CRC as 8 hex
/// chars, and a newline.
pub(crate) const MANIFEST_HEADER_BYTES: usize = MANIFEST_MAGIC.len() + 8 + 1;

/// The body CRC a manifest file's header declares; `None` when the
/// header is short or malformed.
pub(crate) fn header_crc(bytes: &[u8]) -> Option<u32> {
    let header = bytes.get(..MANIFEST_HEADER_BYTES)?;
    let (magic, rest) = header.split_at(MANIFEST_MAGIC.len());
    if magic != MANIFEST_MAGIC || rest[8] != b'\n' {
        return None;
    }
    u32::from_str_radix(std::str::from_utf8(&rest[..8]).ok()?, 16).ok()
}

/// A parsed, self-CRC-verified manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Generation number.
    pub generation: u64,
    /// Shard descriptors, index-addressed by [`StoreEntry::shard`].
    pub shards: Vec<ShardInfo>,
    /// Per-profile index, in storage order. The entries carry no
    /// metadata (it lives in [`Manifest::columns`]).
    pub profiles: Vec<StoreEntry>,
    /// Columnar metadata index, one block per key, key-sorted.
    pub columns: Vec<MetaBlock>,
    /// The format tag of a body an older build wrote (`None` for
    /// [`MANIFEST_FORMAT`]). Only the migrator reads such a generation.
    pub(crate) legacy: Option<&'static str>,
}

impl Manifest {
    /// The column indexing `key`, if any profile carries it.
    pub fn column(&self, key: &str) -> Option<&MetaBlock> {
        self.columns
            .binary_search_by(|b| b.key.as_str().cmp(key))
            .ok()
            .map(|i| &self.columns[i])
    }

    /// Refuse a generation an older build wrote: only the migrator
    /// ([`Store::compact`](super::Store::compact)) reads those.
    pub(crate) fn ensure_current(&self) -> Result<(), StoreError> {
        match self.legacy {
            None => Ok(()),
            Some(format) => Err(StoreError::NeedsMigration {
                generation: self.generation,
                format,
            }),
        }
    }

    /// Every profile's key-sorted metadata row, decoded out of every
    /// column. Strict — a column that fails to decode fails the whole
    /// call.
    #[cfg(test)]
    pub(crate) fn meta_rows(&self) -> Result<Vec<Vec<(String, Value)>>, String> {
        let mut rows = vec![Vec::new(); self.profiles.len()];
        for b in &self.columns {
            let vals = b.values()?;
            for (i, row) in rows.iter_mut().enumerate() {
                if b.present_at(i) {
                    row.push((b.key.clone(), vals[i].clone()));
                }
            }
        }
        // Columns are key-sorted, so each row came out sorted.
        Ok(rows)
    }

    /// The manifest file: header, then the compact JSON body, written
    /// field by field into one buffer (no `Json` tree).
    pub(crate) fn to_file_bytes(&self) -> Vec<u8> {
        let column_bytes: usize = self
            .columns
            .iter()
            .map(|b| b.key.len() + b.present.len() / 4 + b.raw.len() * 5 / 4 + 48)
            .sum();
        let mut out = String::with_capacity(
            MANIFEST_HEADER_BYTES
                + 96
                + self.shards.len() * 96
                + self.profiles.len() * 96
                + column_bytes,
        );
        // Magic and a CRC placeholder, patched once the body is written.
        out.push_str(std::str::from_utf8(MANIFEST_MAGIC).expect("ASCII magic"));
        out.push_str("00000000\n");
        out.push_str("{\"format\":");
        write_str(MANIFEST_FORMAT, &mut out);
        out.push_str(",\"generation\":");
        write_num(self.generation as f64, &mut out);
        out.push_str(",\"shards\":[");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"file\":");
            write_str(&s.file, &mut out);
            out.push_str(",\"bytes\":");
            write_num(s.bytes as f64, &mut out);
            out.push_str(",\"crc\":");
            write_num(s.crc as f64, &mut out);
            out.push_str(",\"records\":");
            write_num(s.records as f64, &mut out);
            out.push('}');
        }
        out.push_str("],\"profiles\":[");
        for (i, p) in self.profiles.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Full-range i64: goes through a decimal string so it
            // survives the JSON f64 round trip.
            out.push_str("{\"hash\":\"");
            let _ = write!(out, "{}", p.hash);
            out.push_str("\",\"shard\":");
            write_num(p.shard as f64, &mut out);
            out.push_str(",\"offset\":");
            write_num(p.offset as f64, &mut out);
            out.push_str(",\"len\":");
            write_num(p.len as f64, &mut out);
            out.push_str(",\"crc\":");
            write_num(p.crc as f64, &mut out);
            out.push('}');
        }
        // Each column's values ship as a JSON *string* holding the
        // compact array text: a reader that never references the key
        // scans past one string token instead of parsing every value.
        out.push_str("],\"columns\":[");
        for (i, b) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"key\":");
            write_str(&b.key, &mut out);
            out.push_str(",\"mask\":\"");
            push_mask_hex(&b.present, &mut out);
            out.push_str("\",\"values\":");
            write_str(&b.raw, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        let mut bytes = out.into_bytes();
        let crc = crc32c(&bytes[MANIFEST_HEADER_BYTES..]);
        let hex = &mut bytes[MANIFEST_MAGIC.len()..MANIFEST_HEADER_BYTES - 1];
        for (k, digit) in hex.iter_mut().enumerate() {
            *digit = HEX_DIGITS[(crc >> (28 - 4 * k)) as usize & 0xf];
        }
        bytes
    }

    /// Parse and self-verify a manifest file's bytes. A body an older
    /// build wrote goes through the `legacy` decoder into the same
    /// shape, marked with its tag ([`Manifest::ensure_current`]).
    pub(crate) fn from_file_bytes(bytes: &[u8]) -> Result<Manifest, String> {
        if !bytes.starts_with(MANIFEST_MAGIC) {
            return Err("bad manifest magic".into());
        }
        let want = header_crc(bytes).ok_or("bad manifest header")?;
        let body = &bytes[MANIFEST_HEADER_BYTES..];
        let got = crc32c(body);
        if got != want {
            return Err(format!("manifest body CRC {got:08x} != header {want:08x}"));
        }
        let text = std::str::from_utf8(body).map_err(|_| "manifest body not UTF-8")?;
        let doc = Json::parse(text).map_err(|e| format!("manifest JSON: {e}"))?;
        let legacy = match doc.get("format").and_then(Json::as_str) {
            Some(MANIFEST_FORMAT) => None,
            tag => Some(
                tag.and_then(legacy::format)
                    .ok_or("unsupported manifest format")?,
            ),
        };
        let generation = doc
            .get("generation")
            .and_then(Json::as_i64)
            .filter(|&g| g > 0)
            .ok_or("missing generation")? as u64;
        // Every integer must fit its field: a value past the field's
        // range is malformed, never wrapped into a plausible one.
        let uint = |j: &Json, key: &str| j.get(key)?.as_i64().filter(|&v| v >= 0);
        let u32_of = |j: &Json, key: &str| u32::try_from(uint(j, key)?).ok();
        let shards = doc
            .get("shards")
            .and_then(Json::as_arr)
            .ok_or("missing shards")?
            .iter()
            .map(|s| {
                Some(ShardInfo {
                    file: s.get("file")?.as_str()?.to_string(),
                    bytes: uint(s, "bytes")? as u64,
                    crc: u32_of(s, "crc")?,
                    records: uint(s, "records")? as usize,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed shard entry")?;
        let entries = doc
            .get("profiles")
            .and_then(Json::as_arr)
            .ok_or("missing profiles")?;
        let profiles = entries
            .iter()
            .map(|p| {
                Some(StoreEntry {
                    hash: p.get("hash")?.as_str()?.parse::<i64>().ok()?,
                    shard: uint(p, "shard")? as usize,
                    offset: uint(p, "offset")? as u64,
                    len: u32_of(p, "len")?,
                    crc: u32_of(p, "crc")?,
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed profile entry")?;
        // Validate every declared byte range against the shard it names
        // **at parse time** — readers allocate and slice on these, so a
        // corrupt offset or length must be caught here (as a typed
        // manifest error → `StaleManifest` under fsck), never by an
        // oversized allocation or an out-of-bounds seek later.
        for p in &profiles {
            if p.shard >= shards.len() {
                return Err(format!(
                    "profile references shard {} of {}",
                    p.shard,
                    shards.len()
                ));
            }
            let info = &shards[p.shard];
            let inside = frame::span(p.offset, p.len)
                .is_some_and(|s| s.start >= SHARD_MAGIC.len() as u64 && s.end <= info.bytes);
            if !inside {
                return Err(format!(
                    "profile byte range {}+{} exceeds shard {} ({} bytes)",
                    p.offset, p.len, info.file, info.bytes
                ));
            }
        }
        let mut columns = if legacy == Some(legacy::V1) {
            legacy::v1_columns(entries).ok_or("malformed profile entry")?
        } else {
            doc.get("columns")
                .and_then(Json::as_arr)
                .ok_or("missing columns")?
                .iter()
                .map(|c| {
                    Some(MetaBlock {
                        key: c.get("key")?.as_str()?.to_string(),
                        present: mask_from_hex(c.get("mask")?.as_str()?, profiles.len()).ok()?,
                        raw: c.get("values")?.as_str()?.to_string(),
                        decoded: OnceLock::new(),
                    })
                })
                .collect::<Option<Vec<_>>>()
                .ok_or("malformed meta column")?
        };
        columns.sort_by(|a, b| a.key.cmp(&b.key));
        Ok(Manifest {
            generation,
            shards,
            profiles,
            columns,
            legacy,
        })
    }
}
