// ---------------------------------------------------------------------
// Manifest model.
// ---------------------------------------------------------------------

use super::crc::crc32c;
use super::{
    legacy, StoreError, MANIFEST_FORMAT, MANIFEST_MAGIC, RECORD_HEADER_BYTES, SHARD_MAGIC,
};
use crate::json::Json;
use crate::profile::{json_to_value, value_to_json, Profile};
use std::collections::BTreeSet;
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

/// One profile as the manifest indexes it: identity, byte range, and
/// the scalar metadata fields a
/// [`StoreReader::select_expr`](super::StoreReader::select_expr)
/// predicate can filter on without touching the shard.
#[derive(Debug, Clone, PartialEq)]
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
    /// Scalar metadata fields, **sorted by key** so lookups are a
    /// binary search instead of a per-call linear scan. Empty in a
    /// manifest's raw entries (the metadata lives in
    /// [`Manifest::columns`]) — [`StoreReader::entries`] materializes
    /// it from the columnar index on demand.
    pub meta: Vec<(String, Value)>,
}

impl StoreEntry {
    /// Metadata lookup by key (binary search; `meta` is key-sorted).
    pub fn meta(&self, key: &str) -> Option<&Value> {
        self.meta
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.meta[i].1)
    }
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
            .get_or_init(|| {
                let doc = Json::parse(&self.raw)
                    .map_err(|e| format!("meta column {}: {e}", self.key))?;
                let arr = doc
                    .as_arr()
                    .ok_or_else(|| format!("meta column {}: not an array", self.key))?;
                let n_present = self.present.iter().filter(|&&p| p).count();
                if arr.len() != n_present {
                    return Err(format!(
                        "meta column {}: {} values for {} present rows",
                        self.key,
                        arr.len(),
                        n_present
                    ));
                }
                let mut full = vec![Value::Null; self.present.len()];
                let mut vals = arr.iter();
                for (slot, &p) in full.iter_mut().zip(&self.present) {
                    if p {
                        *slot = json_to_value(vals.next().expect("counted above"));
                    }
                }
                Ok(full)
            })
            .as_deref()
            .map_err(|e| e.clone())
    }
}

/// Build the sorted columnar index from per-profile key-sorted rows.
/// The decode cache is pre-filled (the writer just had the values).
pub(crate) fn build_columns<R: AsRef<[(String, Value)]>>(rows: &[R]) -> Vec<MetaBlock> {
    let mut keys: BTreeSet<&str> = BTreeSet::new();
    for row in rows {
        for (k, _) in row.as_ref() {
            keys.insert(k);
        }
    }
    keys.into_iter()
        .map(|key| {
            let mut present = vec![false; rows.len()];
            let mut vals = Vec::new();
            let mut full = vec![Value::Null; rows.len()];
            for (i, row) in rows.iter().enumerate() {
                let row = row.as_ref();
                if let Ok(pos) = row.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
                    present[i] = true;
                    vals.push(value_to_json(&row[pos].1));
                    full[i] = row[pos].1.clone();
                }
            }
            let decoded = OnceLock::new();
            let _ = decoded.set(Ok(full));
            MetaBlock {
                key: key.to_string(),
                present,
                raw: Json::Arr(vals).to_string_compact(),
                decoded,
            }
        })
        .collect()
}

/// A profile's scalar metadata as a key-sorted row (the order
/// [`StoreEntry::meta`]'s binary search requires).
pub(crate) fn sorted_meta(p: &Profile) -> Vec<(String, Value)> {
    let mut meta: Vec<(String, Value)> = p
        .metadata_iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    meta.sort_by(|a, b| a.0.cmp(&b.0));
    meta
}

/// Presence mask → lowercase hex, one byte per 8 profiles, LSB-first
/// within each byte.
pub(crate) fn mask_to_hex(present: &[bool]) -> String {
    let mut out = String::with_capacity(present.len().div_ceil(8) * 2);
    for chunk in present.chunks(8) {
        let mut byte = 0u8;
        for (bit, &p) in chunk.iter().enumerate() {
            if p {
                byte |= 1 << bit;
            }
        }
        out.push_str(&format!("{byte:02x}"));
    }
    out
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

    /// [`Manifest::meta_rows`], but undecodable columns are skipped
    /// instead of failing (for best-effort entry materialization; fsck
    /// reports the damage).
    pub(crate) fn meta_rows_lossy(&self) -> Vec<Vec<(String, Value)>> {
        let mut rows = vec![Vec::new(); self.profiles.len()];
        for b in &self.columns {
            if let Ok(vals) = b.values() {
                for (i, row) in rows.iter_mut().enumerate() {
                    if b.present_at(i) {
                        row.push((b.key.clone(), vals[i].clone()));
                    }
                }
            }
        }
        rows
    }

    pub(crate) fn to_file_bytes(&self) -> Vec<u8> {
        let shards = Json::Arr(
            self.shards
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("file".into(), Json::Str(s.file.clone())),
                        ("bytes".into(), Json::Num(s.bytes as f64)),
                        ("crc".into(), Json::Num(s.crc as f64)),
                        ("records".into(), Json::Num(s.records as f64)),
                    ])
                })
                .collect(),
        );
        let profiles = Json::Arr(
            self.profiles
                .iter()
                .map(|p| {
                    Json::Obj(vec![
                        // Full-range i64: goes through a decimal string
                        // so it survives the JSON f64 round trip.
                        ("hash".into(), Json::Str(p.hash.to_string())),
                        ("shard".into(), Json::Num(p.shard as f64)),
                        ("offset".into(), Json::Num(p.offset as f64)),
                        ("len".into(), Json::Num(p.len as f64)),
                        ("crc".into(), Json::Num(p.crc as f64)),
                    ])
                })
                .collect(),
        );
        // Each column's values ship as a JSON *string* holding the
        // compact array text: a reader that never references the key
        // scans past one string token instead of parsing every value.
        let columns = Json::Arr(
            self.columns
                .iter()
                .map(|b| {
                    Json::Obj(vec![
                        ("key".into(), Json::Str(b.key.clone())),
                        ("mask".into(), Json::Str(mask_to_hex(&b.present))),
                        ("values".into(), Json::Str(b.raw.clone())),
                    ])
                })
                .collect(),
        );
        let body_fields = vec![
            ("format".into(), Json::Str(MANIFEST_FORMAT.into())),
            ("generation".into(), Json::Num(self.generation as f64)),
            ("shards".into(), shards),
            ("profiles".into(), profiles),
            ("columns".into(), columns),
        ];
        let body = Json::Obj(body_fields).to_string_compact();
        let mut out = Vec::with_capacity(MANIFEST_HEADER_BYTES + body.len());
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(format!("{:08x}", crc32c(body.as_bytes())).as_bytes());
        out.push(b'\n');
        out.extend_from_slice(body.as_bytes());
        out
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
                    meta: Vec::new(),
                })
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("malformed profile entry")?;
        // Validate every declared byte range against the shard it names
        // **at parse time** — readers allocate and slice on these, so a
        // corrupt offset or length must be caught here (as a typed
        // manifest error → `StaleManifest` under fsck), never by an
        // oversized allocation or an out-of-bounds seek later.
        let record_min = (SHARD_MAGIC.len() + RECORD_HEADER_BYTES) as u64;
        for p in &profiles {
            if p.shard >= shards.len() {
                return Err(format!(
                    "profile references shard {} of {}",
                    p.shard,
                    shards.len()
                ));
            }
            let info = &shards[p.shard];
            let end = p.offset.checked_add(p.len as u64);
            if p.offset < record_min || end.is_none() || end.unwrap() > info.bytes {
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
