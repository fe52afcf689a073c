// ---------------------------------------------------------------------
// What older builds wrote, read only by the migrator and maintenance.
// ---------------------------------------------------------------------
//
// v1 manifests kept each profile's metadata as a row on its entry; v2
// has today's manifest body. Both framed JSON documents as records.
// `Manifest::from_file_bytes` hands an old tag here and marks the result
// (`Manifest::legacy`); `Store::compact` transcodes its records.

use super::manifest::{build_columns, MetaBlock};
use crate::binprofile::{decode_profile, encode_profile, PROFILE_MAGIC};
use crate::json::Json;
use crate::profile::{json_to_value, Profile, ProfileError};
use thicket_dataframe::Value;

/// Format tag of a v1 manifest body (per-entry metadata rows).
pub(crate) const V1: &str = "thicket-store-1";
/// Format tag of a v2 manifest body (columnar index, JSON payloads).
const V2: &str = "thicket-store-2";

/// The older format a manifest's tag names, if it names one.
pub(crate) fn format(tag: &str) -> Option<&'static str> {
    [V1, V2].into_iter().find(|&t| t == tag)
}

/// A v1 body's columnar index, rebuilt from the metadata rows on its
/// entries (`None` when a row is malformed).
pub(crate) fn v1_columns(entries: &[Json]) -> Option<Vec<MetaBlock>> {
    let rows = entries
        .iter()
        .map(|e| {
            let mut row: Vec<(String, Value)> = e
                .get("meta")?
                .as_obj()?
                .iter()
                .map(|(k, v)| (k.clone(), json_to_value(v)))
                .collect();
            row.sort_by(|a, b| a.0.cmp(&b.0));
            Some(row)
        })
        .collect::<Option<Vec<_>>>()?;
    Some(build_columns(&rows))
}

/// Decode a record payload of either encoding: `TKP3`, or the JSON
/// document an older build wrote. The only JSON record decoder in the
/// store; the read path decodes `TKP3` alone.
pub(crate) fn decode_record(bytes: &[u8]) -> Result<Profile, ProfileError> {
    if bytes.starts_with(PROFILE_MAGIC) {
        return decode_profile(bytes);
    }
    let text = std::str::from_utf8(bytes).map_err(|_| {
        ProfileError::Malformed("record is neither TKP3 binary nor UTF-8 JSON".into())
    })?;
    Profile::parse(text)
}

/// A record payload as `TKP3`: carried byte-for-byte when it already is
/// one (the read verified its CRC; it is never reparsed), transcoded
/// when it is JSON.
pub(crate) fn to_tkp3(bytes: &[u8]) -> Result<Vec<u8>, ProfileError> {
    if bytes.starts_with(PROFILE_MAGIC) {
        return Ok(bytes.to_vec());
    }
    decode_record(bytes).map(|p| encode_profile(&p))
}
