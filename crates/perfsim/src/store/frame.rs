// ---------------------------------------------------------------------
// The shard record frame: the one home of the record layout.
// ---------------------------------------------------------------------
//
// A shard file is `SHARD_MAGIC` followed by records, each framed as
// `[u32 len][u32 crc32c(payload)][payload]`, little-endian. The writer
// appends frames, the reader checks a frame against its manifest entry,
// and fsck, salvage and the fault corruptors walk whole images, all
// through this module.

use super::crc::crc32c;
use std::ops::Range;

/// Magic prefix of every shard file.
pub const SHARD_MAGIC: &[u8; 4] = b"TKS1";

/// Bytes of framing ahead of every record payload: `[u32 len][u32 crc]`.
pub const RECORD_HEADER_BYTES: usize = size_of::<u32>() + size_of::<u32>();

/// Append `payload` to a shard image as one frame. Returns where the
/// payload starts in the image, and its CRC.
pub(crate) fn push(image: &mut Vec<u8>, payload: &[u8]) -> (u64, u32) {
    let crc = crc32c(payload);
    image.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    image.extend_from_slice(&crc.to_le_bytes());
    image.extend_from_slice(payload);
    ((image.len() - payload.len()) as u64, crc)
}

/// The frame at the start of `bytes`: the CRC its header declares, and
/// where in `bytes` a payload of the length it declares lies. `None`
/// when the header, or that payload, runs past the end of `bytes`.
pub(crate) fn read(bytes: &[u8]) -> Option<(u32, Range<usize>)> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let (crc, rest) = rest.split_first_chunk::<4>()?;
    let len = u32::from_le_bytes(*len) as usize;
    let payload = RECORD_HEADER_BYTES..RECORD_HEADER_BYTES + len;
    (len <= rest.len()).then(|| (u32::from_le_bytes(*crc), payload))
}

/// The byte range of the frame whose payload starts at `offset` and
/// runs `len` bytes, header included; `None` when no header fits ahead
/// of `offset` or the end overflows.
pub(crate) fn span(offset: u64, len: u32) -> Option<Range<u64>> {
    Some(offset.checked_sub(RECORD_HEADER_BYTES as u64)?..offset.checked_add(len.into())?)
}

/// One whole frame of a walk: where its payload lies in the image, and
/// whether the payload matches the CRC its header declares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    pub(crate) payload: Range<usize>,
    pub(crate) intact: bool,
}

/// Every whole frame of a shard image, in order, and whether the image
/// ends torn: inside a header, or short of a declared length.
pub(crate) struct Walk {
    pub(crate) frames: Vec<Frame>,
    pub(crate) torn: bool,
}

/// Walk a shard image frame by frame; `None` when it does not start with
/// [`SHARD_MAGIC`]. A frame whose CRC fails does not stop the walk, so
/// later intact records stay reachable.
pub(crate) fn walk(image: &[u8]) -> Option<Walk> {
    if !image.starts_with(SHARD_MAGIC) {
        return None;
    }
    let mut frames = Vec::new();
    let mut pos = SHARD_MAGIC.len();
    let mut torn = false;
    while pos < image.len() {
        let Some((crc, payload)) = read(&image[pos..]) else {
            torn = true;
            break;
        };
        let payload = pos + payload.start..pos + payload.end;
        let intact = crc32c(&image[payload.clone()]) == crc;
        pos = payload.end;
        frames.push(Frame { payload, intact });
    }
    Some(Walk { frames, torn })
}
