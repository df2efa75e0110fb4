//! The versioned datagram codec.
//!
//! Every datagram on the wire is one header plus one typed payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  = b"NCNC"
//!      4     1  version = 2 (1 still accepted on decode)
//!      5     1  kind    (Request/Announce/Data/Ack/Fin)
//!      6     2  flags   (LE, reserved, must decode even if non-zero)
//!      8     8  session id (LE)
//!     16     4  CRC-32 over header[0..16] ++ payload (LE)
//!     20     …  payload (layout per kind)
//! ```
//!
//! Version history: v1 announces carried only the stream shape (20 bytes)
//! and implied dense RLNC; v2 appends one codec-id byte ([`CodecId`]) so
//! the coding backend is negotiated per stream. Decode accepts both — a
//! v1 announce maps to [`CodecId::DenseRlnc`] — but always encodes v2.
//! An announce whose codec byte this build does not know is rejected with
//! [`WireError::UnknownCodec`], never a panic.
//!
//! Decoding is total: any byte string — truncated, bit-flipped, alien
//! protocol, hostile lengths — returns a [`WireError`], never panics, and
//! never yields a datagram whose bytes were corrupted (the checksum covers
//! header and payload).

use core::fmt;
use nc_rlnc::codec::CodecId;

/// First bytes of every datagram.
pub const MAGIC: [u8; 4] = *b"NCNC";
/// Current protocol version (always emitted; see `OLDEST_VERSION`).
pub const VERSION: u8 = 2;
/// Oldest version still accepted on decode (v1 = pre-codec-negotiation;
/// its announces imply dense RLNC).
pub const OLDEST_VERSION: u8 = 1;
/// Header bytes before the payload.
pub const HEADER_BYTES: usize = 20;
/// Largest datagram this transport will emit (UDP/IPv4 payload ceiling).
pub const MAX_DATAGRAM_BYTES: usize = 65_507;
/// Sanity cap on advertised stream shape (segments and blocks), so one
/// hostile announce cannot trigger a giant allocation.
pub const MAX_SEGMENTS: usize = 1 << 20;
/// Sanity cap on `n` (blocks per generation) in an announce.
pub const MAX_BLOCKS: usize = 1 << 14;
/// Sanity cap on `k` (block size) in an announce.
pub const MAX_BLOCK_SIZE: usize = 1 << 16;

/// Wire size of an ACK datagram for a stream of `segments` segments — the
/// largest receiver→sender datagram (header, received/innovative counters,
/// and the completion bitmap with its length prefix). A server that only
/// receives feedback sizes its batched receive slots from this instead of
/// [`MAX_DATAGRAM_BYTES`], shrinking per-socket slot memory ~300x.
pub const fn ack_wire_bytes(segments: usize) -> usize {
    HEADER_BYTES + 8 + 8 + 4 + segments.div_ceil(8)
}

/// Errors from datagram encoding/decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// Fewer bytes than one header.
    TooShort {
        /// Bytes actually present.
        actual: usize,
    },
    /// The first four bytes are not [`MAGIC`] — an alien datagram.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion {
        /// Version byte found on the wire.
        found: u8,
    },
    /// Unknown datagram kind byte.
    UnknownKind {
        /// Kind byte found on the wire.
        found: u8,
    },
    /// The CRC-32 does not match — the datagram was corrupted in flight.
    ChecksumMismatch,
    /// The payload does not parse under its kind's layout.
    MalformedPayload {
        /// Which kind failed to parse.
        kind: &'static str,
    },
    /// An encode would exceed [`MAX_DATAGRAM_BYTES`].
    TooLarge {
        /// Bytes the encode would need.
        needed: usize,
    },
    /// An announce advertises a stream shape beyond the sanity caps.
    LimitExceeded {
        /// Which advertised field is out of range.
        field: &'static str,
    },
    /// An announce names a coding backend this build does not implement.
    /// Distinct from [`WireError::MalformedPayload`] so drivers can log a
    /// "peer is newer than me" hint instead of a generic parse failure.
    UnknownCodec {
        /// Codec-id byte found on the wire.
        found: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { actual } => {
                write!(f, "datagram too short: {actual} bytes, header needs {HEADER_BYTES}")
            }
            WireError::BadMagic => write!(f, "bad magic: not an nc-net datagram"),
            WireError::BadVersion { found } => {
                write!(f, "unsupported protocol version {found} (want {VERSION})")
            }
            WireError::UnknownKind { found } => write!(f, "unknown datagram kind {found}"),
            WireError::ChecksumMismatch => write!(f, "checksum mismatch: datagram corrupted"),
            WireError::MalformedPayload { kind } => write!(f, "malformed {kind} payload"),
            WireError::TooLarge { needed } => {
                write!(f, "datagram would need {needed} bytes (max {MAX_DATAGRAM_BYTES})")
            }
            WireError::LimitExceeded { field } => {
                write!(f, "announced {field} exceeds the sanity cap")
            }
            WireError::UnknownCodec { found } => {
                write!(f, "announce names unknown codec id {found}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) lookup table.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Streaming CRC-32 update over one chunk (state is the raw register; start
/// from `0xFFFF_FFFF`, finish by inverting).
fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLE[((state ^ b as u32) & 0xFF) as usize];
    }
    state
}

/// CRC-32 over the header's checksummed prefix plus the payload.
fn datagram_crc(header_prefix: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(0xFFFF_FFFF, header_prefix), payload)
}

/// The stream shape an [`Payload::Announce`] advertises.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StreamMeta {
    /// Blocks per generation (`n`).
    pub blocks: u32,
    /// Block size in bytes (`k`).
    pub block_size: u32,
    /// Number of segments in the stream.
    pub total_segments: u32,
    /// Unpadded byte length of the stream.
    pub original_len: u64,
    /// Coding backend the sender will frame data with (one byte on the
    /// wire; absent in v1 announces, which imply dense RLNC).
    pub codec: CodecId,
}

impl StreamMeta {
    /// Validates the advertised shape against the sanity caps (so a
    /// receiver never allocates decoder state for a hostile announce).
    ///
    /// # Errors
    ///
    /// [`WireError::LimitExceeded`] naming the offending field.
    pub fn validate(&self) -> Result<(), WireError> {
        if self.blocks == 0 || self.blocks as usize > MAX_BLOCKS {
            return Err(WireError::LimitExceeded { field: "blocks" });
        }
        if self.block_size == 0 || self.block_size as usize > MAX_BLOCK_SIZE {
            return Err(WireError::LimitExceeded { field: "block size" });
        }
        if self.total_segments == 0 || self.total_segments as usize > MAX_SEGMENTS {
            return Err(WireError::LimitExceeded { field: "segment count" });
        }
        let capacity = self.total_segments as u64 * self.blocks as u64 * self.block_size as u64;
        if self.original_len == 0 || self.original_len > capacity {
            return Err(WireError::LimitExceeded { field: "original length" });
        }
        Ok(())
    }
}

/// A bitmap with one bit per stream segment (set = segment fully decoded).
/// The completion feedback ACK datagrams carry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentBitmap {
    bits: usize,
    bytes: Vec<u8>,
}

impl SegmentBitmap {
    /// An all-clear bitmap for `bits` segments.
    pub fn new(bits: usize) -> SegmentBitmap {
        SegmentBitmap { bits, bytes: vec![0u8; bits.div_ceil(8)] }
    }

    /// Number of segments tracked.
    pub fn len(&self) -> usize {
        self.bits
    }

    /// Whether the bitmap tracks zero segments.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Marks segment `i` complete (out-of-range indices are ignored — the
    /// bitmap's shape is fixed by the receiver, not by wire input).
    pub fn set(&mut self, i: usize) {
        if i < self.bits {
            self.bytes[i / 8] |= 1 << (i % 8);
        }
    }

    /// Whether segment `i` is complete (out-of-range reads as false).
    pub fn get(&self, i: usize) -> bool {
        i < self.bits && self.bytes[i / 8] & (1 << (i % 8)) != 0
    }

    /// Number of complete segments.
    pub fn count_complete(&self) -> usize {
        (0..self.bits).filter(|&i| self.get(i)).count()
    }

    /// Whether every segment is complete.
    pub fn all_complete(&self) -> bool {
        self.bits > 0 && self.count_complete() == self.bits
    }

    fn to_wire(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.bits as u32).to_le_bytes());
        out.extend_from_slice(&self.bytes);
    }

    fn from_wire(bytes: &[u8]) -> Option<SegmentBitmap> {
        let bits = u32::from_le_bytes(bytes.get(0..4)?.try_into().ok()?) as usize;
        if bits > MAX_SEGMENTS {
            return None;
        }
        let body = bytes.get(4..)?;
        if body.len() != bits.div_ceil(8) {
            return None;
        }
        // Reject set bits in the final byte's padding so equal bitmaps have
        // one wire form.
        if !bits.is_multiple_of(8) {
            let last = *body.last()?;
            if last >> (bits % 8) != 0 {
                return None;
            }
        }
        Some(SegmentBitmap { bits, bytes: body.to_vec() })
    }
}

/// Typed datagram payloads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Receiver → sender: start (or keep) serving this session.
    Request,
    /// Sender → receiver: the stream's shape. Sent first and re-sent until
    /// acknowledged by any ACK.
    Announce(StreamMeta),
    /// Sender → receiver: one coded frame, carried as the exact
    /// `nc_rlnc::stream::StreamFrame` wire bytes (parsed by the receiver,
    /// which knows the session's [`CodingConfig`](nc_rlnc::CodingConfig)).
    Data(Vec<u8>),
    /// Receiver → sender: completion feedback. `received`/`innovative`
    /// count all data frames so far; the bitmap marks decoded segments.
    Ack {
        /// Data datagrams that arrived intact.
        received: u64,
        /// Frames that increased some decoder's rank.
        innovative: u64,
        /// Per-segment completion.
        completed: SegmentBitmap,
    },
    /// Receiver → sender: the whole stream decoded; stop sending.
    Fin {
        /// Data datagrams that arrived intact.
        received: u64,
        /// Frames that increased some decoder's rank.
        innovative: u64,
    },
}

impl Payload {
    fn kind_byte(&self) -> u8 {
        match self {
            Payload::Request => 1,
            Payload::Announce(_) => 2,
            Payload::Data(_) => 3,
            Payload::Ack { .. } => 4,
            Payload::Fin { .. } => 5,
        }
    }

    /// Human-readable kind name (diagnostics).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Payload::Request => "request",
            Payload::Announce(_) => "announce",
            Payload::Data(_) => "data",
            Payload::Ack { .. } => "ack",
            Payload::Fin { .. } => "fin",
        }
    }
}

/// One datagram: a session id plus a typed payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Session the datagram belongs to (chosen by the sender of a stream).
    pub session: u64,
    /// The typed payload.
    pub payload: Payload,
}

impl Datagram {
    /// Convenience constructor.
    pub fn new(session: u64, payload: Payload) -> Datagram {
        Datagram { session, payload }
    }

    /// Serializes to wire bytes (header, checksum, payload).
    ///
    /// # Errors
    ///
    /// [`WireError::TooLarge`] if the result would exceed
    /// [`MAX_DATAGRAM_BYTES`] (the caller's coding config is too big for
    /// one UDP datagram).
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let mut payload = Vec::new();
        match &self.payload {
            Payload::Request => {}
            Payload::Announce(meta) => {
                payload.extend_from_slice(&meta.blocks.to_le_bytes());
                payload.extend_from_slice(&meta.block_size.to_le_bytes());
                payload.extend_from_slice(&meta.total_segments.to_le_bytes());
                payload.extend_from_slice(&meta.original_len.to_le_bytes());
                payload.push(meta.codec.to_wire());
            }
            Payload::Data(frame) => payload.extend_from_slice(frame),
            Payload::Ack { received, innovative, completed } => {
                payload.extend_from_slice(&received.to_le_bytes());
                payload.extend_from_slice(&innovative.to_le_bytes());
                completed.to_wire(&mut payload);
            }
            Payload::Fin { received, innovative } => {
                payload.extend_from_slice(&received.to_le_bytes());
                payload.extend_from_slice(&innovative.to_le_bytes());
            }
        }
        let total = HEADER_BYTES + payload.len();
        if total > MAX_DATAGRAM_BYTES {
            return Err(WireError::TooLarge { needed: total });
        }
        // Pool-backed: the transport drivers recycle sent datagrams, so
        // steady-state encodes reuse this allocation.
        let mut out = nc_pool::BytesPool::global().take_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(self.payload.kind_byte());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags (reserved)
        out.extend_from_slice(&self.session.to_le_bytes());
        let crc = datagram_crc(&out[0..16], &payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&payload);
        Ok(out)
    }

    /// Parses wire bytes. Total over arbitrary input: truncation, foreign
    /// magic, unknown kinds/versions, checksum damage, and malformed
    /// payloads each map to a distinct [`WireError`].
    pub fn decode(bytes: &[u8]) -> Result<Datagram, WireError> {
        if bytes.len() < HEADER_BYTES {
            return Err(WireError::TooShort { actual: bytes.len() });
        }
        if bytes[0..4] != MAGIC {
            return Err(WireError::BadMagic);
        }
        let version = bytes[4];
        if !(OLDEST_VERSION..=VERSION).contains(&version) {
            return Err(WireError::BadVersion { found: version });
        }
        let kind = bytes[5];
        let session = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        let stored_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
        let payload = &bytes[HEADER_BYTES..];
        if datagram_crc(&bytes[0..16], payload) != stored_crc {
            return Err(WireError::ChecksumMismatch);
        }
        let payload = match kind {
            1 => {
                if !payload.is_empty() {
                    return Err(WireError::MalformedPayload { kind: "request" });
                }
                Payload::Request
            }
            2 => {
                // v1 announces predate codec negotiation: 20 bytes, dense
                // RLNC implied. v2 appends the one-byte codec id.
                let codec = match (version, payload.len()) {
                    (1, 20) => CodecId::DenseRlnc,
                    (2, 21) => CodecId::from_wire(payload[20])
                        .ok_or(WireError::UnknownCodec { found: payload[20] })?,
                    _ => return Err(WireError::MalformedPayload { kind: "announce" }),
                };
                Payload::Announce(StreamMeta {
                    blocks: u32::from_le_bytes(payload[0..4].try_into().expect("4 bytes")),
                    block_size: u32::from_le_bytes(payload[4..8].try_into().expect("4 bytes")),
                    total_segments: u32::from_le_bytes(payload[8..12].try_into().expect("4 bytes")),
                    original_len: u64::from_le_bytes(payload[12..20].try_into().expect("8 bytes")),
                    codec,
                })
            }
            3 => Payload::Data(payload.to_vec()),
            4 => {
                if payload.len() < 16 {
                    return Err(WireError::MalformedPayload { kind: "ack" });
                }
                let received = u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes"));
                let innovative = u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes"));
                let completed = SegmentBitmap::from_wire(&payload[16..])
                    .ok_or(WireError::MalformedPayload { kind: "ack" })?;
                Payload::Ack { received, innovative, completed }
            }
            5 => {
                if payload.len() != 16 {
                    return Err(WireError::MalformedPayload { kind: "fin" });
                }
                Payload::Fin {
                    received: u64::from_le_bytes(payload[0..8].try_into().expect("8 bytes")),
                    innovative: u64::from_le_bytes(payload[8..16].try_into().expect("8 bytes")),
                }
            }
            other => return Err(WireError::UnknownKind { found: other }),
        };
        Ok(Datagram { session, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_wire_bytes_matches_encoded_ack() {
        for segments in [1usize, 7, 8, 11, 1000, 4096] {
            let mut bitmap = SegmentBitmap::new(segments);
            bitmap.set(segments - 1);
            let ack =
                Datagram::new(42, Payload::Ack { received: 10, innovative: 9, completed: bitmap });
            assert_eq!(
                ack.encode().unwrap().len(),
                ack_wire_bytes(segments),
                "segments={segments}"
            );
        }
    }

    fn sample_datagrams() -> Vec<Datagram> {
        let mut bitmap = SegmentBitmap::new(11);
        bitmap.set(0);
        bitmap.set(7);
        bitmap.set(10);
        vec![
            Datagram::new(7, Payload::Request),
            Datagram::new(
                9,
                Payload::Announce(StreamMeta {
                    blocks: 32,
                    block_size: 1024,
                    total_segments: 4,
                    original_len: 100_000,
                    codec: CodecId::Fft16,
                }),
            ),
            Datagram::new(u64::MAX, Payload::Data(vec![1, 2, 3, 4, 5])),
            Datagram::new(0, Payload::Ack { received: 10, innovative: 9, completed: bitmap }),
            Datagram::new(3, Payload::Fin { received: 44, innovative: 40 }),
        ]
    }

    #[test]
    fn all_kinds_roundtrip() {
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            assert_eq!(
                Datagram::decode(&wire).unwrap(),
                datagram,
                "{}",
                datagram.payload.kind_name()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected_or_equal() {
        // Flipping any single bit anywhere in the datagram must be caught
        // by magic/version/kind checks or by the CRC — never mis-parse.
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            for byte in 0..wire.len() {
                for bit in 0..8 {
                    let mut bad = wire.clone();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Datagram::decode(&bad).is_err(),
                        "bit flip at {byte}.{bit} of {} went undetected",
                        datagram.payload.kind_name()
                    );
                }
            }
        }
    }

    #[test]
    fn truncations_are_rejected() {
        for datagram in sample_datagrams() {
            let wire = datagram.encode().unwrap();
            for len in 0..wire.len() {
                assert!(Datagram::decode(&wire[..len]).is_err());
            }
        }
    }

    #[test]
    fn alien_and_versioned_datagrams_are_rejected() {
        assert_eq!(
            Datagram::decode(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n"),
            Err(WireError::BadMagic)
        );
        let wire = Datagram::new(1, Payload::Request).encode().unwrap();
        for bad_version in [0u8, VERSION + 1, 0xFF] {
            let mut bad = wire.clone();
            bad[4] = bad_version;
            assert_eq!(Datagram::decode(&bad), Err(WireError::BadVersion { found: bad_version }));
        }
    }

    /// Builds a datagram by hand with an arbitrary version byte and raw
    /// payload, CRC valid — what an old (or future) peer would emit.
    fn raw_datagram(version: u8, kind: u8, session: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(version);
        out.push(kind);
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&session.to_le_bytes());
        let crc = datagram_crc(&out[0..16], payload);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(payload);
        out
    }

    fn announce_payload_v1() -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&32u32.to_le_bytes()); // blocks
        payload.extend_from_slice(&1024u32.to_le_bytes()); // block size
        payload.extend_from_slice(&4u32.to_le_bytes()); // segments
        payload.extend_from_slice(&100_000u64.to_le_bytes()); // original len
        payload
    }

    #[test]
    fn legacy_v1_announce_decodes_as_dense_rlnc() {
        // A pre-codec-negotiation sender: version byte 1, 20-byte announce
        // with no codec id. Must decode, defaulting to dense RLNC.
        let wire = raw_datagram(1, 2, 9, &announce_payload_v1());
        let datagram = Datagram::decode(&wire).unwrap();
        let Payload::Announce(meta) = datagram.payload else { panic!("expected announce") };
        assert_eq!(meta.codec, CodecId::DenseRlnc);
        assert_eq!(meta.blocks, 32);
        assert_eq!(meta.original_len, 100_000);
        // Non-announce v1 datagrams (identical layout in both versions)
        // also still parse.
        let fin = raw_datagram(1, 5, 9, &[0u8; 16]);
        assert!(matches!(Datagram::decode(&fin).unwrap().payload, Payload::Fin { .. }));
    }

    #[test]
    fn v1_announce_with_codec_byte_and_v2_without_are_malformed() {
        // Cross-version payload lengths must not half-parse.
        let mut with_codec = announce_payload_v1();
        with_codec.push(CodecId::Fft16.to_wire());
        assert_eq!(
            Datagram::decode(&raw_datagram(1, 2, 9, &with_codec)),
            Err(WireError::MalformedPayload { kind: "announce" })
        );
        assert_eq!(
            Datagram::decode(&raw_datagram(2, 2, 9, &announce_payload_v1())),
            Err(WireError::MalformedPayload { kind: "announce" })
        );
    }

    #[test]
    fn unknown_codec_id_is_rejected_cleanly_never_a_panic() {
        // Byte 2 is the retired circular-shift codec's id: reserved, so an
        // old peer's announce is rejected rather than misread.
        for unknown in [2u8, 3, 7, 0x7F, 0xFF] {
            let mut payload = announce_payload_v1();
            payload.push(unknown);
            let wire = raw_datagram(VERSION, 2, 9, &payload);
            assert_eq!(
                Datagram::decode(&wire),
                Err(WireError::UnknownCodec { found: unknown }),
                "codec byte {unknown}"
            );
        }
    }

    #[test]
    fn oversized_encode_is_rejected() {
        let datagram = Datagram::new(1, Payload::Data(vec![0u8; MAX_DATAGRAM_BYTES]));
        assert!(matches!(datagram.encode(), Err(WireError::TooLarge { .. })));
    }

    #[test]
    fn stream_meta_validation_caps() {
        let good = StreamMeta {
            blocks: 128,
            block_size: 4096,
            total_segments: 8,
            original_len: 1,
            codec: CodecId::DenseRlnc,
        };
        assert!(good.validate().is_ok());
        for (meta, field) in [
            (StreamMeta { blocks: 0, ..good }, "blocks"),
            (StreamMeta { blocks: MAX_BLOCKS as u32 + 1, ..good }, "blocks"),
            (StreamMeta { block_size: 0, ..good }, "block size"),
            (StreamMeta { total_segments: 0, ..good }, "segment count"),
            (StreamMeta { total_segments: MAX_SEGMENTS as u32 + 1, ..good }, "segment count"),
            (StreamMeta { original_len: 0, ..good }, "original length"),
            (StreamMeta { original_len: u64::MAX, ..good }, "original length"),
        ] {
            assert_eq!(meta.validate(), Err(WireError::LimitExceeded { field }));
        }
    }

    #[test]
    fn bitmap_set_get_and_padding_rules() {
        let mut bitmap = SegmentBitmap::new(10);
        assert!(!bitmap.all_complete());
        for i in 0..10 {
            bitmap.set(i);
        }
        bitmap.set(1000); // out of range: ignored
        assert!(bitmap.all_complete());
        assert_eq!(bitmap.count_complete(), 10);

        // Padding bits set in the last byte must not decode (one wire form
        // per bitmap).
        let mut raw = Vec::new();
        SegmentBitmap::new(10).to_wire(&mut raw);
        let last = raw.len() - 1;
        raw[last] |= 0x80; // bit 15 of a 10-bit bitmap
        assert_eq!(SegmentBitmap::from_wire(&raw), None);
        // Wrong body length must not decode either.
        raw.push(0);
        assert_eq!(SegmentBitmap::from_wire(&raw), None);
    }

    #[test]
    fn crc_matches_known_vector() {
        // CRC-32("123456789") = 0xCBF43926 (IEEE 802.3 check value).
        assert_eq!(!crc32_update(0xFFFF_FFFF, b"123456789"), 0xCBF4_3926);
    }
}
