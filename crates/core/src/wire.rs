//! Wire format for edge↔cloud messages: length-prefixed frames.
//!
//! [`crate::transport`] ships these frames between an edge and a cloud
//! node over real byte streams (in-memory pipes and TCP), so the bytes on
//! the wire are actual encoded messages, not guesses.
//!
//! # Encodings and negotiation
//!
//! Every frame is a 4-byte little-endian length prefix followed by a
//! payload in one of two encodings:
//!
//! - [`Encoding::Json`] — compact RFC 8259 text, the default. All
//!   handshake messages (`Hello`/`Welcome`/`Refused`) are **always** JSON,
//!   so peers can negotiate before agreeing on anything else.
//! - [`Encoding::Binary`] — a compact self-describing binary form (tag
//!   bytes, LEB128 varints, raw little-endian `f64`, per-message key
//!   dictionary pre-seeded from the protocol's [`BINARY_STATIC_KEYS`]
//!   table; see `serde_json::to_vec_binary_into_with_dict`). Well under
//!   half the JSON byte size on detection workloads, which matters because
//!   uplink bytes are the scarce resource this system economizes.
//!
//! Both encodings flow through the same hand-rolled `Serialize` /
//! `Deserialize` derive machinery and carry the identical data model, so a
//! message round-trips bit-identically through either. The framing layer
//! ([`FrameReader`], the length prefix, [`MAX_FRAME_BYTES`]) is
//! encoding-agnostic: payload bytes are opaque until decoded.
//!
//! Which encoding a connection uses is negotiated in the transport
//! handshake (see [`crate::transport`]): the client names its preferred
//! encoding in `Hello` and the server names the agreed choice in
//! `Welcome`.

use bytes::{Buf, Bytes};
use serde::{de::DeserializeOwned, Deserialize, Serialize};
use std::fmt;

/// Maximum accepted frame payload (16 MiB) — guards against corrupt lengths.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Errors produced when decoding a frame.
#[derive(Debug)]
pub enum WireError {
    /// The buffer is shorter than its length prefix promises.
    Truncated,
    /// The length prefix exceeds the decoder's limit ([`MAX_FRAME_BYTES`]
    /// by default) — a corrupt or hostile prefix must not drive allocation.
    Oversized(usize),
    /// The buffer is longer than its length prefix promises. A well-formed
    /// peer never pads frames; trailing bytes mean framing has de-synced.
    TrailingBytes {
        /// Payload length the prefix promised.
        expected: usize,
        /// Bytes actually present after the prefix.
        actual: usize,
    },
    /// The payload was not valid JSON for the target type.
    Malformed(serde_json::Error),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame is truncated"),
            WireError::Oversized(n) => write!(f, "frame length {n} exceeds limit"),
            WireError::TrailingBytes { expected, actual } => write!(
                f,
                "frame has {actual} payload bytes but its prefix promises {expected}"
            ),
            WireError::Malformed(e) => write!(f, "malformed frame payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

/// Payload encoding of a frame — see the module docs' "Encodings and
/// negotiation" section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Encoding {
    /// Compact JSON text (the protocol default).
    #[default]
    Json,
    /// Compact self-describing binary (`serde_json::to_vec_binary`),
    /// with the key dictionary pre-seeded from [`BINARY_STATIC_KEYS`].
    Binary,
}

/// Static key table of the `binary` encoding: the field names of every
/// message that crosses the data plane (scenes, submit headers, answers,
/// probes, link models), pre-interned so they cost one back-reference byte
/// instead of their text even on first use — the dominant per-frame
/// overhead once values are binary. The table is part of the `binary`
/// format both peers negotiate: changing it (including reordering) is a
/// protocol change and must bump the encoding name. Handshake frames are
/// always JSON, so [`Hello`](crate::transport::Hello) /
/// [`Welcome`](crate::transport::Welcome) field names don't belong here.
pub const BINARY_STATIC_KEYS: &[&str] = &[
    // WireSubmit envelope.
    "header",
    "scene",
    // SubmitRequest / SubmitResponse headers.
    "session",
    "ticket",
    "frame_bytes",
    "sent_at",
    "uplink_s",
    "difficulty",
    "deadline_at",
    "infer_s",
    "queue_depth",
    "dets",
    // Scene and its objects.
    "id",
    "objects",
    "camera_blur",
    "noise_std",
    "illumination",
    "seed",
    "class",
    "bbox",
    "texture_seed",
    "x_min",
    "y_min",
    "x_max",
    "y_max",
    // Detections.
    "score",
    // Register / probe control frames.
    "link",
    "name",
    "bandwidth_bps",
    "rtt_s",
    "jitter_sigma",
    "loss_prob",
    "now",
    "admitted",
    // SubmitRequest pseudo-label field (appended in the same protocol
    // revision as the update frame below).
    "small_count",
    // CalibrationUpdate frames (cloud → edge model-update push) and their
    // nested Thresholds.
    "format",
    "version",
    "epoch",
    "thresholds",
    "quantile_scores",
    "examples",
    "accuracy",
    "holdout",
    "divergence",
    "conf",
    "count",
    "area",
];

impl Encoding {
    /// The lowercase wire/CLI name (`"json"` / `"binary"`).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Json => "json",
            Encoding::Binary => "binary",
        }
    }

    /// Parses a wire/CLI name; `None` for anything unrecognized (the
    /// handshake turns that into a typed error rather than guessing).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "json" => Some(Encoding::Json),
            "binary" => Some(Encoding::Binary),
            _ => None,
        }
    }
}

impl fmt::Display for Encoding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Encodes a message as a length-prefixed JSON frame.
///
/// # Examples
///
/// ```
/// use smallbig_core::wire::{decode_frame, encode_frame};
///
/// let frame = encode_frame(&vec![1u32, 2, 3]);
/// let round_trip: Vec<u32> = decode_frame(&frame).unwrap();
/// assert_eq!(round_trip, vec![1, 2, 3]);
/// ```
///
/// # Panics
///
/// Panics if the value cannot be serialized (never happens for the message
/// types in this crate), or if the payload exceeds [`MAX_FRAME_BYTES`] —
/// a frame this encoder produces is always one its decoder accepts.
pub fn encode_frame<T: Serialize>(value: &T) -> Bytes {
    let mut buf = Vec::new();
    encode_frame_into(&mut buf, value);
    Bytes::from(buf)
}

/// Encodes a message as a length-prefixed JSON frame into a reusable buffer.
///
/// `buf` is cleared and refilled; reusing one buffer per session (as
/// [`crate::EdgeSession`] does for its upload headers) means frame encoding
/// stops allocating once the buffer reaches the session's largest message.
/// Serialization streams straight into the scratch `String`
/// (`serde_json::to_string_into` renders via `Serialize::write_json`, no
/// intermediate `Value` tree), so after warmup an encode performs no
/// allocation at all. [`encode_frame`] is a thin wrapper over this.
///
/// # Examples
///
/// ```
/// use smallbig_core::wire::{decode_frame, encode_frame_into};
///
/// let mut buf = Vec::new();
/// encode_frame_into(&mut buf, &vec![1u32, 2, 3]);
/// let round_trip: Vec<u32> = decode_frame(&bytes::Bytes::copy_from_slice(&buf)).unwrap();
/// assert_eq!(round_trip, vec![1, 2, 3]);
/// ```
///
/// # Panics
///
/// Panics if the value cannot be serialized (never happens for the message
/// types in this crate), or if the payload exceeds [`MAX_FRAME_BYTES`] —
/// a frame this encoder produces is always one its decoder accepts.
pub fn encode_frame_into<T: Serialize>(buf: &mut Vec<u8>, value: &T) {
    use std::cell::RefCell;
    thread_local! {
        static JSON_SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
    }
    JSON_SCRATCH.with(|scratch| {
        let mut payload = scratch.borrow_mut();
        serde_json::to_string_into(&mut payload, value)
            .expect("message types serialize infallibly");
        write_frame(buf, payload.as_bytes());
    });
}

/// Replaces `buf` with `payload` behind its 4-byte little-endian length
/// prefix: the one frame layout both encoders write.
///
/// # Panics
///
/// Panics if the payload exceeds [`MAX_FRAME_BYTES`].
fn write_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    assert!(
        payload.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds MAX_FRAME_BYTES",
        payload.len()
    );
    buf.clear();
    buf.reserve(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// Encodes a message as a length-prefixed frame in the given [`Encoding`].
///
/// [`Encoding::Json`] produces exactly [`encode_frame`]'s bytes.
///
/// # Panics
///
/// Same contract as [`encode_frame`]: panics on unserializable values
/// (non-finite floats) or payloads beyond [`MAX_FRAME_BYTES`].
pub fn encode_frame_as<T: Serialize>(value: &T, encoding: Encoding) -> Bytes {
    let mut buf = Vec::new();
    encode_frame_into_as(&mut buf, value, encoding);
    Bytes::from(buf)
}

/// Encodes a message as a length-prefixed frame in the given [`Encoding`],
/// into a reusable buffer — the negotiated-encoding sibling of
/// [`encode_frame_into`], with the same buffer-reuse and panic contract.
pub fn encode_frame_into_as<T: Serialize>(buf: &mut Vec<u8>, value: &T, encoding: Encoding) {
    match encoding {
        Encoding::Json => encode_frame_into(buf, value),
        Encoding::Binary => {
            use std::cell::RefCell;
            thread_local! {
                static BIN_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
            }
            BIN_SCRATCH.with(|scratch| {
                let mut payload = scratch.borrow_mut();
                serde_json::to_vec_binary_into_with_dict(&mut payload, value, BINARY_STATIC_KEYS)
                    .expect("message types serialize infallibly");
                write_frame(buf, &payload);
            });
        }
    }
}

/// Decodes a length-prefixed frame in the given [`Encoding`] under the
/// default [`MAX_FRAME_BYTES`] limit.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, oversized prefixes, trailing
/// garbage, or payload decode errors — the identical error discipline in
/// both encodings.
pub fn decode_frame_as<T: DeserializeOwned>(
    frame: &Bytes,
    encoding: Encoding,
) -> Result<T, WireError> {
    decode_frame_with_limit_as(frame, MAX_FRAME_BYTES, encoding)
}

/// Decodes a length-prefixed frame in the given [`Encoding`], rejecting
/// payloads whose length prefix exceeds `max_payload_bytes` — the
/// negotiated-encoding sibling of [`decode_frame_with_limit`], enforcing
/// the limit before the payload is touched in exactly the same way.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, oversized prefixes, trailing
/// garbage, or payload decode errors.
pub fn decode_frame_with_limit_as<T: DeserializeOwned>(
    frame: &Bytes,
    max_payload_bytes: usize,
    encoding: Encoding,
) -> Result<T, WireError> {
    let payload = frame_payload(frame, max_payload_bytes)?;
    match encoding {
        Encoding::Json => serde_json::from_slice(payload),
        Encoding::Binary => serde_json::from_slice_binary_with_dict(payload, BINARY_STATIC_KEYS),
    }
    .map_err(WireError::Malformed)
}

/// The frame layout's prefix, limit and length checks, shared by both
/// encodings: returns the payload slice of a frame holding exactly
/// `4 + len` bytes.
fn frame_payload(frame: &Bytes, max_payload_bytes: usize) -> Result<&[u8], WireError> {
    let buf = frame.chunk();
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes checked")) as usize;
    if len > max_payload_bytes {
        return Err(WireError::Oversized(len));
    }
    let payload = &buf[4..];
    if payload.len() < len {
        return Err(WireError::Truncated);
    }
    if payload.len() > len {
        return Err(WireError::TrailingBytes {
            expected: len,
            actual: payload.len(),
        });
    }
    Ok(payload)
}

/// Decodes a length-prefixed JSON frame under the default
/// [`MAX_FRAME_BYTES`] limit.
///
/// # Errors
///
/// Returns [`WireError`] on truncation, oversized prefixes, trailing
/// garbage, or JSON errors.
pub fn decode_frame<T: DeserializeOwned>(frame: &Bytes) -> Result<T, WireError> {
    decode_frame_with_limit(frame, MAX_FRAME_BYTES)
}

/// Decodes a length-prefixed JSON frame, rejecting payloads whose length
/// prefix exceeds `max_payload_bytes`.
///
/// The limit is enforced *before* the payload is touched, so a corrupt or
/// hostile prefix cannot drive allocation, and a frame must contain exactly
/// `4 + len` bytes — anything shorter is [`WireError::Truncated`], anything
/// longer [`WireError::TrailingBytes`].
///
/// # Errors
///
/// Returns [`WireError`] on truncation, oversized prefixes, trailing
/// garbage, or JSON errors.
///
/// # Examples
///
/// ```
/// use smallbig_core::wire::{decode_frame_with_limit, encode_frame, WireError};
///
/// let frame = encode_frame(&vec![0u8; 64]);
/// assert!(matches!(
///     decode_frame_with_limit::<Vec<u8>>(&frame, 16),
///     Err(WireError::Oversized(_))
/// ));
/// ```
pub fn decode_frame_with_limit<T: DeserializeOwned>(
    frame: &Bytes,
    max_payload_bytes: usize,
) -> Result<T, WireError> {
    decode_frame_with_limit_as(frame, max_payload_bytes, Encoding::Json)
}

/// Incremental decoder for a byte stream of length-prefixed frames.
///
/// [`decode_frame`] assumes it is handed exactly one complete frame, which
/// holds for in-process channels but not for sockets: a `read()` may return
/// half a frame, three frames, or a frame boundary split anywhere — including
/// mid-prefix. `FrameReader` buffers fed chunks and yields complete frame
/// *payloads* (prefix stripped) as they become available:
///
/// ```
/// use smallbig_core::wire::{encode_frame, FrameReader};
///
/// let frame = encode_frame(&vec![1u32, 2, 3]);
/// let mut reader = FrameReader::new();
/// let (a, b) = frame.split_at(3); // split inside the length prefix
/// reader.feed(a);
/// assert!(reader.next_frame().unwrap().is_none());
/// reader.feed(b);
/// let payload = reader.next_frame().unwrap().unwrap();
/// assert_eq!(&payload[..], &frame[4..]);
/// ```
///
/// A length prefix above the reader's limit yields
/// [`WireError::Oversized`] *before* any payload is buffered past the
/// prefix, so a corrupt or hostile prefix cannot drive allocation. Framing
/// cannot resync after that: the caller must drop the connection.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    limit: usize,
}

impl FrameReader {
    /// A reader enforcing the default [`MAX_FRAME_BYTES`] payload limit.
    pub fn new() -> Self {
        Self::with_limit(MAX_FRAME_BYTES)
    }

    /// A reader rejecting payloads whose prefix exceeds `max_payload_bytes`.
    pub fn with_limit(max_payload_bytes: usize) -> Self {
        FrameReader {
            buf: Vec::new(),
            start: 0,
            limit: max_payload_bytes,
        }
    }

    /// Appends raw bytes from the stream (typically one `read()`'s worth).
    pub fn feed(&mut self, chunk: &[u8]) {
        // Reclaim consumed space before growing, so steady-state streaming
        // keeps one bounded buffer instead of creeping forward forever.
        if self.start > 0 && (self.start == self.buf.len() || self.start >= 4096) {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Yields the next complete frame payload, `None` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Oversized`] when the buffered length prefix
    /// exceeds the reader's limit. The stream is unrecoverable after that.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            return Ok(None);
        }
        let prefix: [u8; 4] = self.buf[self.start..self.start + 4].try_into().unwrap();
        let len = u32::from_le_bytes(prefix) as usize;
        if len > self.limit {
            return Err(WireError::Oversized(len));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let payload = Bytes::copy_from_slice(&self.buf[self.start + 4..self.start + 4 + len]);
        self.start += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes currently buffered but not yet yielded as a frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.start
    }
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::{BufMut, BytesMut};
    use detcore::{BBox, ClassId, Detection, ImageDetections};

    #[test]
    fn round_trip_detections() {
        let dets = ImageDetections::from_vec(vec![Detection::new(
            ClassId(3),
            0.77,
            BBox::new(0.1, 0.2, 0.5, 0.9).unwrap(),
        )]);
        let frame = encode_frame(&dets);
        let back: ImageDetections = decode_frame(&frame).unwrap();
        assert_eq!(back, dets);
    }

    #[test]
    fn frame_length_matches_prefix() {
        let frame = encode_frame(&"hello".to_string());
        let len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as usize;
        assert_eq!(frame.len(), 4 + len);
    }

    #[test]
    fn truncated_frame_rejected() {
        let frame = encode_frame(&vec![1u8; 100]);
        let cut = frame.slice(..frame.len() - 10);
        assert!(matches!(
            decode_frame::<Vec<u8>>(&cut),
            Err(WireError::Truncated)
        ));
        let tiny = Bytes::from_static(&[1, 2]);
        assert!(matches!(
            decode_frame::<Vec<u8>>(&tiny),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn oversized_prefix_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        buf.put_slice(b"xx");
        assert!(matches!(
            decode_frame::<Vec<u8>>(&buf.freeze()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn malformed_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(3);
        buf.put_slice(b"{{{");
        let err = decode_frame::<Vec<u8>>(&buf.freeze()).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)));
        assert!(format!("{err}").contains("malformed"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(2);
        buf.put_slice(b"[]xxxx");
        let err = decode_frame::<Vec<u8>>(&buf.freeze()).unwrap_err();
        assert!(matches!(
            err,
            WireError::TrailingBytes {
                expected: 2,
                actual: 6
            }
        ));
        assert!(format!("{err}").contains("promises"));
    }

    #[test]
    fn custom_limit_is_enforced_before_payload_parse() {
        let frame = encode_frame(&vec![7u8; 1000]);
        assert!(decode_frame::<Vec<u8>>(&frame).is_ok());
        let err = decode_frame_with_limit::<Vec<u8>>(&frame, 100).unwrap_err();
        match err {
            WireError::Oversized(n) => assert!(n > 100),
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn prefix_just_over_limit_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        buf.put_slice(b"x");
        assert!(matches!(
            decode_frame::<Vec<u8>>(&buf.freeze()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn empty_payload_frame_round_trips() {
        let frame = encode_frame(&Vec::<u8>::new());
        let back: Vec<u8> = decode_frame(&frame).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_FRAME_BYTES")]
    fn encode_rejects_oversized_payload() {
        // 17 MiB of bytes serializes past the 16 MiB frame cap.
        let _ = encode_frame(&vec![200u8; 17 * 1024 * 1024]);
    }

    #[test]
    fn encode_into_reuses_buffer_and_matches_wrapper() {
        let mut buf = Vec::new();
        encode_frame_into(&mut buf, &vec![1u32, 2, 3]);
        let first_cap = buf.capacity();
        let wrapper = encode_frame(&vec![1u32, 2, 3]);
        assert_eq!(&buf[..], &wrapper[..]);
        // A smaller message clears and refills without reallocating.
        encode_frame_into(&mut buf, &vec![9u32]);
        assert_eq!(buf.capacity(), first_cap);
        let back: Vec<u32> = decode_frame(&Bytes::copy_from_slice(&buf)).unwrap();
        assert_eq!(back, vec![9]);
    }

    #[test]
    fn frame_reader_yields_payloads_across_arbitrary_splits() {
        let frames: Vec<Bytes> = (0..4)
            .map(|i| encode_frame(&vec![i as u8; 10 + i * 7]))
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        // Feed the whole stream one byte at a time.
        let mut reader = FrameReader::new();
        let mut got = Vec::new();
        for b in &stream {
            reader.feed(std::slice::from_ref(b));
            while let Some(p) = reader.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got.len(), frames.len());
        for (p, f) in got.iter().zip(&frames) {
            assert_eq!(&p[..], &f[4..]);
        }
        assert_eq!(reader.pending_bytes(), 0);
    }

    #[test]
    fn frame_reader_yields_multiple_frames_from_one_chunk() {
        let a = encode_frame(&"first".to_string());
        let b = encode_frame(&"second".to_string());
        let mut stream = a.to_vec();
        stream.extend_from_slice(&b);
        let mut reader = FrameReader::new();
        reader.feed(&stream);
        let s1: String = decode_frame_payload(&reader.next_frame().unwrap().unwrap()).unwrap();
        let s2: String = decode_frame_payload(&reader.next_frame().unwrap().unwrap()).unwrap();
        assert_eq!((s1.as_str(), s2.as_str()), ("first", "second"));
        assert!(reader.next_frame().unwrap().is_none());
    }

    #[test]
    fn frame_reader_rejects_hostile_prefix_before_buffering_payload() {
        let mut reader = FrameReader::with_limit(64);
        let mut hostile = BytesMut::new();
        hostile.put_u32_le(u32::MAX);
        reader.feed(&hostile);
        assert!(matches!(reader.next_frame(), Err(WireError::Oversized(_))));
    }

    #[test]
    fn frame_reader_compacts_consumed_space() {
        let frame = encode_frame(&vec![1u8; 2048]);
        let mut reader = FrameReader::new();
        for _ in 0..64 {
            reader.feed(&frame);
            assert!(reader.next_frame().unwrap().is_some());
        }
        assert_eq!(reader.pending_bytes(), 0);
        // The internal buffer must not have grown to hold all 64 frames.
        assert!(reader.buf.len() < 3 * frame.len());
    }

    fn decode_frame_payload<T: serde::de::DeserializeOwned>(
        payload: &Bytes,
    ) -> Result<T, WireError> {
        serde_json::from_slice(payload.chunk()).map_err(WireError::Malformed)
    }

    #[test]
    fn encode_into_overwrites_previous_content() {
        let mut buf = vec![0xFFu8; 64];
        encode_frame_into(&mut buf, &"fresh".to_string());
        let s: String = decode_frame(&Bytes::copy_from_slice(&buf)).unwrap();
        assert_eq!(s, "fresh");
        let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
        assert_eq!(buf.len(), 4 + len);
    }

    // ---- encoding selection ----

    #[test]
    fn encoding_names_round_trip() {
        for enc in [Encoding::Json, Encoding::Binary] {
            assert_eq!(Encoding::parse(enc.name()), Some(enc));
            assert_eq!(format!("{enc}"), enc.name());
        }
        assert_eq!(Encoding::parse("msgpack"), None);
        assert_eq!(Encoding::parse(""), None);
        assert_eq!(Encoding::default(), Encoding::Json);
    }

    #[test]
    fn json_encoding_as_matches_plain_encode() {
        let dets = ImageDetections::from_vec(vec![Detection::new(
            ClassId(3),
            0.77,
            BBox::new(0.1, 0.2, 0.5, 0.9).unwrap(),
        )]);
        assert_eq!(encode_frame_as(&dets, Encoding::Json), encode_frame(&dets));
        let back: ImageDetections = decode_frame_as(&encode_frame(&dets), Encoding::Json).unwrap();
        assert_eq!(back, dets);
    }

    #[test]
    fn binary_encoding_round_trips_and_is_smaller() {
        let dets = ImageDetections::from_vec(
            (0..8)
                .map(|i| {
                    Detection::new(
                        ClassId(i),
                        0.5 + f64::from(i) / 100.0,
                        BBox::new(0.1, 0.2, 0.5, 0.9).unwrap(),
                    )
                })
                .collect(),
        );
        let json = encode_frame_as(&dets, Encoding::Json);
        let binary = encode_frame_as(&dets, Encoding::Binary);
        let back: ImageDetections = decode_frame_as(&binary, Encoding::Binary).unwrap();
        assert_eq!(back, dets);
        assert!(
            binary.len() < json.len(),
            "binary {} should beat JSON {}",
            binary.len(),
            json.len()
        );
        // Cross-decoding with the wrong encoding is an error, not garbage.
        assert!(decode_frame_as::<ImageDetections>(&binary, Encoding::Json).is_err());
    }

    #[test]
    fn binary_decode_keeps_frame_error_discipline() {
        let frame = encode_frame_as(&vec![7u8; 1000], Encoding::Binary);
        assert!(decode_frame_as::<Vec<u8>>(&frame, Encoding::Binary).is_ok());
        assert!(matches!(
            decode_frame_with_limit_as::<Vec<u8>>(&frame, 100, Encoding::Binary),
            Err(WireError::Oversized(_))
        ));
        let cut = frame.slice(..frame.len() - 10);
        assert!(matches!(
            decode_frame_as::<Vec<u8>>(&cut, Encoding::Binary),
            Err(WireError::Truncated)
        ));
        let mut padded = frame.to_vec();
        padded.extend_from_slice(b"xx");
        assert!(matches!(
            decode_frame_as::<Vec<u8>>(&Bytes::from(padded), Encoding::Binary),
            Err(WireError::TrailingBytes { .. })
        ));
        let mut garbage = BytesMut::new();
        garbage.put_u32_le(3);
        garbage.put_slice(&[0xfe, 0xfe, 0xfe]);
        assert!(matches!(
            decode_frame_as::<Vec<u8>>(&garbage.freeze(), Encoding::Binary),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn binary_encode_into_reuses_buffer_and_matches_wrapper() {
        let mut buf = Vec::new();
        encode_frame_into_as(&mut buf, &vec![1u32, 2, 3], Encoding::Binary);
        let first_cap = buf.capacity();
        let wrapper = encode_frame_as(&vec![1u32, 2, 3], Encoding::Binary);
        assert_eq!(&buf[..], &wrapper[..]);
        encode_frame_into_as(&mut buf, &vec![9u32], Encoding::Binary);
        assert_eq!(buf.capacity(), first_cap);
        let back: Vec<u32> =
            decode_frame_as(&Bytes::copy_from_slice(&buf), Encoding::Binary).unwrap();
        assert_eq!(back, vec![9]);
    }

    #[test]
    fn frame_reader_handles_binary_frames_across_arbitrary_splits() {
        // The framing layer is encoding-agnostic: byte-at-a-time feeding of
        // a binary frame stream must reassemble every payload exactly,
        // including payloads full of 0x00/0xff bytes that would be hostile
        // if anything sniffed at content.
        let frames: Vec<Bytes> = (0..4)
            .map(|i| {
                encode_frame_as(
                    &ImageDetections::from_vec(vec![Detection::new(
                        ClassId(i),
                        0.25 + f64::from(i) / 10.0,
                        BBox::new(0.0, 0.0, 1.0, 1.0).unwrap(),
                    )]),
                    Encoding::Binary,
                )
            })
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        for chunk_size in [1usize, 2, 3, 5, 7, 64] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.feed(chunk);
                while let Some(p) = reader.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got.len(), frames.len(), "chunk_size {chunk_size}");
            for (p, f) in got.iter().zip(&frames) {
                assert_eq!(&p[..], &f[4..], "chunk_size {chunk_size}");
                let dets: ImageDetections =
                    serde_json::from_slice_binary_with_dict(p, BINARY_STATIC_KEYS).unwrap();
                let want: ImageDetections = decode_frame_as(f, Encoding::Binary).unwrap();
                assert_eq!(dets, want);
            }
            assert_eq!(reader.pending_bytes(), 0);
        }
    }

    // ---- calibration-update frames ----

    fn sample_update() -> crate::CalibrationUpdate {
        crate::CalibrationUpdate {
            format: crate::UPDATE_FORMAT,
            version: 3,
            epoch: 7,
            thresholds: crate::Thresholds {
                conf: 0.2,
                count: 4,
                area: 0.05,
            },
            quantile_scores: (0..12).map(|i| f64::from(i) / 11.0).collect(),
            examples: 48,
            accuracy: 0.9375,
            holdout: 16,
            divergence: 0.35,
        }
    }

    #[test]
    fn update_frame_round_trips_in_both_encodings() {
        let update = sample_update();
        for enc in [Encoding::Json, Encoding::Binary] {
            let frame = encode_frame_as(&update, enc);
            let back: crate::CalibrationUpdate = decode_frame_as(&frame, enc).unwrap();
            assert_eq!(back, update, "{enc}");
        }
        // Every field name of the update frame (and its nested thresholds)
        // is in the static dictionary, so the binary form beats JSON.
        let json = encode_frame_as(&update, Encoding::Json);
        let binary = encode_frame_as(&update, Encoding::Binary);
        assert!(
            binary.len() < json.len(),
            "binary {} should beat JSON {}",
            binary.len(),
            json.len()
        );
        // Cross-decoding with the wrong encoding is an error, not garbage.
        assert!(decode_frame_as::<crate::CalibrationUpdate>(&binary, Encoding::Json).is_err());
        assert!(decode_frame_as::<crate::CalibrationUpdate>(&json, Encoding::Binary).is_err());
    }

    #[test]
    fn update_frame_encodings_agree_with_serde_json_oracle() {
        // The JSON payload must be exactly what plain serde_json writes
        // (the frame layer adds only the length prefix), and the binary
        // payload must decode to the same value the JSON text does.
        let update = sample_update();
        let json = encode_frame_as(&update, Encoding::Json);
        assert_eq!(&json[4..], &serde_json::to_vec(&update).unwrap()[..]);
        let binary = encode_frame_as(&update, Encoding::Binary);
        let via_binary: crate::CalibrationUpdate =
            serde_json::from_slice_binary_with_dict(&binary[4..], BINARY_STATIC_KEYS).unwrap();
        let via_json: crate::CalibrationUpdate = serde_json::from_slice(&json[4..]).unwrap();
        assert_eq!(via_binary, via_json);
        assert_eq!(via_binary, update);
    }

    #[test]
    fn frame_reader_reassembles_update_frames_across_arbitrary_splits() {
        let frames: Vec<Bytes> = (0..4u64)
            .map(|v| {
                let mut u = sample_update();
                u.version = v;
                u.quantile_scores.truncate(v as usize * 3);
                encode_frame_as(&u, Encoding::Binary)
            })
            .collect();
        let stream: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();
        for chunk_size in [1usize, 2, 3, 5, 7, 64] {
            let mut reader = FrameReader::new();
            let mut got = Vec::new();
            for chunk in stream.chunks(chunk_size) {
                reader.feed(chunk);
                while let Some(p) = reader.next_frame().unwrap() {
                    got.push(p);
                }
            }
            assert_eq!(got.len(), frames.len(), "chunk_size {chunk_size}");
            for (v, (p, f)) in got.iter().zip(&frames).enumerate() {
                assert_eq!(&p[..], &f[4..], "chunk_size {chunk_size}");
                let update: crate::CalibrationUpdate =
                    serde_json::from_slice_binary_with_dict(p, BINARY_STATIC_KEYS).unwrap();
                assert_eq!(update.version, v as u64);
            }
            assert_eq!(reader.pending_bytes(), 0);
        }
    }
}
