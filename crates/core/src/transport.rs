//! Process-separated deployment: wire transports, handshake, and the
//! cloud-node / edge-node halves of a real distributed system.
//!
//! The streaming runtime ([`crate::CloudServer`] / [`crate::EdgeSession`])
//! runs edge and cloud in one process, on the sessions' threads. This
//! module carries the *same* session layer over a real connection:
//!
//! * [`Transport`] / [`Listener`] — object-safe connection traits. Two
//!   implementations ship: an in-memory duplex ([`memory_listener`],
//!   [`memory_pair`]) for deterministic tests, and length-framed TCP over
//!   `std::net` ([`TcpTransport`], [`TcpWireListener`]) for real
//!   deployments.
//! * A versioned handshake — the edge opens with [`Hello`] (magic +
//!   [`PROTOCOL_VERSION`] + its session id), the cloud answers [`Welcome`]
//!   or [`Refused`]; failures surface as typed [`HandshakeError`]s. A
//!   hostile `Hello` cannot drive allocation: the cloud decodes it with
//!   [`crate::wire::decode_frame_with_limit`] under [`MAX_HELLO_BYTES`].
//! * [`RemoteCloud`] — the edge side. [`RemoteCloud::attach`] returns an
//!   ordinary [`EdgeSession`], so the session code path is the in-process
//!   one, and reports are bit-identical to the in-process path because the
//!   answer codec round-trips every field exactly.
//! * [`serve`] / [`serve_connection`] — the cloud side, one thread per
//!   connection. Per-session [`CloudStats`] merge into a [`NodeStats`].
//!
//! ## The connection machines
//!
//! Each half of a connection is a private, single-threaded sans-IO state
//! machine, and its host only moves bytes:
//!
//! * `ClientConn`, [`RemoteCloud`]'s: session messages, its one link's
//!   events (a frame, a write error, EOF) and dial results go in; runs to
//!   write, answers and dials after a backoff come out. Give
//!   [`ConnectOptions::dialer`] a redial closure and a dropped link is
//!   redialed on [`ConnectOptions::retry`]'s wall-clock backoff, every
//!   session re-registered and every unanswered frame replayed, its answer
//!   delivered once. Exhausted retries close the connection, so a waiting
//!   session fails loudly. The sessions' own calls run it to completion.
//! * `ServerConn`, the node's: the first frame (or the hello timeout), then
//!   frames and EOF go in; runs to write and the [`ConnOutcome`] come out.
//!   It gives **each registered session its own cloud machine**
//!   (shared-nothing sharding), so a session's results are a pure function
//!   of its own frames, and a multi-process fleet is bit-identical to the
//!   same sessions run in-process however the OS interleaves processes.
//!
//! ## Encodings and negotiation
//!
//! Frame payloads come in two encodings (see [`wire::Encoding`]): compact
//! JSON text and a compact binary form that cuts detection frames to well
//! under half the JSON byte size. The choice is per connection and
//! negotiated in the handshake: the edge names the encoding it wants in
//! [`Hello::encoding`], and the cloud names the agreed one in
//! [`Welcome::encoding`]. Handshake messages themselves are **always
//! JSON**, so even a refused hello gets a readable answer. Both fields are
//! required; the peers of protocol version 2 are this tree's binaries:
//!
//! * a hello of another protocol version is refused with
//!   [`RefuseReason::Version`], whatever else it carries;
//! * a hello missing a negotiation field is [`RefuseReason::MalformedHello`];
//! * an unparseable encoding is a typed failure, not a guess —
//!   [`RefuseReason::Encoding`] from the cloud, [`HandshakeError::Encoding`]
//!   at the edge, which also refuses a welcome naming an encoding it did
//!   not offer.
//!
//! ## Sessions on a connection
//!
//! A connection may carry **many sessions interleaved**: an edge node
//! drives its whole device fleet over one TCP connection. Every message
//! names its session, on every connection. [`Hello::mux`] /
//! [`Welcome::mux`] only declare whether the edge may attach more than one
//! session ([`RemoteCloud::attach_as`]); the framing is the same either
//! way.
//!
//! ## Wire layout
//!
//! Every transport frame's payload is `[1 tag byte][body]`. Edge → cloud,
//! the body is one standard wire frame ([`crate::wire`]'s length-prefixed
//! encoding, JSON or binary per the negotiated [`wire::Encoding`]) naming
//! its session inside, and `BYE` has no body. Cloud → edge, the session is
//! in the envelope:
//!
//! * an answer is `[ANSWER_MUX][8-byte LE session][8-byte LE ticket][frame]`;
//! * a probe reply is `[PROBE_REPLY_MUX][8-byte LE session][frame]`;
//! * a calibration push is `[UPDATE][8-byte LE session][frame]`.
//!
//! Routing lives entirely in the envelope, so an answer that names no
//! pending frame is dropped without being parsed. A frame the reader
//! cannot take apart — a `FLUSH` without its session, a truncated
//! envelope — ends the connection.
//!
//! This module is the only place an answer is ever bytes: `ServerConn`
//! encodes what each message left in its session's machine, and
//! `ClientConn` decodes each frame once, before routing it. A payload that
//! does not decode poisons the connection like any other framing fault, so
//! a waiting session fails with its "cloud server shut down" diagnostic.
//! Worker answers are always JSON regardless of the negotiated encoding:
//! the uplink (scene submissions) is the byte budget this system
//! economizes, and transcoding the downlink would burn cloud CPU without
//! moving the metric.
//!
//! ## Backpressure
//!
//! Every queue between a session and a socket is **bounded**
//! ([`FRAME_QUEUE_CAP`]): the edge's unwritten run and the in-memory
//! transport's frame queues. The node keeps no queue of its own: it writes
//! what each frame produced before it reads on, so a blocked peer blocks
//! the write and with it the reads. The stall propagates as backpressure
//! (socket buffer fills → the session's write blocks) instead of an
//! unbounded queue quietly absorbing the backlog.
//!
//! The edge has no thread of its own: `submit` encodes into the
//! connection's run, which goes out as **one** coalesced write
//! ([`FrameTx::send_all`]) when a session waits for the cloud (or the run
//! holds half a queue): a fleet's back-to-back submissions cost one
//! syscall and wake the node once. The waiting session then reads until
//! its reply arrives, and a read window ([`FRAME_QUEUE_CAP`]) keeps
//! answers from filling a queue while it writes.

use crate::scheduler::SchedulerSlot;
use crate::server::{
    CloudMachine, FromCloud, Inbox, ProbeReply, Reply, SubmitRequest, SubmitResponse, ToCloud,
    Uplink,
};
use crate::wire::{self, Encoding, FrameReader, WireError};
use crate::{CloudConfig, CloudStats, EdgeSession, OffloadPolicy, SessionConfig};
use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use datagen::Scene;
use modelzoo::Detector;
use serde::{Deserialize, Serialize};
use simnet::{LinkModel, RetryConfig};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Duration;

/// Version of the edge↔cloud wire protocol spoken by this build.
pub const PROTOCOL_VERSION: u16 = 2;

/// Maximum accepted [`Hello`] payload. A handshake message is tiny; this
/// bound lets the cloud reject an oversized (hostile) hello before its
/// payload is ever parsed.
pub const MAX_HELLO_BYTES: usize = 4096;

/// Magic number opening every [`Hello`] (`"SMBG"`).
pub const HELLO_MAGIC: u32 = 0x534d_4247;

/// How long the edge's read window waits for a frame before writing anyway.
const WINDOW_WAIT: Duration = Duration::from_millis(10);

/// Capacity of the in-memory transport's frame queues, and the edge's
/// window: its run is written once it holds half this many payloads, and
/// before a write it reads while more than half this many written submits
/// and probes are unanswered — so the cloud never blocks on a queue of
/// answers while the edge blocks writing (module docs, "Backpressure").
pub const FRAME_QUEUE_CAP: usize = 64;

/// Payload tags. 7 and 10 were protocol v1's envelope-less probe reply
/// and answer; they are retired, never reused.
mod tag {
    pub const HELLO: u8 = 1;
    pub const WELCOME: u8 = 2;
    pub const REFUSED: u8 = 3;
    pub const REGISTER: u8 = 4;
    pub const SUBMIT: u8 = 5;
    pub const PROBE: u8 = 6;
    pub const FLUSH: u8 = 8;
    pub const DEREGISTER: u8 = 9;
    pub const BYE: u8 = 11;
    /// `[tag][8-byte LE session][8-byte LE ticket][inner frame]` — an
    /// answer; tickets are per-session counters and would collide.
    pub const ANSWER_MUX: u8 = 12;
    /// `[tag][8-byte LE session][inner frame]` — a probe reply.
    pub const PROBE_REPLY_MUX: u8 = 13;
    /// `[tag][8-byte LE session][inner frame]` — a pushed
    /// [`CalibrationUpdate`](crate::CalibrationUpdate) riding the answer
    /// path. It answers no pending frame, so the edge routes it by session
    /// alone.
    pub const UPDATE: u8 = 14;
}

// ---------------------------------------------------------------------------
// Handshake messages
// ---------------------------------------------------------------------------

/// The first message on every connection (edge → cloud).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Hello {
    /// Must be [`HELLO_MAGIC`].
    pub magic: u32,
    /// Protocol version the edge speaks ([`PROTOCOL_VERSION`]).
    pub protocol: u16,
    /// Session id the edge proposes for itself — chosen by the deployment
    /// so reports are comparable across runs and transports.
    pub session: u64,
    /// Frame encoding the edge requests ([`wire::Encoding::name`]).
    pub encoding: String,
    /// Whether the edge may attach more than one session to this
    /// connection.
    pub mux: bool,
}

/// The cloud's acceptance reply to a [`Hello`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Welcome {
    /// Protocol version the cloud speaks (echoes the hello's on success).
    pub protocol: u16,
    /// Session id echoed back.
    pub session: u64,
    /// Whether this cloud runs admission control
    /// ([`CloudConfig::queue_limit`]) — the edge must probe before
    /// uploading when set.
    pub admission: bool,
    /// Frame encoding the cloud agreed to.
    pub encoding: String,
    /// Whether the cloud accepts more than one session on this connection
    /// (it echoes [`Hello::mux`]).
    pub mux: bool,
}

/// Why a cloud refused a [`Hello`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefuseReason {
    /// Protocol version mismatch.
    Version,
    /// The hello's magic number was wrong (not a smallbig peer).
    BadMagic,
    /// The hello exceeded [`MAX_HELLO_BYTES`].
    OversizedHello,
    /// The hello did not decode as a [`Hello`] frame.
    MalformedHello,
    /// The hello named an encoding this cloud does not recognize.
    Encoding,
}

/// The cloud's rejection reply to a [`Hello`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Refused {
    /// Protocol version the cloud speaks.
    pub server_protocol: u16,
    /// Machine-readable rejection reason.
    pub reason: RefuseReason,
    /// Human-readable detail.
    pub detail: String,
}

/// A handshake that did not produce a [`Welcome`].
#[derive(Debug)]
pub enum HandshakeError {
    /// The two peers speak different protocol versions.
    VersionMismatch {
        /// Version the cloud speaks.
        server: u16,
        /// Version this edge offered.
        client: u16,
    },
    /// The cloud refused the hello for a non-version reason.
    Refused {
        /// Machine-readable rejection reason.
        reason: RefuseReason,
        /// Human-readable detail from the cloud.
        detail: String,
    },
    /// No reply arrived within the handshake timeout.
    Timeout,
    /// The connection closed before any reply.
    Closed,
    /// The peer replied with something that is not a handshake message.
    Protocol(String),
    /// Encoding negotiation failed: the welcome named an encoding this
    /// edge does not recognize or did not offer (a corrupted or hostile
    /// negotiation field, surfaced typed instead of guessed around).
    Encoding {
        /// What the welcome carried and why it was rejected.
        detail: String,
    },
    /// The connection failed at the I/O layer.
    Io(io::Error),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::VersionMismatch { server, client } => {
                write!(
                    f,
                    "protocol version mismatch: server v{server}, client v{client}"
                )
            }
            HandshakeError::Refused { reason, detail } => {
                write!(f, "cloud refused handshake ({reason:?}): {detail}")
            }
            HandshakeError::Timeout => write!(f, "handshake timed out"),
            HandshakeError::Closed => write!(f, "connection closed during handshake"),
            HandshakeError::Protocol(d) => write!(f, "handshake protocol error: {d}"),
            HandshakeError::Encoding { detail } => {
                write!(f, "encoding negotiation failed: {detail}")
            }
            HandshakeError::Io(e) => write!(f, "handshake I/O error: {e}"),
        }
    }
}

impl std::error::Error for HandshakeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HandshakeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Data-plane messages (private: the session layer never sees them)
// ---------------------------------------------------------------------------

#[derive(Serialize, Deserialize)]
struct WireRegister {
    session: u64,
    link: LinkModel,
}

#[derive(Serialize, Deserialize)]
struct WireSubmit {
    header: SubmitRequest,
    scene: Scene,
}

/// Borrowed twin of [`WireSubmit`] for the encode side: the edge
/// serializes straight from the session's `Arc<Scene>` without deep-copying
/// it. Must render the exact `Value` tree [`WireSubmit`]'s derive renders
/// (same keys, sorted order) so either peer decodes it as [`WireSubmit`].
struct WireSubmitRef<'a> {
    header: &'a SubmitRequest,
    scene: &'a Scene,
}

impl Serialize for WireSubmitRef<'_> {
    fn to_value(&self) -> serde::Value {
        let mut m = std::collections::BTreeMap::new();
        m.insert("header".to_string(), self.header.to_value());
        m.insert("scene".to_string(), self.scene.to_value());
        serde::Value::Object(m)
    }
}

#[derive(Serialize, Deserialize)]
struct WireProbe {
    session: u64,
    now: f64,
}

#[derive(Serialize, Deserialize)]
struct WireDeregister {
    session: u64,
}

/// Body of a `FLUSH`: the session whose queued submits to serve.
#[derive(Serialize, Deserialize)]
struct WireFlush {
    session: u64,
}

fn msg<T: Serialize>(t: u8, body: &T, encoding: Encoding) -> Vec<u8> {
    let inner = wire::encode_frame_as(body, encoding);
    let mut payload = Vec::with_capacity(1 + inner.len());
    payload.push(t);
    payload.extend_from_slice(&inner);
    payload
}

fn msg_bare(t: u8) -> Vec<u8> {
    vec![t]
}

/// A `FLUSH`: serve `session`'s queued submits.
fn msg_flush(session: u64, encoding: Encoding) -> Bytes {
    Bytes::from(msg(tag::FLUSH, &WireFlush { session }, encoding))
}

/// Builds a session envelope: `[tag][8-byte LE session][inner bytes]`.
fn msg_session(t: u8, session: u64, inner: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9 + inner.len());
    payload.push(t);
    payload.extend_from_slice(&session.to_le_bytes());
    payload.extend_from_slice(inner);
    payload
}

/// Builds an answer frame:
/// `[ANSWER_MUX][8-byte LE session][8-byte LE ticket][inner bytes]`. The
/// ticket lives in the envelope so the edge's connection machine finds the
/// pending frame by (session, ticket) alone and parses the payload only
/// when there is one.
fn msg_answer(session: u64, ticket: u64, inner: &[u8]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(17 + inner.len());
    payload.push(tag::ANSWER_MUX);
    payload.extend_from_slice(&session.to_le_bytes());
    payload.extend_from_slice(&ticket.to_le_bytes());
    payload.extend_from_slice(inner);
    payload
}

fn split_msg(payload: &Bytes) -> Option<(u8, Bytes)> {
    if payload.is_empty() {
        return None;
    }
    Some((payload[0], payload.slice(1..)))
}

/// Splits a session envelope's body into its session id and inner bytes.
fn split_session(inner: &Bytes) -> Option<(u64, Bytes)> {
    if inner.len() < 8 {
        return None;
    }
    let session = u64::from_le_bytes(inner[..8].try_into().expect("8 bytes checked"));
    Some((session, inner.slice(8..)))
}

/// Splits an answer body into (session, ticket, inner bytes) — the
/// counterpart of [`msg_answer`].
fn split_answer(inner: &Bytes) -> Option<(u64, u64, Bytes)> {
    if inner.len() < 16 {
        return None;
    }
    let session = u64::from_le_bytes(inner[..8].try_into().expect("8 bytes checked"));
    let ticket = u64::from_le_bytes(inner[8..16].try_into().expect("8 bytes checked"));
    Some((session, ticket, inner.slice(16..)))
}

// ---------------------------------------------------------------------------
// Transport traits
// ---------------------------------------------------------------------------

/// The sending half of a split [`Transport`]: ships one opaque payload as
/// one frame.
pub trait FrameTx: Send {
    /// Sends one frame; the peer's [`FrameRx::recv`] yields exactly
    /// `payload`.
    ///
    /// **Blocking semantics:** when the peer reads slowly, this call may
    /// block until the transport's bounded buffering (the in-memory pair's
    /// [`FRAME_QUEUE_CAP`] queue, a TCP socket's send buffer) has room —
    /// that stall is the backpressure described in the module docs, not a
    /// failure.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the connection is gone.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;

    /// Sends several frames back to back — behaviourally [`FrameTx::send`]
    /// in a loop (the default). Transports that pay a syscall per send
    /// (TCP) override this to issue **one** write for the whole run, which
    /// also lets the peer's reader drain the run in a single wakeup.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the connection is gone; a prefix of
    /// the frames may already have been delivered.
    fn send_all(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        for p in payloads {
            self.send(p)?;
        }
        Ok(())
    }
}

/// The receiving half of a split [`Transport`].
pub trait FrameRx: Send {
    /// Blocks for the next frame; `Ok(None)` is a clean end-of-stream.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] on connection failure or framing
    /// corruption.
    fn recv(&mut self) -> io::Result<Option<Bytes>>;

    /// Like [`FrameRx::recv`] but gives up after `timeout` with an error of
    /// kind [`io::ErrorKind::TimedOut`]. Partially received frames stay
    /// buffered for the next call.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] of kind [`io::ErrorKind::TimedOut`] on
    /// expiry, or any other kind on connection failure.
    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Bytes>>;
}

/// One bidirectional connection carrying opaque frames.
///
/// Object safe: the cloud accepts `Box<dyn Transport>` and never knows
/// whether frames cross a socket or a channel.
pub trait Transport: Send {
    /// Splits the connection into independently owned halves, so sending
    /// and receiving can run on different threads.
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>);

    /// Human-readable peer name, for diagnostics.
    fn peer(&self) -> String;
}

/// Accepts inbound [`Transport`] connections (the cloud side).
pub trait Listener: Send {
    /// Blocks for the next inbound connection.
    ///
    /// # Errors
    ///
    /// Returns an [`io::Error`] when the listener can no longer accept.
    fn accept(&mut self) -> io::Result<Box<dyn Transport>>;

    /// The address peers dial, as a string (for TCP, `ip:port` with the
    /// real bound port).
    fn local_addr(&self) -> String;

    /// A handle that unblocks a pending [`Listener::accept`] by delivering
    /// a throwaway connection — how [`serve`] is shut down.
    fn waker(&self) -> Box<dyn Fn() + Send + Sync>;
}

// ---------------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------------

/// One end of an in-memory duplex connection (see [`memory_pair`] and
/// [`memory_listener`]).
pub struct MemoryTransport {
    tx: Sender<Bytes>,
    rx: Receiver<Bytes>,
}

/// Creates a connected pair of in-memory transports. Each direction
/// buffers at most [`FRAME_QUEUE_CAP`] frames — like a TCP socket's send
/// buffer, a full queue blocks the sender until the peer reads.
pub fn memory_pair() -> (MemoryTransport, MemoryTransport) {
    let (a_tx, b_rx) = channel::bounded(FRAME_QUEUE_CAP);
    let (b_tx, a_rx) = channel::bounded(FRAME_QUEUE_CAP);
    (
        MemoryTransport { tx: a_tx, rx: a_rx },
        MemoryTransport { tx: b_tx, rx: b_rx },
    )
}

struct MemoryTx {
    tx: Sender<Bytes>,
}

impl FrameTx for MemoryTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx
            .send(Bytes::copy_from_slice(payload))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer dropped"))
    }
}

struct MemoryRx {
    rx: Receiver<Bytes>,
}

impl FrameRx for MemoryRx {
    fn recv(&mut self) -> io::Result<Option<Bytes>> {
        match self.rx.recv() {
            Ok(b) => Ok(Some(b)),
            Err(_) => Ok(None),
        }
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Bytes>> {
        match self.rx.recv_timeout(timeout) {
            Ok(b) => Ok(Some(b)),
            Err(RecvTimeoutError::Timeout) => Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame read timed out",
            )),
            Err(RecvTimeoutError::Disconnected) => Ok(None),
        }
    }
}

impl Transport for MemoryTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let this = *self;
        (
            Box::new(MemoryTx { tx: this.tx }),
            Box::new(MemoryRx { rx: this.rx }),
        )
    }

    fn peer(&self) -> String {
        "memory".to_string()
    }
}

/// The accepting side of an in-memory "network" (see [`memory_listener`]).
pub struct MemoryWireListener {
    rx: Receiver<MemoryTransport>,
    /// The connectors' sender, for [`Listener::waker`]. Weak, so that the
    /// channel closes, and `accept` fails, once every connector is dropped.
    tx: Weak<Sender<MemoryTransport>>,
}

/// Dials new connections into a [`MemoryWireListener`]; clone one per edge.
#[derive(Clone)]
pub struct MemoryConnector {
    tx: Arc<Sender<MemoryTransport>>,
}

impl MemoryConnector {
    /// Opens a new in-memory connection to the listener.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::ConnectionRefused`] when the listener is
    /// gone.
    pub fn connect(&self) -> io::Result<MemoryTransport> {
        let (local, remote) = memory_pair();
        self.tx
            .send(remote)
            .map_err(|_| io::Error::new(io::ErrorKind::ConnectionRefused, "listener dropped"))?;
        Ok(local)
    }
}

/// Creates an in-memory listener and a connector that dials it.
pub fn memory_listener() -> (MemoryWireListener, MemoryConnector) {
    let (tx, rx) = channel::unbounded();
    let tx = Arc::new(tx);
    (
        MemoryWireListener {
            rx,
            tx: Arc::downgrade(&tx),
        },
        MemoryConnector { tx },
    )
}

impl Listener for MemoryWireListener {
    fn accept(&mut self) -> io::Result<Box<dyn Transport>> {
        match self.rx.recv() {
            Ok(t) => Ok(Box::new(t)),
            Err(_) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "all connectors dropped",
            )),
        }
    }

    fn local_addr(&self) -> String {
        "memory".to_string()
    }

    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let tx = self.tx.clone();
        Box::new(move || {
            // Deliver a connection whose far end is already gone: a handler
            // that sees it reads immediate EOF and exits silently, and the
            // serve loop re-checks its stop flag. With every connector gone
            // there is nothing to wake: `accept` fails already.
            if let Some(tx) = tx.upgrade() {
                let (local, remote) = memory_pair();
                drop(local);
                let _ = tx.send(remote);
            }
        })
    }
}

// ---------------------------------------------------------------------------
// TCP transport
// ---------------------------------------------------------------------------

/// A length-framed TCP connection (4-byte little-endian length prefix per
/// frame, decoded incrementally by [`FrameReader`]).
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Connects to `addr` (e.g. `"127.0.0.1:4820"`), with `TCP_NODELAY`.
    ///
    /// # Errors
    ///
    /// Returns the connect error.
    pub fn dial(addr: &str) -> io::Result<TcpTransport> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            peer: addr.to_string(),
        })
    }

    /// Like [`TcpTransport::dial`], retrying with `retry`'s wall-clock
    /// backoff schedule (up to `max_retries` redials after the initial
    /// attempt) — lets an edge-node start before its cloud-node.
    ///
    /// # Errors
    ///
    /// Returns the final connect error once the schedule is exhausted, or
    /// `InvalidInput` before any dial when [`RetryConfig::validate`] fails.
    pub fn dial_with_backoff(addr: &str, retry: &RetryConfig) -> io::Result<TcpTransport> {
        crate::check_retry(retry).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut last = None;
        for attempt in 0..=retry.max_retries {
            if attempt > 0 {
                std::thread::sleep(Duration::from_secs_f64(retry.backoff_s(attempt)));
            }
            match TcpTransport::dial(addr) {
                Ok(t) => return Ok(t),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no dial attempts configured")))
    }

    fn from_stream(stream: TcpStream) -> io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "tcp-peer".to_string());
        Ok(TcpTransport { stream, peer })
    }
}

struct TcpTx {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl FrameTx for TcpTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.buf.clear();
        self.buf.reserve(4 + payload.len());
        self.buf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(payload);
        self.stream.write_all(&self.buf)
    }

    fn send_all(&mut self, payloads: &[&[u8]]) -> io::Result<()> {
        self.buf.clear();
        self.buf.reserve(payloads.iter().map(|p| 4 + p.len()).sum());
        for p in payloads {
            self.buf.extend_from_slice(&(p.len() as u32).to_le_bytes());
            self.buf.extend_from_slice(p);
        }
        self.stream.write_all(&self.buf)
    }
}

struct TcpRx {
    stream: TcpStream,
    reader: FrameReader,
    chunk: Vec<u8>,
    /// The read timeout currently configured on the socket. Steady-state
    /// receive loops call [`FrameRx::recv_timeout`] with the same tick
    /// every iteration; caching the value turns two `setsockopt` syscalls
    /// per received frame into zero.
    timeout: Option<Duration>,
}

impl TcpRx {
    fn pull(&mut self) -> io::Result<Option<Bytes>> {
        loop {
            if let Some(p) = self
                .reader
                .next_frame()
                .map_err(|e: WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
            {
                return Ok(Some(p));
            }
            let n = self.stream.read(&mut self.chunk)?;
            if n == 0 {
                return if self.reader.pending_bytes() == 0 {
                    Ok(None)
                } else {
                    Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                };
            }
            self.reader.feed(&self.chunk[..n]);
        }
    }
}

impl FrameRx for TcpRx {
    fn recv(&mut self) -> io::Result<Option<Bytes>> {
        if self.timeout.is_some() {
            self.stream.set_read_timeout(None)?;
            self.timeout = None;
        }
        self.pull()
    }

    fn recv_timeout(&mut self, timeout: Duration) -> io::Result<Option<Bytes>> {
        // A frame already buffered from an earlier read needs no syscall.
        if let Some(p) = self
            .reader
            .next_frame()
            .map_err(|e: WireError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
        {
            return Ok(Some(p));
        }
        if self.timeout != Some(timeout) {
            self.stream.set_read_timeout(Some(timeout))?;
            self.timeout = Some(timeout);
        }
        match self.pull() {
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame read timed out",
                ))
            }
            other => other,
        }
    }
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameTx>, Box<dyn FrameRx>) {
        let this = *self;
        let read_half = this
            .stream
            .try_clone()
            .expect("cloning a TCP stream handle never fails on supported platforms");
        (
            Box::new(TcpTx {
                stream: this.stream,
                buf: Vec::new(),
            }),
            Box::new(TcpRx {
                stream: read_half,
                reader: FrameReader::new(),
                chunk: vec![0u8; 64 * 1024],
                timeout: None,
            }),
        )
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// A TCP [`Listener`] bound to a local address.
pub struct TcpWireListener {
    inner: TcpListener,
    addr: String,
}

impl TcpWireListener {
    /// Binds to `addr`; pass port `0` to let the OS choose (read the real
    /// port back from [`Listener::local_addr`]).
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn bind(addr: &str) -> io::Result<TcpWireListener> {
        let inner = TcpListener::bind(addr)?;
        let addr = inner.local_addr()?.to_string();
        Ok(TcpWireListener { inner, addr })
    }
}

impl Listener for TcpWireListener {
    fn accept(&mut self) -> io::Result<Box<dyn Transport>> {
        let (stream, _) = self.inner.accept()?;
        Ok(Box::new(TcpTransport::from_stream(stream)?))
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn waker(&self) -> Box<dyn Fn() + Send + Sync> {
        let addr = self.addr.clone();
        Box::new(move || {
            // A throwaway connection that closes before sending anything:
            // the hello timeout (or immediate EOF) disposes of it silently.
            let _ = TcpStream::connect(&addr);
        })
    }
}

// ---------------------------------------------------------------------------
// Client handshake
// ---------------------------------------------------------------------------

/// Runs the client half of the handshake on a split transport: sends
/// `hello`, awaits [`Welcome`] or [`Refused`].
///
/// [`RemoteCloud::connect`] calls this internally; it is public so tests
/// and custom deployments can drive the handshake directly (e.g. with a
/// non-standard protocol version).
///
/// # Errors
///
/// Returns a typed [`HandshakeError`]; version rejections surface as
/// [`HandshakeError::VersionMismatch`].
pub fn client_handshake(
    tx: &mut dyn FrameTx,
    rx: &mut dyn FrameRx,
    hello: &Hello,
    timeout: Duration,
) -> Result<Welcome, HandshakeError> {
    tx.send(&msg(tag::HELLO, hello, Encoding::Json))
        .map_err(HandshakeError::Io)?;
    let frame = match rx.recv_timeout(timeout) {
        Ok(Some(f)) => f,
        Ok(None) => return Err(HandshakeError::Closed),
        Err(e) if e.kind() == io::ErrorKind::TimedOut => return Err(HandshakeError::Timeout),
        Err(e) => return Err(HandshakeError::Io(e)),
    };
    let Some((t, inner)) = split_msg(&frame) else {
        return Err(HandshakeError::Protocol("empty reply to hello".to_string()));
    };
    match t {
        tag::WELCOME => {
            let w: Welcome =
                wire::decode_frame(&inner).map_err(|e| HandshakeError::Protocol(e.to_string()))?;
            if w.protocol != hello.protocol {
                return Err(HandshakeError::VersionMismatch {
                    server: w.protocol,
                    client: hello.protocol,
                });
            }
            Ok(w)
        }
        tag::REFUSED => {
            let r: Refused =
                wire::decode_frame(&inner).map_err(|e| HandshakeError::Protocol(e.to_string()))?;
            match r.reason {
                RefuseReason::Version => Err(HandshakeError::VersionMismatch {
                    server: r.server_protocol,
                    client: hello.protocol,
                }),
                reason => Err(HandshakeError::Refused {
                    reason,
                    detail: r.detail,
                }),
            }
        }
        other => Err(HandshakeError::Protocol(format!(
            "unexpected reply tag {other}"
        ))),
    }
}

/// Resolves the frame encoding a completed handshake agreed on.
///
/// [`Welcome::encoding`] must be one this edge recognizes *and* either the
/// one it requested or JSON — anything else is a corrupted or hostile
/// negotiation field, surfaced as [`HandshakeError::Encoding`].
fn negotiated_encoding(hello: &Hello, welcome: &Welcome) -> Result<Encoding, HandshakeError> {
    let name = &welcome.encoding;
    let Some(enc) = Encoding::parse(name) else {
        return Err(HandshakeError::Encoding {
            detail: format!("welcome named unknown encoding {name:?}"),
        });
    };
    if *name != hello.encoding && enc != Encoding::Json {
        return Err(HandshakeError::Encoding {
            detail: format!("welcome named encoding {name:?}, which this edge did not offer"),
        });
    }
    Ok(enc)
}

/// Whether a completed handshake agreed to more than one session: both
/// sides must have said yes.
fn negotiated_mux(hello: &Hello, welcome: &Welcome) -> bool {
    hello.mux && welcome.mux
}

// ---------------------------------------------------------------------------
// Edge side: RemoteCloud
// ---------------------------------------------------------------------------

/// A redial closure for mid-run reconnection (see
/// [`ConnectOptions::dialer`]).
pub type Dialer = Box<dyn FnMut() -> io::Result<Box<dyn Transport>> + Send>;

/// Options for [`RemoteCloud::connect`].
pub struct ConnectOptions {
    /// How long to wait for the cloud's handshake reply (default 5 s).
    pub handshake_timeout: Duration,
    /// Wall-clock backoff schedule for mid-run reconnects.
    pub retry: RetryConfig,
    /// Redial closure. `None` (the default) disables mid-run reconnection:
    /// the first connection failure poisons the link and a waiting session
    /// fails loudly. With `Some`, a dropped connection is redialed with
    /// [`ConnectOptions::retry`]'s backoff, the handshake re-run, every
    /// session re-registered and unanswered frames replayed.
    pub dialer: Option<Dialer>,
    /// Frame encoding to request in the handshake (default JSON).
    pub encoding: Encoding,
    /// Whether this connection may carry more than one session (default
    /// `false`). When the cloud confirms, [`RemoteCloud::attach_as`] drives
    /// many sessions over this one connection.
    pub mux: bool,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            handshake_timeout: Duration::from_secs(5),
            retry: RetryConfig::default(),
            dialer: None,
            encoding: Encoding::Json,
            mux: false,
        }
    }
}

/// A submit or probe sent and not yet answered. It is replayed on every
/// new link until its answer arrives, and removed when it does, so a second
/// answer (the dead link's and the replay's) finds nothing and is dropped.
struct Pending {
    session: u64,
    /// The submit's ticket; `None` for a probe, which carries none.
    ticket: Option<u64>,
    payload: Bytes,
}

/// Where the connection's link stands.
#[derive(Clone, Copy, PartialEq)]
enum Link {
    /// Carrying frames. `spent` counts the dials of the outage that opened
    /// it; the first frame received on the link resets it, so a link that
    /// dies in its replay continues the outage's backoff schedule.
    Up { spent: u32 },
    /// Dial `attempt` of an outage is out. Dials run inline in the host,
    /// so only [`In::Dialed`] ever meets this state.
    Dialing { attempt: u32 },
    /// Said `BYE`, gave up redialing, or was poisoned: nothing dials again,
    /// and no reply comes any more.
    Closed,
}

/// One input to [`ClientConn`]. Link events are the current link's: a
/// redial swaps its new link in before the host reads or writes again.
enum In {
    /// A session's message.
    Session(ToCloud),
    /// Every session is gone: say `BYE` and close.
    Bye,
    Frame(Bytes),
    WriteError,
    Eof,
    /// A dial's outcome: what its handshake negotiated (encoding, mux), or
    /// `None` when the dial or the handshake failed.
    Dialed(Option<(Encoding, bool)>),
}

/// What [`ClientConn`] asks its host to do. A close asks nothing: the host
/// reads [`Link::Closed`], and a waiting session takes its inbox, then fails.
#[derive(Debug)]
enum Act {
    /// Write these payloads, in order, as one run on the link. In answer
    /// to [`In::Dialed`]: the replay, for the new link before it is swapped in.
    Write(Vec<Bytes>),
    /// Wait, dial, handshake, and report back with [`In::Dialed`].
    Dial(Duration),
}

/// The client half of a connection as a single-threaded sans-IO machine.
/// Every rule about redial, replay, answer deduplication and `BYE` sits
/// in [`ClientConn::handle`]'s one `match`; its host only moves bytes,
/// carries out the [`Act`]s it returns and files the replies it leaves,
/// each under its session's id, in [`ClientConn::replies`].
struct ClientConn {
    link: Link,
    /// What the first handshake negotiated. A redial must agree, or frames
    /// already encoded one way would reach a peer expecting another.
    encoding: Encoding,
    mux: bool,
    /// The redial schedule; `None` (no dialer) closes on the first fault.
    retry: Option<RetryConfig>,
    /// Each attached session's `REGISTER`, replayed on every new link in
    /// id order.
    registers: BTreeMap<u64, Bytes>,
    /// Unanswered submits and probes, in send order.
    pending: VecDeque<Pending>,
    /// Decoded replies, each under its session's id, until the host takes
    /// them.
    replies: VecDeque<(u64, Reply)>,
}

impl ClientConn {
    fn new(encoding: Encoding, mux: bool, retry: Option<RetryConfig>) -> ClientConn {
        ClientConn {
            link: Link::Up { spent: 0 },
            encoding,
            mux,
            retry,
            registers: BTreeMap::new(),
            pending: VecDeque::new(),
            replies: VecDeque::new(),
        }
    }

    fn handle(&mut self, input: In, out: &mut Vec<Act>) {
        let closed = self.link == Link::Closed;
        match input {
            In::Bye => {
                // Closed before the BYE is written: the cloud drops the link
                // once it reads it, and that EOF must find nothing to redial.
                out.push(Act::Write(vec![Bytes::from(msg_bare(tag::BYE))]));
                self.close();
            }
            // The message drops: nothing answers on a closed connection.
            In::Session(_) if closed => {}
            In::Session(message) => {
                let enc = self.encoding;
                let payload = match message {
                    ToCloud::Register { session, link } => {
                        let register =
                            Bytes::from(msg(tag::REGISTER, &WireRegister { session, link }, enc));
                        self.registers.insert(session, register.clone());
                        register
                    }
                    ToCloud::Frame(header, scene) => {
                        let submit = WireSubmitRef {
                            header: &header,
                            scene: &scene,
                        };
                        let payload = Bytes::from(msg(tag::SUBMIT, &submit, enc));
                        self.pending.push_back(Pending {
                            session: header.session,
                            ticket: Some(header.ticket),
                            payload: payload.clone(),
                        });
                        payload
                    }
                    ToCloud::Probe { session, now } => {
                        let payload =
                            Bytes::from(msg(tag::PROBE, &WireProbe { session, now }, enc));
                        self.pending.push_back(Pending {
                            session,
                            ticket: None,
                            payload: payload.clone(),
                        });
                        payload
                    }
                    ToCloud::Flush { session } => msg_flush(session, enc),
                    // A session that left is replayed no more: its
                    // REGISTER and its unanswered frames go with it.
                    ToCloud::Deregister { session } => {
                        self.registers.remove(&session);
                        self.pending.retain(|p| p.session != session);
                        Bytes::from(msg(tag::DEREGISTER, &WireDeregister { session }, enc))
                    }
                };
                out.push(Act::Write(vec![payload]));
            }
            In::Frame(_) | In::WriteError | In::Eof if closed => {}
            In::Frame(frame) => {
                if let Link::Up { spent } = &mut self.link {
                    *spent = 0;
                }
                let Some((t, inner)) = split_msg(&frame) else {
                    return self.close();
                };
                // Worker answers are JSON whatever the negotiated encoding
                // (see the module docs). A payload that does not parse
                // poisons the connection.
                let enc = self.encoding;
                let routed = match t {
                    // An answer's envelope names (session, ticket): one
                    // that names no pending frame is dropped unparsed.
                    tag::ANSWER_MUX => match split_answer(&inner) {
                        None => Err(WireError::Truncated),
                        Some((session, ticket, inner)) if self.take(session, Some(ticket)) => {
                            wire::decode_frame::<SubmitResponse>(&inner).map(|resp| {
                                let answer = Reply::Cloud(FromCloud::Answer(resp));
                                self.replies.push_back((session, answer));
                            })
                        }
                        Some(_) => Ok(()),
                    },
                    // Probes carry no ticket: the oldest pending probe of
                    // the envelope's session is the one answered.
                    tag::PROBE_REPLY_MUX => match split_session(&inner) {
                        None => Err(WireError::Truncated),
                        Some((session, inner)) => wire::decode_frame_as::<ProbeReply>(&inner, enc)
                            .map(|reply| {
                                if self.take(session, None) {
                                    self.replies.push_back((session, Reply::Probe(reply)));
                                }
                            }),
                    },
                    // A pushed calibration update is routed by session
                    // alone and never replayed: the cloud's next version
                    // supersedes a lost one. One for a session this
                    // connection does not carry is dropped unparsed.
                    tag::UPDATE => match split_session(&inner) {
                        None => Err(WireError::Truncated),
                        Some((session, inner)) if self.registers.contains_key(&session) => {
                            wire::decode_frame::<crate::CalibrationUpdate>(&inner).map(|u| {
                                let update = Reply::Cloud(FromCloud::Update(Arc::new(u)));
                                self.replies.push_back((session, update));
                            })
                        }
                        Some(_) => Ok(()),
                    },
                    _ => Ok(()),
                };
                if routed.is_err() {
                    self.close();
                }
            }
            In::WriteError | In::Eof => {
                if let Link::Up { spent } = self.link {
                    self.redial(spent, out);
                }
            }
            In::Dialed(agreed) => {
                let Link::Dialing { attempt } = self.link else {
                    unreachable!("a dial result answers a Dial act");
                };
                if agreed == Some((self.encoding, self.mux)) {
                    self.link = Link::Up { spent: attempt + 1 };
                    out.push(Act::Write(self.replay()));
                } else {
                    self.redial(attempt + 1, out);
                }
            }
        }
    }

    /// Removes the oldest pending frame of `session` with `ticket` (`None`:
    /// a probe); `false` when none is pending.
    fn take(&mut self, session: u64, ticket: Option<u64>) -> bool {
        let hit = (self.pending.iter()).position(|p| (p.session, p.ticket) == (session, ticket));
        hit.and_then(|i| self.pending.remove(i)).is_some()
    }

    /// What a new link needs before any other frame: every session's
    /// `REGISTER`, every unanswered frame in send order, then a `FLUSH` for
    /// each session with a replayed submit (its last one went to the dead
    /// link).
    fn replay(&self) -> Vec<Bytes> {
        let mut run: Vec<Bytes> = self.registers.values().cloned().collect();
        let mut flushed = BTreeSet::new();
        for p in &self.pending {
            if p.ticket.is_some() {
                flushed.insert(p.session);
            }
            run.push(p.payload.clone());
        }
        run.extend(flushed.into_iter().map(|s| msg_flush(s, self.encoding)));
        run
    }

    /// Dials attempt `attempt` of an outage after its backoff, or closes
    /// once the schedule is spent (at once without a dialer).
    fn redial(&mut self, attempt: u32, out: &mut Vec<Act>) {
        match self.retry {
            Some(retry) if attempt <= retry.max_retries => {
                self.link = Link::Dialing { attempt };
                let wait_s = if attempt == 0 {
                    0.0
                } else {
                    retry.backoff_s(attempt)
                };
                out.push(Act::Dial(Duration::from_secs_f64(wait_s)));
            }
            _ => self.close(),
        }
    }

    /// Closes for good: a waiting session then takes what its inbox holds
    /// and fails loudly instead of hanging.
    fn close(&mut self) {
        self.link = Link::Closed;
        self.registers.clear();
        self.pending.clear();
    }
}

/// A split link.
type Halves = (Box<dyn FrameTx>, Box<dyn FrameRx>);

/// [`ClientConn`]'s one host: the machine, the halves of its current link,
/// what a redial needs, the payloads no write carried yet and the sessions'
/// [`Inbox`]. It runs on the caller's thread.
pub(crate) struct Host {
    conn: ClientConn,
    tx: Box<dyn FrameTx>,
    rx: Box<dyn FrameRx>,
    run: Vec<Bytes>,
    inbox: Inbox,
    dialer: Option<Dialer>,
    hello: Hello,
    handshake_timeout: Duration,
}

impl Host {
    fn closed(&self) -> bool {
        self.conn.link == Link::Closed
    }

    /// Feeds `input` to the machine, buffers what it asks to write, dials
    /// here and files the replies it left. A redial writes its replay on
    /// the new link, then swaps that link in; the replay carries what the
    /// new link needs of the unwritten run (registers, unanswered frames,
    /// flushes), so the run is dropped.
    fn step(&mut self, input: In) {
        let mut acts = Vec::new();
        self.conn.handle(input, &mut acts);
        while let [Act::Dial(wait)] = acts[..] {
            std::thread::sleep(wait);
            acts.clear();
            let Some(((mut tx, rx), agreed)) = self.dial() else {
                self.conn.handle(In::Dialed(None), &mut acts);
                continue;
            };
            self.conn.handle(In::Dialed(Some(agreed)), &mut acts);
            if let [Act::Write(replay)] = &acts[..] {
                let run: Vec<&[u8]> = replay.iter().map(|p| &p[..]).collect();
                let written = tx.send_all(&run).is_ok();
                (self.tx, self.rx) = (tx, rx);
                self.run.clear();
                acts.clear();
                if !written {
                    self.conn.handle(In::WriteError, &mut acts);
                }
            }
        }
        for act in acts {
            if let Act::Write(payloads) = act {
                self.run.extend(payloads);
            }
        }
        self.inbox.extend(self.conn.replies.drain(..));
    }

    /// Dials and handshakes a new link: `None` when either fails or the
    /// welcome does not parse.
    fn dial(&mut self) -> Option<(Halves, (Encoding, bool))> {
        let (mut tx, mut rx) = (self.dialer.as_mut()?)().ok()?.split();
        let welcome =
            client_handshake(&mut *tx, &mut *rx, &self.hello, self.handshake_timeout).ok()?;
        let encoding = negotiated_encoding(&self.hello, &welcome).ok()?;
        Some(((tx, rx), (encoding, negotiated_mux(&self.hello, &welcome))))
    }

    /// Feeds the machine a session's message; a run grown to half a queue
    /// is written at once. `false` once the connection is closed.
    pub(crate) fn send(&mut self, msg: ToCloud) -> bool {
        if self.closed() {
            return false;
        }
        self.inbox.track(&msg);
        self.step(In::Session(msg));
        if self.run.len() >= FRAME_QUEUE_CAP / 2 {
            self.flush(false);
        }
        true
    }

    /// Writes the run, then reads and files frames until `pop` takes a
    /// reply from the inbox; `None` once the connection closed and `pop`
    /// finds nothing more.
    pub(crate) fn wait<T>(&mut self, pop: impl Fn(&mut Inbox) -> Option<T>) -> Option<T> {
        loop {
            if let Some(reply) = pop(&mut self.inbox) {
                return Some(reply);
            }
            if self.closed() {
                return None;
            }
            self.flush(false);
            if !self.closed() {
                self.read(None);
            }
        }
    }

    /// Reads one frame, waiting at most `timeout` when given, and feeds it
    /// to the machine; `false`, feeding nothing, when the wait timed out.
    fn read(&mut self, timeout: Option<Duration>) -> bool {
        let got = match timeout {
            None => self.rx.recv(),
            Some(t) => self.rx.recv_timeout(t),
        };
        let input = match got {
            Ok(Some(frame)) => In::Frame(frame),
            Err(e) if e.kind() == io::ErrorKind::TimedOut => return false,
            Ok(None) | Err(_) => In::Eof,
        };
        self.step(input);
        true
    }

    /// Writes the run as **one** [`FrameTx::send_all`] (with a `BYE` last
    /// and closing, when `bye`); a closed connection drops it. First, the
    /// read window: while more than half a queue of written submits and
    /// probes are unanswered, take what the cloud wrote, so it never fills
    /// a queue of answers while this thread blocks on a write. A read that
    /// waits [`WINDOW_WAIT`] in vain ends it: a batching cloud holds its
    /// answers until a flush, which may be in the run.
    fn flush(&mut self, bye: bool) {
        let unsent = (self.run.iter())
            .filter(|p| matches!(p.first(), Some(&(tag::SUBMIT | tag::PROBE))))
            .count();
        while !self.run.is_empty()
            && self.conn.pending.len().saturating_sub(unsent) > FRAME_QUEUE_CAP / 2
            && self.read(Some(WINDOW_WAIT))
        {}
        if self.closed() {
            return self.run.clear();
        }
        if bye {
            self.step(In::Bye);
        }
        let run = std::mem::take(&mut self.run);
        let payloads: Vec<&[u8]> = run.iter().map(|p| &p[..]).collect();
        if !run.is_empty() && self.tx.send_all(&payloads).is_err() {
            self.step(In::WriteError);
        }
    }
}

/// A [`Host`] shared by its [`RemoteCloud`] and sessions, run under the lock.
pub(crate) struct Wire(Mutex<Host>);

impl Wire {
    pub(crate) fn host(&self) -> std::sync::MutexGuard<'_, Host> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The edge side of a transport connection: bridges a real [`EdgeSession`]
/// onto a [`Transport`].
///
/// It runs on its sessions' threads (module docs, "Backpressure"), and a
/// session attached here runs the in-process code path, so reports over
/// any transport are bit-identical to the in-process path. Sessions on
/// several threads stay correct, but their waits take turns.
///
/// Drop (or [`drain`](EdgeSession::drain) and drop) every attached session
/// before calling [`RemoteCloud::close`].
pub struct RemoteCloud {
    wire: Arc<Wire>,
    admission: bool,
    session: u64,
    encoding: Encoding,
    mux: bool,
}

impl RemoteCloud {
    /// Performs the handshake on `transport` and hands the link to the
    /// connection's host.
    ///
    /// The hello carries [`ConnectOptions::encoding`] and
    /// [`ConnectOptions::mux`]; what the cloud actually agreed to is
    /// readable afterwards via [`RemoteCloud::encoding`] and
    /// [`RemoteCloud::mux`].
    ///
    /// # Errors
    ///
    /// Returns the typed [`HandshakeError`] when the cloud refuses, the
    /// encoding negotiation fails, or the connection fails before a
    /// welcome, and an `InvalidInput` [`HandshakeError::Io`] before the
    /// hello when [`ConnectOptions::retry`] fails its check.
    pub fn connect(
        transport: Box<dyn Transport>,
        session: u64,
        opts: ConnectOptions,
    ) -> Result<RemoteCloud, HandshakeError> {
        let invalid = |e| HandshakeError::Io(io::Error::new(io::ErrorKind::InvalidInput, e));
        crate::check_retry(&opts.retry).map_err(invalid)?;
        let (mut tx, mut rx) = transport.split();
        let hello = Hello {
            magic: HELLO_MAGIC,
            protocol: PROTOCOL_VERSION,
            session,
            encoding: opts.encoding.name().to_string(),
            mux: opts.mux,
        };
        let welcome = client_handshake(&mut *tx, &mut *rx, &hello, opts.handshake_timeout)?;
        let encoding = negotiated_encoding(&hello, &welcome)?;
        let mux = negotiated_mux(&hello, &welcome);
        let retry = opts.dialer.is_some().then_some(opts.retry);
        let host = Host {
            conn: ClientConn::new(encoding, mux, retry),
            tx,
            rx,
            run: Vec::new(),
            inbox: Inbox::default(),
            dialer: opts.dialer,
            hello,
            handshake_timeout: opts.handshake_timeout,
        };
        Ok(RemoteCloud {
            wire: Arc::new(Wire(Mutex::new(host))),
            admission: welcome.admission,
            session,
            encoding,
            mux,
        })
    }

    /// Dials `addr` over TCP (with `retry` backoff for the initial
    /// connect), handshakes, and installs a redial closure so mid-run
    /// connection drops reconnect with the same schedule.
    ///
    /// # Errors
    ///
    /// Returns [`HandshakeError::Io`] when no connection could be made (or
    /// `retry` fails its check), or any other [`HandshakeError`] from the
    /// handshake itself.
    pub fn connect_tcp(
        addr: &str,
        session: u64,
        retry: &RetryConfig,
    ) -> Result<RemoteCloud, HandshakeError> {
        RemoteCloud::connect_tcp_with(addr, session, retry, Encoding::Json, false)
    }

    /// Like [`RemoteCloud::connect_tcp`], additionally requesting a frame
    /// `encoding` and (with `mux`) session multiplexing in the handshake.
    ///
    /// # Errors
    ///
    /// As [`RemoteCloud::connect_tcp`], plus [`HandshakeError::Encoding`]
    /// when the cloud's answer to the encoding negotiation is invalid.
    pub fn connect_tcp_with(
        addr: &str,
        session: u64,
        retry: &RetryConfig,
        encoding: Encoding,
        mux: bool,
    ) -> Result<RemoteCloud, HandshakeError> {
        let t = TcpTransport::dial_with_backoff(addr, retry).map_err(HandshakeError::Io)?;
        let redial_addr = addr.to_string();
        let opts = ConnectOptions {
            retry: *retry,
            dialer: Some(Box::new(move || {
                TcpTransport::dial(&redial_addr).map(|t| Box::new(t) as Box<dyn Transport>)
            })),
            encoding,
            mux,
            ..ConnectOptions::default()
        };
        RemoteCloud::connect(Box::new(t), session, opts)
    }

    /// Attaches an [`EdgeSession`] over this connection — the transport
    /// twin of [`crate::CloudServer::connect`], using the session id
    /// negotiated in the handshake.
    pub fn attach<'a>(
        &self,
        config: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
    ) -> EdgeSession<'a> {
        self.attach_as(self.session, config, small, policy)
    }

    /// Attaches an [`EdgeSession`] with an explicit session id — the
    /// multiplexed form of [`RemoteCloud::attach`]: on a connection that
    /// negotiated [`RemoteCloud::mux`], every device in a fleet attaches
    /// its own session here and they all share this one connection. Session
    /// ids must be unique per connection.
    ///
    /// # Panics
    ///
    /// Panics when the connection did not negotiate mux and `session` is
    /// not the handshake's: the edge declared in its hello that this
    /// connection carries that one session only.
    pub fn attach_as<'a>(
        &self,
        session: u64,
        config: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
    ) -> EdgeSession<'a> {
        assert!(
            self.mux || session == self.session,
            "RemoteCloud::attach_as: session {session} needs a mux connection; this one \
             carries only its handshake's session {}",
            self.session
        );
        let wire = Uplink::Wire(Arc::clone(&self.wire));
        EdgeSession::attach(session, config, small, policy, wire, self.admission)
    }

    /// The session id negotiated in the handshake.
    pub fn session(&self) -> u64 {
        self.session
    }

    /// Whether the cloud requires admission probes
    /// ([`CloudConfig::queue_limit`] set on the serving side).
    pub fn admission(&self) -> bool {
        self.admission
    }

    /// The frame encoding this connection negotiated.
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Whether the cloud agreed to more than one session — only then may
    /// multiple sessions ride this connection via
    /// [`RemoteCloud::attach_as`].
    pub fn mux(&self) -> bool {
        self.mux
    }

    /// Closes the connection: writes what the sessions left unwritten and
    /// a `BYE`. All attached sessions must already be dropped.
    pub fn close(self) {
        self.wire.host().flush(true);
    }
}

impl Drop for RemoteCloud {
    fn drop(&mut self) {
        self.wire.host().flush(true);
    }
}

// ---------------------------------------------------------------------------
// Cloud side: serve
// ---------------------------------------------------------------------------

/// Options for [`serve`] / [`serve_connection`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// How long a fresh connection may take to send its [`Hello`] before
    /// the handler gives up (the half-open guard; default 5 s). The accept
    /// loop is never involved: handshakes run on per-connection threads.
    pub hello_timeout: Duration,
    /// Stop serving (set the stop flag and wake the accept loop) once this
    /// many registered sessions have completed. A connection counts every
    /// session it registered. `None` serves until the caller stops it.
    pub expect_sessions: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            hello_timeout: Duration::from_secs(5),
            expect_sessions: None,
        }
    }
}

/// What one connection handler observed (see [`serve_connection`]).
#[derive(Debug, Default)]
pub struct ConnOutcome {
    /// The connection's cloud stats, merged across its per-session
    /// machines (`None` when the handshake failed, no session registered,
    /// or the big model panicked).
    pub stats: Option<CloudStats>,
    /// Whether the peer registered a session.
    pub registered: bool,
    /// How many distinct sessions the peer registered.
    pub sessions: usize,
    /// Whether the peer closed with a `BYE` (vs. vanishing mid-run).
    pub clean: bool,
    /// Whether the handshake was refused.
    pub refused: bool,
    /// Whether the peer never sent a hello within the timeout.
    pub hello_timed_out: bool,
}

/// Aggregate stats for one cloud node: per-session machine stats merged,
/// plus connection accounting.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Sum/max-merge of every session machine's [`CloudStats`].
    pub cloud: CloudStats,
    /// Registered connections that completed (including aborted ones).
    pub connections: usize,
    /// Registered connections that vanished without a `BYE` (killed edge
    /// processes, mid-run reconnects) or whose big model panicked.
    pub aborted: usize,
    /// Handshakes refused (version mismatch, oversized/malformed hello).
    pub refused: usize,
    /// Connections that never sent a hello within the timeout (half-open).
    pub hello_timeouts: usize,
}

/// Sum/max-merges one machine's [`CloudStats`] into an aggregate (additive
/// counters summed, high-water marks maxed).
fn merge_cloud_stats(into: &mut CloudStats, s: &CloudStats) {
    into.served += s.served;
    into.batches += s.batches;
    into.busy_s += s.busy_s;
    into.sessions += s.sessions;
    into.admission_rejects += s.admission_rejects;
    into.updates_published += s.updates_published;
    into.calibration_version = into.calibration_version.max(s.calibration_version);
}

impl NodeStats {
    /// Folds one connection's outcome into the node totals.
    pub fn absorb(&mut self, outcome: ConnOutcome) {
        if outcome.registered {
            self.connections += 1;
            self.aborted += usize::from(!outcome.clean);
        }
        self.refused += usize::from(outcome.refused);
        self.hello_timeouts += usize::from(outcome.hello_timed_out);
        if let Some(s) = outcome.stats {
            merge_cloud_stats(&mut self.cloud, &s);
        }
    }
}

/// One input to [`ServerConn`]: what its host's read returned.
enum NodeIn {
    Frame(Bytes),
    /// No first frame came within [`ServeOptions::hello_timeout`].
    HelloTimeout,
    /// The edge closed the connection, or reading from it failed.
    Eof,
}

/// Payloads its host writes as **one** [`FrameTx::send_all`].
type Run = Vec<Vec<u8>>;

/// The node half of a connection as a single-threaded sans-IO machine, the
/// mirror of [`ClientConn`]. Every node-side rule sits in
/// [`ServerConn::handle`]: the hello and its refusal or `WELCOME`, one
/// [`CloudMachine`] per registered session, `BYE`, the end-of-connection
/// drain and the [`ConnOutcome`].
struct ServerConn {
    config: CloudConfig,
    /// What the welcome agreed; `None` until the hello is read.
    encoding: Option<Encoding>,
    /// By session id: the final drain writes, and the stats merge sums, in
    /// one order, so the node's outbound bytes are a function of its inbound
    /// bytes alone.
    machines: BTreeMap<u64, CloudMachine>,
    /// Registration and the session count are recorded as they happen;
    /// `clean` and the stats once the final drain is done, so a big model
    /// that panics leaves an unclean, stat-less outcome.
    outcome: ConnOutcome,
}

impl ServerConn {
    fn new(config: CloudConfig) -> ServerConn {
        ServerConn {
            config,
            encoding: None,
            machines: BTreeMap::new(),
            outcome: ConnOutcome::default(),
        }
    }

    /// Feeds one input, appending to `out` each run to write, in order: what
    /// one message produced is one run, and so is each session's share of
    /// the final drain. Returns `false` once the connection is over; the
    /// host then feeds nothing more and takes the outcome.
    fn handle(&mut self, big: &dyn Detector, input: NodeIn, out: &mut Vec<Run>) -> bool {
        let Some(encoding) = self.encoding else {
            return self.greet(input, out);
        };
        let (msg, bye) = match input {
            NodeIn::Frame(f) => (Self::decode(&f, encoding), f.first() == Some(&tag::BYE)),
            NodeIn::HelloTimeout | NodeIn::Eof => (None, false),
        };
        if let Some(ToCloud::Register { session, .. }) = msg {
            self.outcome.registered = true;
            // A re-REGISTER for a live session (edge reconnect replay)
            // reuses its machine.
            self.machines.entry(session).or_insert_with(|| {
                let sched = SchedulerSlot::from_config(&self.config.scheduler);
                CloudMachine::new(self.config.clone(), sched)
            });
            self.outcome.sessions = self.machines.len();
        }
        // A message for a session that never registered ends the connection.
        let Some((m, msg)) =
            msg.and_then(|msg| Some((self.machines.get_mut(&msg.session())?, msg)))
        else {
            self.drain(big, encoding, out);
            self.outcome.clean = bye;
            return false;
        };
        m.handle(big, msg);
        Self::write_replies(m, encoding, out);
        true
    }

    /// Answers the hello: a `WELCOME` opens the connection, a `REFUSED` (or
    /// no hello at all) ends it. The handshake itself is always JSON.
    fn greet(&mut self, input: NodeIn, out: &mut Vec<Run>) -> bool {
        let NodeIn::Frame(first) = input else {
            self.outcome.hello_timed_out = matches!(input, NodeIn::HelloTimeout);
            return false;
        };
        let (reply, open) = match Self::parse_hello(&first) {
            Ok((hello, encoding)) => {
                self.encoding = Some(encoding);
                let welcome = Welcome {
                    protocol: PROTOCOL_VERSION,
                    session: hello.session,
                    admission: self.config.queue_limit.is_some(),
                    encoding: hello.encoding,
                    mux: hello.mux,
                };
                (msg(tag::WELCOME, &welcome, Encoding::Json), true)
            }
            Err(refused) => {
                self.outcome.refused = true;
                (msg(tag::REFUSED, &refused, Encoding::Json), false)
            }
        };
        out.push(vec![reply]);
        open
    }

    /// Reads a connection's first frame: the [`Hello`] and the encoding it
    /// names, or the [`Refused`] that answers it. Every refusal is made here.
    fn parse_hello(first: &Bytes) -> Result<(Hello, Encoding), Refused> {
        let refuse = |reason, detail: String| Refused {
            server_protocol: PROTOCOL_VERSION,
            reason,
            detail,
        };
        let malformed = |detail: String| refuse(RefuseReason::MalformedHello, detail);
        let inner = match split_msg(first) {
            Some((tag::HELLO, inner)) => inner,
            Some((t, _)) => return Err(malformed(format!("expected hello, got tag {t}"))),
            None => return Err(malformed("empty first frame".to_string())),
        };
        // The magic and the version are checked before the rest of the hello
        // is read, so another version's hello is a version refusal whatever
        // fields it carries.
        #[derive(Deserialize)]
        struct Head {
            magic: u32,
            protocol: u16,
        }
        let fields = match wire::decode_frame_with_limit::<serde::Value>(&inner, MAX_HELLO_BYTES) {
            Err(WireError::Oversized(n)) => {
                let detail = format!("hello payload of {n} bytes exceeds {MAX_HELLO_BYTES}");
                return Err(refuse(RefuseReason::OversizedHello, detail));
            }
            Err(e) => return Err(malformed(e.to_string())),
            Ok(fields) => fields,
        };
        let head = Head::from_value(&fields).map_err(|e| malformed(e.to_string()))?;
        if head.magic != HELLO_MAGIC {
            let detail = format!("bad magic {:#x}", head.magic);
            return Err(refuse(RefuseReason::BadMagic, detail));
        }
        if head.protocol != PROTOCOL_VERSION {
            let offered = head.protocol;
            let detail = format!("server speaks v{PROTOCOL_VERSION}, client offered v{offered}");
            return Err(refuse(RefuseReason::Version, detail));
        }
        let hello = Hello::from_value(&fields).map_err(|e| malformed(e.to_string()))?;
        // An encoding this cloud does not recognize is a typed refusal, never
        // a guess.
        let Some(encoding) = Encoding::parse(&hello.encoding) else {
            let detail = format!("unknown encoding {:?}", hello.encoding);
            return Err(refuse(RefuseReason::Encoding, detail));
        };
        Ok((hello, encoding))
    }

    /// Serves what every machine still holds, in session order, and merges
    /// their stats into the outcome.
    fn drain(&mut self, big: &dyn Detector, encoding: Encoding, out: &mut Vec<Run>) {
        let mut merged = None;
        for (_, mut m) in std::mem::take(&mut self.machines) {
            m.drain(big);
            Self::write_replies(&mut m, encoding, out);
            merge_cloud_stats(merged.get_or_insert_with(CloudStats::default), &m.finish());
        }
        self.outcome.stats = merged;
    }

    /// The session message an edge's frame carries; `None` for a `BYE` and for
    /// a frame the node cannot take apart.
    fn decode(frame: &Bytes, encoding: Encoding) -> Option<ToCloud> {
        let (t, inner) = split_msg(frame)?;
        let decoded = match t {
            tag::REGISTER => wire::decode_frame_as::<WireRegister>(&inner, encoding)
                .map(|WireRegister { session, link }| ToCloud::Register { session, link }),
            tag::SUBMIT => wire::decode_frame_as::<WireSubmit>(&inner, encoding)
                .map(|s| ToCloud::Frame(s.header, Arc::new(s.scene))),
            tag::PROBE => wire::decode_frame_as::<WireProbe>(&inner, encoding)
                .map(|WireProbe { session, now }| ToCloud::Probe { session, now }),
            tag::FLUSH => wire::decode_frame_as::<WireFlush>(&inner, encoding)
                .map(|WireFlush { session }| ToCloud::Flush { session }),
            tag::DEREGISTER => wire::decode_frame_as::<WireDeregister>(&inner, encoding)
                .map(|WireDeregister { session }| ToCloud::Deregister { session }),
            _ => return None,
        };
        decoded.ok()
    }

    /// Encodes what `m` queued as one run, if anything.
    fn write_replies(m: &mut CloudMachine, encoding: Encoding, out: &mut Vec<Run>) {
        let run: Run = (m.replies())
            .map(|(session, reply)| encode_reply(session, reply, encoding))
            .collect();
        if !run.is_empty() {
            out.push(run);
        }
    }
}

/// Encodes one machine reply in its session's envelope (see the module
/// docs' "Wire layout"). Answers and calibration pushes are always JSON;
/// a probe reply takes the connection's encoding.
fn encode_reply(session: u64, reply: Reply, encoding: Encoding) -> Vec<u8> {
    match reply {
        Reply::Cloud(FromCloud::Update(update)) => {
            msg_session(tag::UPDATE, session, &wire::encode_frame(&*update))
        }
        Reply::Cloud(FromCloud::Answer(resp)) => {
            msg_answer(session, resp.ticket, &wire::encode_frame(&resp))
        }
        Reply::Probe(reply) => {
            let inner = wire::encode_frame_as(&reply, encoding);
            msg_session(tag::PROBE_REPLY_MUX, session, &inner)
        }
    }
}

/// Serves one accepted connection to completion on this thread, as the
/// host of its `ServerConn` (module docs): reads the first frame within
/// [`ServeOptions::hello_timeout`], then frames until a peer ends the
/// connection, and writes what each read produced before reading on. A big
/// model that panics drops the connection instead of the node: the outcome
/// is then unclean and carries no stats. Panics as [`serve`] does.
pub fn serve_connection(
    conn: Box<dyn Transport>,
    config: &CloudConfig,
    big: &Arc<dyn Detector + Send + Sync>,
    opts: &ServeOptions,
) -> ConnOutcome {
    crate::expect_valid(config.validate(), "cloud config");
    let (mut ftx, mut frx) = conn.split();
    let mut node = ServerConn::new(config.clone());
    let read = |got: io::Result<Option<Bytes>>| match got {
        Ok(Some(frame)) => NodeIn::Frame(frame),
        Err(e) if e.kind() == io::ErrorKind::TimedOut => NodeIn::HelloTimeout,
        Ok(None) | Err(_) => NodeIn::Eof,
    };
    // A panicking big model unwinds out of `handle`. Catching it here, as
    // the fleet's shard guard does, keeps the node serving: both halves of
    // the connection drop, so the edge sees EOF.
    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut input = read(frx.recv_timeout(opts.hello_timeout));
        let mut runs = Vec::new();
        loop {
            let open = node.handle(&**big, input, &mut runs);
            // A failed write is ignored: the next read ends the loop.
            for run in runs.drain(..) {
                let _ = ftx.send_all(&run.iter().map(Vec::as_slice).collect::<Vec<_>>());
            }
            if !open {
                return;
            }
            input = read(frx.recv());
        }
    }));
    node.outcome
}

/// Runs a cloud node: accepts connections on `listener` and serves each on
/// its own handler thread (see [`serve_connection`]) until `stop` is set
/// (wake the accept loop with [`Listener::waker`]) or
/// [`ServeOptions::expect_sessions`] connections completed.
///
/// Returns the node's merged [`NodeStats`] after every handler finished.
///
/// # Panics
///
/// Panics on this thread, with `invalid cloud config:` and
/// [`CloudConfig::validate`]'s refusal, before accepting any connection.
pub fn serve(
    listener: &mut dyn Listener,
    config: &CloudConfig,
    big: &Arc<dyn Detector + Send + Sync>,
    opts: &ServeOptions,
    stop: &AtomicBool,
) -> NodeStats {
    crate::expect_valid(config.validate(), "cloud config");
    let waker = listener.waker();
    let agg = Mutex::new(NodeStats::default());
    let completed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        while !stop.load(Ordering::SeqCst) {
            let Ok(conn) = listener.accept() else { break };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let (agg, completed, waker) = (&agg, &completed, &waker);
            scope.spawn(move || {
                let outcome = serve_connection(conn, config, big, opts);
                let counted = outcome.sessions;
                agg.lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .absorb(outcome);
                if counted > 0 {
                    let done = completed.fetch_add(counted, Ordering::SeqCst) + counted;
                    if opts.expect_sessions.is_some_and(|n| done >= n) {
                        stop.store(true, Ordering::SeqCst);
                        waker();
                    }
                }
            });
        }
    });
    agg.into_inner().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::bounded;
    use datagen::SplitId;
    use modelzoo::{ModelKind, SimDetector};

    /// The big model every node in these tests serves with.
    fn big_model() -> SimDetector {
        SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2)
    }

    /// A hello from session 0 naming `encoding` and declaring `mux`.
    fn hello(encoding: &str, mux: bool) -> Hello {
        Hello {
            magic: HELLO_MAGIC,
            protocol: PROTOCOL_VERSION,
            session: 0,
            encoding: encoding.to_string(),
            mux,
        }
    }

    /// A session config with 32 × 32 frames.
    fn small_frames() -> SessionConfig {
        SessionConfig {
            frame_size: (32, 32),
            ..SessionConfig::new(2)
        }
    }

    /// `hello` as a connection's first frame.
    fn hello_frame(hello: &Hello) -> Bytes {
        Bytes::from(msg(tag::HELLO, hello, Encoding::Json))
    }

    #[test]
    fn memory_pair_round_trips_frames() {
        let (a, b) = memory_pair();
        let (mut atx, _arx) = Box::new(a).split();
        let (_btx, mut brx) = Box::new(b).split();
        atx.send(b"hello frame").unwrap();
        let got = brx.recv().unwrap().unwrap();
        assert_eq!(&got[..], b"hello frame");
        drop(atx);
        assert!(brx.recv().unwrap().is_none());
    }

    #[test]
    fn memory_recv_timeout_times_out() {
        let (a, b) = memory_pair();
        let (_atx, _arx) = Box::new(a).split();
        let (_btx, mut brx) = Box::new(b).split();
        let err = brx.recv_timeout(Duration::from_millis(20)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn tcp_loopback_round_trips_frames_across_splits() {
        let mut listener = TcpWireListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let (mut tx, mut rx) = conn.split();
            while let Some(frame) = rx.recv().unwrap() {
                tx.send(&frame).unwrap(); // echo
            }
        });
        let client = Box::new(TcpTransport::dial(&addr).unwrap());
        let (mut tx, mut rx) = client.split();
        for size in [0usize, 1, 7, 4096, 100_000] {
            let payload = vec![0xA5u8; size];
            tx.send(&payload).unwrap();
            let echoed = rx.recv().unwrap().unwrap();
            assert_eq!(&echoed[..], &payload[..]);
        }
        drop(tx);
        drop(rx);
        server.join().unwrap();
    }

    #[test]
    fn oversized_hello_is_refused_via_limit() {
        // An inner frame whose payload bursts MAX_HELLO_BYTES.
        let big = wire::encode_frame(&vec![7u8; 2 * MAX_HELLO_BYTES]);
        let mut payload = Vec::with_capacity(1 + big.len());
        payload.push(tag::HELLO);
        payload.extend_from_slice(&big);
        let refused = ServerConn::parse_hello(&Bytes::from(payload)).unwrap_err();
        assert_eq!(refused.reason, RefuseReason::OversizedHello);
    }

    #[test]
    fn bad_magic_and_bad_tag_are_refused() {
        let wrong_magic = Hello {
            magic: 0xdead_beef,
            ..hello("json", false)
        };
        let refused = ServerConn::parse_hello(&hello_frame(&wrong_magic)).unwrap_err();
        assert_eq!(refused.reason, RefuseReason::BadMagic);

        let not_hello = msg(tag::SUBMIT, &7u32, Encoding::Json);
        let refused = ServerConn::parse_hello(&Bytes::from(not_hello)).unwrap_err();
        assert_eq!(refused.reason, RefuseReason::MalformedHello);
    }

    #[test]
    fn memory_transport_session_is_bit_identical_to_channel_path() {
        let name = "memory_transport_session_is_bit_identical_to_channel_path";
        bounded(name, Duration::from_secs(60), || {
            use crate::{CloudServer, DifficultCaseDiscriminator};
            use datagen::{Dataset, DatasetProfile};

            let data = Dataset::generate("conf", &DatasetProfile::helmet(), 12, 9);
            let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
            let big: Arc<dyn Detector + Send + Sync> =
                Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
            let cfg = SessionConfig {
                frame_size: (96, 96),
                ..SessionConfig::new(2)
            };

            // Channel path: a fresh server and one session (id 0).
            let mut cloud = CloudServer::spawn(CloudConfig::default(), Arc::clone(&big));
            let mut sess = cloud.connect(
                cfg.clone(),
                &small,
                Box::new(DifficultCaseDiscriminator::default()),
            );
            for scene in data.iter() {
                let t = sess.submit(scene);
                sess.poll(t).expect("frame resolves");
            }
            let want = sess.drain();
            drop(sess);
            let want_stats = cloud.shutdown();

            // The same session over the in-memory transport.
            let (mut listener, connector) = memory_listener();
            let config = CloudConfig::default();
            let big2 = Arc::clone(&big);
            let server = std::thread::spawn(move || {
                let opts = ServeOptions {
                    expect_sessions: Some(1),
                    ..ServeOptions::default()
                };
                let stop = AtomicBool::new(false);
                serve(&mut listener, &config, &big2, &opts, &stop)
            });
            let remote = RemoteCloud::connect(
                Box::new(connector.connect().unwrap()),
                0,
                ConnectOptions::default(),
            )
            .unwrap();
            let mut sess =
                remote.attach(cfg, &small, Box::new(DifficultCaseDiscriminator::default()));
            for scene in data.iter() {
                let t = sess.submit(scene);
                sess.poll(t).expect("frame resolves over transport");
            }
            let got = sess.drain();
            drop(sess);
            remote.close();
            let stats = server.join().unwrap();

            assert_eq!(got, want);
            assert_eq!(stats.connections, 1);
            assert_eq!(stats.aborted, 0);
            assert_eq!(stats.cloud.served, want_stats.served);
        });
    }

    /// A big model whose `detect` always panics — stands in for a buggy
    /// user implementation behind the public [`Detector`] trait.
    struct PanickyDetector(modelzoo::SimDetector);

    impl Detector for PanickyDetector {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn detect(&self, _scene: &Scene) -> detcore::ImageDetections {
            panic!("panicky detector always fails");
        }
        fn flops(&self) -> u64 {
            self.0.flops()
        }
        fn model_size_bytes(&self) -> u64 {
            self.0.model_size_bytes()
        }
    }

    #[test]
    fn panicking_big_model_aborts_its_connection_not_the_node() {
        let name = "panicking_big_model_aborts_its_connection_not_the_node";
        bounded(name, Duration::from_secs(30), || {
            use datagen::{Dataset, DatasetProfile};

            let big: Arc<dyn Detector + Send + Sync> = Arc::new(PanickyDetector(big_model()));
            let (mut listener, connector) = memory_listener();
            let server = std::thread::spawn(move || {
                let opts = ServeOptions {
                    expect_sessions: Some(1),
                    ..ServeOptions::default()
                };
                let stop = AtomicBool::new(false);
                serve(&mut listener, &CloudConfig::default(), &big, &opts, &stop)
            });
            let remote = RemoteCloud::connect(
                Box::new(connector.connect().unwrap()),
                0,
                ConnectOptions::default(),
            )
            .unwrap();
            let data = Dataset::generate("panic", &DatasetProfile::helmet(), 1, 9);
            let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
            let cfg = small_frames();
            let mut sess = remote.attach(cfg, &small, Box::new(crate::Policy::CloudOnly));
            let ticket = sess.submit(&data.scenes()[0]);
            let polled =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sess.poll(ticket)));
            assert!(polled.is_err(), "the waiting session must fail loudly");
            drop(sess);
            remote.close();
            // The node outlives the panic: it counts the connection as
            // aborted and stat-less, and that connection's session meets
            // `expect_sessions`, so `serve` returns.
            let stats = server
                .join()
                .expect("serve returns after the aborted connection");
            assert_eq!(stats.connections, 1);
            assert_eq!(stats.aborted, 1);
            assert_eq!(stats.cloud, CloudStats::default());
        });
    }

    /// Runs one cloud-only session (id 7, one frame, ticket 0) against a
    /// scripted cloud on a [`memory_pair`]: a real node's welcome answers
    /// the hello, then the script answers the session's SUBMIT with
    /// `replies` verbatim. Returns what the session's waiting `poll` did.
    fn poll_against_scripted_cloud(
        mux: bool,
        replies: Vec<Vec<u8>>,
    ) -> std::thread::Result<Option<crate::FrameResult>> {
        let limit = Duration::from_secs(30);
        bounded("poll_against_scripted_cloud", limit, move || {
            use datagen::{Dataset, DatasetProfile};

            let (local, remote) = memory_pair();
            let cloud = std::thread::spawn(move || {
                let (mut tx, mut rx) = Box::new(remote).split();
                let hello = NodeIn::Frame(rx.recv().unwrap().unwrap());
                let mut welcome = Vec::new();
                ServerConn::new(CloudConfig::default()).handle(&big_model(), hello, &mut welcome);
                tx.send(&welcome[0][0]).unwrap();
                while let Ok(Some(frame)) = rx.recv() {
                    if frame.first() == Some(&tag::SUBMIT) {
                        for reply in &replies {
                            let _ = tx.send(reply);
                        }
                    }
                }
            });
            let opts = ConnectOptions {
                mux,
                ..ConnectOptions::default()
            };
            let remote = RemoteCloud::connect(Box::new(local), 7, opts).unwrap();
            assert_eq!(remote.mux(), mux);
            let data = Dataset::generate("script", &DatasetProfile::helmet(), 1, 9);
            let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
            let cfg = small_frames();
            let mut sess = remote.attach(cfg, &small, Box::new(crate::Policy::CloudOnly));
            let ticket = sess.submit(&data.scenes()[0]);
            let polled =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sess.poll(ticket)));
            drop(sess);
            remote.close();
            cloud.join().unwrap();
            polled
        })
    }

    /// A well-formed answer to `ticket`.
    fn answer(ticket: u64) -> SubmitResponse {
        serde_json::from_str(&format!(
            r#"{{"dets":{{"dets":[]}},"infer_s":0.01,"queue_depth":1,"sent_at":1.5,"ticket":{ticket},"uplink_s":0.25}}"#,
        ))
        .unwrap()
    }

    /// [`answer`]'s frame, as the cloud's sink would encode it.
    fn answer_frame(ticket: u64) -> Bytes {
        wire::encode_frame(&answer(ticket))
    }

    #[test]
    fn malformed_answer_path_payloads_poison_the_connection() {
        let valid_update = wire::encode_frame(&crate::CalibrationUpdate::factory(
            crate::Thresholds::paper(),
        ));
        let not_json = {
            let payload = b"\xff\xfe neither JSON nor binary";
            let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
            frame.extend_from_slice(payload);
            Bytes::from(frame)
        };
        let wrong_shape = wire::encode_frame(&vec![1u32, 2, 3]);
        let truncated = |frame: &Bytes| frame.slice(..frame.len() / 2);
        type Envelope = fn(&[u8]) -> Vec<u8>;
        let kinds: [(&str, bool, Bytes, Envelope); 3] = [
            ("one-session answer", false, answer_frame(0), |inner| {
                msg_answer(7, 0, inner)
            }),
            ("mux answer", true, answer_frame(0), |inner| {
                msg_answer(7, 0, inner)
            }),
            ("update", false, valid_update, |inner| {
                msg_session(tag::UPDATE, 7, inner)
            }),
        ];
        for (kind, mux, valid, envelope) in kinds {
            for (fault, inner) in [
                ("truncated", truncated(&valid)),
                ("not JSON", not_json.clone()),
                ("wrong shape", wrong_shape.clone()),
            ] {
                let payload = poll_against_scripted_cloud(mux, vec![envelope(&inner)])
                    .expect_err("the waiting session must fail");
                let message = payload
                    .downcast_ref::<String>()
                    .expect("the session's own diagnostic");
                assert_eq!(
                    message, "cloud server shut down with 1 of this session's frames unresolved",
                    "{kind}, {fault}"
                );
            }
        }
    }

    #[test]
    fn stale_mux_answer_is_ignored_unparsed() {
        // An envelope naming no pending frame is dropped without its
        // payload being looked at — garbage there must not poison the
        // connection, and the real answer behind it still resolves.
        let stale = msg_answer(7, 99, b"never parsed");
        let unknown_session = msg_session(tag::UPDATE, 8, b"never parsed");
        let answer = msg_answer(7, 0, &answer_frame(0));
        let result = poll_against_scripted_cloud(true, vec![stale, unknown_session, answer])
            .expect("the connection stays healthy")
            .expect("the frame resolves");
        assert_eq!(result.decision, crate::Decision::Upload);
    }

    #[test]
    fn encoding_negotiation_covers_fallback_and_corruption() {
        let welcome = |enc: &str, mux: bool| Welcome {
            protocol: PROTOCOL_VERSION,
            session: 0,
            admission: false,
            encoding: enc.to_string(),
            mux,
        };

        // Matching offers stick; a cloud may decline binary down to JSON,
        // but never invent an encoding the edge did not offer, nor name an
        // unknown one.
        let h = hello("binary", false);
        for (agreed, want) in [("binary", Encoding::Binary), ("json", Encoding::Json)] {
            let got = negotiated_encoding(&h, &welcome(agreed, false)).unwrap();
            assert_eq!(got, want);
        }
        for (offered, agreed) in [("json", "binary"), ("binary", "zstd")] {
            assert!(matches!(
                negotiated_encoding(&hello(offered, false), &welcome(agreed, false)),
                Err(HandshakeError::Encoding { .. })
            ));
        }

        // More than one session needs both sides to say yes.
        assert!(negotiated_mux(&hello("json", true), &welcome("json", true)));
        assert!(!negotiated_mux(
            &hello("json", true),
            &welcome("json", false)
        ));
        assert!(!negotiated_mux(
            &hello("json", false),
            &welcome("json", true)
        ));
    }

    /// Serves `node`'s end of a [`memory_pair`] with [`serve_connection`]
    /// on a thread of its own.
    fn serve_memory(node: MemoryTransport) -> std::thread::JoinHandle<ConnOutcome> {
        let big: Arc<dyn Detector + Send + Sync> = Arc::new(big_model());
        let (config, opts) = (CloudConfig::default(), ServeOptions::default());
        std::thread::spawn(move || serve_connection(Box::new(node), &config, &big, &opts))
    }

    #[test]
    fn version_mismatch_surfaces_as_typed_error() {
        let (edge, node) = memory_pair();
        let server = serve_memory(node);
        let (mut tx, mut rx) = Box::new(edge).split();
        let hello = Hello {
            protocol: 999,
            session: 3,
            ..hello("json", false)
        };
        let err = client_handshake(&mut *tx, &mut *rx, &hello, Duration::from_secs(5)).unwrap_err();
        match err {
            HandshakeError::VersionMismatch { server, client } => {
                assert_eq!(server, PROTOCOL_VERSION);
                assert_eq!(client, 999);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
        assert!(server.join().unwrap().refused);
    }

    #[test]
    fn attach_as_a_second_session_without_mux_panics() {
        let (local, node) = memory_pair();
        let cloud = serve_memory(node);
        let remote = RemoteCloud::connect(Box::new(local), 7, ConnectOptions::default()).unwrap();
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
        let cfg = small_frames();
        let attached = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            remote.attach_as(8, cfg, &small, Box::new(crate::Policy::CloudOnly))
        }));
        let message = attached
            .err()
            .and_then(|payload| payload.downcast_ref::<String>().cloned())
            .expect("a second session on a one-session connection panics");
        assert!(message.contains("mux"), "{message}");
        remote.close();
        cloud.join().unwrap();
    }

    // -----------------------------------------------------------------------
    // Protocol v2: handshake, framing and the node's drain
    // -----------------------------------------------------------------------

    /// A hello frame carrying `hello` with `drop` removed.
    fn hello_without(hello: Hello, drop: &str) -> Bytes {
        let serde::Value::Object(mut fields) = hello.to_value() else {
            unreachable!("a struct serializes to an object");
        };
        fields.remove(drop);
        Bytes::from(msg(
            tag::HELLO,
            &serde::Value::Object(fields),
            Encoding::Json,
        ))
    }

    #[test]
    fn hellos_of_v1_or_missing_a_negotiation_field_are_refused() {
        assert_eq!(PROTOCOL_VERSION, 2);
        let v2 = hello("json", false);
        let v1 = Hello {
            protocol: 1,
            ..v2.clone()
        };
        // A v1 hello is a version refusal, with or without the negotiation
        // fields v1 made optional.
        for (what, first) in [
            ("v1", hello_frame(&v1)),
            ("v1 without encoding", hello_without(v1.clone(), "encoding")),
            ("v1 without mux", hello_without(v1.clone(), "mux")),
        ] {
            let refused = ServerConn::parse_hello(&first).unwrap_err();
            assert_eq!(refused.reason, RefuseReason::Version, "{what}");
            assert_eq!(refused.server_protocol, 2, "{what}");
        }
        for field in ["encoding", "mux"] {
            let refused = ServerConn::parse_hello(&hello_without(v2.clone(), field)).unwrap_err();
            assert_eq!(refused.reason, RefuseReason::MalformedHello, "{field}");
        }
        assert!(ServerConn::parse_hello(&hello_frame(&v2)).is_ok());
    }

    /// What an edge's connection machine writes for `messages`, one payload
    /// per message.
    fn edge_payloads(encoding: Encoding, messages: Vec<ToCloud>) -> Vec<Bytes> {
        let mut conn = ClientConn::new(encoding, true, None);
        let mut acts = Vec::new();
        for msg in messages {
            conn.handle(In::Session(msg), &mut acts);
        }
        acts.into_iter()
            .flat_map(|act| match act {
                Act::Write(run) => run,
                other => panic!("{other:?}"),
            })
            .collect()
    }

    /// Feeds a [`ServerConn`] a JSON hello (declaring `mux`) and `payloads`,
    /// then EOF when `eof`, on this thread; without `eof`, the node must
    /// end the connection itself. Returns every payload the node wrote
    /// after its welcome, and the outcome.
    fn serve_script(
        config: CloudConfig,
        mux: bool,
        payloads: Vec<Bytes>,
        eof: bool,
    ) -> (Vec<Bytes>, ConnOutcome) {
        let big = big_model();
        let mut node = ServerConn::new(config);
        let inputs = std::iter::once(hello_frame(&hello("json", mux))).chain(payloads);
        let mut inputs = inputs.map(NodeIn::Frame).chain(eof.then_some(NodeIn::Eof));
        let mut runs = Vec::new();
        let ended = inputs.any(|input| !node.handle(&big, input, &mut runs));
        assert!(ended, "the node must end the connection itself");
        let mut written = runs.into_iter().flatten().map(Bytes::from);
        let welcome = written.next().expect("the welcome");
        assert_eq!(welcome.first(), Some(&tag::WELCOME));
        (written.collect(), node.outcome)
    }

    #[test]
    fn the_end_of_connection_drain_is_written_in_session_order() {
        // Eight sessions, registered out of order, each with one submit the
        // batcher holds (no flush, `max_batch` 16) until the edge hangs up.
        let order = [5, 2, 7, 0, 3, 6, 1, 4];
        let mut messages: Vec<ToCloud> = order.iter().map(|&s| register(s)).collect();
        messages.extend(order.iter().map(|&s| submit(s, 0)));
        let payloads = edge_payloads(Encoding::Json, messages);
        let config = CloudConfig {
            max_batch: 16,
            ..CloudConfig::default()
        };
        let runs: Vec<Vec<Bytes>> = (0..4)
            .map(|_| serve_script(config.clone(), true, payloads.clone(), true).0)
            .collect();
        let sessions: Vec<u64> = runs[0]
            .iter()
            .map(|frame| {
                assert_eq!(frame[0], tag::ANSWER_MUX);
                split_answer(&frame.slice(1..)).unwrap().0
            })
            .collect();
        assert_eq!(sessions, (0..8).collect::<Vec<u64>>());
        for run in &runs[1..] {
            assert_eq!(
                run, &runs[0],
                "identical inbound bytes, identical outbound bytes"
            );
        }
    }

    #[test]
    fn a_flush_without_its_session_ends_the_connection() {
        // The FLUSH with no body comes before the submit: a node that took
        // it would answer the submit at its proper FLUSH.
        let mut payloads = edge_payloads(Encoding::Json, vec![register(0)]);
        payloads.push(Bytes::from(msg_bare(tag::FLUSH)));
        payloads.extend(edge_payloads(
            Encoding::Json,
            vec![submit(0, 0), ToCloud::Flush { session: 0 }],
        ));
        let (written, outcome) = serve_script(CloudConfig::default(), false, payloads, false);
        assert!(written.is_empty(), "{} frames written", written.len());
        assert!(outcome.registered && !outcome.clean && !outcome.refused);
    }

    #[test]
    fn a_message_for_an_unregistered_session_ends_the_connection() {
        // Session 1 submits before it registers: a node that skipped that
        // submit would answer the one after the REGISTER at its FLUSH.
        let flush = ToCloud::Flush { session: 1 };
        let messages = vec![register(0), submit(1, 0), register(1), submit(1, 1), flush];
        let payloads = edge_payloads(Encoding::Json, messages);
        let (written, outcome) = serve_script(CloudConfig::default(), true, payloads, false);
        assert!(written.is_empty(), "{} frames written", written.len());
        assert!(outcome.registered && !outcome.clean);
        assert_eq!(outcome.sessions, 1);
    }

    #[test]
    fn an_unknown_encoding_is_refused_and_nothing_else_is_written() {
        let mut node = ServerConn::new(CloudConfig::default());
        let mut runs = Vec::new();
        let first = NodeIn::Frame(hello_frame(&hello("zstd", true)));
        assert!(!node.handle(&big_model(), first, &mut runs));
        let written: Vec<Bytes> = runs.into_iter().flatten().map(Bytes::from).collect();
        let [payload] = &written[..] else {
            panic!("{} payloads written", written.len());
        };
        assert_eq!(payload[0], tag::REFUSED);
        let refused: Refused = wire::decode_frame(&payload.slice(1..)).unwrap();
        assert_eq!(refused.reason, RefuseReason::Encoding);
        assert!(node.outcome.refused && !node.outcome.registered);
    }

    #[test]
    fn a_probe_reply_reaches_the_session_its_envelope_names() {
        for encoding in [Encoding::Json, Encoding::Binary] {
            let mut conn = ClientConn::new(encoding, true, None);
            let mut inbox = Inbox::default();
            let mut acts = Vec::new();
            for session in [0, 1] {
                let msg = register(session);
                inbox.track(&msg);
                conn.handle(In::Session(msg), &mut acts);
            }
            for session in [0, 1] {
                let msg = ToCloud::Probe { session, now: 0.0 };
                conn.handle(In::Session(msg), &mut acts);
            }
            // Session 1's reply comes first although session 0 probed
            // first; each lands with the session its envelope names.
            for (session, queue_depth) in [(1, 3), (0, 5)] {
                let reply = ProbeReply {
                    admitted: true,
                    queue_depth,
                };
                let inner = wire::encode_frame_as(&reply, encoding);
                let frame = Bytes::from(msg_session(tag::PROBE_REPLY_MUX, session, &inner));
                conn.handle(In::Frame(frame), &mut acts);
                inbox.extend(conn.replies.drain(..));
                let got = inbox.probe(session).expect("filed under its session");
                assert_eq!(got.queue_depth, queue_depth, "{encoding}");
                assert!(
                    [0, 1].iter().all(|&s| inbox.probe(s).is_none()),
                    "{encoding}"
                );
            }
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The envelope's exact bytes for fixed messages. A change to any of
    /// them is a protocol change: bump [`PROTOCOL_VERSION`] with it.
    #[test]
    fn envelope_bytes_are_pinned() {
        let probe = |encoding| {
            let reply = ProbeReply {
                admitted: true,
                queue_depth: 3,
            };
            hex(&encode_reply(7, Reply::Probe(reply), encoding))
        };
        let flush =
            |encoding| hex(&edge_payloads(encoding, vec![ToCloud::Flush { session: 7 }])[0]);
        let update = crate::CalibrationUpdate::factory(crate::Thresholds::paper());
        // Each as tag, session, [ticket,] the inner frame's length, body.
        let pinned = [
            (
                "answer",
                hex(&encode_reply(
                    7,
                    Reply::Cloud(FromCloud::Answer(answer(2))),
                    Encoding::Binary,
                )),
                concat!(
                    "0c",
                    "0700000000000000",
                    "0200000000000000",
                    "5c000000",
                    // {"dets":{"dets":[]},"infer_s":0.01,"queue_depth":1,
                    //  "sent_at":1.5,"ticket":2,"uplink_s":0.25}
                    "7b2264657473223a7b2264657473223a5b5d7d2c22696e6665725f73223a302e3031",
                    "2c2271756575655f6465707468223a312c2273656e745f6174223a312e352c227469",
                    "636b6574223a322c2275706c696e6b5f73223a302e32357d",
                ),
            ),
            (
                "probe reply, JSON",
                probe(Encoding::Json),
                concat!(
                    "0d",
                    "0700000000000000",
                    "21000000",
                    // {"admitted":true,"queue_depth":3}
                    "7b2261646d6974746564223a747275652c2271756575655f6465707468223a337d",
                ),
            ),
            (
                "probe reply, binary",
                probe(Encoding::Binary),
                concat!("0d", "0700000000000000", "07000000", "080222020b0303"),
            ),
            (
                "flush, JSON",
                flush(Encoding::Json),
                // {"session":7}
                concat!("08", "0d000000", "7b2273657373696f6e223a377d"),
            ),
            (
                "flush, binary",
                flush(Encoding::Binary),
                concat!("08", "05000000", "0801030307"),
            ),
            (
                "update",
                hex(&encode_reply(
                    7,
                    Reply::Cloud(FromCloud::Update(Arc::new(update))),
                    Encoding::Binary,
                )),
                concat!(
                    "0e",
                    "0700000000000000",
                    "a0000000",
                    // {"accuracy":1,"divergence":0.35,"epoch":0,"examples":0,
                    //  "format":1,"holdout":16,"quantile_scores":[],
                    //  "thresholds":{"area":0.31,"conf":0.2,"count":2},
                    //  "version":0}
                    "7b226163637572616379223a312c22646976657267656e6365223a302e33352c2265",
                    "706f6368223a302c226578616d706c6573223a302c22666f726d6174223a312c2268",
                    "6f6c646f7574223a31362c227175616e74696c655f73636f726573223a5b5d2c2274",
                    "68726573686f6c6473223a7b2261726561223a302e33312c22636f6e66223a302e32",
                    "2c22636f756e74223a327d2c2276657273696f6e223a307d",
                ),
            ),
        ];
        for (what, got, want) in pinned {
            assert_eq!(got, want, "{what}");
        }
    }

    // -----------------------------------------------------------------------
    // ClientConn, driven on one thread
    // -----------------------------------------------------------------------

    /// A session's `Register`.
    fn register(session: u64) -> ToCloud {
        let link = SessionConfig::new(2).link;
        ToCloud::Register { session, link }
    }

    /// An upload of an empty scene.
    fn submit(session: u64, ticket: u64) -> ToCloud {
        let header = SubmitRequest {
            session,
            ticket,
            frame_bytes: 1,
            sent_at: 0.0,
            uplink_s: None,
            difficulty: 0.0,
            deadline_at: None,
            small_count: 0,
        };
        let scene = Scene {
            id: ticket,
            objects: Vec::new(),
            camera_blur: 0.0,
            noise_std: 0.0,
            illumination: 1.0,
            seed: 0,
        };
        ToCloud::Frame(header, Arc::new(scene))
    }

    #[test]
    fn a_redial_whose_welcome_disagrees_is_a_failed_attempt() {
        let retry = RetryConfig {
            base_s: 0.05,
            multiplier: 2.0,
            max_retries: 3,
        };
        for (encoding, mux) in [(Encoding::Json, false), (Encoding::Binary, true)] {
            let other = match encoding {
                Encoding::Json => Encoding::Binary,
                Encoding::Binary => Encoding::Json,
            };
            let mut conn = ClientConn::new(encoding, mux, Some(retry));
            let mut acts = Vec::new();
            let msg = register(0);
            conn.handle(In::Session(msg), &mut acts);
            acts.clear();
            conn.handle(In::Eof, &mut acts);
            assert!(
                matches!(acts[..], [Act::Dial(w)] if w.is_zero()),
                "{acts:?}"
            );
            // Another encoding, then mux flipped: each welcome is discarded
            // as a failed attempt, and the next dial follows its backoff.
            for (attempt, disagrees) in [(1, (other, mux)), (2, (encoding, !mux))] {
                acts.clear();
                conn.handle(In::Dialed(Some(disagrees)), &mut acts);
                let want = Duration::from_secs_f64(retry.backoff_s(attempt));
                assert!(
                    matches!(acts[..], [Act::Dial(w)] if w == want),
                    "{disagrees:?}: {acts:?}"
                );
            }
            // The same encoding and mux: the new link is replayed.
            acts.clear();
            conn.handle(In::Dialed(Some((encoding, mux))), &mut acts);
            match &acts[..] {
                [Act::Write(replay)] => assert_eq!(replay.len(), 1, "the REGISTER"),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn a_redial_does_not_replay_a_departed_session() {
        let retry = RetryConfig {
            base_s: 0.05,
            multiplier: 2.0,
            max_retries: 3,
        };
        let mut conn = ClientConn::new(Encoding::Json, true, Some(retry));
        let mut acts = Vec::new();
        // Session 0 leaves with a submit still unanswered.
        let left = [register(0), register(1), submit(0, 0), submit(1, 0)];
        let left = left.into_iter().chain([ToCloud::Deregister { session: 0 }]);
        for msg in left {
            conn.handle(In::Session(msg), &mut acts);
        }
        acts.clear();
        conn.handle(In::Eof, &mut acts);
        acts.clear();
        conn.handle(In::Dialed(Some((Encoding::Json, true))), &mut acts);
        let [Act::Write(replay)] = &acts[..] else {
            panic!("{acts:?}");
        };
        // Session 1's REGISTER, its submit and its FLUSH; nothing of 0's.
        let tags: Vec<u8> = replay.iter().map(|p| p[0]).collect();
        assert_eq!(tags, [tag::REGISTER, tag::SUBMIT, tag::FLUSH]);
        let want = edge_payloads(
            Encoding::Json,
            vec![register(1), submit(1, 0), ToCloud::Flush { session: 1 }],
        );
        assert_eq!(replay, &want);
    }

    /// The explorer's redial schedule: three dials per outage.
    const EXPLORER_RETRY: RetryConfig = RetryConfig {
        base_s: 0.05,
        multiplier: 2.0,
        max_retries: 2,
    };

    /// How a link is cut at the explorer's chosen outbound position.
    #[derive(Debug, Clone, Copy)]
    enum Cut {
        /// That write and every later one on the link fail.
        WriteError,
        /// That write and every later one vanish, and the edge reads EOF.
        Eof,
    }

    /// One explored run.
    #[derive(Debug, Clone, Copy)]
    struct Schedule {
        mux: bool,
        sessions: u64,
        frames: u64,
        /// Outbound position, counted over every link, the cut lands on.
        cut_at: usize,
        cut: Cut,
        /// The sessions leave (`BYE`) right after the run the cut landed
        /// in, before the reader has read anything after it.
        bye_after_cut: bool,
        /// Dials that fail before one succeeds.
        failed_dials: u32,
    }

    /// One link to the explorer's node: a real [`ServerConn`], whose
    /// sessions' answers wait for their `FLUSH` (`max_batch` above any
    /// link's submits).
    struct NodeLink {
        /// `None` once the node reads nothing more: the link was cut, or the
        /// node ended the connection.
        node: Option<ServerConn>,
        /// Frames the node wrote, not yet read by the edge.
        inbox: VecDeque<Bytes>,
        /// Writes on the link fail.
        broken: bool,
        /// The edge reads EOF once the inbox is empty.
        eof: bool,
    }

    impl NodeLink {
        /// Dials the node with a JSON hello declaring `mux`, and takes its
        /// welcome.
        fn dial(big: &dyn Detector, mux: bool) -> NodeLink {
            let config = CloudConfig {
                max_batch: 64,
                ..CloudConfig::default()
            };
            let mut link = NodeLink {
                node: Some(ServerConn::new(config)),
                inbox: VecDeque::new(),
                broken: false,
                eof: false,
            };
            assert!(link.read(big, &hello_frame(&hello("json", mux))).is_none());
            assert_eq!(
                link.inbox.pop_front().expect("the welcome")[0],
                tag::WELCOME
            );
            link
        }

        /// The node reads one payload and writes what it produced for the
        /// edge to read; the outcome when that ended the connection.
        fn read(&mut self, big: &dyn Detector, payload: &Bytes) -> Option<ConnOutcome> {
            let node = self.node.as_mut()?;
            let mut runs = Vec::new();
            let open = node.handle(big, NodeIn::Frame(payload.clone()), &mut runs);
            self.inbox
                .extend(runs.into_iter().flatten().map(Bytes::from));
            if open {
                return None;
            }
            self.eof = true;
            self.node.take().map(|node| node.outcome)
        }
    }

    /// A writer ([`World::out`]) and a reader ([`World::pump_in`]) taking
    /// turns on one thread against a real node, both on the current link,
    /// with `Host::step`'s dial loop and a scripted dialer: the way
    /// `RemoteCloud`'s `Host` drives the machine.
    struct World {
        s: Schedule,
        conn: ClientConn,
        big: SimDetector,
        /// Every reply the machine left, in order, under its session.
        replies: Vec<(u64, Reply)>,
        /// Every link dialed, in order; the last is the current one.
        links: Vec<NodeLink>,
        /// Payloads written so far, over every link.
        written: usize,
        failed_dials: u32,
        dials: Vec<Duration>,
        bye: bool,
    }

    impl World {
        fn new(s: Schedule) -> World {
            let big = big_model();
            let link = NodeLink::dial(&big, s.mux);
            World {
                s,
                conn: ClientConn::new(Encoding::Json, s.mux, Some(EXPLORER_RETRY)),
                big,
                replies: Vec::new(),
                links: vec![link],
                written: 0,
                failed_dials: s.failed_dials,
                dials: Vec::new(),
                bye: false,
            }
        }

        /// Writes `run` on the current link; `false` when a write fails.
        fn write(&mut self, run: &[Bytes]) -> bool {
            let link = self.links.last_mut().expect("a link");
            for payload in run {
                if link.broken {
                    return false;
                }
                if self.written == self.s.cut_at {
                    link.node = None;
                    link.eof = true;
                    link.broken = matches!(self.s.cut, Cut::WriteError);
                }
                self.written += 1;
                if link.broken {
                    return false;
                }
                if let Some(outcome) = link.read(&self.big, payload) {
                    let clean = payload[0] == tag::BYE && outcome.clean;
                    assert!(clean, "{:?}: the node hung up: {outcome:?}", self.s);
                }
            }
            true
        }

        /// Feeds `input`, carrying out every dial; returns the writes the
        /// machine asked for.
        fn step(&mut self, input: In) -> Vec<Bytes> {
            let mut acts = Vec::new();
            self.conn.handle(input, &mut acts);
            while let [Act::Dial(wait)] = acts[..] {
                assert!(!self.bye, "{:?}: a dial after BYE", self.s);
                self.dials.push(wait);
                acts.clear();
                if self.failed_dials > 0 {
                    self.failed_dials -= 1;
                    self.conn.handle(In::Dialed(None), &mut acts);
                    continue;
                }
                self.links.push(NodeLink::dial(&self.big, self.s.mux));
                let agreed = Some((Encoding::Json, self.s.mux));
                self.conn.handle(In::Dialed(agreed), &mut acts);
                let Some(Act::Write(replay)) = acts.pop() else {
                    unreachable!("an agreed dial is replayed");
                };
                if !self.write(&replay) {
                    self.conn.handle(In::WriteError, &mut acts);
                }
            }
            self.replies.extend(self.conn.replies.drain(..));
            (acts.into_iter())
                .flat_map(|act| match act {
                    Act::Write(payloads) => payloads,
                    Act::Dial(_) => unreachable!("step carries out every dial"),
                })
                .collect()
        }

        /// The writer: one batch of session messages (`None`: every session
        /// is gone), written as one run on the current link.
        fn out(&mut self, batch: Vec<Option<ToCloud>>) {
            let mut run = Vec::new();
            for message in batch {
                let input = match message {
                    Some(msg) => In::Session(msg),
                    None => {
                        self.bye = true;
                        In::Bye
                    }
                };
                run.extend(self.step(input));
            }
            if !self.write(&run) {
                self.event(In::WriteError, "a write error");
            }
        }

        /// Feeds a link event, which asks for no write.
        fn event(&mut self, input: In, what: &str) {
            let more = self.step(input);
            assert!(more.is_empty(), "{:?}: {more:?} after {what}", self.s);
        }

        /// The reader: reads the current link until it is quiet; returns
        /// whether the machine closed.
        fn pump_in(&mut self) -> bool {
            while self.conn.link != Link::Closed {
                let link = self.links.last_mut().expect("a link");
                let input = match link.inbox.pop_front() {
                    Some(frame) => In::Frame(frame),
                    None if link.eof => In::Eof,
                    None => return false,
                };
                self.event(input, "an inbound event");
            }
            true
        }
    }

    /// Runs one schedule: register, then per ticket every session submits
    /// and flushes and the reader takes what arrives, then deregister and
    /// `BYE`. Returns how many payloads went out.
    fn explore(s: Schedule) -> usize {
        let mut w = World::new(s);
        w.out((0..s.sessions).map(|sn| Some(register(sn))).collect());
        for ticket in 0..s.frames {
            let submits = (0..s.sessions).map(|sn| Some(submit(sn, ticket)));
            let flushes = (0..s.sessions).map(|sn| Some(ToCloud::Flush { session: sn }));
            w.out(submits.chain(flushes).collect());
            if s.bye_after_cut && w.written > s.cut_at {
                break;
            }
            w.pump_in();
        }
        // Before BYE: every ticket resolved exactly once, or, once the
        // retries ran out, the connection closed.
        let exhausted = s.failed_dials > EXPLORER_RETRY.max_retries;
        let disconnected = w.conn.link == Link::Closed;
        for sn in 0..s.sessions {
            let mut resolved = BTreeSet::new();
            for (_, reply) in w.replies.iter().filter(|(session, _)| *session == sn) {
                match reply {
                    Reply::Cloud(FromCloud::Answer(resp)) => assert!(
                        resolved.insert(resp.ticket),
                        "{s:?}: session {sn} got ticket {} twice",
                        resp.ticket
                    ),
                    Reply::Cloud(FromCloud::Update(_)) => panic!("{s:?}: an update nobody pushed"),
                    Reply::Probe(_) => panic!("{s:?}: a probe reply nobody asked for"),
                }
            }
            let cut_short = s.bye_after_cut && w.written > s.cut_at;
            assert!(
                cut_short || resolved.len() as u64 == s.frames || (exhausted && disconnected),
                "{s:?}: session {sn} resolved {resolved:?}, disconnected {disconnected}"
            );
        }
        let mut last: Vec<_> = (0..s.sessions)
            .map(|session| Some(ToCloud::Deregister { session }))
            .collect();
        last.push(None);
        w.out(last);
        assert!(w.pump_in(), "{s:?}: the connection closes after BYE");
        assert!(w.dials.len() <= EXPLORER_RETRY.max_retries as usize + 1);
        for (attempt, wait) in w.dials.iter().enumerate() {
            let want = match attempt {
                0 => 0.0,
                a => EXPLORER_RETRY.backoff_s(a as u32),
            };
            assert_eq!(
                *wait,
                Duration::from_secs_f64(want),
                "{s:?}: dial {attempt}"
            );
        }
        w.written
    }

    /// Drives `ClientConn` against a real node over every schedule:
    /// mux × 1–3 sessions (non-mux carries one) × 1–4 frames, cut at every
    /// outbound position as a write error and as an EOF, `BYE` before the
    /// cut (the cut lands on or after it) and after it, with the first dial
    /// succeeding, one failed dial, and every dial failing.
    #[test]
    fn client_conn_resolves_every_ticket_once_under_every_cut() {
        let mut runs = 0;
        for mux in [false, true] {
            for sessions in 1..=if mux { 3 } else { 1 } {
                for frames in 1..=4 {
                    let uncut = Schedule {
                        mux,
                        sessions,
                        frames,
                        cut_at: usize::MAX,
                        cut: Cut::Eof,
                        bye_after_cut: false,
                        failed_dials: 0,
                    };
                    let positions = explore(uncut);
                    for cut_at in 0..positions {
                        for cut in [Cut::WriteError, Cut::Eof] {
                            for bye_after_cut in [false, true] {
                                for failed_dials in [0, 1, EXPLORER_RETRY.max_retries + 1] {
                                    explore(Schedule {
                                        cut_at,
                                        cut,
                                        bye_after_cut,
                                        failed_dials,
                                        ..uncut
                                    });
                                    runs += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(runs > 2_000, "{runs} schedules");
    }
}
