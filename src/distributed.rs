//! Real distributed deployment: fleet specs, the shared per-device driver,
//! and two interchangeable fleet runners.
//!
//! A *fleet* is one cloud node serving `edges × devices_per_edge` edge
//! sessions. The same [`DeploymentSpec`] drives both runners:
//!
//! * [`run_fleet_in_memory`] — every node in this process, connected over
//!   [`core::transport::memory_listener`]. Deterministic and fast; the
//!   reference result.
//! * [`run_fleet_processes`] — real OS processes (`cloud-node` + one
//!   `edge-node` per edge) talking length-framed JSON over loopback TCP,
//!   orchestrated through a line protocol on stdout (`LISTENING`/`REPORT`/
//!   `STATS`).
//!
//! Because every session's virtual-time result is a pure function of its
//! own message stream (the cloud runs one machine per session), the two
//! runners produce **bit-identical per-session reports** — pinned by
//! `tests/transport.rs` and checkable any time with
//! `smallbig-orchestrate --mode check`.
//!
//! Wall-clock aggregates in [`NodeStats`] (e.g. `busy_s`) are summed in
//! connection-completion order and are *not* part of the bit-identity
//! contract; compare [`DeploymentReport::sessions`], not the node stats.

use std::cell::Cell;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::{Dataset, DatasetProfile, SplitId};
use modelzoo::{Detector, ModelKind, SimDetector};
use serde::{Deserialize, Serialize};
use simnet::{LinkModel, LinkTrace, RetryConfig};
use smallbig_core::transport::{
    memory_listener, serve, ConnectOptions, Listener, NodeStats, RemoteCloud, ServeOptions,
    Transport,
};
use smallbig_core::wire::Encoding;
use smallbig_core::{
    CloudConfig, DifficultCaseDiscriminator, EdgePipeline, OffloadPolicy, Policy, SchedulerConfig,
    SessionConfig, SessionReport, UpdateConfig,
};

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// Which synthetic workload the fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitName {
    /// PASCAL VOC 2007 (20 classes).
    Voc07,
    /// The 18-class COCO subset.
    Coco18,
    /// The HELMET dataset (2 classes).
    Helmet,
}

impl SplitName {
    /// Parses the CLI spelling (`voc07` / `coco18` / `helmet`).
    pub fn parse(s: &str) -> Option<SplitName> {
        match s {
            "voc07" => Some(SplitName::Voc07),
            "coco18" => Some(SplitName::Coco18),
            "helmet" => Some(SplitName::Helmet),
            _ => None,
        }
    }

    /// Dataset profile, split id and class count for this workload.
    pub fn materialize(self) -> (DatasetProfile, SplitId, usize) {
        match self {
            SplitName::Voc07 => (DatasetProfile::voc(), SplitId::Voc07, 20),
            SplitName::Coco18 => (DatasetProfile::coco18(), SplitId::Coco18, 18),
            SplitName::Helmet => (DatasetProfile::helmet(), SplitId::Helmet, 2),
        }
    }

    /// The big (cloud-side) detector for this workload.
    pub fn big_model(self) -> SimDetector {
        let (_, split, classes) = self.materialize();
        SimDetector::new(ModelKind::SsdVgg16, split, classes)
    }

    /// The small (edge-side) detector for this workload.
    pub fn small_model(self) -> SimDetector {
        let (_, split, classes) = self.materialize();
        SimDetector::new(ModelKind::VggLiteSsd, split, classes)
    }
}

/// Which offload strategy every edge device runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicySpec {
    /// The paper's difficult-case discriminator (default thresholds).
    Discriminator,
    /// Upload every frame.
    CloudOnly,
    /// Never upload.
    EdgeOnly,
}

impl PolicySpec {
    /// Parses the CLI spelling (`discriminator` / `cloud-only` / `edge-only`).
    pub fn parse(s: &str) -> Option<PolicySpec> {
        match s {
            "discriminator" => Some(PolicySpec::Discriminator),
            "cloud-only" => Some(PolicySpec::CloudOnly),
            "edge-only" => Some(PolicySpec::EdgeOnly),
            _ => None,
        }
    }

    /// The edge pipeline and policy object this spec stands for, mirroring
    /// the [`smallbig_core::RuntimeMode`] mapping.
    pub fn build(self) -> (EdgePipeline, Box<dyn OffloadPolicy>) {
        match self {
            PolicySpec::Discriminator => (
                EdgePipeline::Full,
                Box::new(DifficultCaseDiscriminator::default()),
            ),
            PolicySpec::CloudOnly => (EdgePipeline::Bypass, Box::new(Policy::CloudOnly)),
            PolicySpec::EdgeOnly => (EdgePipeline::ModelOnly, Box::new(Policy::EdgeOnly)),
        }
    }
}

/// Which static link model each session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkSpec {
    /// The paper's shared WLAN.
    Wlan,
    /// A faster association.
    FastWifi,
    /// A cellular uplink.
    Cellular,
}

impl LinkSpec {
    /// Parses the CLI spelling (`wlan` / `fast-wifi` / `cellular`).
    pub fn parse(s: &str) -> Option<LinkSpec> {
        match s {
            "wlan" => Some(LinkSpec::Wlan),
            "fast-wifi" => Some(LinkSpec::FastWifi),
            "cellular" => Some(LinkSpec::Cellular),
            _ => None,
        }
    }

    /// The concrete link model.
    pub fn build(self) -> LinkModel {
        match self {
            LinkSpec::Wlan => LinkModel::wlan(),
            LinkSpec::FastWifi => LinkModel::fast_wifi(),
            LinkSpec::Cellular => LinkModel::cellular(),
        }
    }
}

/// Optional dynamic overlay on the static link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TraceSpec {
    /// No trace: the static fast path.
    None,
    /// A trace that never degrades (exercises the traced code path while
    /// staying loss-free).
    Constant,
    /// One total outage window.
    Outage {
        /// Outage start (virtual seconds).
        start_s: f64,
        /// Outage duration (virtual seconds).
        duration_s: f64,
    },
    /// Gilbert–Elliott bursty loss, seeded.
    Bursty {
        /// Seed for the sojourn-time RNG.
        seed: u64,
    },
}

impl TraceSpec {
    /// Parses the CLI spelling (`none` / `constant` / `outage:START,DUR` /
    /// `bursty:SEED`).
    pub fn parse(s: &str) -> Option<TraceSpec> {
        if s == "none" {
            return Some(TraceSpec::None);
        }
        if s == "constant" {
            return Some(TraceSpec::Constant);
        }
        if let Some(rest) = s.strip_prefix("outage:") {
            let (a, b) = rest.split_once(',')?;
            return Some(TraceSpec::Outage {
                start_s: a.parse().ok()?,
                duration_s: b.parse().ok()?,
            });
        }
        if let Some(rest) = s.strip_prefix("bursty:") {
            return Some(TraceSpec::Bursty {
                seed: rest.parse().ok()?,
            });
        }
        None
    }

    /// The concrete trace, if any.
    pub fn build(self) -> Option<LinkTrace> {
        match self {
            TraceSpec::None => None,
            TraceSpec::Constant => Some(LinkTrace::constant()),
            TraceSpec::Outage {
                start_s,
                duration_s,
            } => Some(LinkTrace::step_outage(start_s, duration_s)),
            TraceSpec::Bursty { seed } => Some(LinkTrace::bursty(seed, 120.0, 3.0, 1.5, 0.9)),
        }
    }
}

/// Cloud-node configuration (the serializable face of [`CloudConfig`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudSpec {
    /// Seed for the cloud's uplink-jitter RNG stream.
    pub seed: u64,
    /// Maximum frames fused into one big-model batch.
    pub max_batch: usize,
    /// Which scheduler forms batches.
    pub scheduler: SchedulerConfig,
    /// Admission control queue limit, if any.
    pub queue_limit: Option<usize>,
    /// Cloud-driven calibration update loop, if any (`None` keeps the
    /// deployment bit-identical to pre-update builds). Spec JSON written
    /// before the update loop existed still parses: missing fields
    /// deserialize as `null`, which an `Option` reads as `None`.
    pub updates: Option<UpdateConfig>,
}

impl Default for CloudSpec {
    fn default() -> Self {
        let base = CloudConfig::default();
        CloudSpec {
            seed: base.seed,
            max_batch: base.max_batch,
            scheduler: base.scheduler,
            queue_limit: base.queue_limit,
            updates: base.updates,
        }
    }
}

impl CloudSpec {
    /// The concrete [`CloudConfig`] (default device, empty fault plan).
    pub fn build(&self) -> CloudConfig {
        CloudConfig {
            seed: self.seed,
            max_batch: self.max_batch,
            scheduler: self.scheduler,
            queue_limit: self.queue_limit,
            updates: self.updates,
            ..CloudConfig::default()
        }
    }
}

/// Per-device edge configuration, identical across the fleet (per-session
/// variety comes from the session id folded into seeds and dataset names).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeSpec {
    /// Offload strategy.
    pub policy: PolicySpec,
    /// Static link model.
    pub link: LinkSpec,
    /// Dynamic link overlay.
    pub trace: TraceSpec,
    /// Square frame edge length in pixels.
    pub frame_px: usize,
    /// Optional per-frame latency deadline (virtual seconds).
    pub deadline_s: Option<f64>,
    /// Base seed for session RNG streams (xored with the session id).
    pub session_seed: u64,
    /// Backoff schedule — used both for traced virtual-time retransmits
    /// and for real TCP reconnects in the process runner.
    pub retry: RetryConfig,
    /// Frame encoding edges request in the handshake. `None` (and old
    /// serialized specs, which lack the field) means JSON.
    pub encoding: Option<Encoding>,
    /// Whether each edge node multiplexes all its devices' sessions over
    /// one connection instead of dialing per device. `None` (and old
    /// specs) means no.
    pub mux: Option<bool>,
}

impl Default for EdgeSpec {
    fn default() -> Self {
        EdgeSpec {
            policy: PolicySpec::Discriminator,
            link: LinkSpec::Wlan,
            trace: TraceSpec::None,
            frame_px: 96,
            deadline_s: None,
            session_seed: 0xeed5,
            retry: RetryConfig::default(),
            encoding: None,
            mux: None,
        }
    }
}

impl EdgeSpec {
    /// The wire encoding this spec asks for (JSON when unset).
    pub fn wire_encoding(&self) -> Encoding {
        self.encoding.unwrap_or_default()
    }

    /// Whether this spec asks each edge node to multiplex its devices over
    /// a single connection.
    pub fn mux_enabled(&self) -> bool {
        self.mux == Some(true)
    }
}

/// A whole deployment: one cloud node and `edges × devices_per_edge`
/// sessions over a common workload.
///
/// Not to be confused with [`smallbig_core::fleet::FleetSpec`], which
/// describes a *simulated population* for the in-process fleet engine;
/// a `DeploymentSpec` describes real nodes (processes, connections,
/// wire encodings). Both were briefly named `FleetSpec`, which made
/// every quickstart ambiguous — this one is the deployment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentSpec {
    /// Number of edge nodes (processes in the process runner).
    pub edges: usize,
    /// Devices (sessions) per edge node, driven sequentially.
    pub devices_per_edge: usize,
    /// Frames each device streams.
    pub frames_per_device: usize,
    /// Workload.
    pub split: SplitName,
    /// Base seed for per-session dataset generation.
    pub dataset_seed: u64,
    /// Cloud-node configuration.
    pub cloud: CloudSpec,
    /// Edge-device configuration.
    pub edge: EdgeSpec,
}

impl Default for DeploymentSpec {
    fn default() -> Self {
        DeploymentSpec {
            edges: 2,
            devices_per_edge: 1,
            frames_per_device: 8,
            split: SplitName::Helmet,
            dataset_seed: 0xda7a,
            cloud: CloudSpec::default(),
            edge: EdgeSpec::default(),
        }
    }
}

impl DeploymentSpec {
    /// Total sessions in the fleet.
    pub fn total_sessions(&self) -> usize {
        self.edges * self.devices_per_edge
    }

    /// The session id of device `device` on edge `edge` — the one global
    /// numbering both runners share.
    pub fn session_id(&self, edge: usize, device: usize) -> u64 {
        (edge * self.devices_per_edge + device) as u64
    }

    /// The [`SessionConfig`] for `session`, derived deterministically from
    /// the spec so every runner builds the identical session.
    pub fn session_config(&self, session: u64) -> SessionConfig {
        let (_, _, classes) = self.split.materialize();
        let (pipeline, _) = self.edge.policy.build();
        SessionConfig {
            link: self.edge.link.build(),
            frame_size: (self.edge.frame_px, self.edge.frame_px),
            seed: self.edge.session_seed ^ session,
            deadline_s: self.edge.deadline_s,
            pipeline,
            link_trace: self.edge.trace.build(),
            retry: self.edge.retry,
            ..SessionConfig::new(classes)
        }
    }

    /// Checks every field a run would otherwise trip over mid-flight: a
    /// zero count, batch or frame size, a deadline the wire cannot carry,
    /// or an out-of-range scheduler or update config.
    ///
    /// # Errors
    ///
    /// Names the first offending field, with its CLI flag where it has one.
    pub fn validate(&self) -> Result<(), String> {
        for (field, value) in [
            ("edges (--edges)", self.edges),
            ("devices_per_edge (--devices)", self.devices_per_edge),
            ("frames_per_device (--frames)", self.frames_per_device),
            ("edge.frame_px (--frame-px)", self.edge.frame_px),
        ] {
            if value == 0 {
                return Err(format!("{field} must be at least 1"));
            }
        }
        if let Some(d) = self.edge.deadline_s {
            if !(d > 0.0 && d.is_finite()) {
                return Err(format!(
                    "edge.deadline_s (--deadline-s) must be positive and finite, got {d}"
                ));
            }
        }
        // The cloud's own check, its fields named as the CLI names them.
        self.cloud.build().validate().map_err(|e| {
            for (field, flag) in [("max_batch", "--max-batch"), ("scheduler", "--scheduler")] {
                if let Some(rest) = e.strip_prefix(field) {
                    return format!("cloud.{field} ({flag}){rest}");
                }
            }
            format!("cloud.{e}")
        })
    }

    /// The dataset device `session` streams.
    pub fn dataset(&self, session: u64) -> Dataset {
        let (profile, _, _) = self.split.materialize();
        Dataset::generate(
            &format!("edge{session}"),
            &profile,
            self.frames_per_device,
            self.dataset_seed.wrapping_add(session),
        )
    }
}

// ---------------------------------------------------------------------------
// The shared device driver
// ---------------------------------------------------------------------------

/// Streams one device's frames through an established [`RemoteCloud`]
/// connection in lockstep (submit, then poll) and returns the session
/// report. Both the in-memory runner and the `edge-node` binary call this,
/// so the two paths cannot drift.
pub fn run_device_session(
    remote: &RemoteCloud,
    spec: &DeploymentSpec,
    session: u64,
) -> SessionReport {
    let data = spec.dataset(session);
    let small = spec.split.small_model();
    let (_, policy) = spec.edge.policy.build();
    let mut sess = remote.attach(spec.session_config(session), &small, policy);
    for scene in data.iter() {
        let ticket = sess.submit(scene);
        sess.poll(ticket).expect("frame resolves");
    }
    sess.drain()
}

/// Drives **all** of one edge node's device sessions interleaved over a
/// single multiplexed connection (`remote` must have negotiated
/// [`RemoteCloud::mux`]): every device attaches via
/// [`RemoteCloud::attach_as`], then the driver round-robins one frame per
/// device — all submits go out back to back before any poll, so the
/// sessions' round trips overlap on the shared socket. Each session still
/// experiences exactly the sequential driver's submit→poll order on its
/// own stream — and the cloud demuxes to one worker per session — so the
/// reports are bit-identical to [`run_device_session`] run per device over
/// dedicated connections.
///
/// Returns the reports in device order (ascending session id).
pub fn run_edge_sessions_mux(
    remote: &RemoteCloud,
    spec: &DeploymentSpec,
    edge: usize,
) -> Vec<SessionReport> {
    assert!(
        remote.mux(),
        "run_edge_sessions_mux needs a mux-negotiated connection"
    );
    let small = spec.split.small_model();
    let ids: Vec<u64> = (0..spec.devices_per_edge)
        .map(|d| spec.session_id(edge, d))
        .collect();
    let datasets: Vec<Dataset> = ids.iter().map(|&s| spec.dataset(s)).collect();
    let mut sessions = Vec::with_capacity(ids.len());
    for &session in &ids {
        let (_, policy) = spec.edge.policy.build();
        sessions.push(remote.attach_as(session, spec.session_config(session), &small, policy));
    }
    // Submit the whole fleet's frame before polling any of it: the one
    // connection carries every session's upload back to back, overlapping
    // their round trips across sessions. Within a session the driver stays
    // strictly lockstep (submit, then poll, then the next submit) — the
    // session's virtual clock models an edge that waits for each answer,
    // so a deeper per-session window would simulate a different device,
    // not just drive this one faster. Lockstep per session is exactly what
    // keeps the reports bit-identical to driving the devices one
    // connection each.
    for f in 0..spec.frames_per_device {
        let tickets: Vec<_> = sessions
            .iter_mut()
            .zip(&datasets)
            .map(|(sess, data)| sess.submit(&data.scenes()[f]))
            .collect();
        for (sess, ticket) in sessions.iter_mut().zip(tickets) {
            sess.poll(ticket).expect("frame resolves over mux");
        }
    }
    sessions.iter_mut().map(|s| s.drain()).collect()
}

// ---------------------------------------------------------------------------
// Deployment report
// ---------------------------------------------------------------------------

/// The merged outcome of a deployment run: every session's report (sorted
/// by session id) plus the cloud node's stats and fleet-wide totals.
/// (The simulated-population analogue is
/// [`smallbig_core::fleet::FleetReport`].)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentReport {
    /// Per-session reports, sorted by `session` — the bit-identity
    /// contract between runners lives here.
    pub sessions: Vec<SessionReport>,
    /// The cloud node's merged stats (wall-clock fields are run-dependent).
    pub cloud: NodeStats,
    /// Total frames across sessions.
    pub frames: usize,
    /// Total uploads across sessions.
    pub uploads: usize,
    /// Total uplink bytes across sessions.
    pub uplink_bytes: u64,
    /// Total deadline misses across sessions.
    pub deadline_misses: usize,
    /// Total traced-link fallbacks across sessions.
    pub link_fallbacks: usize,
    /// Total admission-control fallbacks across sessions.
    pub admission_fallbacks: usize,
}

impl DeploymentReport {
    /// Sorts `sessions` by id and computes the fleet totals.
    pub fn merge(mut sessions: Vec<SessionReport>, cloud: NodeStats) -> DeploymentReport {
        sessions.sort_by_key(|r| r.session);
        let mut report = DeploymentReport {
            sessions: Vec::new(),
            cloud,
            frames: 0,
            uploads: 0,
            uplink_bytes: 0,
            deadline_misses: 0,
            link_fallbacks: 0,
            admission_fallbacks: 0,
        };
        for s in &sessions {
            report.frames += s.frames;
            report.uploads += s.uploads;
            report.uplink_bytes += s.uplink_bytes;
            report.deadline_misses += s.deadline_misses;
            report.link_fallbacks += s.link_fallbacks;
            report.admission_fallbacks += s.admission_fallbacks;
        }
        report.sessions = sessions;
        report
    }

    /// Checks fleet-wide calibration-version convergence: every session
    /// must have ended the run on the newest version any cloud worker
    /// published (all zeros when the update loop is disabled).
    ///
    /// Convergence is a property of the run's shape, not of the update
    /// loop itself: a session whose final answer carried a fresh artifact
    /// never serves the frame that would apply it, so callers asserting
    /// convergence should pick an update cadence that settles before the
    /// tail of the run (see `--update-epoch-s` and
    /// `smallbig-orchestrate --assert-converged`).
    ///
    /// # Errors
    ///
    /// Returns the lagging `(session, version)` pairs if any session's
    /// active version differs from the fleet-wide newest.
    pub fn calibration_converged(&self) -> Result<u64, Vec<(u64, u64)>> {
        let newest = self.cloud.cloud.calibration_version;
        let laggards: Vec<(u64, u64)> = self
            .sessions
            .iter()
            .filter(|s| s.calibration_version != newest)
            .map(|s| (s.session, s.calibration_version))
            .collect();
        if laggards.is_empty() {
            Ok(newest)
        } else {
            Err(laggards)
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory runner
// ---------------------------------------------------------------------------

/// Runs the whole fleet in this process over the in-memory transport: one
/// serving thread (stopping after [`DeploymentSpec::total_sessions`]
/// connections), one thread per edge node, devices sequential per edge.
///
/// # Panics
///
/// Panics if any session fails — in-process the transport cannot drop, so
/// a failure is a bug, not weather. An edge thread's panic stops the
/// serving thread, which would otherwise wait for sessions that never
/// come, and goes on in the caller.
pub fn run_fleet_in_memory(spec: &DeploymentSpec) -> DeploymentReport {
    let (mut listener, connector) = memory_listener();
    let wake = listener.waker();
    let stop = AtomicBool::new(false);
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        expect_sessions: Some(spec.total_sessions()),
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(&mut listener, &cloud_cfg, &big, &opts, &stop));
        let mut edges = Vec::new();
        for e in 0..spec.edges {
            let connector = connector.clone();
            edges.push(scope.spawn(move || {
                let mut reports = Vec::new();
                for d in 0..spec.devices_per_edge {
                    let session = spec.session_id(e, d);
                    let dial = connector.clone();
                    // The reference runner always dials one connection per
                    // device (never mux), so it stays the fixed point the
                    // multiplexed process runner is compared against. It
                    // does honor the spec's encoding: reports are
                    // codec-independent, and the conformance tests pin
                    // that.
                    let conn_opts = ConnectOptions {
                        retry: spec.edge.retry,
                        dialer: Some(Box::new(move || {
                            dial.connect().map(|t| Box::new(t) as Box<dyn Transport>)
                        })),
                        encoding: spec.edge.wire_encoding(),
                        ..ConnectOptions::default()
                    };
                    let transport = connector.connect().expect("listener alive");
                    let remote = RemoteCloud::connect(Box::new(transport), session, conn_opts)
                        .expect("in-memory handshake succeeds");
                    reports.push(run_device_session(&remote, spec, session));
                    remote.close();
                }
                reports
            }));
        }
        drop(connector);
        let mut sessions = Vec::new();
        let mut panicked = None;
        for h in edges {
            match h.join() {
                Ok(reports) => sessions.extend(reports),
                Err(panic) => panicked = panicked.or(Some(panic)),
            }
        }
        if let Some(panic) = panicked {
            stop.store(true, Ordering::SeqCst);
            wake();
            // The edge's panic is the cause; the node's stats are moot.
            let _ = server.join();
            std::panic::resume_unwind(panic);
        }
        let cloud = server.join().expect("serve thread completes");
        DeploymentReport::merge(sessions, cloud)
    })
}

// ---------------------------------------------------------------------------
// Process runner
// ---------------------------------------------------------------------------

/// Line prefix the cloud node prints once bound: `LISTENING <addr>`.
pub const LINE_LISTENING: &str = "LISTENING ";
/// Line prefix an edge node prints per finished session: `REPORT <json>`.
pub const LINE_REPORT: &str = "REPORT ";
/// Line prefix an edge node prints once a session's handshake completed:
/// `CONNECTED <session>` — lets a harness time faults against real
/// connection progress.
pub const LINE_CONNECTED: &str = "CONNECTED ";
/// Line prefix the cloud node prints on exit: `STATS <json>`.
pub const LINE_STATS: &str = "STATS ";

fn proto_err(msg: impl Into<String>) -> io::Error {
    io::Error::other(msg.into())
}

/// Reads a child's stdout on a thread so the child never blocks on a full
/// pipe, forwarding lines over a channel.
fn line_reader(child: &mut Child, name: &'static str) -> io::Result<mpsc::Receiver<String>> {
    let out = child
        .stdout
        .take()
        .ok_or_else(|| proto_err(format!("{name}: stdout not piped")))?;
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    Ok(rx)
}

/// Receives every line the reader thread will ever send (the channel
/// disconnects when the child's stdout hits EOF). Call after the child
/// exited; errors if the reader stalls past `deadline`.
fn drain_lines(rx: &mpsc::Receiver<String>, deadline: Instant) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok(line) => out.push(line),
            Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(out),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "stdout reader stalled",
                ))
            }
        }
    }
}

fn kill_fleet(cloud: &mut Child, edges: &mut [Child]) {
    let _ = cloud.kill();
    for e in edges {
        let _ = e.kill();
    }
}

/// Waits for `child` until `deadline`, killing it on timeout.
fn wait_with_timeout(
    child: &mut Child,
    deadline: Instant,
    name: &str,
) -> io::Result<std::process::ExitStatus> {
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if Instant::now() >= deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("{name} did not exit in time"),
            ));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Runs the fleet as real OS processes: spawns `cloud_bin`, waits for its
/// `LISTENING` line, spawns one `edge_bin` per edge, scrapes their
/// `REPORT` lines, then collects the cloud's `STATS` line. Produces a
/// [`DeploymentReport`] whose per-session reports are bit-identical to
/// [`run_fleet_in_memory`] of the same spec.
///
/// # Errors
///
/// Fails when a child cannot be spawned, exits non-zero, breaks the line
/// protocol, or blows `timeout` (every child is killed on the way out).
pub fn run_fleet_processes(
    spec: &DeploymentSpec,
    cloud_bin: &Path,
    edge_bin: &Path,
    timeout: Duration,
) -> io::Result<DeploymentReport> {
    let deadline = Instant::now() + timeout;
    let spec_json = serde_json::to_string(spec).map_err(|e| proto_err(e.to_string()))?;

    let mut cloud = Command::new(cloud_bin)
        .args(["--listen", "127.0.0.1:0", "--spec", &spec_json])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()?;
    let cloud_lines = line_reader(&mut cloud, "cloud-node")?;

    // Wait for the cloud to bind.
    let addr = loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match cloud_lines.recv_timeout(left) {
            Ok(line) => {
                if let Some(a) = line.strip_prefix(LINE_LISTENING) {
                    break a.trim().to_string();
                }
            }
            Err(_) => {
                kill_fleet(&mut cloud, &mut []);
                return Err(proto_err("cloud-node never bound"));
            }
        }
    };

    // Spawn the edges and their readers.
    let mut edges = Vec::new();
    let mut edge_lines = Vec::new();
    for e in 0..spec.edges {
        let mut child = Command::new(edge_bin)
            .args([
                "--cloud",
                &addr,
                "--edge-index",
                &e.to_string(),
                "--spec",
                &spec_json,
            ])
            .stdout(Stdio::piped())
            .spawn()?;
        edge_lines.push(line_reader(&mut child, "edge-node")?);
        edges.push(child);
    }

    // Collect every edge's reports.
    let mut sessions: Vec<SessionReport> = Vec::new();
    for e in 0..edges.len() {
        let outcome = wait_with_timeout(&mut edges[e], deadline, &format!("edge-node {e}"))
            .and_then(|status| {
                if status.success() {
                    drain_lines(&edge_lines[e], deadline)
                } else {
                    Err(proto_err(format!("edge-node {e} exited with {status}")))
                }
            });
        let lines = match outcome {
            Ok(lines) => lines,
            Err(err) => {
                kill_fleet(&mut cloud, &mut edges);
                return Err(err);
            }
        };
        for line in lines {
            if let Some(json) = line.strip_prefix(LINE_REPORT) {
                let report: SessionReport =
                    serde_json::from_str(json).map_err(|err| proto_err(err.to_string()))?;
                sessions.push(report);
            }
        }
    }
    if sessions.len() != spec.total_sessions() {
        kill_fleet(&mut cloud, &mut edges);
        return Err(proto_err(format!(
            "expected {} session reports, saw {}",
            spec.total_sessions(),
            sessions.len()
        )));
    }

    // The cloud stops by itself after `total_sessions()` connections; the
    // stdin nudge is the belt-and-braces path if it is still serving.
    if let Some(stdin) = cloud.stdin.as_mut() {
        let _ = stdin.write_all(b"shutdown\n");
        let _ = stdin.flush();
    }
    wait_with_timeout(&mut cloud, deadline, "cloud-node")?;
    let mut stats: Option<NodeStats> = None;
    for line in drain_lines(&cloud_lines, deadline)? {
        if let Some(json) = line.strip_prefix(LINE_STATS) {
            stats = Some(serde_json::from_str(json).map_err(|err| proto_err(err.to_string()))?);
        }
    }
    let stats = stats.ok_or_else(|| proto_err("cloud-node exited without a STATS line"))?;
    Ok(DeploymentReport::merge(sessions, stats))
}

// ---------------------------------------------------------------------------
// CLI argument helper (no external parser in the vendored world)
// ---------------------------------------------------------------------------

/// A minimal `--key value` argument bag shared by the node binaries. It
/// remembers which keys were asked for, so a binary can reject the rest
/// ([`CliArgs::reject_unread`]).
#[derive(Debug, Default)]
pub struct CliArgs {
    /// `(key, value, read)` in command-line order.
    pairs: Vec<(String, String, Cell<bool>)>,
}

impl CliArgs {
    /// Parses `args` (without the program name) as `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Fails on a token that is not a `--key`, or a trailing key with no
    /// value.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CliArgs, String> {
        let mut out = CliArgs::default();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let Some(name) = key.strip_prefix("--") else {
                return Err(format!("unexpected argument `{key}` (expected --key)"));
            };
            let Some(value) = it.next() else {
                return Err(format!("--{name} is missing its value"));
            };
            out.pairs.push((name.to_string(), value, Cell::new(false)));
        }
        Ok(out)
    }

    /// The last value given for `key`, if any. Marks every occurrence of
    /// `key` as read.
    pub fn get(&self, key: &str) -> Option<&str> {
        let mut last = None;
        for (k, v, read) in &self.pairs {
            if k == key {
                read.set(true);
                last = Some(v.as_str());
            }
        }
        last
    }

    /// Call once every flag the binary understands has been read: fails
    /// naming the first flag nothing asked for, so a misspelt or retired
    /// flag is an error rather than silently ignored.
    ///
    /// # Errors
    ///
    /// `unknown flag --KEY` for the first unread key.
    pub fn reject_unread(&self) -> Result<(), String> {
        match self.pairs.iter().find(|(_, _, read)| !read.get()) {
            Some((key, _, _)) => Err(format!("unknown flag --{key}")),
            None => Ok(()),
        }
    }

    /// Parses the value for `key` with `parse`, or returns `default` when
    /// the key is absent.
    ///
    /// # Errors
    ///
    /// Fails when the key is present but `parse` rejects its value.
    pub fn get_with<T>(
        &self,
        key: &str,
        default: T,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => parse(v).ok_or_else(|| format!("invalid value for --{key}: `{v}`")),
        }
    }
}

/// Builds a [`DeploymentSpec`] from CLI arguments: `--spec JSON` (or
/// `--spec-file PATH`) wins outright; otherwise individual flags
/// (`--edges`, `--devices`, `--frames`, `--split`, `--policy`, `--link`,
/// `--trace`, `--frame-px`, `--deadline-s`, `--scheduler`,
/// `--queue-limit`, `--max-batch`, `--seed`,
/// `--dataset-seed`, `--encoding json|binary`, `--mux true|false`,
/// `--update-epoch-s SECS` — enables the cloud's calibration update loop
/// at that virtual-time cadence, default rollout policy —
/// and `--update-min-examples N`, the refit floor of an enabled loop)
/// overlay [`DeploymentSpec::default`]. Either way the result passes
/// [`DeploymentSpec::validate`].
///
/// # Errors
///
/// Fails on an unreadable spec file, malformed JSON, an invalid flag
/// value, or a spec [`DeploymentSpec::validate`] rejects.
pub fn deployment_spec_from_args(args: &CliArgs) -> Result<DeploymentSpec, String> {
    let spec = spec_from_args(args)?;
    spec.validate()
        .map_err(|e| format!("invalid fleet spec: {e}"))?;
    Ok(spec)
}

/// [`deployment_spec_from_args`] before validation.
fn spec_from_args(args: &CliArgs) -> Result<DeploymentSpec, String> {
    let json = match (args.get("spec"), args.get("spec-file")) {
        (Some(j), _) => Some(j.to_string()),
        (None, Some(path)) => {
            Some(std::fs::read_to_string(path).map_err(|e| format!("--spec-file {path}: {e}"))?)
        }
        (None, None) => None,
    };
    if let Some(json) = json {
        return serde_json::from_str(&json).map_err(|e| format!("bad fleet spec: {e}"));
    }
    let base = DeploymentSpec::default();
    Ok(DeploymentSpec {
        edges: args.get_with("edges", base.edges, |v| v.parse().ok())?,
        devices_per_edge: args.get_with("devices", base.devices_per_edge, |v| v.parse().ok())?,
        frames_per_device: args.get_with("frames", base.frames_per_device, |v| v.parse().ok())?,
        split: args.get_with("split", base.split, SplitName::parse)?,
        dataset_seed: args.get_with("dataset-seed", base.dataset_seed, |v| v.parse().ok())?,
        cloud: CloudSpec {
            seed: args.get_with("seed", base.cloud.seed, |v| v.parse().ok())?,
            max_batch: args.get_with("max-batch", base.cloud.max_batch, |v| v.parse().ok())?,
            scheduler: args.get_with("scheduler", base.cloud.scheduler, parse_scheduler)?,
            queue_limit: args.get_with("queue-limit", base.cloud.queue_limit, |v| {
                v.parse().ok().map(Some)
            })?,
            updates: {
                let updates = args.get_with("update-epoch-s", base.cloud.updates, |v| {
                    v.parse().ok().map(|epoch_s| {
                        Some(UpdateConfig {
                            epoch_s,
                            ..UpdateConfig::default()
                        })
                    })
                })?;
                match updates {
                    // `--update-min-examples` tunes the refit floor of an
                    // enabled loop (short demo runs never reach the
                    // production default of 32 pseudo-labels).
                    Some(cfg) => Some(UpdateConfig {
                        min_examples: args.get_with(
                            "update-min-examples",
                            cfg.min_examples,
                            |v| v.parse().ok(),
                        )?,
                        ..cfg
                    }),
                    None => {
                        if args.get("update-min-examples").is_some() {
                            return Err(
                                "--update-min-examples needs --update-epoch-s (or a spec with \
                                 cloud updates enabled)"
                                    .into(),
                            );
                        }
                        None
                    }
                }
            },
        },
        edge: EdgeSpec {
            policy: args.get_with("policy", base.edge.policy, PolicySpec::parse)?,
            link: args.get_with("link", base.edge.link, LinkSpec::parse)?,
            trace: args.get_with("trace", base.edge.trace, TraceSpec::parse)?,
            frame_px: args.get_with("frame-px", base.edge.frame_px, |v| v.parse().ok())?,
            deadline_s: args.get_with("deadline-s", base.edge.deadline_s, |v| {
                v.parse().ok().map(Some)
            })?,
            session_seed: base.edge.session_seed,
            retry: base.edge.retry,
            encoding: args.get_with("encoding", base.edge.encoding, |v| {
                Encoding::parse(v).map(Some)
            })?,
            mux: args.get_with("mux", base.edge.mux, |v| v.parse().ok().map(Some))?,
        },
    })
}

/// Parses the CLI scheduler spelling: `fifo`, `deadline:LOOKAHEAD` or
/// `difficulty:LOOKAHEAD`.
pub fn parse_scheduler(s: &str) -> Option<SchedulerConfig> {
    if s == "fifo" {
        return Some(SchedulerConfig::Fifo);
    }
    if let Some(rest) = s.strip_prefix("deadline:") {
        return Some(SchedulerConfig::DeadlineAware {
            lookahead: rest.parse().ok()?,
        });
    }
    if let Some(rest) = s.strip_prefix("difficulty:") {
        return Some(SchedulerConfig::DifficultyPriority {
            lookahead: rest.parse().ok()?,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_spec_round_trips_through_json() {
        let spec = DeploymentSpec {
            edges: 3,
            devices_per_edge: 2,
            cloud: CloudSpec {
                scheduler: SchedulerConfig::DeadlineAware { lookahead: 4 },
                queue_limit: Some(6),
                ..CloudSpec::default()
            },
            edge: EdgeSpec {
                policy: PolicySpec::CloudOnly,
                trace: TraceSpec::Outage {
                    start_s: 1.0,
                    duration_s: 2.5,
                },
                deadline_s: Some(0.25),
                ..EdgeSpec::default()
            },
            ..DeploymentSpec::default()
        };
        let json = serde_json::to_string(&spec).unwrap();
        let back: DeploymentSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn cli_flags_build_the_expected_spec() {
        let args = CliArgs::parse(
            [
                "--edges",
                "3",
                "--devices",
                "2",
                "--frames",
                "5",
                "--split",
                "voc07",
                "--policy",
                "cloud-only",
                "--trace",
                "outage:2,1.5",
                "--scheduler",
                "difficulty:3",
                "--queue-limit",
                "8",
            ]
            .map(String::from),
        )
        .unwrap();
        let spec = deployment_spec_from_args(&args).unwrap();
        assert_eq!(spec.edges, 3);
        assert_eq!(spec.devices_per_edge, 2);
        assert_eq!(spec.frames_per_device, 5);
        assert_eq!(spec.split, SplitName::Voc07);
        assert_eq!(spec.edge.policy, PolicySpec::CloudOnly);
        assert_eq!(
            spec.edge.trace,
            TraceSpec::Outage {
                start_s: 2.0,
                duration_s: 1.5
            }
        );
        assert_eq!(
            spec.cloud.scheduler,
            SchedulerConfig::DifficultyPriority { lookahead: 3 }
        );
        assert_eq!(spec.cloud.queue_limit, Some(8));
    }

    #[test]
    fn unread_flags_are_rejected_by_name() {
        let check = |args: &[&str]| {
            let args = CliArgs::parse(args.iter().map(|a| a.to_string()))?;
            deployment_spec_from_args(&args)?;
            args.reject_unread()
        };
        assert_eq!(check(&["--edges", "3", "--queue-limit", "2"]), Ok(()));
        let unknown = |flag: &str| Err(format!("unknown flag --{flag}"));
        assert_eq!(check(&["--workers", "4"]), unknown("workers"));
        assert_eq!(
            check(&["--edges", "3", "--queue_limit", "2"]),
            unknown("queue_limit")
        );
        // `--spec` wins outright, so no fleet flag beside it is read.
        let spec = serde_json::to_string(&DeploymentSpec::default()).unwrap();
        assert_eq!(check(&["--spec", &spec, "--edges", "3"]), unknown("edges"));
    }

    #[test]
    fn values_that_would_hang_or_crash_a_run_are_rejected_by_name() {
        let parse = |args: &[&str]| {
            deployment_spec_from_args(&CliArgs::parse(args.iter().map(|a| a.to_string()))?)
        };
        let spec_json = |f: &dyn Fn(&mut DeploymentSpec)| {
            let mut spec = DeploymentSpec::default();
            f(&mut spec);
            serde_json::to_string(&spec).unwrap()
        };
        let zero_batch = spec_json(&|s| s.cloud.max_batch = 0);
        let cases: [(&[&str], &str); 12] = [
            (&["--max-batch", "0"], "cloud.max_batch"),
            (&["--scheduler", "deadline:0"], "--scheduler"),
            (&["--scheduler", "difficulty:0"], "--scheduler"),
            (&["--frames", "0"], "frames_per_device"),
            (&["--update-epoch-s", "0"], "epoch_s"),
            (
                &["--update-epoch-s", "1", "--update-min-examples", "0"],
                "min_examples",
            ),
            (&["--deadline-s", "nan"], "edge.deadline_s"),
            (&["--deadline-s", "inf"], "edge.deadline_s"),
            (&["--edges", "0"], "edges"),
            (&["--devices", "0"], "devices_per_edge"),
            (&["--frame-px", "0"], "edge.frame_px"),
            (&["--spec", &zero_batch], "cloud.max_batch"),
        ];
        for (args, field) in cases {
            match parse(args) {
                Err(e) => assert!(e.contains(field), "{args:?}: `{e}` must name {field}"),
                Ok(_) => panic!("{args:?} must be rejected"),
            }
        }
        assert!(parse(&["--deadline-s", "0.25", "--update-epoch-s", "0.1"]).is_ok());
    }

    #[test]
    fn in_memory_fleet_sessions_are_deterministic() {
        let spec = DeploymentSpec {
            edges: 2,
            devices_per_edge: 2,
            frames_per_device: 6,
            ..DeploymentSpec::default()
        };
        let a = run_fleet_in_memory(&spec);
        let b = run_fleet_in_memory(&spec);
        assert_eq!(a.sessions, b.sessions);
        assert_eq!(a.frames, 2 * 2 * 6);
        assert_eq!(a.cloud.connections, 4);
        assert_eq!(a.cloud.aborted, 0);
        let ids: Vec<u64> = a.sessions.iter().map(|s| s.session).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }
}
