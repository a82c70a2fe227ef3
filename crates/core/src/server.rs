//! The streaming multi-edge session layer.
//!
//! The paper's deployment is one Jetson edge and one cloud server driven
//! over a whole dataset at once. Production traffic does not look like
//! that: frames arrive incrementally from many edge devices, and one cloud
//! serves them all. This module is the API for that shape:
//!
//! * [`CloudServer::spawn`] builds a cloud (big model + device model + a
//!   FIFO scheduler that batches inference across sessions) that runs on
//!   the threads of the sessions calling it.
//! * [`CloudServer::connect`] opens an [`EdgeSession`]: an edge device with
//!   its own virtual clock, link model, RNG stream and offload policy.
//! * [`EdgeSession::submit`] pushes one frame through the edge pipeline and
//!   returns a [`FrameTicket`]; difficult cases are queued to the cloud
//!   as typed messages (they become wire frames only on a transport).
//! * [`EdgeSession::poll`] blocks until a ticket's frame is resolved;
//!   [`EdgeSession::drain`] resolves everything outstanding and snapshots a
//!   [`SessionReport`].
//!
//! All time is *virtual*: latencies come from the device/link models, so a
//! run finishes at compute speed and — as long as sessions are driven from
//! one thread — is fully deterministic under a fixed seed. The legacy batch
//! entry point [`crate::run_system`] drives the same two machines for one
//! session and reproduces its historical reports exactly.
//!
//! # Degraded networks
//!
//! A session may overlay its link with a [`simnet::LinkTrace`]
//! ([`SessionConfig::link_trace`]) and the deployment may schedule faults
//! ([`CloudConfig::faults`] for cloud stalls, [`SessionConfig::drop_windows`]
//! for per-session blackouts). On a traced link the *edge* drives every
//! transfer against its virtual clock: a failed attempt (outage, drop
//! window, or a loss draw) retransmits with exponential backoff
//! ([`SessionConfig::retry`]), the time lost is accounted in
//! [`LatencyBreakdown::retransmit_s`], and a submission that can no longer
//! meet its deadline — or exhausts its retries — falls back to the edge-only
//! answer without ever reaching the cloud ([`SessionReport::link_fallbacks`]).
//! Policies can adapt: [`PolicyInput::link`] carries the observed link state
//! at each frame's arrival. Static links (`link_trace: None`) take the
//! historical zero-trace fast path and stay bit-identical to the seed
//! implementation (pinned by `tests/api_equivalence.rs`).
//!
//! # Scheduling control plane
//!
//! The cloud side is no longer a hard-coded FIFO loop: batch formation is
//! delegated to an object-safe [`Scheduler`](crate::Scheduler) — the
//! control-plane mirror of the data plane's
//! [`OffloadPolicy`](crate::OffloadPolicy). [`CloudConfig::scheduler`]
//! names one of the shipped schedulers ([`FifoBatcher`](crate::FifoBatcher)
//! stays **bit-identical** to the historical inline loop;
//! [`DeadlineAware`](crate::DeadlineAware) forms batches
//! earliest-deadline-first; [`DifficultyPriority`](crate::DifficultyPriority)
//! serves the hardest cases first, ordered by the score the offload policy
//! stamps on each uploaded frame via
//! [`OffloadPolicy::difficulty`](crate::OffloadPolicy::difficulty)), and
//! [`CloudServer::spawn_with`] accepts any custom boxed implementation.
//!
//! **Admission control** rides on the same seam: [`CloudConfig::queue_limit`]
//! bounds the cloud queue. Before spending any uplink, a session asks the
//! cloud (a zero-virtual-cost probe on the control plane); a frame
//! refused admission is served from the edge-only answer without
//! rendering, encoding or transmitting anything
//! ([`SessionReport::admission_fallbacks`]), reusing the fallback plumbing
//! the degraded-network layer introduced. Capacity itself is fixed: every
//! cloud is one machine serving one batch at a time.
//!
//! Sessions observe the control plane: every admission probe and every
//! cloud answer carries the current queue depth, surfaced to policies as
//! [`PolicyInput::cloud_queue`] so adaptive strategies can back off when
//! the cloud is saturated (see `examples/degraded_network.rs` and
//! `examples/cloud_scheduling.rs`).
//!
//! # Fleet-scale engine
//!
//! [`EdgeSession`] is a *facade*: the session's entire state — clock, RNG,
//! policy, pending frames, metrics — lives in a sans-IO `EdgeMachine`, and
//! every public method delegates through the `CloudPort` seam (here a
//! `SessionPort`: the session's id and the host it reaches its cloud
//! through; every port is monomorphized). The cloud has the same split:
//! `CloudMachine` is the whole cloud as a sans-IO machine that leaves each
//! reply, under its session's id, in one queue. A [`CloudServer`] is its
//! in-process host: the big model, the machine and an `Inbox` of replies
//! per session behind one lock its sessions share. A session's call feeds
//! the machine on the caller's thread and files the replies it produced;
//! a wait pops the session's inbox and never blocks, because every wait
//! follows the flush or probe that produced its reply. No thread and no
//! channel sits between a session and its cloud.
//!
//! That seam is what the fleet engine ([`crate::fleet`]) exploits: it
//! drives the *same* machines inline from a central virtual-time event
//! queue — no lock, no inbox, ~1 KB of state per session — so one
//! process carries 10⁵–10⁶ concurrent heterogeneous sessions over
//! sharded cloud machines, and still produces per-session reports
//! bit-identical to the same sessions on [`CloudServer`]s (pinned by
//! `tests/fleet.rs`).
//!
//! # Distributed deployment
//!
//! Everything above runs edge and cloud in one process, on the sessions'
//! threads. The [`crate::transport`] module lifts the *same* session
//! protocol onto a real byte stream:
//! [`transport::serve`](crate::transport::serve) accepts connections on
//! any [`Listener`](crate::transport::Listener) and runs one cloud machine
//! per registered session, while
//! [`RemoteCloud`](crate::transport::RemoteCloud) dials the cloud (with a
//! versioned handshake and reconnect-with-backoff) and hands back an
//! ordinary [`EdgeSession`] via
//! [`RemoteCloud::attach`](crate::transport::RemoteCloud::attach) — the
//! submit/poll/drain surface is identical, and because every session
//! already lives on its own virtual clock, a fleet of real OS processes
//! over loopback TCP produces **bit-identical** [`SessionReport`]s to the
//! in-process path (pinned by `tests/transport.rs`). The `cloud-node` and
//! `edge-node` binaries in the umbrella crate package this as runnable
//! processes, and `smallbig-orchestrate` launches and scrapes a whole
//! fleet (see `smallbig::distributed`).
//!
//! # Model-update loop
//!
//! With [`CloudConfig::updates`] set, the cloud treats every served frame
//! as a *pseudo-label*: the uploading session stamps the small model's
//! predicted count on the wire header, the big model's answer provides
//! the other half, and "big saw more than small" is exactly the paper's
//! difficulty label — no ground truth needed. Pseudo-labels accumulate in
//! served order; when a served frame's virtual arrival crosses an epoch
//! boundary ([`crate::UpdateConfig::epoch_s`]) with enough examples, the
//! cloud re-runs the paper's count/area grid search
//! ([`crate::calibrate_count_area`]) and packages the result as a
//! versioned [`crate::CalibrationUpdate`] — thresholds, a sorted
//! difficulty-score vector that re-seeds [`crate::QuantileStream`]
//! history, and the rollout policy (holdout + divergence bound).
//!
//! Rollout piggybacks the answer path: the artifact rides the session's
//! answer path as its own message kind, shared by reference, pushed
//! immediately before the next answer to any session still on an older
//! version — so a session that was offline (or simply quiet) through
//! several epochs receives the *current* artifact on its next answer, and
//! lost updates need no separate retry machinery. Edges stash the artifact
//! on receipt and apply it **atomically between frames**
//! ([`crate::OffloadPolicy::apply_calibration`]); each apply opens a
//! probation window, and if the upload fraction over that window diverges
//! from the pre-update holdout beyond the artifact's bound, the edge
//! restores its pre-apply snapshot and reverts to the last good version
//! ([`SessionReport::rollbacks`]). Everything is deterministic: epochs
//! are pure functions of virtual time, update frames cost zero virtual
//! time and zero RNG draws, and `updates: None` (the default) is
//! bit-identical to a build without the subsystem (pinned by
//! `tests/model_update.rs` and the golden suites).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use datagen::{Dataset, DatasetProfile, SplitId};
//! use modelzoo::{Detector, ModelKind, SimDetector};
//! use smallbig_core::{CloudConfig, CloudServer, DifficultCaseDiscriminator, SessionConfig};
//!
//! let data = Dataset::generate("demo", &DatasetProfile::helmet(), 12, 3);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
//! let big: Arc<dyn Detector + Send + Sync> =
//!     Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
//!
//! let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
//! let mut session = cloud.connect(
//!     SessionConfig { frame_size: (96, 96), ..SessionConfig::new(2) },
//!     &small,
//!     Box::new(DifficultCaseDiscriminator::default()),
//! );
//! for scene in data.iter() {
//!     let ticket = session.submit(scene);
//!     let result = session.poll(ticket).expect("frame resolves");
//!     assert!(result.completed_at >= 0.0);
//! }
//! let report = session.drain();
//! assert_eq!(report.frames, 12);
//! drop(session);
//! let stats = cloud.shutdown();
//! assert_eq!(stats.served, report.uploads);
//! ```

use crate::features::PREDICTION_THRESHOLD;
use crate::fleet::{MetricsMode, PoolMemo};
use crate::intmap::IntMap;
use crate::scheduler::{QueuedFrame, Scheduler, SchedulerConfig, SchedulerSlot};
use crate::strategies::{Decision, OffloadPolicy, PolicyInput};
use crate::update::{CalibrationUpdate, UpdateClient, UpdatePublisher};
use crate::ConfigError;
use datagen::Scene;
use detcore::{
    count_detected_with, ApProtocol, CountScratch, CountingConfig, DatasetCounter, GroundTruth,
    ImageDetections, MapEvaluator,
};
use imaging::{encoded_size_bytes, render, result_size_bytes};
use modelzoo::Detector;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use simnet::{
    DeviceModel, FaultPlan, LatencyBreakdown, LatencyStats, LinkAttempt, LinkModel, LinkTrace,
    RetryConfig, TimeWindow,
};
use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// How much edge compute runs (and is charged) before the offload decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EdgePipeline {
    /// Small model plus discriminator cost — the paper's deployment.
    Full,
    /// Small model cost only (edge-only baselines have no discriminator).
    ModelOnly,
    /// No edge compute charged; the small model still runs *untimed* so a
    /// local fallback result exists (cloud-only baselines).
    Bypass,
}

/// Configuration of the cloud side of a deployment.
#[derive(Debug, Clone)]
pub struct CloudConfig {
    /// Cloud device model (default: RTX3060 server).
    pub device: DeviceModel,
    /// Seed for the cloud's uplink-jitter RNG stream.
    pub seed: u64,
    /// Maximum frames fused into one big-model batch. `1` reproduces the
    /// paper's one-at-a-time serving; larger values let the FIFO scheduler
    /// batch requests that queue up across sessions.
    pub max_batch: usize,
    /// Scheduled faults. The cloud side consumes the *stall* windows: a
    /// batch that would start inside one is deferred to the window's end.
    /// Sessions consume their drop windows via
    /// [`SessionConfig::drop_windows`] (see [`FaultPlan::drops_for`]). An
    /// empty plan (the default) changes nothing.
    pub faults: FaultPlan,
    /// Which [`Scheduler`] forms big-model batches. The default
    /// ([`SchedulerConfig::Fifo`]) is bit-identical to the historical
    /// inline loop; see the module docs' *Scheduling control plane*
    /// section, or pass a custom implementation to
    /// [`CloudServer::spawn_with`].
    pub scheduler: SchedulerConfig,
    /// Admission control: the deepest the cloud queue may grow. With
    /// `Some(n)`, a session probes the cloud before spending any uplink
    /// and serves its frame edge-only when `n` or more frames' worth of
    /// work already waits ([`SessionReport::admission_fallbacks`]). The
    /// measured depth is the frames not yet in a batch *plus* the server's
    /// virtual backlog relative to the probing session, in single-frame
    /// inference units — so the limit binds on real congestion even though
    /// an eager scheduler keeps the unformed batch below `max_batch`. A
    /// strictly poll-per-frame edge never builds a backlog and is never
    /// refused. `None` (the default) admits everything and changes
    /// nothing — not even RNG draws.
    pub queue_limit: Option<usize>,
    /// The model-update loop: with `Some`, the cloud accumulates every
    /// served frame as a pseudo-label, refits discriminator thresholds on
    /// the configured virtual-time epochs, and pushes versioned
    /// [`crate::CalibrationUpdate`] artifacts to sessions over the answer
    /// path (see the module docs' *Model-update loop* section). `None`
    /// (the default) disables the loop entirely and changes nothing — not
    /// even RNG draws — so update-free runs stay bit-identical to the
    /// seed.
    pub updates: Option<crate::UpdateConfig>,
}

impl Default for CloudConfig {
    fn default() -> Self {
        CloudConfig {
            device: DeviceModel::gpu_server(),
            seed: 0x5417,
            max_batch: 1,
            faults: FaultPlan::new(),
            scheduler: SchedulerConfig::Fifo,
            queue_limit: None,
            updates: None,
        }
    }
}

impl CloudConfig {
    /// Checks every field a cloud would otherwise trip over at its first
    /// message: `max_batch` must be at least 1, and the scheduler and
    /// update configs must pass their own checks.
    ///
    /// # Errors
    ///
    /// The first offending field's refusal.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_batch < 1 {
            return Err(ConfigError::new("max_batch", "must be at least 1"));
        }
        (self.scheduler.validate()).map_err(|e| e.within("scheduler"))?;
        match &self.updates {
            Some(u) => u.validate().map_err(|e| e.within("updates")),
            None => Ok(()),
        }
    }
}

/// Configuration of one edge session.
///
/// Defaults mirror the paper's testbed (Jetson Nano over the shared WLAN,
/// 300×300 frames); construct with [`SessionConfig::new`] to set the class
/// count of the workload's taxonomy.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Edge device model (default: Jetson Nano).
    pub edge: DeviceModel,
    /// This session's uplink/downlink model (default: the paper's WLAN).
    pub link: LinkModel,
    /// Resolution at which frames are rendered/encoded for upload sizing.
    pub frame_size: (usize, usize),
    /// Fixed discriminator execution time (threshold checks are trivial).
    pub discriminator_s: f64,
    /// Seed for this session's downlink-jitter RNG stream.
    pub seed: u64,
    /// AP protocol for the session report.
    pub ap_protocol: ApProtocol,
    /// Counting thresholds for the detected-objects metric.
    pub counting: CountingConfig,
    /// Optional per-image latency deadline (see [`crate::RuntimeConfig`]).
    pub deadline_s: Option<f64>,
    /// How much edge compute runs before the decision.
    pub pipeline: EdgePipeline,
    /// Number of classes in the workload's taxonomy.
    pub num_classes: usize,
    /// Dynamic schedule overlaying [`link`](Self::link). `None` (the
    /// default) is the static fast path — bit-identical to the historical
    /// behaviour. `Some` moves transfer timing to the edge: attempts are
    /// driven against the session's virtual clock and retransmit with
    /// backoff when the trace loses them.
    pub link_trace: Option<LinkTrace>,
    /// Scheduled blackouts for *this* session (usually
    /// [`FaultPlan::drops_for`] of the deployment's plan): any traced
    /// attempt inside a window is lost deterministically. Ignored on a
    /// static link.
    pub drop_windows: Vec<TimeWindow>,
    /// Backoff schedule for traced retransmissions.
    pub retry: RetryConfig,
}

impl SessionConfig {
    /// Paper-testbed defaults for a `num_classes`-way workload.
    pub fn new(num_classes: usize) -> Self {
        SessionConfig::on(DeviceModel::jetson_nano(), LinkModel::wlan(), num_classes)
    }

    /// [`SessionConfig::new`] on a given edge device and link, without
    /// building (and dropping) the default ones.
    pub(crate) fn on(edge: DeviceModel, link: LinkModel, num_classes: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        SessionConfig {
            edge,
            link,
            frame_size: (300, 300),
            discriminator_s: 0.0004,
            seed: 0x5417,
            ap_protocol: ApProtocol::Voc07ElevenPoint,
            counting: CountingConfig::default(),
            deadline_s: None,
            pipeline: EdgePipeline::Full,
            num_classes,
            link_trace: None,
            drop_windows: Vec::new(),
            retry: RetryConfig::default(),
        }
    }

    /// Checks the frame size (an edge-only session never renders) and
    /// the retry backoff.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let (w, h) = self.frame_size;
        if w == 0 || h == 0 {
            let reason = format!("must be positive, got {w}x{h}");
            return Err(ConfigError::new("frame_size", reason));
        }
        crate::check_retry(&self.retry)
    }
}

/// Handle to one submitted frame, returned by [`EdgeSession::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FrameTicket(u64);

/// The resolved outcome of one frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameResult {
    /// The frame's ticket.
    pub ticket: FrameTicket,
    /// Whether the frame was uploaded.
    pub decision: Decision,
    /// The detections served to the application (local or cloud).
    pub dets: ImageDetections,
    /// Where the frame's latency went.
    pub breakdown: LatencyBreakdown,
    /// Virtual time at which the result became available on the edge.
    pub completed_at: f64,
    /// Whether the cloud answer missed the deadline (local fallback served).
    pub missed_deadline: bool,
    /// Whether the traced link gave up (outage/drops exhausted the retries)
    /// and the local answer was served without a completed round trip.
    pub link_fallback: bool,
    /// Whether the cloud refused the frame at admission
    /// ([`CloudConfig::queue_limit`]) and the local answer was served
    /// without any uplink being spent.
    pub admission_fallback: bool,
}

/// Everything one session measured: what [`EdgeSession::drain`] returns,
/// and what [`crate::run_system`] returns for its one session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct SessionReport {
    /// Session id assigned by the cloud server.
    pub session: u64,
    /// Frames submitted.
    pub frames: usize,
    /// Frames uploaded to the cloud.
    pub uploads: usize,
    /// End-to-end mAP (%) of the results served on the edge.
    pub map_pct: f64,
    /// Objects detected across the session.
    pub detected: usize,
    /// Ground-truth objects seen.
    pub total_gt: usize,
    /// The session's virtual clock after its last resolved frame.
    pub total_time_s: f64,
    /// Fraction of frames uploaded.
    pub upload_ratio: f64,
    /// Per-component latency totals.
    pub latency: LatencyStats,
    /// Total bytes shipped edge→cloud.
    pub uplink_bytes: u64,
    /// Uploads whose cloud answer missed the deadline.
    pub deadline_misses: usize,
    /// Frames the policy routed to the cloud but the traced link could not
    /// deliver (outage/drop retries exhausted, or the deadline made even
    /// the uplink hopeless): the edge served its local answer instead.
    /// Always zero on a static link.
    pub link_fallbacks: usize,
    /// Frames the policy routed to the cloud but the cloud refused at
    /// admission ([`CloudConfig::queue_limit`]): the edge served its local
    /// answer and spent no uplink. Always zero without a queue limit.
    pub admission_fallbacks: usize,
    /// Rollout version of the calibration in force when the session
    /// drained (`0` = the factory calibration it booted with; see the
    /// module docs' *Model-update loop* section). Always zero with
    /// [`CloudConfig::updates`] disabled.
    pub calibration_version: u64,
    /// Calibration updates the session applied over its lifetime.
    pub updates_applied: u64,
    /// Updates rolled back after a divergence trip.
    pub rollbacks: u64,
}

/// What a cloud measured over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CloudStats {
    /// Frames served by the big model.
    pub served: usize,
    /// Big-model batches executed.
    pub batches: usize,
    /// Total virtual time the server spent busy.
    pub busy_s: f64,
    /// Sessions that registered over the server's lifetime.
    pub sessions: usize,
    /// Frames refused at admission ([`CloudConfig::queue_limit`]).
    pub admission_rejects: usize,
    /// Calibration refits published by the update loop (`0` when
    /// [`CloudConfig::updates`] is disabled).
    pub updates_published: u64,
    /// Current rollout version of the published calibration (`0` before
    /// the first refit or with updates disabled).
    pub calibration_version: u64,
}

/// The wire message for one uploaded frame (edge → cloud).
///
/// The scene itself is *not* serialized: it travels alongside the header as
/// an [`Arc<Scene>`], so a submit shares the scene instead of cloning and
/// JSON-round-tripping it. Link timing is driven by `frame_bytes` (the
/// rendered camera frame), which is unaffected.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct SubmitRequest {
    pub(crate) session: u64,
    pub(crate) ticket: u64,
    /// Size of the encoded camera frame being uploaded (drives the link).
    pub(crate) frame_bytes: usize,
    /// Virtual send timestamp at the edge.
    pub(crate) sent_at: f64,
    /// Uplink transfer time, when the edge drove the transfer itself
    /// (traced links). `None` on static links: the cloud draws the uplink
    /// from its own RNG stream in arrival order, exactly as the seed
    /// implementation did.
    pub(crate) uplink_s: Option<f64>,
    /// Difficulty score the offload policy assigned to the frame
    /// ([`OffloadPolicy::difficulty`]; `0` for unscored frames). Priority
    /// schedulers order by it; the header bytes don't drive the link
    /// (`frame_bytes` does), so carrying it is timing-free.
    pub(crate) difficulty: f64,
    /// Absolute virtual deadline of the frame (`entered_at + deadline_s`)
    /// when the session has one; deadline-aware schedulers order by it.
    pub(crate) deadline_at: Option<f64>,
    /// Objects the edge's small model predicted for this frame (score ≥
    /// 0.5): the edge half of the pseudo-label the update loop derives
    /// from the big model's answer. Header bytes don't drive the link, so
    /// carrying it is timing-free.
    pub(crate) small_count: usize,
}

/// The wire message for one answer (cloud → edge).
#[derive(Debug, Serialize, Deserialize)]
pub(crate) struct SubmitResponse {
    pub(crate) ticket: u64,
    dets: ImageDetections,
    /// Virtual timestamp at which the reply left the server.
    sent_at: f64,
    /// Server-side inference time attributed to this frame.
    infer_s: f64,
    /// Uplink transfer time the request experienced.
    uplink_s: f64,
    /// Cloud queue depth when this answer's batch formed (the batch itself
    /// plus everything still waiting) — the congestion this frame actually
    /// experienced, surfaced to policies as [`PolicyInput::cloud_queue`].
    queue_depth: usize,
}

/// Control-plane reply to an admission probe (cloud → edge). Probes cost
/// no virtual time; on a socket the reply travels as this struct's frame.
#[derive(Serialize, Deserialize)]
pub(crate) struct ProbeReply {
    pub(crate) admitted: bool,
    pub(crate) queue_depth: usize,
}

/// What the cloud hands a session on its answer path. Both kinds cross the
/// seam between [`CloudMachine`] and [`EdgeMachine`] as typed values: bytes
/// exist only where a socket does ([`crate::transport`]'s node connection
/// machine encodes the machine's replies, and its client connection machine
/// decodes them on the waiting session's thread).
pub(crate) enum FromCloud {
    /// The big model's answer to one uploaded frame.
    Answer(SubmitResponse),
    /// A pushed calibration artifact, shared with every session it goes to.
    Update(Arc<CalibrationUpdate>),
}

/// One reply a [`CloudMachine`] leaves in its queue, by the session path
/// it takes: the answer path, or the probe path an admission probe
/// waits on.
pub(crate) enum Reply {
    Cloud(FromCloud),
    Probe(ProbeReply),
}

/// The replies a host holds for its sessions until each waits for them:
/// per session, the answer path and the probe path. A session's entry
/// opens at its register and goes at its deregister; a reply for a session
/// without an entry is dropped. Both hosts keep one: [`CloudServer`]'s and
/// the transport client's.
#[derive(Default)]
pub(crate) struct Inbox(IntMap<u64, (VecDeque<FromCloud>, VecDeque<ProbeReply>)>);

impl Inbox {
    /// Opens the entry of a session `msg` registers, or removes the entry
    /// (and what it held) of one `msg` deregisters.
    pub(crate) fn track(&mut self, msg: &ToCloud) {
        match *msg {
            ToCloud::Register { session, .. } => {
                self.0.entry(session).or_default();
            }
            ToCloud::Deregister { session } => {
                self.0.remove(&session);
            }
            _ => {}
        }
    }

    /// Files each reply under its session, in order.
    pub(crate) fn extend(&mut self, replies: impl IntoIterator<Item = (u64, Reply)>) {
        for (session, reply) in replies {
            if let Some((answers, probes)) = self.0.get_mut(&session) {
                match reply {
                    Reply::Cloud(msg) => answers.push_back(msg),
                    Reply::Probe(reply) => probes.push_back(reply),
                }
            }
        }
    }

    /// The oldest message on `session`'s answer path.
    pub(crate) fn answer(&mut self, session: u64) -> Option<FromCloud> {
        self.0.get_mut(&session)?.0.pop_front()
    }

    /// The oldest reply on `session`'s probe path.
    pub(crate) fn probe(&mut self, session: u64) -> Option<ProbeReply> {
        self.0.get_mut(&session)?.1.pop_front()
    }
}

/// What a session sends its cloud. A frame header travels as the typed
/// [`SubmitRequest`] (each consumer encodes for its own wire if it has
/// one); the scene rides along as a shared [`Arc`] so submitting never
/// deep-copies it.
pub(crate) enum ToCloud {
    Register {
        session: u64,
        link: LinkModel,
    },
    Frame(SubmitRequest, Arc<Scene>),
    /// Ask whether the cloud would admit one more frame right now
    /// ([`CloudConfig::queue_limit`]); answered on the probing session's
    /// probe path. `now` is the probing session's virtual clock, so the
    /// cloud can count its own virtual backlog — not just the unformed
    /// batch — against the limit.
    Probe {
        session: u64,
        now: f64,
    },
    Flush {
        session: u64,
    },
    Deregister {
        session: u64,
    },
}

impl ToCloud {
    /// The session the message comes from.
    pub(crate) fn session(&self) -> u64 {
        match *self {
            ToCloud::Register { session, .. }
            | ToCloud::Probe { session, .. }
            | ToCloud::Flush { session }
            | ToCloud::Deregister { session } => session,
            ToCloud::Frame(ref req, _) => req.session,
        }
    }
}

/// One cloud — its queue and its clocks — as a sans-IO state machine: feed
/// it [`ToCloud`] messages in arrival order, with the big model that
/// serves them, and it leaves every reply they produce, under its
/// session's id and in service order, in one queue the host empties
/// ([`CloudMachine::replies`]) after each call. The same messages give the
/// same virtual clocks, RNG stream and replies whoever drives it. The
/// machine owns its config and borrows no model, so a host may own the
/// model (`Arc`) or borrow it. Three hosts drive one, each on its caller's
/// thread: [`CloudServer`] files the queue into its sessions' [`Inbox`];
/// the transport layer's node connection machine (`ServerConn`, hosted by
/// [`crate::transport::serve_connection`] on a connection's thread) keeps
/// one machine per session and encodes what each message produced as one
/// run; and [`Inline`] (the fleet engine's shards and
/// [`crate::run_system`]) pops the reply its depth-1 drive leaves.
pub(crate) struct CloudMachine {
    config: CloudConfig,
    sched: SchedulerSlot,
    /// Each registered session's link (static links draw their uplink
    /// here).
    sessions: IntMap<u64, LinkModel>,
    /// Replies by session, in service order, until the host takes them.
    replies: VecDeque<(u64, Reply)>,
    server_free_at: f64,
    next_seq: u64,
    batch: Vec<QueuedFrame>,
    stats: CloudStats,
    /// The model-update loop's pseudo-label accumulator (`None` with
    /// [`CloudConfig::updates`] disabled — the bit-identical default).
    updates: Option<UpdatePublisher>,
    /// Rollout version last pushed to each session; a session behind the
    /// current version receives the artifact right before its next answer
    /// (which is also how a session that missed epochs catches up).
    pushed: IntMap<u64, u64>,
    /// The static links' uplink draws.
    rng: StdRng,
}

impl CloudMachine {
    /// The machine for a config its entry point checked.
    pub(crate) fn new(config: CloudConfig, sched: SchedulerSlot) -> CloudMachine {
        let rng = StdRng::seed_from_u64(config.seed ^ 0xc10d);
        CloudMachine {
            sched,
            sessions: IntMap::default(),
            replies: VecDeque::new(),
            server_free_at: 0.0,
            next_seq: 0,
            batch: Vec::new(),
            stats: CloudStats::default(),
            updates: config.updates.map(UpdatePublisher::new),
            pushed: IntMap::default(),
            config,
            rng,
        }
    }

    /// Processes one message on `big`, queueing the replies it produces.
    pub(crate) fn handle(&mut self, big: &dyn Detector, msg: ToCloud) {
        match msg {
            ToCloud::Register { session, link } => {
                self.stats.sessions += 1;
                self.sessions.insert(session, link);
            }
            ToCloud::Frame(req, scene) => {
                let link = (self.sessions.get(&req.session))
                    .expect("frames only arrive from registered sessions");
                // Traced sessions time their own uplink on the edge; static
                // sessions keep the historical cloud-side draw (and only
                // they consume this RNG stream, so mixing session kinds
                // never perturbs a static session's jitter).
                let uplink_s = req
                    .uplink_s
                    .unwrap_or_else(|| link.transfer_time(req.frame_bytes, &mut self.rng));
                let arrival = req.sent_at + uplink_s;
                let seq = self.next_seq;
                self.next_seq += 1;
                self.sched.push(QueuedFrame {
                    req,
                    scene,
                    uplink_s,
                    arrival,
                    seq,
                });
                self.dispatch_ready(big);
            }
            ToCloud::Probe { session, now } => {
                // Effective depth = frames not yet in a batch, plus the
                // server's virtual backlog relative to the probing session
                // expressed in single-frame inference units. Without the
                // backlog term an eagerly-dispatching scheduler (FIFO
                // drains at `max_batch`) would cap the observable depth at
                // `max_batch - 1` and any larger limit could never bind,
                // even with the server minutes behind in virtual time.
                let infer_s = self.config.device.inference_time(big.flops());
                let backlog = if infer_s > 0.0 {
                    ((self.server_free_at - now).max(0.0) / infer_s) as usize
                } else {
                    0
                };
                let queue_depth = self.sched.len() + backlog;
                let admitted = self.config.queue_limit.is_none_or(|n| queue_depth < n);
                if !admitted {
                    self.stats.admission_rejects += 1;
                }
                // A session that hung up just loses its reply.
                if self.sessions.contains_key(&session) {
                    let reply = ProbeReply {
                        admitted,
                        queue_depth,
                    };
                    self.replies.push_back((session, Reply::Probe(reply)));
                }
            }
            // The session id exists for the transport layer to route
            // flushes on multiplexed connections; a machine owning one
            // queue drains everything regardless of which session asked.
            ToCloud::Flush { session: _ } => self.drain(big),
            ToCloud::Deregister { session } => {
                // Resolve anything queued (possibly other sessions' frames,
                // whose replies stay under their own ids — cheaper than
                // per-session bookkeeping, and deterministic).
                self.drain(big);
                self.sessions.remove(&session);
            }
        }
    }

    /// Serves everything queued (a flush, a deregister, the host's final
    /// drain when its sessions are gone or it shuts down), one batch at a
    /// time, in the scheduler's service order. After the final drain, take
    /// its replies, then call [`CloudMachine::finish`].
    pub(crate) fn drain(&mut self, big: &dyn Detector) {
        while !self.sched.is_empty() && self.process_one_batch(big) > 0 {}
    }

    /// The replies queued since the host last emptied the queue, each
    /// under its session's id, in service order.
    pub(crate) fn replies(&mut self) -> std::collections::vec_deque::Drain<'_, (u64, Reply)> {
        self.replies.drain(..)
    }

    /// The machine's stats, once its host is done with it.
    pub(crate) fn finish(self) -> CloudStats {
        self.stats
    }

    /// Forms and serves one batch on `big` (a no-op on an empty queue).
    /// Returns the number of frames served.
    fn process_one_batch(&mut self, big: &dyn Detector) -> usize {
        self.sched
            .take_batch(self.config.max_batch, &mut self.batch);
        if self.batch.is_empty() {
            return 0;
        }
        let n = self.batch.len();
        let latest_arrival = self
            .batch
            .iter()
            .map(|q| q.arrival)
            .fold(f64::MIN, f64::max);
        // A scheduled stall defers the batch to the window's end; an empty
        // fault plan leaves the start untouched (the bit-identical path).
        let formed_at = self.server_free_at.max(latest_arrival);
        let start = self.config.faults.next_available(formed_at);
        // Depth *at formation*: what this batch's frames actually queued
        // behind (a post-batch depth would read 0 after every flush and
        // tell adaptive policies nothing).
        let queue_depth = n + self.sched.len();
        let batch_s = self.config.device.batch_inference_time(big.flops(), n);
        self.server_free_at = start + batch_s;
        self.stats.batches += 1;
        self.stats.busy_s += batch_s;
        let per_frame_infer = batch_s / n as f64;
        for q in self.batch.drain(..) {
            let dets = big.detect(&q.scene);
            self.stats.served += 1;
            if let Some(publisher) = &mut self.updates {
                // The big model's answer against the edge's reported small
                // count is exactly the paper's difficulty label — a free
                // pseudo-label per served frame.
                let n_big = dets.count_above(crate::PREDICTION_THRESHOLD);
                let example = crate::LabeledExample {
                    scene_id: q.scene.id,
                    true_count: q.scene.num_objects(),
                    true_min_area: q.scene.min_area_ratio(),
                    features: crate::SemanticFeatures::extract(&dets, 0.2),
                    label: if n_big > q.req.small_count {
                        crate::CaseKind::Difficult
                    } else {
                        crate::CaseKind::Easy
                    },
                };
                publisher.observe(example, q.req.difficulty, q.arrival);
                self.stats.updates_published = publisher.published;
                self.stats.calibration_version = publisher.version();
            }
            let resp = SubmitResponse {
                ticket: q.req.ticket,
                dets,
                sent_at: self.server_free_at,
                infer_s: per_frame_infer,
                uplink_s: q.uplink_s,
                queue_depth,
            };
            // A session that hung up just loses its reply.
            let session = q.req.session;
            if self.sessions.contains_key(&session) {
                // A session behind the current calibration gets the
                // artifact pushed right before its answer (same virtual
                // instant, zero extra draws).
                if let Some(update) = self.updates.as_ref().and_then(|p| p.current()) {
                    let pushed = self.pushed.entry(session).or_insert(0);
                    if *pushed < update.version {
                        *pushed = update.version;
                        let update = FromCloud::Update(Arc::clone(update));
                        self.replies.push_back((session, Reply::Cloud(update)));
                    }
                }
                let answer = FromCloud::Answer(resp);
                self.replies.push_back((session, Reply::Cloud(answer)));
            }
        }
        n
    }

    /// Dispatches as long as the scheduler reports a batch is due. The
    /// progress guard means a scheduler that says "ready" but yields no
    /// frames stops the round instead of spinning.
    fn dispatch_ready(&mut self, big: &dyn Detector) {
        while self.sched.ready(self.config.max_batch) && self.process_one_batch(big) > 0 {}
    }
}

/// The inline [`CloudPort`]: a [`CloudMachine`] and the big model it
/// runs, on the caller's stack. `send` *is* the cloud's message handler, so
/// a "blocking receive" is popping the reply the handler queued on the same
/// call stack. Never actually blocks — depth-1 driving guarantees every
/// recv follows the send that produced its reply, and that the queue holds
/// only the driven session's replies.
pub(crate) struct Inline<'a> {
    pub(crate) machine: CloudMachine,
    pub(crate) big: &'a dyn Detector,
}

impl CloudPort for Inline<'_> {
    fn send(&mut self, msg: ToCloud) -> bool {
        self.machine.handle(self.big, msg);
        true
    }

    fn recv_answer(&mut self) -> Option<FromCloud> {
        match self.machine.replies.pop_front()? {
            (_, Reply::Cloud(msg)) => Some(msg),
            (_, Reply::Probe(_)) => unreachable!("a probe reply is taken by its probe"),
        }
    }

    fn recv_probe(&mut self) -> Option<ProbeReply> {
        match self.machine.replies.pop_front()? {
            (_, Reply::Probe(reply)) => Some(reply),
            (_, Reply::Cloud(_)) => unreachable!("depth-1 driving owes nothing before a probe"),
        }
    }
}

/// The in-process host of one [`CloudMachine`]: the big model, the machine
/// and its sessions' [`Inbox`]. Every call runs on the calling session's
/// thread, under [`Local`]'s lock.
pub(crate) struct LocalHost {
    big: Arc<dyn Detector + Send + Sync>,
    /// `None` once the cloud shut down, or once the big model panicked.
    machine: Option<CloudMachine>,
    inbox: Inbox,
}

impl LocalHost {
    /// Feeds the machine one message and files the replies it produced;
    /// `false` when the cloud is gone. A big model that panics is caught
    /// here, as `serve_connection` catches it: the machine is dropped, so
    /// every later send fails and waits return what the inbox holds, then
    /// `None`.
    pub(crate) fn send(&mut self, msg: ToCloud) -> bool {
        let LocalHost {
            big,
            machine: Some(m),
            inbox,
        } = self
        else {
            return false;
        };
        inbox.track(&msg);
        let handled = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.handle(&**big, msg);
        }));
        if handled.is_err() {
            self.machine = None;
            return false;
        }
        inbox.extend(m.replies());
        true
    }
}

/// A [`LocalHost`] shared by its [`CloudServer`] and sessions, run under
/// the lock.
pub(crate) struct Local(Mutex<LocalHost>);

impl Local {
    /// Locks the host. A panic under the lock leaves it valid (the model
    /// runs behind `catch_unwind`, or after the machine is taken out), so
    /// a poisoned lock is taken as it is.
    pub(crate) fn host(&self) -> std::sync::MutexGuard<'_, LocalHost> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// An in-process cloud accepting any number of edge sessions. It has no
/// thread of its own: each session's call runs the cloud on the caller's
/// thread, and sessions on several threads take turns at one lock. The
/// cloud is a pure function of the order its messages arrive in (uplink
/// jitter is drawn per frame in arrival order, and schedulers draw no
/// randomness): drive every session from one thread and the run is
/// reproducible.
pub struct CloudServer {
    local: Arc<Local>,
    next_session: u64,
    /// Whether sessions must probe for admission before uploading
    /// ([`CloudConfig::queue_limit`]).
    admission: bool,
}

impl CloudServer {
    /// Builds the cloud with the scheduler named by
    /// [`CloudConfig::scheduler`]. The default FIFO runs on the
    /// monomorphized fast path (no virtual dispatch per frame).
    ///
    /// # Panics
    ///
    /// Panics with `invalid cloud config:` and [`CloudConfig::validate`]'s
    /// refusal.
    pub fn spawn(config: CloudConfig, big: Arc<dyn Detector + Send + Sync>) -> CloudServer {
        crate::expect_valid(config.validate(), "cloud config");
        let sched = SchedulerSlot::from_config(&config.scheduler);
        CloudServer::spawn_slot(config, big, sched)
    }

    /// Builds the cloud with a custom [`Scheduler`] — the control-plane
    /// extension point ([`CloudConfig::scheduler`] is ignored in favour of
    /// `scheduler`).
    ///
    /// # Panics
    ///
    /// As [`CloudServer::spawn`].
    pub fn spawn_with(
        config: CloudConfig,
        big: Arc<dyn Detector + Send + Sync>,
        scheduler: Box<dyn Scheduler>,
    ) -> CloudServer {
        crate::expect_valid(config.validate(), "cloud config");
        CloudServer::spawn_slot(config, big, SchedulerSlot::Custom(scheduler))
    }

    fn spawn_slot(
        config: CloudConfig,
        big: Arc<dyn Detector + Send + Sync>,
        scheduler: SchedulerSlot,
    ) -> CloudServer {
        let admission = config.queue_limit.is_some();
        let host = LocalHost {
            big,
            machine: Some(CloudMachine::new(config, scheduler)),
            inbox: Inbox::default(),
        };
        CloudServer {
            local: Arc::new(Local(Mutex::new(host))),
            next_session: 0,
            admission,
        }
    }

    /// Opens a new edge session against this cloud.
    ///
    /// `small` is the session's edge model and `policy` its offload
    /// strategy; both may borrow (sessions just have to be dropped before
    /// [`CloudServer::shutdown`]).
    ///
    /// Note: [`Policy`](crate::Policy)'s quantile baselines are batch-only
    /// and panic if boxed directly as a streaming policy — pass
    /// [`Policy::into_stream()`](crate::Policy::into_stream) instead, which
    /// converts them to their online-quantile form.
    ///
    /// # Panics
    ///
    /// Panics with `invalid session config:` and the [`ConfigError`] of an
    /// invalid `config`, which registers nothing.
    pub fn connect<'a>(
        &mut self,
        config: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
    ) -> EdgeSession<'a> {
        let id = self.next_session;
        self.next_session += 1;
        self.connect_as(id, config, small, policy)
    }

    /// Like [`CloudServer::connect`] but with an explicit session id — the
    /// in-process twin of
    /// [`RemoteCloud::attach_as`](crate::transport::RemoteCloud::attach_as),
    /// so a reference run can mirror the ids a transport fleet uses. Does
    /// not advance the auto-assigned counter; ids must be unique per
    /// server. Panics as [`CloudServer::connect`] does.
    pub fn connect_as<'a>(
        &mut self,
        session: u64,
        config: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
    ) -> EdgeSession<'a> {
        let uplink = Uplink::Local(Arc::clone(&self.local));
        EdgeSession::attach(session, config, small, policy, uplink, self.admission)
    }

    /// Serves every queued frame, files the answers in the sessions'
    /// inboxes and returns the cloud's stats. Sessions still open can poll
    /// or drain what was answered; nothing they send reaches the cloud.
    ///
    /// # Panics
    ///
    /// Panics when the big model panicked earlier (its sessions failed
    /// then), or panics now.
    pub fn shutdown(self) -> CloudStats {
        let mut host = self.local.host();
        let mut m = (host.machine.take()).expect("the cloud's big model panicked");
        m.drain(&*host.big);
        host.inbox.extend(m.replies());
        m.finish()
    }
}

/// A frame uploaded and awaiting its cloud answer. The scene is the `Arc`
/// already shared with the cloud; the frame is scored against it when it
/// resolves.
struct PendingUpload {
    entered_at: f64,
    sent_at: f64,
    breakdown: LatencyBreakdown,
    local_dets: ImageDetections,
    scene: Arc<Scene>,
}

/// How an edge state machine reaches its cloud: the seam that lets the
/// *same* per-session logic run against a host (the [`EdgeSession`]
/// facade's [`SessionPort`]) or inline against a [`CloudMachine`] (the
/// fleet engine's event-driven core and [`crate::run_system`]). Each
/// implementation is monomorphized into [`EdgeMachine`]'s methods.
pub(crate) trait CloudPort {
    /// Delivers one message to the cloud; `false` when the cloud is gone.
    fn send(&mut self, msg: ToCloud) -> bool;
    /// The next answer routed to this session; `None` once the cloud is
    /// gone and its buffered answers are exhausted.
    fn recv_answer(&mut self) -> Option<FromCloud>;
    /// The reply to the admission probe just sent (probes are strictly
    /// request/reply); `None` when the cloud is gone.
    fn recv_probe(&mut self) -> Option<ProbeReply>;
}

/// The host an [`EdgeSession`] reaches its cloud through. Both run on the
/// session's own thread and keep its replies in an [`Inbox`].
pub(crate) enum Uplink {
    /// A [`CloudServer`]'s in-process host.
    Local(Arc<Local>),
    /// A transport connection's host:
    /// [`RemoteCloud::attach`](crate::transport::RemoteCloud::attach).
    Wire(Arc<crate::transport::Wire>),
}

/// An [`EdgeSession`]'s [`CloudPort`]: its host, and the session whose
/// inbox it waits on. In process, a wait pops the inbox; over a wire, the
/// waiting thread itself writes what the connection has buffered and reads
/// until its reply is filed.
pub(crate) struct SessionPort {
    uplink: Uplink,
    session: u64,
}

impl CloudPort for SessionPort {
    fn send(&mut self, msg: ToCloud) -> bool {
        match &self.uplink {
            Uplink::Local(local) => local.host().send(msg),
            Uplink::Wire(wire) => wire.host().send(msg),
        }
    }

    // In process, the reply is already filed: a session waits only after
    // the flush or probe that produced it.
    fn recv_answer(&mut self) -> Option<FromCloud> {
        match &self.uplink {
            Uplink::Local(local) => local.host().inbox.answer(self.session),
            Uplink::Wire(wire) => wire.host().wait(|inbox| inbox.answer(self.session)),
        }
    }

    fn recv_probe(&mut self) -> Option<ProbeReply> {
        match &self.uplink {
            Uplink::Local(local) => local.host().inbox.probe(self.session),
            Uplink::Wire(wire) => wire.host().wait(|inbox| inbox.probe(self.session)),
        }
    }
}

/// One edge device streaming frames against a [`CloudServer`].
///
/// The session owns a virtual clock, an RNG stream for downlink jitter, and
/// running quality/latency accounting. Frames resolve either locally at
/// [`submit`](Self::submit) time or when [`poll`](Self::poll) /
/// [`drain`](Self::drain) absorbs the cloud's answer.
///
/// Internally the session is a thin facade: all of the above state lives in
/// an `EdgeMachine` — a compact, sans-IO state machine — wired here to a
/// `SessionPort`: a [`CloudServer`] whose machine this session's thread
/// runs, or a [`RemoteCloud`](crate::transport::RemoteCloud) connection
/// whose socket this session's thread writes and reads. The fleet engine
/// ([`crate::fleet`]) drives the same machines inline against sharded
/// `CloudMachine`s, which is how one process carries 10⁵–10⁶ concurrent
/// sessions without a facade, a lock or an inbox per session; the reports
/// are the same, bit for bit.
pub struct EdgeSession<'a> {
    m: EdgeMachine<'a>,
    port: SessionPort,
}

/// The per-session state machine behind [`EdgeSession`] (and the unit the
/// fleet engine schedules): everything a session owns *except* the
/// transport it reaches its cloud through — that arrives per call as a
/// [`CloudPort`].
pub(crate) struct EdgeMachine<'a> {
    id: u64,
    cfg: SessionConfig,
    small: &'a (dyn Detector + Sync),
    policy: Box<dyn OffloadPolicy + 'a>,
    /// Whether the cloud enforces a queue limit: uploads then probe for
    /// admission before spending the uplink. `false` sends no probes at
    /// all — the bit-identical path.
    admission: bool,
    /// Cloud queue depth last observed (from probes and answer headers);
    /// surfaced to the policy as [`PolicyInput::cloud_queue`].
    last_cloud_queue: Option<usize>,
    rng: StdRng,
    now: f64,
    metrics: SessionMetrics,
    latency: LatencyStats,
    uplink_bytes: u64,
    deadline_misses: usize,
    link_fallbacks: usize,
    admission_fallbacks: usize,
    uploads: usize,
    frames: usize,
    next_ticket: u64,
    pending: IntMap<u64, PendingUpload>,
    done: IntMap<u64, FrameResult>,
    /// Optional run-wide memo (the fleet engine's [`PoolMemo`]): a pool
    /// scene's encoded bytes at the run's frame size, and a compact
    /// session's count of either model's detections of it, are computed
    /// once per run and read without a lock after that, by every session
    /// on every shard worker. Both are pure functions, so the memo only
    /// skips recomputing them; a scene outside the pools, a different frame
    /// size or counting config, or detections no model produced compute as
    /// without it. `None` (every other deployment) computes per frame
    /// exactly as before.
    pool_memo: Option<&'a PoolMemo>,
    /// Edge half of the model-update loop: stash → apply-between-frames →
    /// probation → rollback. Inert (and cost-free) unless the cloud
    /// actually pushes updates.
    updates: UpdateClient,
}

/// Encoded upload size of `scene` at `frame_size`: render + entropy-model
/// encode, the cost every uploaded frame is charged on the link.
pub(crate) fn encoded_upload_bytes(scene: &Scene, (w, h): (usize, usize)) -> usize {
    encoded_size_bytes(&render(&scene.render_spec(w, h)))
}

/// Working buffers for scoring one frame: the counting scratch and the
/// ground-truth staging vector. Every use clears them first
/// ([`count_detected_with`] and `ground_truths_into` do), so which session
/// or frame used them last cannot change a result.
#[derive(Default)]
struct FrameScratch {
    count: CountScratch,
    gts: Vec<GroundTruth>,
}

thread_local! {
    /// One [`FrameScratch`] per thread, shared by every session that thread
    /// scores a frame for: no session retains per-frame capacity, and no
    /// lock is taken.
    static FRAME_SCRATCH: RefCell<FrameScratch> = RefCell::default();
}

/// How a session accumulates quality metrics: a running count of
/// detected objects and, in [`MetricsMode::Full`], a [`MapEvaluator`]
/// over every served frame, which [`SessionReport::map_pct`] is computed
/// from. [`MetricsMode::Compact`] is the fleet engine's memory mode: the
/// evaluator (detection records, match scratch — multiple KB per live
/// session) is dropped because [`crate::fleet::FleetReport`] never reads
/// mAP. The counting metric is an exact integer sum in both modes, so a
/// compact fleet report is bit-identical to a full one.
struct SessionMetrics {
    /// Boxed so a compact fleet's [`EdgeMachine`]s don't carry the
    /// evaluator's footprint inline.
    map: Option<Box<MapEvaluator>>,
    counter: DatasetCounter,
}

impl SessionMetrics {
    fn new(mode: MetricsMode, cfg: &SessionConfig) -> SessionMetrics {
        let map = || Box::new(MapEvaluator::new(cfg.num_classes, cfg.ap_protocol));
        SessionMetrics {
            map: (mode == MetricsMode::Full).then(map),
            counter: DatasetCounter::new(),
        }
    }

    /// Folds one served frame into the session's quality metrics. A
    /// compact session reads the frame's count from the run's pool memo
    /// when the memo holds it ([`PoolMemo::count`]); every other frame is
    /// scored against the scene's ground truths here.
    fn record(
        &mut self,
        dets: &ImageDetections,
        scene: &Scene,
        counting: &CountingConfig,
        memo: Option<&PoolMemo>,
    ) {
        let memoised = memo.filter(|_| self.map.is_none());
        let memoised = memoised.and_then(|memo| memo.count(scene, dets, counting));
        let count = memoised.unwrap_or_else(|| {
            FRAME_SCRATCH.with_borrow_mut(|s| {
                scene.ground_truths_into(&mut s.gts);
                if let Some(map) = &mut self.map {
                    map.add_image(dets, &s.gts);
                }
                count_detected_with(dets, &s.gts, counting, &mut s.count)
            })
        });
        self.counter.add(count);
    }

    /// End-to-end mAP (%) of the served results; `0` in compact mode,
    /// which keeps no mAP state (nothing downstream of the fleet's
    /// aggregate path reads it).
    fn map_pct(&self) -> f64 {
        self.map
            .as_ref()
            .map_or(0.0, |map| map.evaluate().map_percent())
    }
}

/// How a frame was settled, beyond the detections served: the fallbacks
/// a [`FrameResult`] flags, or none of them.
enum Outcome {
    /// The answer the decision planned: the local one, or the cloud's in
    /// time.
    Served(Decision),
    /// The cloud's answer missed the deadline; the local one is served.
    DeadlineMiss,
    /// The traced link gave up before a round trip completed; the local
    /// answer is served. `missed_deadline` when the deadline, not the
    /// retry budget, made it give up.
    LinkFallback { missed_deadline: bool },
    /// The cloud refused the frame at admission; no uplink was spent.
    AdmissionFallback,
}

/// How a traced transfer ended after retransmissions.
enum TransferOutcome {
    /// The payload got through: the successful attempt started at `at`
    /// (after `waited_s` of backoff since the first try) and took
    /// `duration_s` on the wire.
    Sent {
        at: f64,
        duration_s: f64,
        waited_s: f64,
    },
    /// The edge gave up at virtual time `at` and serves its local answer.
    /// `missed_deadline` distinguishes a deadline-driven abort from
    /// exhausted retries.
    GaveUp { at: f64, missed_deadline: bool },
}

/// Drives one payload through a traced link against the session's virtual
/// clock: attempts at `start_at`, retransmitting with exponential backoff
/// while the trace (or a drop window) loses them. Gives up when the retry
/// budget runs out, or — with a deadline — as soon as even the transfer
/// alone could no longer meet it (in which case no bytes ever leave the
/// edge, so a total outage involves the cloud not at all).
#[allow(clippy::too_many_arguments)]
fn traced_transfer(
    trace: &LinkTrace,
    link: &LinkModel,
    drop_windows: &[TimeWindow],
    retry: &RetryConfig,
    deadline_s: Option<f64>,
    bytes: usize,
    start_at: f64,
    entered_at: f64,
    rng: &mut StdRng,
) -> TransferOutcome {
    let mut t = start_at;
    let mut attempt: u32 = 0;
    loop {
        let blocked = drop_windows.iter().any(|w| w.contains(t));
        let result = if blocked {
            // A drop window blackholes the attempt deterministically —
            // like an outage, no randomness is drawn.
            LinkAttempt::Outage
        } else {
            trace.attempt_at(link, bytes, t, rng)
        };
        if let LinkAttempt::Sent(duration_s) = result {
            if let Some(deadline) = deadline_s {
                if t + duration_s - entered_at > deadline {
                    // Even the transfer alone misses the deadline: give up
                    // at the deadline without transmitting.
                    return TransferOutcome::GaveUp {
                        at: (entered_at + deadline).max(start_at),
                        missed_deadline: true,
                    };
                }
            }
            return TransferOutcome::Sent {
                at: t,
                duration_s,
                waited_s: t - start_at,
            };
        }
        attempt += 1;
        if attempt > retry.max_retries {
            return TransferOutcome::GaveUp {
                at: t,
                missed_deadline: false,
            };
        }
        let next = t + retry.backoff_s(attempt);
        if let Some(deadline) = deadline_s {
            if next - entered_at > deadline {
                return TransferOutcome::GaveUp {
                    at: (entered_at + deadline).max(t),
                    missed_deadline: true,
                };
            }
        }
        t = next;
    }
}

impl<'a> EdgeSession<'a> {
    pub(crate) fn attach(
        id: u64,
        cfg: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
        uplink: Uplink,
        admission: bool,
    ) -> EdgeSession<'a> {
        crate::expect_valid(cfg.validate(), "session config");
        let link = cfg.link.clone();
        let m = EdgeMachine::new(id, cfg, small, policy, admission, MetricsMode::Full);
        let mut port = SessionPort {
            uplink,
            session: id,
        };
        let register = ToCloud::Register { session: id, link };
        assert!(port.send(register), "cloud server alive");
        EdgeSession { m, port }
    }

    /// The session id assigned by the cloud server.
    pub fn id(&self) -> u64 {
        self.m.id()
    }

    /// The session's virtual clock.
    pub fn now(&self) -> f64 {
        self.m.now()
    }

    /// Frames submitted but not yet resolved.
    pub fn outstanding(&self) -> usize {
        self.m.outstanding()
    }

    /// The offload policy's name (for reports). Borrowed for policies with
    /// static names; no allocation per call in that case.
    pub fn policy_name(&self) -> Cow<'static, str> {
        self.m.policy_name()
    }

    /// Cloud queue depth this session last observed (from admission probes
    /// and answer headers), or `None` before any cloud interaction. The
    /// same signal policies receive as [`PolicyInput::cloud_queue`].
    pub fn observed_cloud_queue(&self) -> Option<usize> {
        self.m.observed_cloud_queue()
    }

    /// Advances the session's virtual clock to `t` (a no-op when the clock
    /// is already past it). This is how inter-frame idle time is modelled:
    /// a camera that captures a frame every 500 ms calls
    /// `advance_to(n as f64 * 0.5)` before the n-th submit. Never moves
    /// the clock backwards, so it cannot perturb any existing accounting.
    pub fn advance_to(&mut self, t: f64) {
        self.m.advance_to(t);
    }

    /// Pushes one frame through the edge pipeline.
    ///
    /// Easy cases resolve immediately; difficult cases are rendered,
    /// serialized and queued to the cloud, and resolve on a later
    /// [`poll`](Self::poll) or [`drain`](Self::drain).
    ///
    /// An uploaded scene is cloned once into an [`Arc`]; callers that
    /// already hold scenes behind an `Arc` can avoid even that with
    /// [`submit_shared`](Self::submit_shared).
    pub fn submit(&mut self, scene: &Scene) -> FrameTicket {
        self.m.submit_inner(&mut self.port, scene, None)
    }

    /// [`submit`](Self::submit) for a scene already behind an [`Arc`]:
    /// uploads share the existing allocation instead of cloning the scene.
    ///
    /// Identical to `submit(&scene)` in every observable way (decisions,
    /// timing, reports).
    pub fn submit_shared(&mut self, scene: &Arc<Scene>) -> FrameTicket {
        self.m.submit_inner(&mut self.port, scene, Some(scene))
    }

    /// Blocks until the given frame is resolved and returns its result.
    ///
    /// Returns `None` for tickets this session never issued or whose result
    /// was already taken. Polling a pending ticket flushes the cloud
    /// scheduler so queued partial batches make progress. Answers the cloud
    /// delivered before shutting down are still absorbed after
    /// [`CloudServer::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics if the frame can no longer be resolved because the cloud
    /// server shut down before answering it.
    pub fn poll(&mut self, ticket: FrameTicket) -> Option<FrameResult> {
        self.m.poll(&mut self.port, ticket)
    }

    /// Resolves every outstanding frame and snapshots the session report.
    ///
    /// The session stays usable afterwards — `drain` is "flush plus
    /// report", not a close. Per-frame results not yet taken with
    /// [`poll`](Self::poll) are discarded here (their metrics are already
    /// folded into the report), so a long-lived session that only ever
    /// submits and periodically drains holds bounded memory.
    ///
    /// # Panics
    ///
    /// Panics if outstanding frames can no longer be resolved because the
    /// cloud server shut down before answering them.
    pub fn drain(&mut self) -> SessionReport {
        self.m.drain(&mut self.port)
    }
}

impl<'a> EdgeMachine<'a> {
    /// Builds the session state machine. The caller owns registration:
    /// a `ToCloud::Register` for `id` must reach the cloud (through
    /// whatever port this machine will be driven with) before the first
    /// submit. `metrics` picks the session's quality bookkeeping (see
    /// [`SessionMetrics`]); only the fleet engine asks for compact. Its
    /// entry point checked `cfg`.
    pub(crate) fn new(
        id: u64,
        cfg: SessionConfig,
        small: &'a (dyn Detector + Sync),
        policy: Box<dyn OffloadPolicy + 'a>,
        admission: bool,
        metrics: MetricsMode,
    ) -> EdgeMachine<'a> {
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0xed6e);
        let metrics = SessionMetrics::new(metrics, &cfg);
        EdgeMachine {
            id,
            cfg,
            small,
            policy,
            admission,
            last_cloud_queue: None,
            rng,
            now: 0.0,
            metrics,
            latency: LatencyStats::new(),
            uplink_bytes: 0,
            deadline_misses: 0,
            link_fallbacks: 0,
            admission_fallbacks: 0,
            uploads: 0,
            frames: 0,
            next_ticket: 0,
            pending: IntMap::default(),
            done: IntMap::default(),
            pool_memo: None,
            updates: UpdateClient::new(),
        }
    }

    /// Installs the run's pool memo (fleet engine only); see
    /// [`EdgeMachine::pool_memo`].
    pub(crate) fn set_pool_memo(&mut self, memo: &'a PoolMemo) {
        self.pool_memo = Some(memo);
    }

    /// Encoded upload size of this frame, read from the run's memo when one
    /// is installed. Bit-identical either way — `render` is deterministic,
    /// so the memo only skips recomputing a pure function.
    fn upload_size(&self, scene: &Scene) -> usize {
        match self.pool_memo {
            Some(memo) => memo.upload_bytes(scene, self.cfg.frame_size),
            None => encoded_upload_bytes(scene, self.cfg.frame_size),
        }
    }

    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    pub(crate) fn now(&self) -> f64 {
        self.now
    }

    pub(crate) fn outstanding(&self) -> usize {
        self.pending.len()
    }

    pub(crate) fn policy_name(&self) -> Cow<'static, str> {
        self.policy.name()
    }

    pub(crate) fn observed_cloud_queue(&self) -> Option<usize> {
        self.last_cloud_queue
    }

    pub(crate) fn advance_to(&mut self, t: f64) {
        self.now = self.now.max(t);
    }

    pub(crate) fn submit_inner<P: CloudPort>(
        &mut self,
        port: &mut P,
        scene: &Scene,
        shared: Option<&Arc<Scene>>,
    ) -> FrameTicket {
        // Stashed calibration updates apply here, between frames: the
        // previous frame's decision used the old state end to end, this
        // frame's uses the new one. The snapshot taken just before the
        // apply is what a divergence trip rolls back to.
        if let Some(update) = self.updates.take_pending() {
            let fallback = self.policy.calibration_snapshot();
            if self.policy.apply_calibration(&update) {
                self.updates.note_applied(&update, fallback);
            }
        }

        let ticket = FrameTicket(self.next_ticket);
        self.next_ticket += 1;
        self.frames += 1;

        let mut breakdown = LatencyBreakdown::default();
        let dets = self.small.detect(scene);
        match self.cfg.pipeline {
            EdgePipeline::Full => {
                breakdown.edge_infer_s = self.cfg.edge.inference_time(self.small.flops());
                breakdown.discriminator_s = self.cfg.discriminator_s;
            }
            EdgePipeline::ModelOnly => {
                breakdown.edge_infer_s = self.cfg.edge.inference_time(self.small.flops());
            }
            EdgePipeline::Bypass => {}
        }
        let link_state = match &self.cfg.link_trace {
            Some(trace) => trace.state_of(&self.cfg.link, self.now),
            None => self.cfg.link.state(),
        };
        let input = PolicyInput {
            scene,
            small_dets: &dets,
            label: None,
            num_classes: self.cfg.num_classes,
            link: Some(link_state),
            cloud_queue: self.last_cloud_queue,
        };
        let decision = self.policy.decide(&input);
        if let Some((fallback, _from)) = self.updates.record_decision(decision.is_upload()) {
            // Probation window ended with a diverged upload fraction:
            // restore the pre-update calibration for every later frame.
            self.policy.restore_calibration(&fallback);
        }
        // The difficulty score rides the wire header for priority
        // schedulers; non-finite scores are clamped out so scheduling keys
        // stay totally ordered.
        let difficulty = if decision.is_upload() {
            let d = self.policy.difficulty(&input).unwrap_or(0.0);
            if d.is_finite() {
                d
            } else {
                0.0
            }
        } else {
            0.0
        };

        self.now += breakdown.edge_infer_s + breakdown.discriminator_s;

        if decision.is_upload() {
            let entered_at = self.now - breakdown.edge_infer_s - breakdown.discriminator_s;
            // Admission control: when the cloud bounds its queue, ask before
            // rendering or spending any uplink. The probe is control-plane
            // only — zero virtual cost, no RNG — and without a queue limit
            // no probe is ever sent (the bit-identical path).
            if self.admission {
                assert!(
                    port.send(ToCloud::Probe {
                        session: self.id,
                        now: self.now,
                    }),
                    "cloud server alive"
                );
                let reply = port.recv_probe().expect("cloud server alive");
                self.last_cloud_queue = Some(reply.queue_depth);
                if !reply.admitted {
                    let outcome = Outcome::AdmissionFallback;
                    self.resolve(ticket.0, breakdown, dets, scene, self.now, outcome);
                    return ticket;
                }
            }
            let frame_bytes = self.upload_size(scene);
            // Traced links drive the uplink from the edge (retransmitting
            // against the virtual clock); static links let the cloud draw
            // the transfer in arrival order, exactly as the seed did.
            let uplink = match &self.cfg.link_trace {
                None => None,
                Some(trace) => Some(traced_transfer(
                    trace,
                    &self.cfg.link,
                    &self.cfg.drop_windows,
                    &self.cfg.retry,
                    self.cfg.deadline_s,
                    frame_bytes,
                    self.now,
                    entered_at,
                    &mut self.rng,
                )),
            };
            if let Some(TransferOutcome::GaveUp {
                at,
                missed_deadline,
            }) = uplink
            {
                // The frame never reaches the cloud: serve the local answer
                // once the edge stops retrying.
                breakdown.retransmit_s = (at - self.now).max(0.0);
                self.now = self.now.max(at);
                let outcome = Outcome::LinkFallback { missed_deadline };
                self.resolve(ticket.0, breakdown, dets, scene, self.now, outcome);
            } else {
                let (sent_at, uplink_s) = match uplink {
                    None => (self.now, None),
                    Some(TransferOutcome::Sent {
                        at,
                        duration_s,
                        waited_s,
                    }) => {
                        breakdown.retransmit_s = waited_s;
                        (at, Some(duration_s))
                    }
                    Some(TransferOutcome::GaveUp { .. }) => unreachable!("handled above"),
                };
                self.uplink_bytes += frame_bytes as u64;
                self.uploads += 1;
                let req = SubmitRequest {
                    session: self.id,
                    ticket: ticket.0,
                    frame_bytes,
                    sent_at,
                    uplink_s,
                    difficulty,
                    deadline_at: self.cfg.deadline_s.map(|d| entered_at + d),
                    small_count: dets.count_above(PREDICTION_THRESHOLD),
                };
                let scene_arc = match shared {
                    Some(arc) => Arc::clone(arc),
                    None => Arc::new(scene.clone()),
                };
                assert!(
                    port.send(ToCloud::Frame(req, Arc::clone(&scene_arc))),
                    "cloud server alive"
                );
                self.pending.insert(
                    ticket.0,
                    PendingUpload {
                        entered_at,
                        sent_at,
                        breakdown,
                        local_dets: dets,
                        scene: scene_arc,
                    },
                );
            }
        } else {
            let outcome = Outcome::Served(decision);
            self.resolve(ticket.0, breakdown, dets, scene, self.now, outcome);
        }
        ticket
    }

    /// [`EdgeSession::poll`], against any [`CloudPort`].
    pub(crate) fn poll<P: CloudPort>(
        &mut self,
        port: &mut P,
        ticket: FrameTicket,
    ) -> Option<FrameResult> {
        if let Some(done) = self.done.remove(&ticket.0) {
            return Some(done);
        }
        if !self.pending.contains_key(&ticket.0) {
            return None;
        }
        // A cloud that is gone has already filed everything it will ever
        // answer in our inbox, so a failed Flush is not yet fatal — keep
        // absorbing buffered answers.
        let _ = port.send(ToCloud::Flush { session: self.id });
        while self.pending.contains_key(&ticket.0) {
            self.absorb_next(port);
        }
        self.done.remove(&ticket.0)
    }

    /// [`EdgeSession::drain`], against any [`CloudPort`].
    pub(crate) fn drain<P: CloudPort>(&mut self, port: &mut P) -> SessionReport {
        if !self.pending.is_empty() {
            // As in `poll`: a cloud that is gone already filed its answers.
            let _ = port.send(ToCloud::Flush { session: self.id });
            while !self.pending.is_empty() {
                self.absorb_next(port);
            }
        }
        self.done.clear();
        SessionReport {
            session: self.id,
            frames: self.frames,
            uploads: self.uploads,
            map_pct: self.metrics.map_pct(),
            detected: self.metrics.counter.total_detected(),
            total_gt: self.metrics.counter.total_gt(),
            total_time_s: self.now,
            upload_ratio: if self.frames == 0 {
                0.0
            } else {
                self.uploads as f64 / self.frames as f64
            },
            latency: self.latency.clone(),
            uplink_bytes: self.uplink_bytes,
            deadline_misses: self.deadline_misses,
            link_fallbacks: self.link_fallbacks,
            admission_fallbacks: self.admission_fallbacks,
            calibration_version: self.updates.active_version,
            updates_applied: self.updates.applied,
            rollbacks: self.updates.rollbacks,
        }
    }

    /// Takes the next message on the answer path while frames are
    /// pending: an update is stashed for the between-frames apply, an
    /// answer resolves its frame.
    fn absorb_next<P: CloudPort>(&mut self, port: &mut P) {
        match port.recv_answer() {
            Some(FromCloud::Update(update)) => self.updates.stash(update),
            Some(FromCloud::Answer(resp)) => self.absorb_response(resp),
            None => panic!(
                "cloud server shut down with {} of this session's frames unresolved",
                self.pending.len()
            ),
        }
    }

    /// Applies one cloud answer: downlink timing, deadline check, metrics.
    fn absorb_response(&mut self, resp: SubmitResponse) {
        self.last_cloud_queue = Some(resp.queue_depth);
        let p = self
            .pending
            .remove(&resp.ticket)
            .expect("cloud answers match pending frames");
        let mut breakdown = p.breakdown;
        // Traced links drive the downlink like the uplink: attempts from
        // the server's send time, retransmitting with backoff. A downlink
        // that gives up serves the local answer (`link_fallback`) — the
        // cloud's work is spent either way.
        let downlink = match &self.cfg.link_trace {
            None => {
                let d = self
                    .cfg
                    .link
                    .transfer_time(result_size_bytes(resp.dets.len()), &mut self.rng);
                Some((d, resp.sent_at + d))
            }
            Some(trace) => match traced_transfer(
                trace,
                &self.cfg.link,
                &self.cfg.drop_windows,
                &self.cfg.retry,
                self.cfg.deadline_s,
                result_size_bytes(resp.dets.len()),
                resp.sent_at,
                p.entered_at,
                &mut self.rng,
            ) {
                TransferOutcome::Sent {
                    at,
                    duration_s,
                    waited_s,
                } => {
                    breakdown.retransmit_s += waited_s;
                    Some((duration_s, at + duration_s))
                }
                TransferOutcome::GaveUp {
                    at,
                    missed_deadline,
                } => {
                    if !missed_deadline {
                        // Retries exhausted without a deadline: account the
                        // round trip the edge did wait for, serve local.
                        breakdown.uplink_s = resp.uplink_s;
                        breakdown.cloud_infer_s = resp.infer_s
                            + (resp.sent_at - p.sent_at - resp.uplink_s - resp.infer_s).max(0.0);
                        breakdown.retransmit_s += (at - resp.sent_at).max(0.0);
                        let completed_at = at.max(p.sent_at);
                        self.now = self.now.max(completed_at);
                        let outcome = Outcome::LinkFallback {
                            missed_deadline: false,
                        };
                        self.resolve(
                            resp.ticket,
                            breakdown,
                            p.local_dets,
                            &p.scene,
                            completed_at,
                            outcome,
                        );
                        return;
                    }
                    // Deadline-driven give-up: fall through to the shared
                    // missed-deadline accounting below.
                    None
                }
            },
        };
        let (outcome, final_dets, completed_at) = match downlink {
            Some((downlink_s, answer_at))
                if !self
                    .cfg
                    .deadline_s
                    .map(|d| answer_at - p.entered_at > d)
                    .unwrap_or(false) =>
            {
                breakdown.uplink_s = resp.uplink_s;
                breakdown.cloud_infer_s = resp.infer_s
                    + (resp.sent_at - p.sent_at - resp.uplink_s - resp.infer_s).max(0.0);
                breakdown.downlink_s = downlink_s;
                (Outcome::Served(Decision::Upload), resp.dets, answer_at)
            }
            _ => {
                // The edge gives up waiting and serves the local result; the
                // upload bandwidth is already spent.
                let deadline = self.cfg.deadline_s.expect("missed implies a deadline");
                let waited = (p.entered_at + deadline - p.sent_at).max(0.0);
                breakdown.uplink_s = waited;
                (Outcome::DeadlineMiss, p.local_dets, p.sent_at + waited)
            }
        };
        self.now = self.now.max(completed_at);
        self.resolve(
            resp.ticket,
            breakdown,
            final_dets,
            &p.scene,
            completed_at,
            outcome,
        );
    }

    /// Settles one frame: counts its outcome, folds it into the session's
    /// latency and quality metrics, and files its [`FrameResult`].
    fn resolve(
        &mut self,
        ticket: u64,
        breakdown: LatencyBreakdown,
        dets: ImageDetections,
        scene: &Scene,
        completed_at: f64,
        outcome: Outcome,
    ) {
        use Decision::Upload;
        let (decision, missed_deadline, link_fallback, admission_fallback) = match outcome {
            Outcome::Served(decision) => (decision, false, false, false),
            Outcome::DeadlineMiss => (Upload, true, false, false),
            Outcome::LinkFallback { missed_deadline } => (Upload, missed_deadline, true, false),
            Outcome::AdmissionFallback => (Upload, false, false, true),
        };
        self.deadline_misses += usize::from(missed_deadline);
        self.link_fallbacks += usize::from(link_fallback);
        self.admission_fallbacks += usize::from(admission_fallback);
        self.latency.add(breakdown);
        self.metrics
            .record(&dets, scene, &self.cfg.counting, self.pool_memo);
        self.done.insert(
            ticket,
            FrameResult {
                ticket: FrameTicket(ticket),
                decision,
                dets,
                breakdown,
                completed_at,
                missed_deadline,
                link_fallback,
                admission_fallback,
            },
        );
    }
}

impl Drop for EdgeSession<'_> {
    fn drop(&mut self) {
        // Best-effort: the cloud may already be gone.
        let _ = self.port.send(ToCloud::Deregister { session: self.m.id });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::bounded;
    use crate::{DifficultCaseDiscriminator, Policy, Thresholds};
    use datagen::{Dataset, DatasetProfile, SplitId};
    use modelzoo::{ModelKind, SimDetector};

    fn fixture() -> (Dataset, SimDetector, Arc<dyn Detector + Send + Sync>) {
        let data = Dataset::generate("t", &DatasetProfile::helmet(), 30, 9);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
        let big: Arc<dyn Detector + Send + Sync> =
            Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
        (data, small, big)
    }

    fn disc() -> DifficultCaseDiscriminator {
        DifficultCaseDiscriminator::new(Thresholds {
            conf: 0.21,
            count: 4,
            area: 0.03,
        })
    }

    fn small_session() -> SessionConfig {
        SessionConfig {
            frame_size: (96, 96),
            ..SessionConfig::new(2)
        }
    }

    #[test]
    #[should_panic(expected = "frame_size must be positive")]
    fn zero_frame_size_fails_at_connect() {
        let (_, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        // no frame is ever submitted: the configuration itself is refused
        let _ = cloud.connect(
            SessionConfig {
                frame_size: (96, 0),
                ..SessionConfig::new(2)
            },
            &small,
            Box::new(disc()),
        );
    }

    #[test]
    fn refused_connect_registers_no_session() {
        let (_, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cloud.connect(
                SessionConfig {
                    frame_size: (96, 0),
                    ..SessionConfig::new(2)
                },
                &small,
                Box::new(disc()),
            );
        }));
        let panic = refused.expect_err("a zero frame size panics");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("frame_size must be positive"), "{message}");
        // ...before it registers a session on the cloud.
        assert_eq!(cloud.shutdown().sessions, 0);
    }

    #[test]
    fn single_session_round_trips_every_frame() {
        let (data, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let mut session = cloud.connect(small_session(), &small, Box::new(disc()));
        let mut tickets = Vec::new();
        for scene in data.iter() {
            tickets.push(session.submit(scene));
        }
        for t in tickets {
            let r = session.poll(t).expect("every ticket resolves");
            assert!(r.completed_at > 0.0);
            assert!(session.poll(t).is_none(), "results are taken once");
        }
        let report = session.drain();
        assert_eq!(report.frames, 30);
        assert!(report.total_time_s > 0.0);
        drop(session);
        let stats = cloud.shutdown();
        assert_eq!(stats.served, report.uploads);
    }

    #[test]
    fn multi_session_is_deterministic() {
        let run = || {
            let (data, small, big) = fixture();
            let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
            let links = [
                LinkModel::wlan(),
                LinkModel::fast_wifi(),
                LinkModel::cellular(),
            ];
            let mut sessions: Vec<EdgeSession<'_>> = links
                .iter()
                .enumerate()
                .map(|(i, link)| {
                    cloud.connect(
                        SessionConfig {
                            link: link.clone(),
                            seed: 0x5417 + i as u64,
                            ..small_session()
                        },
                        &small,
                        Box::new(disc()),
                    )
                })
                .collect();
            for scene in data.iter() {
                for s in sessions.iter_mut() {
                    let t = s.submit(scene);
                    let _ = s.poll(t);
                }
            }
            let reports: Vec<SessionReport> = sessions.iter_mut().map(|s| s.drain()).collect();
            drop(sessions);
            (reports, cloud.shutdown())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert_eq!(sa.sessions, 3);
    }

    #[test]
    fn batching_preserves_decisions_and_bounds_time() {
        let (data, small, big) = fixture();
        let run = |max_batch: usize| {
            let mut cloud = CloudServer::spawn(
                CloudConfig {
                    max_batch,
                    ..CloudConfig::default()
                },
                Arc::clone(&big),
            );
            let mut a = cloud.connect(small_session(), &small, Box::new(disc()));
            let mut b = cloud.connect(small_session(), &small, Box::new(Policy::CloudOnly));
            for scene in data.iter() {
                a.submit(scene);
                b.submit(scene);
            }
            let (ra, rb) = (a.drain(), b.drain());
            drop((a, b));
            (ra, rb, cloud.shutdown())
        };
        let (a1, b1, s1) = run(1);
        let (a4, b4, s4) = run(4);
        // Routing decisions are batch-independent.
        assert_eq!(a1.uploads, a4.uploads);
        assert_eq!(b1.uploads, b4.uploads);
        assert_eq!(b1.uploads, 30);
        assert_eq!(s1.served, s4.served);
        // Batching fuses work into fewer, cheaper server passes.
        assert!(s4.batches < s1.batches);
        assert!(s4.busy_s < s1.busy_s);
        // Quality is unchanged: same models, same routed frames.
        assert_eq!(a1.detected, a4.detected);
        assert_eq!(b1.map_pct, b4.map_pct);
    }

    #[test]
    fn deadline_falls_back_locally_in_sessions() {
        let (data, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let mut session = cloud.connect(
            SessionConfig {
                deadline_s: Some(0.15),
                ..small_session()
            },
            &small,
            Box::new(disc()),
        );
        let mut missed = 0usize;
        for scene in data.iter() {
            let t = session.submit(scene);
            let r = session.poll(t).expect("resolves");
            if r.missed_deadline {
                missed += 1;
            }
        }
        let report = session.drain();
        assert_eq!(report.deadline_misses, missed);
        if report.uploads > 0 {
            assert!(missed > 0, "WLAN cannot meet 150 ms");
        }
    }

    /// A bare machine's reply queue: every reply under the session it
    /// belongs to, in service order, whichever message produced it.
    #[test]
    fn replies_queue_under_their_sessions_in_service_order() {
        let (data, _, _) = fixture();
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
        let config = CloudConfig {
            max_batch: 2,
            updates: Some(crate::UpdateConfig {
                epoch_s: 0.5,
                min_examples: 1,
                ..crate::UpdateConfig::default()
            }),
            ..CloudConfig::default()
        };
        let sched = SchedulerSlot::from_config(&config.scheduler);
        let mut m = CloudMachine::new(config, sched);
        let scene = Arc::new(data.iter().next().expect("a scene").clone());
        let frame = |session, ticket, sent_at| {
            let req = SubmitRequest {
                session,
                ticket,
                frame_bytes: 1_000,
                sent_at,
                uplink_s: Some(0.01),
                difficulty: 0.0,
                deadline_at: None,
                small_count: 0,
            };
            Some(ToCloud::Frame(req, Arc::clone(&scene)))
        };
        // `None` is the host's final drain.
        let mut step = |msg: Option<ToCloud>| -> Vec<(u64, String)> {
            match msg {
                Some(msg) => m.handle(&big, msg),
                None => m.drain(&big),
            }
            (m.replies())
                .map(|(session, reply)| {
                    let reply = match reply {
                        Reply::Cloud(FromCloud::Answer(a)) => format!("answer {}", a.ticket),
                        Reply::Cloud(FromCloud::Update(u)) => format!("update v{}", u.version),
                        Reply::Probe(_) => "probe".to_string(),
                    };
                    (session, reply)
                })
                .collect()
        };
        let owed = |replies: &[(u64, &str)]| -> Vec<(u64, String)> {
            replies.iter().map(|&(s, r)| (s, r.to_string())).collect()
        };
        for session in [0, 1] {
            let link = LinkModel::wlan();
            let register = ToCloud::Register { session, link };
            assert_eq!(step(Some(register)), owed(&[]));
        }
        assert_eq!(step(frame(0, 0, 0.0)), owed(&[]), "half a batch waits");
        let probe = ToCloud::Probe {
            session: 1,
            now: 0.0,
        };
        assert_eq!(step(Some(probe)), owed(&[(1, "probe")]));
        let batch = owed(&[(0, "answer 0"), (1, "answer 0")]);
        assert_eq!(step(frame(1, 0, 0.1)), batch);
        // The next batch crosses an epoch: its first frame publishes v1,
        // which goes to each session right before that session's answer.
        assert_eq!(step(frame(0, 1, 1.0)), owed(&[]));
        let pushed = owed(&[
            (0, "update v1"),
            (0, "answer 1"),
            (1, "update v1"),
            (1, "answer 1"),
        ]);
        assert_eq!(step(frame(1, 1, 1.1)), pushed);
        // Session 1 leaving drains session 0's frame, under session 0.
        assert_eq!(step(frame(0, 2, 1.2)), owed(&[]));
        let deregister = ToCloud::Deregister { session: 1 };
        assert_eq!(step(Some(deregister)), owed(&[(0, "answer 2")]));
        // The final drain leaves every answer still owed in the queue.
        assert_eq!(step(frame(0, 3, 1.3)), owed(&[]));
        assert_eq!(step(None), owed(&[(0, "answer 3")]));
        let stats = m.finish();
        assert_eq!((stats.served, stats.updates_published), (6, 1));
    }

    #[test]
    fn poll_after_shutdown_absorbs_buffered_answers() {
        let (data, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let mut session = cloud.connect(small_session(), &small, Box::new(Policy::CloudOnly));
        let tickets: Vec<FrameTicket> = data.iter().take(5).map(|s| session.submit(s)).collect();
        // Shutdown files every queued frame's answer in the session's
        // inbox; polling afterwards must still resolve.
        let stats = cloud.shutdown();
        assert_eq!(stats.served, 5);
        for t in tickets {
            let r = session.poll(t).expect("buffered answer resolves");
            assert_eq!(r.decision, Decision::Upload);
        }
        let report = session.drain();
        assert_eq!(report.uploads, 5);
    }

    /// One `CloudServer` shared by four sessions on four threads, which
    /// take turns at its lock while batches mix their frames: every polled
    /// ticket resolves, the cloud serves every upload (those of a session
    /// dropped undrained included), and each report accounts for every
    /// frame once.
    #[test]
    fn one_cloud_server_serves_sessions_on_several_threads() {
        let name = "one_cloud_server_serves_sessions_on_several_threads";
        bounded(name, std::time::Duration::from_secs(60), || {
            let (data, small, big) = fixture();
            let config = CloudConfig {
                max_batch: 4,
                ..CloudConfig::default()
            };
            let mut cloud = CloudServer::spawn(config, big);
            let sessions: Vec<EdgeSession<'_>> = (0..4)
                .map(|i| {
                    let policy: Box<dyn OffloadPolicy> = match i % 2 {
                        0 => Box::new(disc()),
                        _ => Box::new(Policy::CloudOnly),
                    };
                    let cfg = SessionConfig {
                        seed: 0x5417 + i,
                        ..small_session()
                    };
                    cloud.connect(cfg, &small, policy)
                })
                .collect();
            let (data, start) = (&data, &std::sync::Barrier::new(4));
            // Session 3 (cloud-only) is dropped undrained: `Err` carries
            // its uploads, one per submit.
            let outcomes: Vec<Result<SessionReport, usize>> = std::thread::scope(|scope| {
                let threads: Vec<_> = (sessions.into_iter().enumerate())
                    .map(|(i, mut session)| {
                        scope.spawn(move || {
                            start.wait();
                            let mut tickets = Vec::new();
                            for (k, scene) in data.iter().enumerate() {
                                tickets.push(session.submit(scene));
                                let undrained = i == 3 && k >= data.len() / 2;
                                if k % 2 == 1 && !undrained {
                                    for t in tickets.drain(..) {
                                        session.poll(t).expect("every polled ticket resolves");
                                    }
                                }
                            }
                            if i == 3 {
                                assert!(session.outstanding() > 0);
                                return Err(data.len());
                            }
                            Ok(session.drain())
                        })
                    })
                    .collect();
                let joined = threads.into_iter().map(|t| t.join());
                joined.map(|r| r.expect("session thread")).collect()
            });
            let stats = cloud.shutdown();
            let mut uploads = 0;
            for outcome in outcomes {
                match outcome {
                    Ok(r) => {
                        assert_eq!(r.latency.images, r.frames, "every frame resolved once");
                        assert_eq!(r.latency.cloud_images, r.uploads, "every upload served");
                        uploads += r.uploads;
                    }
                    Err(undrained) => uploads += undrained,
                }
            }
            assert_eq!(stats.served, uploads);
            assert_eq!(stats.sessions, 4);
        });
    }

    /// A detector whose `detect` panics — stands in for a buggy user
    /// implementation behind the public [`Detector`] trait.
    struct PanickyDetector(SimDetector);

    impl Detector for PanickyDetector {
        fn name(&self) -> &'static str {
            "panicky"
        }
        fn detect(&self, _scene: &datagen::Scene) -> ImageDetections {
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
    #[should_panic(expected = "cloud")]
    fn panicking_big_model_fails_the_session_loudly() {
        let (data, small, _) = fixture();
        let big: Arc<dyn Detector + Send + Sync> = Arc::new(PanickyDetector(SimDetector::new(
            ModelKind::SsdVgg16,
            SplitId::Helmet,
            2,
        )));
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let mut session = cloud.connect(small_session(), &small, Box::new(Policy::CloudOnly));
        // The host catches the detector's panic and drops the cloud; the
        // session then fails its submit (or a later poll) instead of
        // waiting forever on a result that cannot arrive.
        let tickets: Vec<FrameTicket> = data.iter().take(3).map(|s| session.submit(s)).collect();
        for t in tickets {
            let _ = session.poll(t);
        }
    }

    #[test]
    fn submit_shared_matches_submit() {
        let (data, small, big) = fixture();
        let run = |shared: bool| {
            let mut cloud = CloudServer::spawn(CloudConfig::default(), Arc::clone(&big));
            let mut session = cloud.connect(small_session(), &small, Box::new(disc()));
            for scene in data.iter() {
                if shared {
                    let arc = Arc::new(scene.clone());
                    session.submit_shared(&arc);
                } else {
                    session.submit(scene);
                }
            }
            let report = session.drain();
            drop(session);
            (report, cloud.shutdown())
        };
        assert_eq!(run(false), run(true));
    }

    // In-process hosts hand answers over typed while socket hosts encode and
    // decode them, so every host-equality pin (TCP ≡ in-process, process ≡
    // in-memory) rests on the JSON frame codec being exact for these two
    // messages. Pinned here directly, float by float.
    mod answer_codec {
        use super::*;
        use crate::wire::{decode_frame, encode_frame};
        use crate::{CalibrationUpdate, UPDATE_FORMAT};
        use detcore::{BBox, ClassId, Detection};
        use proptest::prelude::*;

        /// Finite `f64`s that stress a text codec: signed zeros, the
        /// subnormal range, the normal range's ends, values that need all
        /// 17 significant digits, an integer-valued float — then arbitrary
        /// finite bit patterns.
        fn arb_f64() -> impl Strategy<Value = f64> {
            const EDGES: [f64; 12] = [
                0.0,
                -0.0,
                5e-324,
                -5e-324,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE / 2.0,
                f64::MAX,
                f64::MIN,
                0.1 + 0.2,
                1.0 / 3.0,
                -1e-7 / 3.0,
                9_007_199_254_740_992.0,
            ];
            (0usize..2 * EDGES.len(), any::<u64>()).prop_map(|(pick, bits)| {
                // Clearing the exponent's top bit keeps every pattern finite.
                let finite = f64::from_bits(bits & !(1 << 62));
                EDGES.get(pick).copied().unwrap_or(finite)
            })
        }

        /// Scores live in `[0, 1]`: its edges, then 53-bit fractions.
        fn arb_score() -> impl Strategy<Value = f64> {
            const EDGES: [f64; 7] = [
                0.0,
                -0.0,
                5e-324,
                f64::MIN_POSITIVE,
                0.1 + 0.2,
                0.999_999_999_999_999_9,
                1.0,
            ];
            (0usize..2 * EDGES.len(), any::<u64>()).prop_map(|(pick, bits)| {
                let fraction = (bits >> 11) as f64 / (1u64 << 53) as f64;
                EDGES.get(pick).copied().unwrap_or(fraction)
            })
        }

        fn arb_detection() -> impl Strategy<Value = Detection> {
            (
                any::<u16>(),
                arb_score(),
                (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
            )
                .prop_map(|(class, score, (x0, y0, x1, y1))| {
                    Detection::new(ClassId(class), score, BBox::from_corners(x0, y0, x1, y1))
                })
        }

        fn arb_response(dets: std::ops::Range<usize>) -> impl Strategy<Value = SubmitResponse> {
            let edges = prop::sample::select(vec![0, 1, u64::MAX - 1]);
            let depths = prop::sample::select(vec![0, 1, 64, usize::MAX]);
            (
                (edges, any::<u64>(), any::<bool>()),
                prop::collection::vec(arb_detection(), dets),
                (arb_f64(), arb_f64(), arb_f64()),
                depths,
            )
                .prop_map(|((edge, ticket, pick_edge), dets, times, queue_depth)| {
                    SubmitResponse {
                        ticket: if pick_edge { edge } else { ticket },
                        dets: ImageDetections::from_vec(dets),
                        sent_at: times.0,
                        infer_s: times.1,
                        uplink_s: times.2,
                        queue_depth,
                    }
                })
        }

        fn response_bits(r: &SubmitResponse) -> Vec<u64> {
            let mut bits = vec![
                r.ticket,
                r.sent_at.to_bits(),
                r.infer_s.to_bits(),
                r.uplink_s.to_bits(),
                r.queue_depth as u64,
                r.dets.len() as u64,
            ];
            for d in r.dets.iter() {
                let b = d.bbox();
                bits.push(d.class().0 as u64);
                bits.extend(
                    [d.score(), b.x_min(), b.y_min(), b.x_max(), b.y_max()].map(f64::to_bits),
                );
            }
            bits
        }

        fn arb_update() -> impl Strategy<Value = CalibrationUpdate> {
            (
                (any::<u64>(), any::<u64>(), 0usize..7, any::<u32>()),
                (arb_f64(), arb_f64(), arb_f64(), arb_f64()),
                prop::collection::vec(arb_f64(), 0..300),
            )
                .prop_map(|(ints, floats, quantile_scores)| CalibrationUpdate {
                    format: UPDATE_FORMAT,
                    version: ints.0,
                    epoch: ints.1,
                    thresholds: crate::Thresholds {
                        conf: floats.0,
                        count: ints.2,
                        area: floats.1,
                    },
                    quantile_scores,
                    examples: ints.3 as usize,
                    accuracy: floats.2,
                    holdout: ints.2 + 1,
                    divergence: floats.3,
                })
        }

        fn update_bits(u: &CalibrationUpdate) -> Vec<u64> {
            let mut bits = vec![
                u.format as u64,
                u.version,
                u.epoch,
                u.thresholds.conf.to_bits(),
                u.thresholds.count as u64,
                u.thresholds.area.to_bits(),
                u.examples as u64,
                u.accuracy.to_bits(),
                u.holdout as u64,
                u.divergence.to_bits(),
                u.quantile_scores.len() as u64,
            ];
            bits.extend(u.quantile_scores.iter().map(|s| s.to_bits()));
            bits
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn answers_round_trip_bit_for_bit(
                empty in arb_response(0..1),
                typical in arb_response(1..40),
                crowded in arb_response(200..201),
            ) {
                for resp in [empty, typical, crowded] {
                    let back: SubmitResponse = decode_frame(&encode_frame(&resp)).expect("decodes");
                    prop_assert_eq!(response_bits(&back), response_bits(&resp));
                }
            }

            #[test]
            fn calibration_updates_round_trip_bit_for_bit(update in arb_update()) {
                let back: CalibrationUpdate = decode_frame(&encode_frame(&update)).expect("decodes");
                prop_assert_eq!(update_bits(&back), update_bits(&update));
            }
        }
    }

    #[test]
    fn poll_unknown_ticket_is_none() {
        let (_, small, big) = fixture();
        let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
        let mut session = cloud.connect(small_session(), &small, Box::new(disc()));
        assert!(session.poll(FrameTicket(99)).is_none());
        drop(session);
        cloud.shutdown();
    }
}
