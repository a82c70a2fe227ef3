//! Fleet-scale engine: an event-driven virtual-time core that carries
//! 10⁵–10⁶ heterogeneous edge sessions in one process, plus the seeded
//! population layer that generates them.
//!
//! # Why not sessions
//!
//! The session API ([`CloudServer::spawn`] + [`crate::EdgeSession`]) is the
//! right shape for a handful of edges: each session is an object its
//! caller drives, every call runs the cloud under one lock on the caller's
//! thread, and determinism follows from virtual time. It is the wrong shape
//! at population scale — 10⁵ live facades, each with a full mAP evaluator
//! and an inbox entry, buy nothing when time is virtual anyway. The fleet
//! engine keeps the exact same state machines (`EdgeMachine` per
//! session, `CloudMachine` per cloud shard) but drives them **inline**
//! from a central event queue keyed on each session's next frame time. No
//! facade, no lock, no inbox: a session is ~1 KB of state in a `Vec`,
//! created at its first frame and dropped after its last.
//!
//! # Determinism and the facade contract
//!
//! Both runtimes execute the *same* per-session code against the same
//! `CloudPort` seam, and the event queue replays the exact message
//! order the same sessions on [`CloudServer`]s would produce (each frame
//! is submitted and resolved depth-1, in planned arrival order, ties
//! broken by session id). [`run_fleet_sessions`] (event core) and
//! [`run_fleet_reference`] (the public session API) therefore return **bit-identical** per-session reports and cloud
//! stats — pinned by `tests/fleet.rs` and `tests/fleet_golden.rs`.
//!
//! # Parallel drive: one worker per shard group
//!
//! Shards are independent by construction: session `i` only ever talks to
//! shard `i % shards`, shard RNG streams are disjoint (each shard's
//! [`CloudConfig`] seed is derived from the shard id), and the only state
//! crossing shard groups is the run's pool memo: write-once cells, one per
//! pool scene and quantity (either model's detections and their count, the
//! encoded upload size), each holding a pure function of its scene, so
//! whichever worker fills a cell first writes the value every other worker
//! would have, and every later read takes no lock. Nothing else is shared:
//! a shard's `CloudMachine` leaves each reply in its own queue and the
//! driven session pops it on the same call stack — no inbox, no lock per
//! session. Restricting the global
//! `(time, session)` event order to one shard's sessions therefore yields
//! *exactly* the message sequence that shard observes in a single-threaded
//! drive, so each shard group runs its own virtual-time queue on its own
//! scoped worker ([`FleetSpec::threads`]; the workers claim shards one at
//! a time off [`crate::par`]'s cursor, the calling thread among them) and
//! the per-shard outcomes are merged in shard / session-index order. **[`FleetReport`]
//! is bit-identical for every thread count** — pinned by the
//! threads ∈ {1, 2, 4} sweep in `tests/fleet.rs` against the session
//! reference deployment; parallelism changes wall-clock time only. A
//! shard drive that panics (e.g. a user detector failing mid-frame) is
//! caught at the shard boundary and surfaced as a typed [`FleetError`]
//! instead of tearing the process down; everything the drive owned —
//! its machines and any reply still queued — is dropped with it.
//!
//! # Population layer
//!
//! [`FleetSpec`] describes a population, not individual sessions: weighted
//! device/link/policy/deadline mixes, Zipf-skewed tenant sizes, and an
//! arrival curve ([`ArrivalCurve::Diurnal`] rides
//! [`LinkTrace::diurnal_ramp`]'s capacity shape through its cumulative
//! integral, so arrivals crowd the peaks and thin out mid-trough).
//! [`Population::generate`] expands the spec with a single seeded RNG into
//! compact [`PlannedSession`]s (~32 bytes each — 1 M sessions plan in
//! ~32 MB); everything heavier is materialized lazily at the session's
//! first frame. The same seed always yields the same population, the same
//! schedule, and the same [`FleetReport`], bit for bit.
//!
//! # Memory: compact metrics
//!
//! At 10⁶ live sessions every retained byte is a megabyte. The aggregate
//! path ([`run_fleet`]) drives sessions in compact-metrics mode: the
//! per-session `MapEvaluator` (detection records + match scratch, the
//! dominant per-session cost) is dropped entirely — [`FleetReport`]
//! never reads mAP. In either mode a session owns no per-frame scratch:
//! the buffers that score a frame are per thread, shared by every session
//! the thread drives, and a compact session reads a repeated (pool scene,
//! model) frame's count from the pool memo instead of scoring it again.
//! Counting metrics stay exact integer sums, so
//! [`run_fleet_with`]`(spec, `[`MetricsMode::Full`]`)` and the compact
//! default produce bit-identical reports (pinned in `tests/fleet.rs`);
//! only [`SessionReport::map_pct`] — which the aggregate path discards —
//! differs. [`run_fleet_sessions`] keeps full metrics, so its per-session
//! reports stay bit-identical to the reference deployment.

use crate::intmap::IntMap;
use crate::scheduler::SchedulerSlot;
use crate::server::{
    encoded_upload_bytes, CloudConfig, CloudMachine, CloudPort, CloudServer, CloudStats,
    EdgeMachine, FrameResult, Inline, SessionConfig, SessionReport, ToCloud,
};
use crate::strategies::{OffloadPolicy, Policy};
use crate::{ConfigError, DifficultCaseDiscriminator};
use datagen::{Dataset, DatasetProfile, Scene, SplitId};
use detcore::{count_detected, CountingConfig, ImageCount, ImageDetections};
use modelzoo::{Detector, ModelKind, SimDetector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use simnet::{DeviceModel, LinkModel, LinkTrace};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

/// Classes in the fleet's synthetic monitoring workload (HELMET-like:
/// person, helmet).
const NUM_CLASSES: usize = 2;

/// Fixed deadline grid (seconds) the deadline-miss curve is evaluated on.
const MISS_GRID: [f64; 11] = [0.05, 0.075, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5, 2.0];

/// When new sessions start over the arrival window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalCurve {
    /// Constant arrival intensity over `[0, horizon_s)`.
    Uniform,
    /// Arrival intensity follows a raised-cosine diurnal capacity curve
    /// ([`LinkTrace::diurnal_ramp`]): dense at period boundaries (peak
    /// hours), sparse mid-period (`floor_scale` of peak intensity).
    Diurnal {
        /// Length of one diurnal period, seconds.
        period_s: f64,
        /// Trough intensity as a fraction of peak, in `(0, 1]`.
        floor_scale: f64,
    },
}

/// Offload policy archetypes a fleet mixes over (instantiated per
/// session).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FleetPolicy {
    /// The paper's difficult-case discriminator (paper thresholds).
    Discriminator,
    /// Upload everything.
    CloudOnly,
    /// Upload nothing.
    EdgeOnly,
}

/// One weighted entry of a fleet's device mix.
#[derive(Debug, Clone)]
pub struct DeviceChoice {
    /// Relative weight (any positive scale).
    pub weight: f64,
    /// The edge device model.
    pub device: DeviceModel,
}

/// One weighted entry of a fleet's link mix.
#[derive(Debug, Clone)]
pub struct LinkChoice {
    /// Relative weight (any positive scale).
    pub weight: f64,
    /// The session's static link model.
    pub link: LinkModel,
    /// Optional dynamic schedule over the link (`None` = static fast
    /// path).
    pub trace: Option<LinkTrace>,
}

/// One weighted entry of a fleet's policy mix.
#[derive(Debug, Clone, Copy)]
pub struct PolicyChoice {
    /// Relative weight (any positive scale).
    pub weight: f64,
    /// The policy archetype.
    pub policy: FleetPolicy,
}

/// One weighted entry of a fleet's deadline mix.
#[derive(Debug, Clone, Copy)]
pub struct DeadlineChoice {
    /// Relative weight (any positive scale).
    pub weight: f64,
    /// Per-frame latency deadline, `None` = best-effort.
    pub deadline_s: Option<f64>,
}

/// A seeded description of a whole fleet: how many sessions, who they
/// are (device/link/policy/deadline mixes), which tenant they belong to
/// (Zipf-skewed), when they arrive, and what cloud they share.
///
/// Construct with [`FleetSpec::new`] and override fields; every run
/// function is a pure function of the spec, so the same spec always
/// reproduces the same [`FleetReport`].
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Number of sessions in the population.
    pub sessions: usize,
    /// Number of tenants sessions are assigned to (Zipf-skewed sizes).
    pub tenants: usize,
    /// Zipf exponent for tenant sizes (`0` = uniform; larger = more
    /// skew).
    pub zipf_exponent: f64,
    /// Frames every session submits.
    pub frames_per_session: u32,
    /// Virtual seconds between a session's consecutive frames.
    pub frame_interval_s: f64,
    /// Shape of the arrival intensity over the window.
    pub arrival: ArrivalCurve,
    /// Length of the arrival window: every session starts in
    /// `[0, horizon_s)`. Sessions whose frames outlast the window keep
    /// running — overlap is what makes the fleet *concurrent*.
    pub horizon_s: f64,
    /// Weighted edge-device mix.
    pub device_mix: Vec<DeviceChoice>,
    /// Weighted link mix (entries may carry a dynamic trace).
    pub link_mix: Vec<LinkChoice>,
    /// Weighted offload-policy mix.
    pub policy_mix: Vec<PolicyChoice>,
    /// Weighted deadline mix.
    pub deadline_mix: Vec<DeadlineChoice>,
    /// Resolution frames are rendered at for upload sizing.
    pub frame_size: (usize, usize),
    /// Distinct synthetic scenes the fleet cycles through (shared
    /// `Arc<Scene>`s; per-session offset decorrelates neighbours). The
    /// pool also bounds the detector, render and counting work of a run:
    /// each pool scene a run shows is detected once per model, rendered
    /// once, and (in [`MetricsMode::Compact`]) has each model's
    /// detections counted once, however many frames show it, and scenes it
    /// never shows cost nothing.
    pub scene_pool: usize,
    /// Optional distribution drift: a piecewise-constant schedule of
    /// generative profiles over virtual time. Each phase gets its own
    /// scene pool (of [`FleetSpec::scene_pool`] scenes), and which pool a
    /// frame samples from is a pure function of the frame's virtual
    /// timestamp — so drifting fleets stay bit-reproducible and the
    /// event core and session reference agree. `None` keeps today's
    /// single static helmet pool, bit-identical to pre-drift builds.
    pub drift: Option<datagen::DriftSchedule>,
    /// Cloud shards; session `i` is served by shard `i % shards`. Each
    /// shard is an independent `CloudMachine` with a derived seed.
    pub shards: usize,
    /// Per-shard cloud configuration (seed is xored with the shard id).
    pub cloud: CloudConfig,
    /// Worker threads for the shard-parallel drive: shard groups fan out
    /// over `min(threads, shards)` scoped workers. `0` picks one per
    /// available core; `1` forces the exact sequential path.
    /// [`FleetReport`] is bit-identical for every value —
    /// parallelism changes wall-clock time only (see the module docs).
    pub threads: usize,
    /// Master seed: population draws, scene generation, and every
    /// per-session RNG stream derive from it.
    pub seed: u64,
}

impl FleetSpec {
    /// A heterogeneous default fleet of `sessions` sessions: Jetson
    /// edges over a wlan/fast-wifi/cellular link mix (one slice traced
    /// through a diurnal bandwidth ramp), discriminator-heavy policy
    /// mix, half the fleet under a 500 ms deadline, 20 Zipf(1.1)
    /// tenants, and diurnal arrivals over a 60 s window. Frame cadence
    /// (8 frames, 20 s apart) makes session lifetimes span the window,
    /// so the whole population is live concurrently mid-run.
    ///
    /// The cloud is *provisioned to the population*: shards scale as
    /// `sessions / 1024` (clamped to `[4, 64]`) so per-shard offered
    /// load stays near capacity instead of drowning at scale, and
    /// admission control is on (`queue_limit: Some(64)`) so transient
    /// overload sheds to the edge-local answer rather than queueing
    /// unboundedly — deadline-miss curves then measure the control
    /// plane, not an unbounded backlog.
    pub fn new(sessions: usize) -> FleetSpec {
        FleetSpec {
            sessions,
            tenants: 20,
            zipf_exponent: 1.1,
            frames_per_session: 8,
            frame_interval_s: 20.0,
            arrival: ArrivalCurve::Diurnal {
                period_s: 30.0,
                floor_scale: 0.25,
            },
            horizon_s: 60.0,
            device_mix: vec![DeviceChoice {
                weight: 1.0,
                device: DeviceModel::jetson_nano(),
            }],
            link_mix: vec![
                LinkChoice {
                    weight: 0.5,
                    link: LinkModel::wlan(),
                    trace: None,
                },
                LinkChoice {
                    weight: 0.3,
                    link: LinkModel::fast_wifi(),
                    trace: None,
                },
                LinkChoice {
                    weight: 0.2,
                    link: LinkModel::cellular(),
                    trace: Some(LinkTrace::diurnal_ramp(30.0, 0.4, 12, 8)),
                },
            ],
            policy_mix: vec![
                PolicyChoice {
                    weight: 0.7,
                    policy: FleetPolicy::Discriminator,
                },
                PolicyChoice {
                    weight: 0.2,
                    policy: FleetPolicy::CloudOnly,
                },
                PolicyChoice {
                    weight: 0.1,
                    policy: FleetPolicy::EdgeOnly,
                },
            ],
            deadline_mix: vec![
                DeadlineChoice {
                    weight: 0.5,
                    deadline_s: None,
                },
                DeadlineChoice {
                    weight: 0.5,
                    deadline_s: Some(0.5),
                },
            ],
            frame_size: (96, 96),
            scene_pool: 32,
            drift: None,
            shards: (sessions / 1024).clamp(4, 64),
            cloud: CloudConfig {
                queue_limit: Some(64),
                ..CloudConfig::default()
            },
            threads: 0,
            seed: 0xf1ee7,
        }
    }

    /// Checks every field a run would trip over, once per run: the
    /// session and cloud configs it derives are then valid.
    fn validate(&self) -> Result<(), ConfigError> {
        const ONE: &str = "must be at least 1";
        const POSITIVE: &str = "must be positive";
        const MIX: &str = "must hold 1 to 256 positive, finite weights";
        fn mix<T>(m: &[T], w: fn(&T) -> f64) -> bool {
            (1..=256).contains(&m.len()) && m.iter().all(|c| w(c) > 0.0 && w(c).is_finite())
        }
        let (w, h) = self.frame_size;
        let sessions = (1..=u32::MAX as usize).contains(&self.sessions);
        // `LinkTrace::diurnal_ramp`'s preconditions.
        let arrival = match self.arrival {
            ArrivalCurve::Uniform => true,
            ArrivalCurve::Diurnal {
                period_s: p,
                floor_scale: f,
            } => p > 0.0 && p.is_finite() && f > 0.0 && f <= 1.0,
        };
        for (path, valid, reason) in [
            ("sessions", sessions, "must be 1 to u32::MAX"),
            ("arrival", arrival, "period_s or floor_scale out of range"),
            ("tenants", self.tenants > 0, ONE),
            ("zipf_exponent", self.zipf_exponent >= 0.0, "must be >= 0"),
            ("frames_per_session", self.frames_per_session > 0, ONE),
            ("frame_interval_s", self.frame_interval_s > 0.0, POSITIVE),
            ("horizon_s", self.horizon_s > 0.0, POSITIVE),
            ("scene_pool", self.scene_pool > 0, ONE),
            ("shards", self.shards > 0, ONE),
            ("frame_size", w > 0 && h > 0, POSITIVE),
            ("device_mix", mix(&self.device_mix, |c| c.weight), MIX),
            ("link_mix", mix(&self.link_mix, |c| c.weight), MIX),
            ("policy_mix", mix(&self.policy_mix, |c| c.weight), MIX),
            ("deadline_mix", mix(&self.deadline_mix, |c| c.weight), MIX),
        ] {
            if !valid {
                return Err(ConfigError::new(path, reason));
            }
        }
        self.cloud.validate().map_err(|e| e.within("cloud"))?;
        let drift = self.drift.as_ref().map_or(Ok(()), |d| d.validate());
        drift.map_err(|reason| ConfigError::new("drift", reason))
    }

    /// The cloud configuration shard `shard` runs with (derived seed).
    fn shard_config(&self, shard: usize) -> CloudConfig {
        let mut cfg = self.cloud.clone();
        cfg.seed ^= (shard as u64) << 32;
        cfg
    }

    /// Materializes the full [`SessionConfig`] for one planned session.
    fn session_config(&self, p: &PlannedSession, index: usize) -> SessionConfig {
        let link = &self.link_mix[p.link as usize];
        let edge = self.device_mix[p.device as usize].device.clone();
        let mut cfg = SessionConfig::on(edge, link.link.clone(), NUM_CLASSES);
        cfg.link_trace = link.trace.clone();
        cfg.frame_size = self.frame_size;
        cfg.seed = session_seed(self.seed, index);
        cfg.deadline_s = self.deadline_mix[p.deadline as usize].deadline_s;
        cfg
    }

    fn build_policy(&self, p: &PlannedSession) -> Box<dyn OffloadPolicy> {
        match self.policy_mix[p.policy as usize].policy {
            FleetPolicy::Discriminator => {
                Box::new(Policy::DifficultCase(DifficultCaseDiscriminator::default()))
            }
            FleetPolicy::CloudOnly => Box::new(Policy::CloudOnly),
            FleetPolicy::EdgeOnly => Box::new(Policy::EdgeOnly),
        }
    }
}

/// Per-session RNG seed: decorrelates neighbouring sessions while staying
/// a pure function of `(master seed, session index)`.
fn session_seed(master: u64, index: usize) -> u64 {
    master ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The compact plan for one session — everything the engine needs to
/// materialize it at its first frame, as mix indexes (~32 bytes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannedSession {
    /// Virtual time of the session's first frame.
    pub start_s: f64,
    /// Owning tenant.
    pub tenant: u32,
    /// Frames this session submits.
    pub frames: u32,
    /// Index into [`FleetSpec::device_mix`].
    pub device: u8,
    /// Index into [`FleetSpec::link_mix`].
    pub link: u8,
    /// Index into [`FleetSpec::policy_mix`].
    pub policy: u8,
    /// Index into [`FleetSpec::deadline_mix`].
    pub deadline: u8,
}

/// The expanded population: one [`PlannedSession`] per session, in
/// session-id order.
#[derive(Debug, Clone, PartialEq)]
pub struct Population {
    /// Planned sessions, indexed by session id.
    pub sessions: Vec<PlannedSession>,
}

/// Cumulative weights for a categorical draw by binary search.
fn cumulative(weights: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut acc = 0.0;
    weights
        .map(|w| {
            acc += w;
            acc
        })
        .collect()
}

fn draw(cum: &[f64], rng: &mut StdRng) -> usize {
    let total = *cum.last().expect("non-empty mix");
    let r = rng.gen::<f64>() * total;
    cum.partition_point(|&c| c <= r).min(cum.len() - 1)
}

impl Population {
    /// Expands a spec into its planned sessions.
    ///
    /// All draws come from one RNG seeded by `spec.seed`, in a fixed
    /// per-session order (tenant, device, link, policy, deadline,
    /// arrival), so the population is reproducible and two specs
    /// differing only in, say, `shards` plan identical sessions. Start
    /// times are stratified through the arrival curve's inverse
    /// cumulative intensity: session `i` lands in the `i`-th of
    /// `sessions` equal-mass slots (jittered within it), which keeps
    /// arrival order equal to id order and the empirical curve tight to
    /// the spec even for small fleets.
    ///
    /// # Panics
    ///
    /// Panics with `invalid fleet spec:` and the spec's [`ConfigError`]
    /// (the run functions return it).
    pub fn generate(spec: &FleetSpec) -> Population {
        crate::expect_valid(spec.validate(), "fleet spec");
        Population::plan(spec)
    }

    /// [`Population::generate`] for a checked spec.
    fn plan(spec: &FleetSpec) -> Population {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x907a_7e0f);
        let tenant_cum =
            cumulative((0..spec.tenants).map(|t| ((t + 1) as f64).powf(-spec.zipf_exponent)));
        let device_cum = cumulative(spec.device_mix.iter().map(|c| c.weight));
        let link_cum = cumulative(spec.link_mix.iter().map(|c| c.weight));
        let policy_cum = cumulative(spec.policy_mix.iter().map(|c| c.weight));
        let deadline_cum = cumulative(spec.deadline_mix.iter().map(|c| c.weight));
        let arrival_trace = match spec.arrival {
            ArrivalCurve::Uniform => None,
            ArrivalCurve::Diurnal {
                period_s,
                floor_scale,
            } => {
                let periods = ((spec.horizon_s / period_s).ceil() as usize).max(1);
                Some(LinkTrace::diurnal_ramp(period_s, floor_scale, 48, periods))
            }
        };
        let total_mass = match &arrival_trace {
            None => spec.horizon_s,
            Some(trace) => trace.cumulative_scale(spec.horizon_s),
        };
        let n = spec.sessions;
        let sessions = (0..n)
            .map(|i| {
                let tenant = draw(&tenant_cum, &mut rng) as u32;
                let device = draw(&device_cum, &mut rng) as u8;
                let link = draw(&link_cum, &mut rng) as u8;
                let policy = draw(&policy_cum, &mut rng) as u8;
                let deadline = draw(&deadline_cum, &mut rng) as u8;
                let mass = (i as f64 + rng.gen::<f64>()) / n as f64 * total_mass;
                let start_s = match &arrival_trace {
                    None => mass,
                    Some(trace) => trace.time_at_cumulative_scale(mass),
                };
                PlannedSession {
                    start_s,
                    tenant,
                    frames: spec.frames_per_session,
                    device,
                    link,
                    policy,
                    deadline,
                }
            })
            .collect();
        Population { sessions }
    }
}

/// One entry of the central event queue: session `session`'s frame
/// `frame` is due at virtual time `time`. Min-ordered by `(time,
/// session)` — the planned arrival order, independent of how long
/// processing takes, which is what makes the event core's cloud message
/// order equal to the session reference's.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    time: f64,
    session: u32,
    frame: u32,
}

impl Eq for Step {}

impl PartialOrd for Step {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Step {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.session.cmp(&other.session))
    }
}

/// The central event queue: pops steps in `(time, session)` order and
/// automatically schedules each session's next frame. Holds one entry
/// per not-yet-finished session, so even a 1 M-session fleet queues in
/// ~16 MB.
struct Schedule<'p> {
    heap: BinaryHeap<Reverse<Step>>,
    plan: &'p [PlannedSession],
    interval_s: f64,
}

impl<'p> Schedule<'p> {
    fn new(plan: &'p [PlannedSession], interval_s: f64) -> Schedule<'p> {
        Schedule::for_sessions(plan, interval_s, 0..plan.len())
    }

    /// A schedule over a subset of the plan's sessions (by global id).
    /// Pops in the same `(time, session)` order the full schedule would
    /// emit restricted to exactly these sessions — the property the
    /// shard-parallel drive rests on: a shard sees the identical message
    /// sequence whether the whole fleet or only its own group is driven.
    fn for_sessions(
        plan: &'p [PlannedSession],
        interval_s: f64,
        ids: impl Iterator<Item = usize>,
    ) -> Schedule<'p> {
        let heap = ids
            .map(|i| {
                Reverse(Step {
                    time: plan[i].start_s,
                    session: i as u32,
                    frame: 0,
                })
            })
            .collect();
        Schedule {
            heap,
            plan,
            interval_s,
        }
    }

    fn next(&mut self) -> Option<Step> {
        let step = self.heap.pop()?.0;
        let p = &self.plan[step.session as usize];
        if step.frame + 1 < p.frames {
            self.heap.push(Reverse(Step {
                time: p.start_s + (step.frame + 1) as f64 * self.interval_s,
                session: step.session,
                frame: step.frame + 1,
            }));
        }
        Some(step)
    }
}

/// Index into the shared scene pool for session `session`'s frame
/// `frame`: each session starts at its own offset (`session % pool`) and
/// cycles the pool from there, decorrelating neighbours while keeping
/// renders memoisable. This is the **only** copy of that arithmetic —
/// the event core and the session reference used to each spell it
/// inline (`(scene_off + frame) % pool` vs `(i % pool + frame) % pool`),
/// which agreed only because `scene_off` happened to equal `i % pool`;
/// any future offset change in one runtime would have silently diverged
/// the populations. Both runtimes now call this helper, pinned by a
/// regression test.
fn scene_index(session: usize, frame: u32, pool: usize) -> usize {
    (session % pool + frame as usize) % pool
}

/// Generates the fleet's shared synthetic workload: one pool of scenes
/// per drift phase (a single static pool when [`FleetSpec::drift`] is
/// `None` — generated exactly as pre-drift builds did, so undrifted
/// fleets stay bit-identical), plus the small and big detectors.
fn workload(spec: &FleetSpec) -> (Vec<Vec<Arc<Scene>>>, SimDetector, SimDetector) {
    let arcs =
        |data: &Dataset| -> Vec<Arc<Scene>> { data.iter().map(|s| Arc::new(s.clone())).collect() };
    let pools = match &spec.drift {
        None => vec![arcs(&Dataset::generate(
            "fleet",
            &DatasetProfile::helmet(),
            spec.scene_pool,
            spec.seed ^ 0x5ce9e5,
        ))],
        Some(drift) => drift
            .phases
            .iter()
            .enumerate()
            .map(|(idx, phase)| {
                // Each phase draws from its own derived seed so identical
                // profiles in different phases still yield distinct pools.
                arcs(&Dataset::generate(
                    &format!("fleet-phase{idx}"),
                    &phase.profile,
                    spec.scene_pool,
                    spec.seed ^ 0x5ce9e5 ^ ((idx as u64) << 20),
                ))
            })
            .collect(),
    };
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, NUM_CLASSES);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, NUM_CLASSES);
    (pools, small, big)
}

/// The scene session `session`'s frame `frame` samples at virtual time
/// `t_s`: the drift schedule picks the phase pool (pure function of the
/// timestamp; pool 0 when undrifted) and [`scene_index`] picks within it.
/// Shared by the event core and the session reference — the same
/// single-copy rule as [`scene_index`] itself.
fn scene_at<'a>(
    pools: &'a [Vec<Arc<Scene>>],
    drift: Option<&datagen::DriftSchedule>,
    session: usize,
    frame: u32,
    t_s: f64,
) -> &'a Arc<Scene> {
    let pool = &pools[drift.map_or(0, |d| d.phase_index(t_s))];
    &pool[scene_index(session, frame, pool.len())]
}

/// One run's memo over every scene of every pool: per scene, each model's
/// detections and their [`ImageCount`] against the scene's ground truths,
/// and the encoded upload size at [`FleetSpec::frame_size`], each computed
/// by the first frame that needs it and read without a lock by every later
/// frame, on any shard worker. A run pays only for the scenes it shows.
///
/// All five are pure functions of the scene (detectors are deterministic,
/// so are counting and `render`), so whichever worker fills a cell first
/// cannot change a value, and a second worker asking for a cell being
/// filled waits for it instead of computing it again. Scenes are found by
/// address: the pools own every keyed `Arc<Scene>` for as long as the memo
/// is used, so no other scene can live at a keyed address, and a scene
/// outside the pools goes to the model (or the renderer, or the counter)
/// every time.
pub(crate) struct PoolMemo {
    slots: IntMap<usize, MemoSlot>,
    frame_size: (usize, usize),
    /// The thresholds the count cells hold counts under: the sessions'
    /// default.
    counting: CountingConfig,
}

/// The write-once cells of one pool scene.
#[derive(Default)]
struct MemoSlot {
    small: ModelCells,
    big: ModelCells,
    upload_bytes: OnceLock<usize>,
}

/// One model's cells for one pool scene: its detections, and their count.
#[derive(Default)]
struct ModelCells {
    dets: OnceLock<ImageDetections>,
    count: OnceLock<ImageCount>,
}

impl PoolMemo {
    fn new(pools: &[Vec<Arc<Scene>>], frame_size: (usize, usize)) -> PoolMemo {
        let slots = pools
            .iter()
            .flatten()
            .map(|scene| (Arc::as_ptr(scene) as usize, MemoSlot::default()))
            .collect();
        PoolMemo {
            slots,
            frame_size,
            counting: CountingConfig::default(),
        }
    }

    fn slot(&self, scene: &Scene) -> Option<&MemoSlot> {
        self.slots.get(&(scene as *const Scene as usize))
    }

    /// `scene`'s encoded upload size at `frame_size`: memoised for a pool
    /// scene at the run's frame size, rendered otherwise.
    pub(crate) fn upload_bytes(&self, scene: &Scene, frame_size: (usize, usize)) -> usize {
        match self.slot(scene) {
            Some(slot) if frame_size == self.frame_size => *slot
                .upload_bytes
                .get_or_init(|| encoded_upload_bytes(scene, frame_size)),
            _ => encoded_upload_bytes(scene, frame_size),
        }
    }

    /// The count of `dets` against `scene`'s ground truths under
    /// `counting`, read from the memo when `scene` is a pool scene, `dets`
    /// equal (by value) a model's memoised detections of it, and
    /// `counting` is the memo's. `None` otherwise: the caller counts
    /// afresh. Each count cell is filled once per run, by the first frame
    /// that needs it.
    pub(crate) fn count(
        &self,
        scene: &Scene,
        dets: &ImageDetections,
        counting: &CountingConfig,
    ) -> Option<ImageCount> {
        if *counting != self.counting {
            return None;
        }
        let slot = self.slot(scene)?;
        [&slot.small, &slot.big].into_iter().find_map(|cells| {
            let memoised = cells.dets.get().filter(|&memoised| memoised == dets)?;
            let fresh = || count_detected(memoised, &scene.ground_truths(), counting);
            Some(*cells.count.get_or_init(fresh))
        })
    }

    /// The small model seen through the memo.
    fn small<'m, D>(&'m self, model: &'m D) -> Memoised<'m, D> {
        Memoised {
            memo: self,
            model,
            cells: |slot| &slot.small,
        }
    }

    /// The big model seen through the memo.
    fn big<'m, D>(&'m self, model: &'m D) -> Memoised<'m, D> {
        Memoised {
            memo: self,
            model,
            cells: |slot| &slot.big,
        }
    }
}

/// A model seen through a [`PoolMemo`]: a pool scene's detections are
/// computed once per run and copied out of its cell after that; any other
/// scene goes to the model.
struct Memoised<'m, D> {
    memo: &'m PoolMemo,
    model: &'m D,
    cells: fn(&MemoSlot) -> &ModelCells,
}

impl<D: Detector> Memoised<'_, D> {
    fn memoised(&self, scene: &Scene) -> Option<&ImageDetections> {
        let cells = (self.cells)(self.memo.slot(scene)?);
        Some(cells.dets.get_or_init(|| self.model.detect(scene)))
    }
}

impl<D: Detector> Detector for Memoised<'_, D> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn detect(&self, scene: &Scene) -> ImageDetections {
        match self.memoised(scene) {
            Some(dets) => dets.clone(),
            None => self.model.detect(scene),
        }
    }

    fn detect_into(&self, scene: &Scene, out: &mut ImageDetections) {
        match self.memoised(scene) {
            Some(dets) => {
                out.clear();
                out.extend(dets.iter().copied());
            }
            None => self.model.detect_into(scene, out),
        }
    }

    fn flops(&self) -> u64 {
        self.model.flops()
    }

    fn model_size_bytes(&self) -> u64 {
        self.model.model_size_bytes()
    }
}

/// What every shard drive of a run reads: the drift-phase scene pools, the
/// two models (memoised in [`run_event_core`], though any [`Detector`]
/// drives) and the memo the edges size their uploads and count their
/// frames through.
struct Workload<'w> {
    pools: &'w [Vec<Arc<Scene>>],
    small: &'w (dyn Detector + Sync),
    big: &'w (dyn Detector + Sync),
    memo: &'w PoolMemo,
}

/// A fleet run failed: its spec was refused, or one shard's drive
/// panicked (a detector failing mid-frame, an unresolved frame, a machine
/// invariant violation). The run surfaces the first failing shard (lowest
/// id) with its panic diagnostic instead of tearing the process down —
/// remaining shards complete normally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The spec's refusal, before any session ran.
    Config(ConfigError),
    /// A shard's drive panicked.
    Shard {
        /// The cloud shard whose drive failed.
        shard: usize,
        /// The panic diagnostic.
        message: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Config(e) => write!(f, "invalid fleet spec: {e}"),
            Self::Shard { shard, message } => write!(f, "fleet shard {shard} failed: {message}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Runs one shard's drive with a panic boundary: any panic inside becomes
/// a typed [`FleetError`] naming the shard and carrying the panic's own
/// message, so callers of the public run functions see `Result`, not an
/// unwinding thread.
fn shard_guard<T>(shard: usize, f: impl FnOnce() -> T) -> Result<T, FleetError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "shard drive panicked with a non-string payload".to_string());
        FleetError::Shard { shard, message }
    })
}

/// Resolves [`FleetSpec::threads`] for a run: `0` (auto) means one worker
/// per available core, and the result is capped by the shard count (a
/// shard group is the unit of parallelism).
fn fleet_threads(spec: &FleetSpec) -> usize {
    let resolved = match spec.threads {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        t => t,
    };
    resolved.min(spec.shards).max(1)
}

/// How the fleet engine accumulates per-session quality metrics; see the
/// module docs' memory section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricsMode {
    /// Historical per-session state: a full `MapEvaluator` per live
    /// session. What [`run_fleet_sessions`] uses, so
    /// [`SessionReport::map_pct`] matches the reference deployment.
    Full,
    /// Fleet-scale mode: no per-session mAP state, and a repeated (pool
    /// scene, model) frame's count read from the pool memo.
    /// `SessionReport::map_pct` reads `0`; everything [`FleetReport`]
    /// aggregates is bit-identical to [`MetricsMode::Full`].
    Compact,
}

/// What a shard drive streams as it runs: one callback per resolved frame
/// and one per finished session (with the session's global id, so callers
/// can merge across shards in index order). Implementations are
/// per-shard values, created by a factory and returned to the caller —
/// which is what lets the drives run on independent workers.
trait ShardConsumer: Send {
    fn on_frame(&mut self, tenant: u32, result: &FrameResult);
    fn on_session(&mut self, session: u32, tenant: u32, report: SessionReport);
}

/// Drives one shard group — sessions `i ≡ shard (mod spec.shards)` —
/// through the event core: its own virtual-time queue, its own
/// [`CloudMachine`], its own live-session storage (dense: global id
/// `i` lives at slot `i / shards`). The message sequence this produces
/// is exactly the full fleet schedule restricted to this shard, which is
/// why per-shard drives compose bit-identically (see the module docs).
fn drive_shard<C: ShardConsumer>(
    spec: &FleetSpec,
    pop: &Population,
    shard: usize,
    mode: MetricsMode,
    w: &Workload<'_>,
    consumer: &mut C,
) -> CloudStats {
    let cfg = spec.shard_config(shard);
    let sched = SchedulerSlot::from_config(&cfg.scheduler);
    let mut cloud = Inline {
        machine: CloudMachine::new(cfg, sched),
        big: w.big,
    };
    let admission = spec.cloud.queue_limit.is_some();
    let n = pop.sessions.len();
    let group = n.saturating_sub(shard).div_ceil(spec.shards);
    // Boxed so the `Vec` stays one pointer per planned session regardless
    // of machine size.
    let mut lives: Vec<Option<Box<EdgeMachine<'_>>>> = (0..group).map(|_| None).collect();
    let mut schedule = Schedule::for_sessions(
        &pop.sessions,
        spec.frame_interval_s,
        (shard..n).step_by(spec.shards),
    );
    while let Some(step) = schedule.next() {
        let i = step.session as usize;
        let p = &pop.sessions[i];
        let slot = i / spec.shards;
        if step.frame == 0 {
            let cfg = spec.session_config(p, i);
            // The session's replies wait in the shard machine's queue,
            // which the inline port pops.
            cloud.send(ToCloud::Register {
                session: i as u64,
                link: cfg.link.clone(),
            });
            let policy = spec.build_policy(p);
            let mut m = EdgeMachine::new(i as u64, cfg, w.small, policy, admission, mode);
            m.set_pool_memo(w.memo);
            lives[slot] = Some(Box::new(m));
        }
        let live = lives[slot]
            .as_mut()
            .expect("live between first and last frame");
        live.advance_to(step.time);
        let scene = scene_at(w.pools, spec.drift.as_ref(), i, step.frame, step.time);
        let ticket = live.submit_inner(&mut cloud, scene, Some(scene));
        let result = live
            .poll(&mut cloud, ticket)
            .expect("depth-1 driving resolves every frame");
        debug_assert_eq!(
            cloud.machine.replies().len(),
            0,
            "depth-1 driving leaves no reply behind for the next session"
        );
        consumer.on_frame(p.tenant, &result);
        if step.frame + 1 == p.frames {
            let report = live.drain(&mut cloud);
            cloud.send(ToCloud::Deregister { session: i as u64 });
            consumer.on_session(step.session, p.tenant, report);
            lives[slot] = None;
        }
    }
    cloud.machine.finish()
}

/// Drives the whole fleet, one worker per shard group (see
/// [`fleet_threads`]), and returns every shard's `(consumer, stats)` in
/// shard order; the first failing shard's error is returned after all
/// drives complete.
fn run_event_core<C, F>(
    spec: &FleetSpec,
    pop: &Population,
    mode: MetricsMode,
    make: F,
) -> Result<Vec<(C, CloudStats)>, FleetError>
where
    C: ShardConsumer,
    F: Fn() -> C + Sync,
{
    // Sessions cycle the pools, so nearly every frame repeats a (model,
    // scene) pair and an upload size an earlier frame computed: the memo
    // computes each once per run.
    let (pools, small, big) = workload(spec);
    let memo = PoolMemo::new(&pools, spec.frame_size);
    let w = Workload {
        pools: &pools,
        small: &memo.small(&small),
        big: &memo.big(&big),
        memo: &memo,
    };
    drive_shards(spec, pop, mode, &w, make)
        .into_iter()
        .collect()
}

/// [`run_event_core`] over a given workload: every shard's outcome in
/// shard order, each drive behind its own [`shard_guard`] so one failing
/// shard leaves the others' results intact.
fn drive_shards<C, F>(
    spec: &FleetSpec,
    pop: &Population,
    mode: MetricsMode,
    w: &Workload<'_>,
    make: F,
) -> Vec<Result<(C, CloudStats), FleetError>>
where
    C: ShardConsumer,
    F: Fn() -> C + Sync,
{
    crate::par::ordered_map_with(fleet_threads(spec), spec.shards, |shard| {
        shard_guard(shard, || {
            let mut consumer = make();
            let stats = drive_shard(spec, pop, shard, mode, w, &mut consumer);
            (consumer, stats)
        })
    })
}

/// Collects per-session reports with their global session ids.
#[derive(Default)]
struct CollectSessions {
    reports: Vec<(u32, SessionReport)>,
}

impl ShardConsumer for CollectSessions {
    fn on_frame(&mut self, _tenant: u32, _result: &FrameResult) {}

    fn on_session(&mut self, session: u32, _tenant: u32, report: SessionReport) {
        self.reports.push((session, report));
    }
}

/// Runs the fleet through the event core and returns every per-session
/// report (session-id order) plus per-shard cloud stats — the
/// bit-identity counterpart of [`run_fleet_reference`], for any
/// [`FleetSpec::threads`]. Prefer [`run_fleet`] for large fleets (it
/// aggregates instead of collecting, and drops per-session mAP state).
pub fn run_fleet_sessions(
    spec: &FleetSpec,
) -> Result<(Vec<SessionReport>, Vec<CloudStats>), FleetError> {
    spec.validate().map_err(FleetError::Config)?;
    let pop = Population::plan(spec);
    let shards = run_event_core(spec, &pop, MetricsMode::Full, CollectSessions::default)?;
    let mut stats = Vec::with_capacity(spec.shards);
    let mut indexed: Vec<(u32, SessionReport)> = Vec::with_capacity(pop.sessions.len());
    for (c, s) in shards {
        indexed.extend(c.reports);
        stats.push(s);
    }
    // Explicitly index-ordered: the merge must not depend on per-shard
    // completion order (sessions with unequal lifetimes finish out of id
    // order even within a shard).
    indexed.sort_by_key(|&(i, _)| i);
    Ok((indexed.into_iter().map(|(_, r)| r).collect(), stats))
}

/// Runs the *same* fleet through the public session API — one
/// [`CloudServer`] per shard, one [`crate::EdgeSession`] per session via
/// [`CloudServer::connect_as`] — consuming the identical schedule.
/// Per-session reports and cloud stats are bit-identical to
/// [`run_fleet_sessions`]; this is the conformance oracle, not a way to
/// run big fleets (it still materializes sessions lazily, but every
/// session carries a full facade and every call takes its shard's lock).
pub fn run_fleet_reference(spec: &FleetSpec) -> (Vec<SessionReport>, Vec<CloudStats>) {
    let pop = Population::generate(spec);
    let (pools, small, big) = workload(spec);
    let small: &(dyn Detector + Sync) = &small;
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(big);
    let mut servers: Vec<CloudServer> = (0..spec.shards)
        .map(|s| CloudServer::spawn(spec.shard_config(s), Arc::clone(&big)))
        .collect();
    let n = pop.sessions.len();
    let mut lives: Vec<Option<crate::EdgeSession<'_>>> = (0..n).map(|_| None).collect();
    let mut reports: Vec<Option<SessionReport>> = (0..n).map(|_| None).collect();
    let mut schedule = Schedule::new(&pop.sessions, spec.frame_interval_s);
    while let Some(step) = schedule.next() {
        let i = step.session as usize;
        let p = &pop.sessions[i];
        let shard = i % spec.shards;
        if step.frame == 0 {
            let cfg = spec.session_config(p, i);
            lives[i] = Some(servers[shard].connect_as(i as u64, cfg, small, spec.build_policy(p)));
        }
        let live = lives[i]
            .as_mut()
            .expect("live between first and last frame");
        live.advance_to(step.time);
        let scene = scene_at(&pools, spec.drift.as_ref(), i, step.frame, step.time);
        let ticket = live.submit_shared(scene);
        live.poll(ticket)
            .expect("depth-1 driving resolves every frame");
        if step.frame + 1 == p.frames {
            reports[i] = Some(live.drain());
            lives[i] = None; // drop sends the Deregister, as the core does
        }
    }
    let stats = servers.into_iter().map(|s| s.shutdown()).collect();
    (
        reports
            .into_iter()
            .map(|r| r.expect("every session finished"))
            .collect(),
        stats,
    )
}

/// Latency quantiles over a set of frames (nearest-rank on the observed
/// samples), seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyQuantiles {
    /// Mean frame latency.
    pub mean_s: f64,
    /// Median.
    pub p50_s: f64,
    /// 90th percentile.
    pub p90_s: f64,
    /// 99th percentile.
    pub p99_s: f64,
    /// 99.9th percentile.
    pub p999_s: f64,
    /// Worst frame.
    pub max_s: f64,
}

/// One point of the deadline-miss curve: the fraction of all frames
/// whose end-to-end latency exceeded `deadline_s`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissPoint {
    /// Hypothetical deadline, seconds.
    pub deadline_s: f64,
    /// Fraction of frames that would miss it, in `[0, 1]`.
    pub miss_fraction: f64,
}

/// Per-tenant slice of the fleet report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantReport {
    /// Tenant id.
    pub tenant: u32,
    /// Sessions assigned to this tenant.
    pub sessions: usize,
    /// Frames this tenant's sessions submitted.
    pub frames: u64,
    /// Frames uploaded to the cloud.
    pub uploads: u64,
    /// Configured-deadline misses across the tenant's sessions.
    pub deadline_misses: u64,
    /// Objects detected across the tenant's frames (counting metric,
    /// finalized per session as it ends — exact integer sums in both
    /// metrics modes).
    pub detected: u64,
    /// Ground-truth objects across the tenant's frames.
    pub total_gt: u64,
    /// Latency quantiles over the tenant's frames.
    pub latency: LatencyQuantiles,
}

/// Everything a fleet run measured, reproducible from the spec's seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// The spec's master seed (provenance).
    pub seed: u64,
    /// Sessions that ran.
    pub sessions: usize,
    /// Total frames submitted.
    pub frames: u64,
    /// Frames uploaded to the cloud.
    pub uploads: u64,
    /// Fraction of frames uploaded.
    pub upload_ratio: f64,
    /// Total bytes shipped edge→cloud.
    pub uplink_bytes: u64,
    /// Configured-deadline misses.
    pub deadline_misses: u64,
    /// Traced-link give-ups served locally.
    pub link_fallbacks: u64,
    /// Admission refusals served locally.
    pub admission_fallbacks: u64,
    /// Latency quantiles over all frames.
    pub latency: LatencyQuantiles,
    /// Per-tenant breakdowns, tenant id ascending (only tenants that
    /// received sessions appear).
    pub tenants: Vec<TenantReport>,
    /// Fraction of frames that would miss each hypothetical deadline
    /// (fixed grid, monotone non-increasing in the deadline).
    pub miss_curve: Vec<MissPoint>,
    /// Per-shard cloud stats.
    pub cloud: Vec<CloudStats>,
    /// Virtual time of the last completed frame.
    pub completed_horizon_s: f64,
}

/// Nearest-rank quantile over an ascending-sorted sample:
/// `sorted[ceil(q·n) − 1]`, with the rank clamped into `[1, n]`. The
/// convention — pinned by exact-value unit tests — is: `q = 0.0` reads
/// the minimum, `q = 1.0` the maximum, a single sample answers every
/// `q`, two samples split at `q = 0.5` inclusive to the lower, and an
/// empty sample reads `0`. No interpolation: every reported quantile is
/// a latency that actually occurred.
fn quantile(sorted: &[f32], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] as f64
}

fn quantiles_of(sorted: &[f32]) -> LatencyQuantiles {
    let mean = if sorted.is_empty() {
        0.0
    } else {
        sorted.iter().map(|&l| l as f64).sum::<f64>() / sorted.len() as f64
    };
    LatencyQuantiles {
        mean_s: mean,
        p50_s: quantile(sorted, 0.50),
        p90_s: quantile(sorted, 0.90),
        p99_s: quantile(sorted, 0.99),
        p999_s: quantile(sorted, 0.999),
        max_s: sorted.last().copied().unwrap_or(0.0) as f64,
    }
}

#[derive(Default, Clone)]
struct TenantAccum {
    sessions: usize,
    frames: u64,
    uploads: u64,
    deadline_misses: u64,
    detected: u64,
    total_gt: u64,
}

/// The aggregate path's per-shard consumer: one latency column per
/// tenant, running per-tenant sums, and fleet-wide counters. Everything
/// here merges across shards without loss: the counters are exact
/// integer sums, the horizon is an `f64` max, and each tenant's columns
/// are concatenated and sorted before any quantile is read — so per-shard
/// accumulation followed by a merge is bit-identical to the
/// single-threaded fold.
struct Aggregate {
    /// Frame latencies by tenant, in the order the shard resolved them.
    columns: Vec<Vec<f32>>,
    accums: Vec<TenantAccum>,
    uplink_bytes: u64,
    link_fallbacks: u64,
    admission_fallbacks: u64,
    completed_horizon_s: f64,
}

impl Aggregate {
    fn new(tenants: usize) -> Aggregate {
        Aggregate {
            columns: vec![Vec::new(); tenants],
            accums: vec![TenantAccum::default(); tenants],
            uplink_bytes: 0,
            link_fallbacks: 0,
            admission_fallbacks: 0,
            completed_horizon_s: 0.0,
        }
    }
}

impl ShardConsumer for Aggregate {
    fn on_frame(&mut self, tenant: u32, result: &FrameResult) {
        self.columns[tenant as usize].push(result.breakdown.total() as f32);
        self.completed_horizon_s = self.completed_horizon_s.max(result.completed_at);
    }

    fn on_session(&mut self, _session: u32, tenant: u32, report: SessionReport) {
        let a = &mut self.accums[tenant as usize];
        a.sessions += 1;
        a.frames += report.frames as u64;
        a.uploads += report.uploads as u64;
        a.deadline_misses += report.deadline_misses as u64;
        a.detected += report.detected as u64;
        a.total_gt += report.total_gt as u64;
        self.uplink_bytes += report.uplink_bytes;
        self.link_fallbacks += report.link_fallbacks as u64;
        self.admission_fallbacks += report.admission_fallbacks as u64;
    }
}

/// Moves every column into one exactly-sized buffer (freeing each as it
/// goes) and sorts it ascending.
fn merge_sorted(columns: Vec<Vec<f32>>) -> Vec<f32> {
    let mut merged = Vec::with_capacity(columns.iter().map(Vec::len).sum());
    for column in columns {
        merged.extend(column);
    }
    merged.sort_unstable_by(f32::total_cmp);
    merged
}

/// Runs the fleet through the event core and aggregates: p50/p99/p999
/// latency, per-tenant breakdowns, a deadline-miss curve, and per-shard
/// cloud stats. Memory stays O(frames) for the latency samples plus
/// O(live sessions) for the machines — per-session reports are folded
/// in as sessions finish, never collected. Uses [`MetricsMode::Compact`]
/// (see [`run_fleet_with`] to override).
pub fn run_fleet(spec: &FleetSpec) -> Result<FleetReport, FleetError> {
    run_fleet_with(spec, MetricsMode::Compact)
}

/// [`run_fleet`] with an explicit [`MetricsMode`]. Both modes produce
/// bit-identical reports (pinned in `tests/fleet.rs`); `Full` exists for
/// before/after memory measurement and as the conservative fallback.
pub fn run_fleet_with(spec: &FleetSpec, mode: MetricsMode) -> Result<FleetReport, FleetError> {
    spec.validate().map_err(FleetError::Config)?;
    let pop = Population::plan(spec);
    let (mut aggs, cloud): (Vec<Aggregate>, Vec<CloudStats>) =
        run_event_core(spec, &pop, mode, || Aggregate::new(spec.tenants))?
            .into_iter()
            .unzip();
    // Every merged quantity is order-independent: integer sums, an `f64`
    // max, and latency multisets that are sorted before they are read.
    let mut accums = vec![TenantAccum::default(); spec.tenants];
    let (mut uplink_bytes, mut link_fallbacks, mut admission_fallbacks) = (0, 0, 0);
    let mut completed_horizon_s = 0.0f64;
    for agg in &aggs {
        for (a, b) in accums.iter_mut().zip(&agg.accums) {
            a.sessions += b.sessions;
            a.frames += b.frames;
            a.uploads += b.uploads;
            a.deadline_misses += b.deadline_misses;
            a.detected += b.detected;
            a.total_gt += b.total_gt;
        }
        uplink_bytes += agg.uplink_bytes;
        link_fallbacks += agg.link_fallbacks;
        admission_fallbacks += agg.admission_fallbacks;
        completed_horizon_s = completed_horizon_s.max(agg.completed_horizon_s);
    }
    // Per-tenant quantiles over each tenant's merged column (only tenants
    // that submitted frames appear), then global quantiles and the miss
    // curve over all of them.
    let mut tenants = Vec::new();
    let mut sorted_columns = Vec::new();
    for (tenant, a) in accums.iter().enumerate() {
        let sorted = merge_sorted(
            aggs.iter_mut()
                .map(|agg| std::mem::take(&mut agg.columns[tenant]))
                .collect(),
        );
        if sorted.is_empty() {
            continue;
        }
        tenants.push(TenantReport {
            tenant: tenant as u32,
            sessions: a.sessions,
            frames: a.frames,
            uploads: a.uploads,
            deadline_misses: a.deadline_misses,
            detected: a.detected,
            total_gt: a.total_gt,
            latency: quantiles_of(&sorted),
        });
        sorted_columns.push(sorted);
    }
    let all = merge_sorted(sorted_columns);
    let latency = quantiles_of(&all);
    let miss_curve = MISS_GRID
        .iter()
        .map(|&d| MissPoint {
            deadline_s: d,
            miss_fraction: if all.is_empty() {
                0.0
            } else {
                // First sorted index above the deadline = count <= d.
                let below = all.partition_point(|&l| l as f64 <= d);
                (all.len() - below) as f64 / all.len() as f64
            },
        })
        .collect();
    let frames = accums.iter().map(|a| a.frames).sum::<u64>();
    let uploads = accums.iter().map(|a| a.uploads).sum::<u64>();
    Ok(FleetReport {
        seed: spec.seed,
        sessions: spec.sessions,
        frames,
        uploads,
        upload_ratio: if frames == 0 {
            0.0
        } else {
            uploads as f64 / frames as f64
        },
        uplink_bytes,
        deadline_misses: accums.iter().map(|a| a.deadline_misses).sum(),
        link_fallbacks,
        admission_fallbacks,
        latency,
        tenants,
        miss_curve,
        cloud,
        completed_horizon_s,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use detcore::Detection;
    use std::collections::HashMap;
    use std::sync::Mutex;

    fn tiny_spec() -> FleetSpec {
        FleetSpec {
            frames_per_session: 3,
            scene_pool: 8,
            shards: 2,
            ..FleetSpec::new(40)
        }
    }

    /// Unvalidated, this is a shard-thread panic at the first upload — and
    /// an edge-only fleet never notices at all.
    #[test]
    fn zero_frame_size_fails_validation() {
        let err = run_fleet(&FleetSpec {
            frame_size: (0, 96),
            ..tiny_spec()
        });
        let Err(FleetError::Config(e)) = err else {
            panic!("a zero frame size must be refused, got {err:?}");
        };
        assert_eq!(e.path, "frame_size");
    }

    #[test]
    fn a_diurnal_arrival_without_a_period_is_refused() {
        let err = run_fleet(&FleetSpec {
            arrival: ArrivalCurve::Diurnal {
                period_s: 0.0,
                floor_scale: 0.5,
            },
            ..tiny_spec()
        });
        let Err(FleetError::Config(e)) = err else {
            panic!("a zero period must be refused, got {err:?}");
        };
        assert_eq!(e.path, "arrival");
    }

    #[test]
    fn population_is_reproducible() {
        let spec = tiny_spec();
        assert_eq!(Population::generate(&spec), Population::generate(&spec));
        let other = FleetSpec {
            seed: spec.seed + 1,
            ..spec.clone()
        };
        assert_ne!(Population::generate(&spec), Population::generate(&other));
    }

    #[test]
    fn tenant_sizes_are_zipf_skewed() {
        let spec = FleetSpec {
            zipf_exponent: 1.5,
            ..FleetSpec::new(2000)
        };
        let pop = Population::generate(&spec);
        let mut counts = vec![0usize; spec.tenants];
        for p in &pop.sessions {
            counts[p.tenant as usize] += 1;
        }
        assert!(
            counts[0] > 4 * counts[spec.tenants - 1].max(1),
            "tenant 0 ({}) should dwarf the tail ({})",
            counts[0],
            counts[spec.tenants - 1]
        );
    }

    #[test]
    fn arrivals_stay_inside_the_window_and_sorted() {
        let pop = Population::generate(&tiny_spec());
        let mut last = 0.0f64;
        for p in &pop.sessions {
            assert!(p.start_s >= last, "stratified starts are sorted by id");
            assert!(p.start_s < tiny_spec().horizon_s + 1e-9);
            last = p.start_s;
        }
    }

    #[test]
    fn event_core_matches_threaded_reference() {
        let spec = tiny_spec();
        let (a_reports, a_stats) = run_fleet_sessions(&spec).expect("healthy drive");
        let (b_reports, b_stats) = run_fleet_reference(&spec);
        assert_eq!(a_reports, b_reports);
        assert_eq!(a_stats, b_stats);
    }

    #[test]
    fn fleet_report_is_deterministic_and_consistent() {
        let spec = tiny_spec();
        let a = run_fleet(&spec).expect("healthy drive");
        let b = run_fleet(&spec).expect("healthy drive");
        assert_eq!(a, b);
        assert_eq!(a.frames, (spec.sessions as u64) * 3);
        assert!(a.latency.p50_s <= a.latency.p99_s);
        assert!(a.latency.p99_s <= a.latency.p999_s);
        assert!(a.latency.p999_s <= a.latency.max_s);
        for pair in a.miss_curve.windows(2) {
            assert!(pair[0].miss_fraction >= pair[1].miss_fraction);
        }
        assert_eq!(
            a.tenants.iter().map(|t| t.frames).sum::<u64>(),
            a.frames,
            "tenant breakdowns partition the fleet"
        );
        assert!(
            a.tenants.iter().map(|t| t.total_gt).sum::<u64>() > 0,
            "counting metrics survive the compact accumulator"
        );
    }

    #[test]
    fn parallel_drive_matches_sequential_for_any_thread_count() {
        let sequential = run_fleet(&FleetSpec {
            threads: 1,
            ..tiny_spec()
        })
        .expect("healthy drive");
        for threads in [2, 4] {
            let parallel = run_fleet(&FleetSpec {
                threads,
                ..tiny_spec()
            })
            .expect("healthy drive");
            assert_eq!(
                sequential, parallel,
                "threads={threads} must be bit-identical"
            );
        }
    }

    #[test]
    fn compact_and_full_metrics_agree_bit_for_bit() {
        let spec = tiny_spec();
        let full = run_fleet_with(&spec, MetricsMode::Full).expect("healthy drive");
        let compact = run_fleet_with(&spec, MetricsMode::Compact).expect("healthy drive");
        assert_eq!(full, compact);
    }

    #[test]
    fn thread_resolution_is_capped_by_shards() {
        let spec = tiny_spec(); // shards = 2, threads = 0 (auto)
        let pinned = |threads| FleetSpec {
            threads,
            ..spec.clone()
        };
        assert_eq!(fleet_threads(&pinned(4)), 2, "capped by shards");
        assert_eq!(fleet_threads(&pinned(1)), 1);
        // Auto falls back to the host default (at least 1, still
        // shard-capped).
        assert!((1..=2).contains(&fleet_threads(&spec)));
    }

    #[test]
    fn scene_indexing_is_shared_not_duplicated() {
        let pool = 12;
        // The shared helper computes what both runtimes historically
        // spelled inline.
        for i in 0..40usize {
            for frame in 0..9u32 {
                assert_eq!(
                    scene_index(i, frame, pool),
                    (i % pool + frame as usize) % pool
                );
            }
        }
        // Why the helper exists: the event core used to compute
        // `(scene_off + frame) % pool` from a stored offset while the
        // reference recomputed `(i % pool + frame) % pool` inline. They
        // agreed only because `scene_off == i % pool`; a population whose
        // offset drifted from that (tenant striping, per-shard rotation)
        // would have silently diverged on every frame:
        let i = 3usize;
        let drifted_off = 7usize;
        for frame in 0..8u32 {
            assert_ne!(
                (drifted_off + frame as usize) % pool,
                (i % pool + frame as usize) % pool,
                "duplicated formulas diverge as soon as the offset is not i % pool"
            );
        }
    }

    #[test]
    fn quantile_convention_is_nearest_rank() {
        // A single sample answers every q.
        assert_eq!(quantile(&[2.5], 0.0), 2.5);
        assert_eq!(quantile(&[2.5], 0.5), 2.5);
        assert_eq!(quantile(&[2.5], 1.0), 2.5);
        // Two samples split at q = 0.5, inclusive to the lower.
        assert_eq!(quantile(&[1.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.500_01), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 1.0), 2.0);
        // q = 0 reads the minimum, q = 1 the maximum.
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        // Nearest rank on the p-grid the report uses: p99 of 5 samples is
        // the 5th (ceil(0.99 · 5) = 5), p50 the 3rd.
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.50), 3.0);
        // Empty reads 0.
        assert_eq!(quantile(&[], 0.9), 0.0);
    }

    /// A big model that fails on its `fail_on`-th call (1-based; `0` never
    /// fails) — stands in for a buggy user implementation behind the
    /// public [`Detector`] trait.
    struct FailsOnNthCall {
        inner: SimDetector,
        calls: std::sync::atomic::AtomicUsize,
        fail_on: usize,
    }

    impl Detector for FailsOnNthCall {
        fn name(&self) -> &'static str {
            "fails-on-nth-call"
        }
        fn detect(&self, scene: &Scene) -> detcore::ImageDetections {
            let call = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst) + 1;
            if call == self.fail_on {
                panic!("big model failed on call {call}");
            }
            self.inner.detect(scene)
        }
        fn flops(&self) -> u64 {
            self.inner.flops()
        }
        fn model_size_bytes(&self) -> u64 {
            self.inner.model_size_bytes()
        }
    }

    #[test]
    fn panicking_detector_fails_its_shard_and_spares_the_others() {
        // One thread drives the shards in order, so the big model's call
        // count is deterministic and the failing call can be aimed.
        let spec = FleetSpec {
            shards: 3,
            threads: 1,
            ..tiny_spec()
        };
        let pop = Population::generate(&spec);
        let (pools, small, big) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let drive = |fail_on: usize| {
            let big = FailsOnNthCall {
                inner: big.clone(),
                calls: Default::default(),
                fail_on,
            };
            // Unmemoised, so every upload reaches the failing model.
            let w = Workload {
                pools: &pools,
                small: &small,
                big: &big,
                memo: &memo,
            };
            drive_shards(
                &spec,
                &pop,
                MetricsMode::Compact,
                &w,
                CollectSessions::default,
            )
        };
        let healthy: Vec<CloudStats> = drive(0)
            .into_iter()
            .map(|r| r.expect("healthy drive").1)
            .collect();
        assert!(healthy.iter().all(|s| s.served > 2), "every shard uploads");
        // Aim at shard 1's third upload: shard 0 has finished by then,
        // shard 2 has not started.
        let fail_on = healthy[0].served + 3;
        let outcomes = drive(fail_on);
        assert_eq!(outcomes.len(), 3);
        for shard in [0, 2] {
            let Ok((sessions, stats)) = &outcomes[shard] else {
                panic!("shard {shard} must complete");
            };
            assert_eq!(stats, &healthy[shard]);
            assert!(!sessions.reports.is_empty());
        }
        let err = outcomes[1].as_ref().err().expect("shard 1 must fail");
        let expected = FleetError::Shard {
            shard: 1,
            message: format!("big model failed on call {fail_on}"),
        };
        assert_eq!(err, &expected, "the panic payload reaches the caller");
        assert!(err.to_string().contains("shard 1"));
    }

    #[test]
    fn shard_guard_passes_values_and_catches_panics() {
        assert_eq!(shard_guard(0, || 41 + 1), Ok(42));
        let err = shard_guard(7, || -> usize { panic!("boom {}", 9) }).unwrap_err();
        assert_eq!(
            err,
            FleetError::Shard {
                shard: 7,
                message: "boom 9".to_string()
            }
        );
    }

    /// Two drift phases, so the memo spans two pools.
    fn drifting_spec() -> FleetSpec {
        FleetSpec {
            drift: Some(datagen::DriftSchedule::day_night(
                DatasetProfile::helmet(),
                15.0,
            )),
            ..tiny_spec()
        }
    }

    /// Every field of every detection, floats by their bits.
    fn det_bits(dets: &ImageDetections) -> Vec<u64> {
        dets.iter()
            .flat_map(|d| {
                let b = d.bbox();
                let floats = [d.score(), b.x_min(), b.y_min(), b.x_max(), b.y_max()];
                std::iter::once(d.class().0 as u64).chain(floats.map(f64::to_bits))
            })
            .collect()
    }

    /// A model that counts its calls per scene address.
    struct CountingDetector {
        inner: SimDetector,
        calls: Mutex<HashMap<usize, usize>>,
    }

    impl CountingDetector {
        fn new(inner: SimDetector) -> CountingDetector {
            CountingDetector {
                inner,
                calls: Mutex::default(),
            }
        }

        fn calls(&self) -> HashMap<usize, usize> {
            self.calls.lock().unwrap().clone()
        }
    }

    impl Detector for CountingDetector {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn detect(&self, scene: &Scene) -> ImageDetections {
            let address = scene as *const Scene as usize;
            *self.calls.lock().unwrap().entry(address).or_default() += 1;
            self.inner.detect(scene)
        }
        fn flops(&self) -> u64 {
            self.inner.flops()
        }
        fn model_size_bytes(&self) -> u64 {
            self.inner.model_size_bytes()
        }
    }

    #[test]
    fn memoised_detections_equal_the_models_bit_for_bit() {
        let spec = drifting_spec();
        let (pools, small, big) = workload(&spec);
        assert_eq!(pools.len(), 2, "one pool per drift phase");
        let memo = PoolMemo::new(&pools, spec.frame_size);
        for (model, memoised) in [(&small, memo.small(&small)), (&big, memo.big(&big))] {
            let mut out = ImageDetections::with_capacity(256);
            let buffer = out.as_slice().as_ptr();
            for scene in pools.iter().flatten() {
                let expected = det_bits(&model.detect(scene));
                // The first call fills the cell, the second reads it.
                for _ in 0..2 {
                    assert_eq!(det_bits(&memoised.detect(scene)), expected);
                    memoised.detect_into(scene, &mut out);
                    assert_eq!(det_bits(&out), expected);
                    assert_eq!(
                        out.as_slice().as_ptr(),
                        buffer,
                        "detect_into keeps the buffer"
                    );
                }
            }
        }
    }

    #[test]
    fn a_run_detects_each_shown_pool_scene_once_per_model() {
        // Far more scenes than the 120 frames show.
        let spec = FleetSpec {
            scene_pool: 1024,
            threads: 2,
            ..drifting_spec()
        };
        let pop = Population::generate(&spec);
        let (pools, small, big) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let (small, big) = (CountingDetector::new(small), CountingDetector::new(big));
        let w = Workload {
            pools: &pools,
            small: &memo.small(&small),
            big: &memo.big(&big),
            memo: &memo,
        };
        for outcome in drive_shards(
            &spec,
            &pop,
            MetricsMode::Compact,
            &w,
            CollectSessions::default,
        ) {
            outcome.expect("healthy drive");
        }
        let mut shown = std::collections::HashSet::new();
        let mut schedule = Schedule::new(&pop.sessions, spec.frame_interval_s);
        while let Some(step) = schedule.next() {
            let i = step.session as usize;
            let scene = scene_at(&pools, spec.drift.as_ref(), i, step.frame, step.time);
            shown.insert(Arc::as_ptr(scene) as usize);
        }
        assert!(
            shown.len() < memo.slots.len() / 4,
            "most scenes stay unshown"
        );
        let (small, big) = (small.calls(), big.calls());
        assert!(
            small.values().chain(big.values()).all(|&calls| calls == 1),
            "each (model, scene) pair is detected once, on either worker"
        );
        assert_eq!(
            small
                .keys()
                .copied()
                .collect::<std::collections::HashSet<_>>(),
            shown,
            "the small model sees every shown scene"
        );
        assert!(!big.is_empty(), "the run uploads");
        for (address, slot) in &memo.slots {
            let seen = shown.contains(address);
            assert_eq!(slot.small.dets.get().is_some(), seen);
            assert_eq!(slot.big.dets.get().is_some(), big.contains_key(address));
            assert!(seen || !big.contains_key(address));
            assert!(
                seen || slot.upload_bytes.get().is_none(),
                "an unshown scene is never rendered"
            );
        }
    }

    #[test]
    fn a_scene_outside_the_pools_goes_to_the_model() {
        let spec = tiny_spec();
        let (pools, small, _) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let counting = CountingDetector::new(small.clone());
        let memoised = memo.small(&counting);
        let pooled = &pools[0][0];
        // The same scene at another address.
        let outside = Scene::clone(pooled);
        let expected = det_bits(&small.detect(pooled));
        let mut out = ImageDetections::new();
        for _ in 0..2 {
            assert_eq!(det_bits(&memoised.detect(&outside)), expected);
            memoised.detect_into(&outside, &mut out);
            assert_eq!(det_bits(&out), expected);
        }
        assert_eq!(
            counting.calls()[&(&outside as *const Scene as usize)],
            4,
            "every call reaches the model"
        );
        assert!(memo.slot(&outside).is_none());
        assert!(memo.slot(pooled).unwrap().small.dets.get().is_none());
    }

    #[test]
    fn memoised_upload_bytes_equal_a_fresh_render() {
        let spec = drifting_spec();
        let (pools, _, _) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let rendered = |scene: &Scene, (w, h): (usize, usize)| {
            imaging::encoded_size_bytes(&imaging::render(&scene.render_spec(w, h)))
        };
        for scene in pools.iter().flatten() {
            let bytes = rendered(scene, spec.frame_size);
            assert_eq!(memo.upload_bytes(scene, spec.frame_size), bytes);
            assert_eq!(memo.slot(scene).unwrap().upload_bytes.get(), Some(&bytes));
            assert_eq!(memo.upload_bytes(scene, spec.frame_size), bytes);
        }
        // The cells hold the run's frame size; any other size renders.
        let scene = &pools[0][0];
        let other = (48, 64);
        assert_ne!(rendered(scene, other), rendered(scene, spec.frame_size));
        assert_eq!(memo.upload_bytes(scene, other), rendered(scene, other));
    }

    fn fresh_count(dets: &ImageDetections, scene: &Scene, counting: &CountingConfig) -> ImageCount {
        count_detected(dets, &scene.ground_truths(), counting)
    }

    #[test]
    fn memoised_counts_equal_a_fresh_count() {
        let spec = drifting_spec();
        let (pools, small, big) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let counting = CountingConfig::default();
        for (model, memoised) in [(&small, memo.small(&small)), (&big, memo.big(&big))] {
            for scene in pools.iter().flatten() {
                let dets = model.detect(scene);
                let expected = fresh_count(&dets, scene, &counting);
                assert_eq!(
                    memo.count(scene, &dets, &counting),
                    None,
                    "no count before the model's detections are memoised"
                );
                memoised.detect(scene);
                // The first call fills the count cell, the second reads it.
                for _ in 0..2 {
                    assert_eq!(memo.count(scene, &dets, &counting), Some(expected));
                }
            }
        }
        let filled = |cells: &ModelCells| cells.count.get().is_some();
        assert!(memo
            .slots
            .values()
            .all(|slot| filled(&slot.small) && filled(&slot.big)));
    }

    #[test]
    fn other_frames_fall_through_to_a_fresh_count() {
        let spec = drifting_spec();
        let (pools, small, _) = workload(&spec);
        let memo = PoolMemo::new(&pools, spec.frame_size);
        let memoised = memo.small(&small);
        let counting = CountingConfig::default();
        let scene = pools
            .iter()
            .flatten()
            .find(|scene| !small.detect(scene).is_empty())
            .expect("some pool scene has detections");
        let dets = memoised.detect(scene);
        assert!(memo.count(scene, &dets, &counting).is_some());

        // Detections one score bit away from the cell's.
        let mut nudged = dets.as_slice().to_vec();
        let d = nudged[0];
        let score = f64::from_bits(d.score().to_bits() ^ 1);
        nudged[0] = Detection::new(d.class(), score, d.bbox());
        let nudged = ImageDetections::from_vec(nudged);
        assert_eq!(memo.count(scene, &nudged, &counting), None);

        // The same scene at an address outside the pools.
        let outside = Scene::clone(scene);
        assert_eq!(memo.count(&outside, &dets, &counting), None);

        // Thresholds other than the memo's.
        let strict = CountingConfig {
            score_threshold: 0.9,
            ..counting
        };
        assert_eq!(memo.count(scene, &dets, &strict), None);
        assert_ne!(
            fresh_count(&dets, scene, &strict),
            fresh_count(&dets, scene, &counting),
            "the stricter thresholds count differently here"
        );
    }
}
