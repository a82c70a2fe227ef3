//! # smallbig — edge-cloud collaborated object detection
//!
//! A complete Rust reproduction of *Edge-Cloud Collaborated Object Detection
//! via Difficult-Case Discriminator* (ICDCS 2023): a lightweight **small
//! model** runs on the edge device, a heavyweight **big model** runs in the
//! cloud, and a **difficult-case discriminator** decides per image whether
//! the local result suffices or the frame must be uploaded.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | module | contents |
//! |---|---|
//! | [`detcore`] | boxes, IoU, NMS, matching, VOC mAP, counting metrics |
//! | [`imaging`] | raster frames, blur/noise, Brenner sharpness, byte-size model |
//! | [`datagen`] | synthetic VOC / COCO-18 / HELMET datasets at published sizes |
//! | [`modelzoo`] | SSD/MobileNet/YOLO architectures (FLOPs, params, anchors) and the behavioural detector simulator |
//! | [`simnet`] | Jetson-Nano / GPU-server devices, WLAN link models, dynamic link traces and fault plans |
//! | [`core`] | the discriminator, calibration, trait-based offload policies, batch evaluator, the streaming multi-edge runtime and the wire transport |
//! | [`eval`] | experiment harness regenerating every paper table and figure |
//! | [`distributed`] | fleet specs, the `cloud-node` / `edge-node` binaries and the multi-process orchestration harness |
//!
//! Two runtimes live in [`core`]:
//!
//! * the **batch** path ([`core::evaluate`], [`core::run_system`]) mirrors
//!   the paper's one-edge, whole-dataset measurement protocol, and
//! * the **streaming** path ([`core::CloudServer`] / [`core::EdgeSession`])
//!   serves many concurrent edges — each with its own link model, virtual
//!   clock and [`core::OffloadPolicy`] — against one cloud that batches
//!   big-model inference across sessions, run on the sessions' own
//!   threads. `run_system` drives the same machines for a single session
//!   and reproduces its historical reports bit for bit.
//!
//! The cloud side has a pluggable *scheduling control plane*
//! ([`core::Scheduler`]): FIFO batching (the bit-identical default),
//! earliest-deadline-first and difficulty-priority batch formation,
//! and admission control ([`core::CloudConfig::queue_limit`]) that sheds
//! over-limit frames to the edge before any uplink is spent (see
//! `examples/cloud_scheduling.rs`).
//!
//! Networks need not be static: overlay any link with a
//! [`simnet::LinkTrace`] (outages, diurnal ramps, Gilbert–Elliott bursty
//! loss, seeded random walks) and schedule faults with a
//! [`simnet::FaultPlan`]; traced sessions retransmit with backoff against
//! their virtual clocks and fall back to the edge-only answer when the
//! link cannot deliver (see `examples/degraded_network.rs`).
//!
//! # Quickstart
//!
//! ```
//! use smallbig::prelude::*;
//!
//! // A reduced-scale VOC07 split (use 1.0 for the paper's full sizes).
//! let split = Split::load_scaled(SplitId::Voc07, 0.01);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
//! let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
//!
//! // Calibrate the three thresholds on the training set (Sec. V-D)…
//! let (cal, _) = calibrate(&split.train, &small, &big);
//! let disc = DifficultCaseDiscriminator::new(cal.thresholds);
//!
//! // …and evaluate the small-big system on the test set.
//! let outcome = evaluate(
//!     &split.test,
//!     &small,
//!     &big,
//!     &Policy::DifficultCase(disc),
//!     &EvalConfig::default(),
//! );
//! println!(
//!     "end-to-end mAP {:.1}% at {:.0}% upload",
//!     outcome.e2e_map_pct,
//!     outcome.upload_ratio * 100.0
//! );
//! ```
//!
//! # Streaming quickstart
//!
//! ```
//! use std::sync::Arc;
//! use smallbig::prelude::*;
//!
//! let data = Dataset::generate("demo", &DatasetProfile::helmet(), 8, 1);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
//! let big: Arc<dyn Detector + Send + Sync> =
//!     Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
//!
//! let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
//! let mut edge = cloud.connect(
//!     SessionConfig { frame_size: (96, 96), ..SessionConfig::new(2) },
//!     &small,
//!     Box::new(DifficultCaseDiscriminator::default()),
//! );
//! for scene in data.iter() {
//!     let ticket = edge.submit(scene);
//!     let result = edge.poll(ticket).expect("frame resolves");
//!     assert!(result.completed_at >= 0.0);
//! }
//! let report = edge.drain();
//! assert_eq!(report.frames, 8);
//! ```
//!
//! # Fleet-scale quickstart (100k sessions, one process)
//!
//! Beyond a handful of edges, a session object per edge stops being the
//! right shape. The **fleet engine** ([`core::fleet`]) runs the *same*
//! session and cloud state machines inline from a central virtual-time
//! event queue — no facade, lock or inbox per session — so one process
//! carries 10⁵–10⁶ concurrent heterogeneous sessions. Populations are
//! drawn from seeded distributions (device/link/policy/deadline mixes, Zipf
//! tenant sizes, diurnal arrivals), and a run aggregates p50/p99/p999
//! latency, per-tenant breakdowns and a deadline-miss curve:
//!
//! ```no_run
//! use smallbig::prelude::*;
//!
//! // 100k sessions over 4 cloud shards: Jetson edges on a
//! // wlan/fast-wifi/cellular mix, 20 Zipf tenants, diurnal arrivals,
//! // half the fleet under a 500 ms deadline. Shard groups are driven in
//! // parallel (`spec.threads`, default one worker per core) and the
//! // report is bit-identical for any thread count; a shard drive that
//! // panics surfaces as a typed `FleetError` instead of unwinding.
//! let spec = FleetSpec::new(100_000);
//! let report = run_fleet(&spec).expect("no shard failed");
//! println!(
//!     "{} sessions, {} frames: p50 {:.0} ms, p99 {:.0} ms, p999 {:.0} ms",
//!     report.sessions,
//!     report.frames,
//!     report.latency.p50_s * 1e3,
//!     report.latency.p99_s * 1e3,
//!     report.latency.p999_s * 1e3,
//! );
//! for t in &report.tenants {
//!     println!("tenant {}: {} frames, p99 {:.0} ms", t.tenant, t.frames, t.latency.p99_s * 1e3);
//! }
//! ```
//!
//! The same spec can be replayed through the historical
//! thread-per-session deployment ([`core::fleet::run_fleet_reference`]);
//! both produce **bit-identical** per-session reports — the conformance
//! contract `tests/fleet.rs` and `tests/fleet_golden.rs` pin. See
//! `examples/fleet.rs`.
//!
//! # Model-update quickstart (recalibration under drift)
//!
//! Workloads drift — day turns to night, crowds form — and a calibration
//! fitted once decays. With [`core::CloudConfig::updates`] set, the cloud
//! treats every big-model answer as a free pseudo-label, refits the
//! discriminator calibration on virtual-time epoch boundaries, and pushes
//! versioned artifacts to lagging sessions on the answer path; edges
//! apply them atomically between frames and roll back if a probation
//! window diverges from the pre-update holdout:
//!
//! ```
//! use std::sync::Arc;
//! use smallbig::prelude::*;
//!
//! let schedule = DriftSchedule::day_night(DatasetProfile::helmet(), 30.0);
//! let day = Dataset::generate("upd-day", schedule.profile_at(0.0), 16, 7);
//! let night = Dataset::generate("upd-night", schedule.profile_at(30.0), 16, 7);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
//! let big: Arc<dyn Detector + Send + Sync> =
//!     Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
//!
//! let mut cloud = CloudServer::spawn(
//!     CloudConfig {
//!         updates: Some(UpdateConfig { epoch_s: 10.0, min_examples: 4, ..UpdateConfig::default() }),
//!         ..CloudConfig::default()
//!     },
//!     big,
//! );
//! let mut edge = cloud.connect(
//!     SessionConfig { frame_size: (96, 96), ..SessionConfig::new(2) },
//!     &small,
//!     Box::new(Policy::DifficultCase(DifficultCaseDiscriminator::default())),
//! );
//! for i in 0..60 {
//!     let t = i as f64;
//!     let pool = if schedule.phase_index(t) == 0 { &day } else { &night };
//!     edge.advance_to(t);
//!     let ticket = edge.submit(&pool.scenes()[i % pool.len()]);
//!     edge.poll(ticket).expect("frame resolves");
//! }
//! let report = edge.drain();
//! println!(
//!     "calibration v{} after {} applies ({} rollbacks)",
//!     report.calibration_version, report.updates_applied, report.rollbacks
//! );
//! ```
//!
//! `updates: None` (the default) is bit-identical to builds that predate
//! the loop; `tests/model_update.rs` pins the golden trajectories
//! (lost-update replay, rollback-after-divergence, disabled-path
//! identity), and `examples/model_update.rs` measures a static calibration
//! decaying under day/night drift while the update loop holds. Fleets get
//! the same loop via `CloudSpec::updates` / `--update-epoch-s`, and
//! `smallbig-orchestrate --assert-converged true` checks every session
//! ended on the newest published version.
//!
//! # Distributed deployment
//!
//! The streaming runtime also speaks a real wire protocol
//! ([`core::transport`]): the cloud worker serves sessions over TCP (or any
//! custom [`core::transport::Transport`]), edges dial in with a versioned
//! handshake and reconnect with backoff, and — because all simulation time
//! is virtual — a fleet of separate OS processes produces **bit-identical**
//! per-session reports to the in-process path. Three binaries package this:
//!
//! ```bash
//! # Terminal 1 — the cloud node (prints "LISTENING <addr>"):
//! cloud-node --listen 127.0.0.1:4810 --edges 2 --frames 8
//!
//! # Terminals 2 and 3 — one edge node each (they may start first; they
//! # retry the dial with backoff until the cloud is up):
//! edge-node --cloud 127.0.0.1:4810 --edge-index 0 --edges 2 --frames 8
//! edge-node --cloud 127.0.0.1:4810 --edge-index 1 --edges 2 --frames 8
//!
//! # Same fleet on the compact binary frame codec (negotiated per
//! # connection in the handshake; JSON-only peers keep working), with each
//! # edge's devices multiplexed over ONE TCP connection instead of one
//! # connection per device:
//! edge-node --cloud 127.0.0.1:4810 --edge-index 0 --edges 2 --frames 8 \
//!           --encoding binary --mux true
//!
//! # Or let the orchestrator spawn the whole fleet and merge the reports —
//! # `--mode check` also runs the in-memory fleet and asserts the two are
//! # bit-identical:
//! smallbig-orchestrate --mode check --edges 3 --devices 1 --frames 6
//! ```
//!
//! Every node takes the same fleet description (`--spec JSON`,
//! `--spec-file PATH`, or individual flags — split, policy, link, trace,
//! scheduler, admission, `--encoding json|binary`, `--mux true|false`;
//! a flag a node does not read is an error); see [`distributed`] for the
//! spec types, the in-memory reference runner and the process harness,
//! and [`core::wire`] for the codecs and their negotiation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distributed;

pub use datagen;
pub use detcore;
pub use eval;
pub use imaging;
pub use modelzoo;
pub use simnet;
pub use smallbig_core as core;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use datagen::{Dataset, DatasetProfile, DriftSchedule, Scene, Split, SplitId};
    pub use detcore::{
        ApProtocol, BBox, ClassId, Detection, GroundTruth, ImageDetections, MapEvaluator, Taxonomy,
    };
    pub use modelzoo::{Capability, Detector, ModelKind, SimDetector};
    pub use simnet::{DeviceModel, FaultPlan, LinkModel, LinkState, LinkTrace};
    pub use smallbig_core::fleet::{
        run_fleet, run_fleet_with, ArrivalCurve, FleetError, FleetPolicy, FleetReport, FleetSpec,
        LinkChoice, MetricsMode,
    };
    pub use smallbig_core::{
        calibrate, evaluate, evaluate_streaming, run_system, CaseKind, CloudConfig, CloudServer,
        DifficultCaseDiscriminator, EdgeSession, EvalConfig, OffloadPolicy, Policy, RuntimeConfig,
        RuntimeMode, Scheduler, SchedulerConfig, SessionConfig, SessionReport, Thresholds,
        UpdateConfig,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exports_compile() {
        use crate::prelude::*;
        let b = BBox::new(0.0, 0.0, 0.5, 0.5).unwrap();
        assert!(b.area() > 0.0);
        assert_eq!(Taxonomy::voc20().len(), 20);
        assert!(ModelKind::SsdVgg16.is_big());
    }
}
