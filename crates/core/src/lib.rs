//! # smallbig-core — the small-big model framework
//!
//! The paper's contribution (*Edge-Cloud Collaborated Object Detection via
//! Difficult-Case Discriminator*, ICDCS 2023), implemented end to end and
//! grown into a streaming multi-edge serving system.
//!
//! ## The discriminator (the paper)
//!
//! * [`SemanticFeatures`] — the two semantic features read off the small
//!   model's raw output,
//! * [`DifficultCaseDiscriminator`] — the three-threshold decision model,
//! * [`label_scene`] / [`label_dataset`] — ground-truth difficulty labels,
//! * [`calibrate`] — the paper's threshold-training procedure (Eq. 1
//!   regression + grid search),
//! * [`evaluate`] — batch evaluation producing the paper's table metrics.
//!
//! ## Offload strategies
//!
//! * [`OffloadPolicy`] — the object-safe extension point: anything that can
//!   route one frame at a time. Implement it to plug custom strategies into
//!   the runtime without touching this crate.
//! * [`Policy`] — the concrete catalogue: ours plus every baseline (random /
//!   blurred / top-1 confidence / cloud-only / edge-only / oracle), with
//!   [`Policy::decide_all`] for the paper's whole-test-set batch protocol
//!   and [`Policy::into_stream`] for the streaming form ([`QuantileStream`]
//!   gives the quantile baselines an online meaning).
//!
//! ## The streaming runtime
//!
//! * [`CloudServer`] — an in-process cloud serving any number of edges on
//!   their own threads, with a pluggable [`Scheduler`] that batches
//!   big-model inference across sessions ([`FifoBatcher`] by default —
//!   bit-identical to the historical inline loop; [`DeadlineAware`] and
//!   [`DifficultyPriority`] reorder batches; [`CloudConfig::queue_limit`]
//!   adds admission control),
//! * [`EdgeSession`] — one edge device: own virtual clock, own
//!   [`simnet::LinkModel`], own RNG stream, own policy;
//!   [`EdgeSession::submit`] / [`EdgeSession::poll`] /
//!   [`EdgeSession::drain`] stream frames through it,
//! * [`run_system`] — the legacy one-edge batch entry point, now one
//!   session's machine driven against one cloud machine on the calling
//!   thread, returning that session's [`SessionReport`],
//! * [`wire`] — the length-prefixed frame format [`transport`] ships
//!   between edge and cloud nodes ([`wire::FrameReader`] reassembles it
//!   incrementally from arbitrary byte chunks),
//! * [`transport`] — the same session protocol over a real byte stream:
//!   object-safe [`Transport`](transport::Transport) /
//!   [`Listener`](transport::Listener) seams, a versioned handshake,
//!   in-memory and TCP implementations, [`transport::serve`] on the cloud
//!   side and [`transport::RemoteCloud`] on the edge side — sessions over
//!   loopback TCP stay bit-identical to the in-process path,
//! * [`par`] — the deterministic fan-out the harness uses: pure per-image
//!   work spreads over worker threads and merges back in order, so every
//!   report stays bit-identical to a sequential run. The cloud side runs
//!   one machine per session or shard and gets its parallelism from
//!   shards ([`fleet::FleetSpec::threads`]).
//!
//! # Batch example (the paper's protocol)
//!
//! ```
//! use datagen::{Split, SplitId};
//! use modelzoo::{ModelKind, SimDetector};
//! use smallbig_core::{calibrate, evaluate, EvalConfig, Policy,
//!                     DifficultCaseDiscriminator};
//!
//! let split = Split::load_scaled(SplitId::Voc07, 0.01);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
//! let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
//!
//! let (cal, _examples) = calibrate(&split.train, &small, &big);
//! let disc = DifficultCaseDiscriminator::new(cal.thresholds);
//! let outcome = evaluate(&split.test, &small, &big,
//!                        &Policy::DifficultCase(disc), &EvalConfig::default());
//! println!("end-to-end mAP {:.2}% at {:.0}% upload",
//!          outcome.e2e_map_pct, outcome.upload_ratio * 100.0);
//! ```
//!
//! # Streaming example (many edges, one cloud)
//!
//! ```
//! use std::sync::Arc;
//! use datagen::{Dataset, DatasetProfile, SplitId};
//! use modelzoo::{Detector, ModelKind, SimDetector};
//! use simnet::LinkModel;
//! use smallbig_core::{CloudConfig, CloudServer, DifficultCaseDiscriminator,
//!                     Policy, SessionConfig};
//!
//! let data = Dataset::generate("stream", &DatasetProfile::helmet(), 10, 3);
//! let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
//! let big: Arc<dyn Detector + Send + Sync> =
//!     Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
//!
//! let mut cloud = CloudServer::spawn(
//!     CloudConfig { max_batch: 2, ..CloudConfig::default() }, big);
//! let cfg = SessionConfig { frame_size: (96, 96), ..SessionConfig::new(2) };
//! let mut cautious = cloud.connect(
//!     cfg.clone(), &small, Box::new(DifficultCaseDiscriminator::default()));
//! let mut thorough = cloud.connect(
//!     SessionConfig { link: LinkModel::fast_wifi(), ..cfg },
//!     &small, Box::new(Policy::CloudOnly));
//!
//! for scene in data.iter() {
//!     cautious.submit(scene);
//!     thorough.submit(scene);
//! }
//! let (a, b) = (cautious.drain(), thorough.drain());
//! assert_eq!(b.uploads, 10);
//! drop((cautious, thorough));
//! let stats = cloud.shutdown();
//! assert_eq!(stats.served, a.uploads + b.uploads);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod calibrate;
mod discriminator;
mod features;
pub mod fleet;
mod intmap;
mod labeling;
pub mod par;
mod persist;
mod pipeline;
mod runtime;
mod scheduler;
mod server;
mod strategies;
pub mod transport;
mod update;
pub mod wire;

pub use persist::PersistError;

pub use calibrate::{
    calibrate, calibrate_conf_threshold, calibrate_count_area, BinaryStats, Calibration,
};
pub use discriminator::{CaseKind, DifficultCaseDiscriminator, DiscriminatorConfig, Thresholds};
pub use features::{SemanticFeatures, PREDICTION_THRESHOLD};
pub use labeling::{
    difficult_fraction, label_dataset, label_dataset_with, label_scene, label_scene_with,
    LabeledExample,
};
pub use pipeline::{
    detect_all, discriminator_stats_on, discriminator_test_stats, evaluate, evaluate_detections,
    evaluate_streaming, DetectionPass, EvalConfig, EvalOutcome,
};
pub use runtime::{run_system, RuntimeConfig, RuntimeMode};
pub use scheduler::{
    DeadlineAware, DifficultyPriority, FifoBatcher, QueuedFrame, Scheduler, SchedulerConfig,
};
pub use server::{
    CloudConfig, CloudServer, CloudStats, EdgePipeline, EdgeSession, FrameResult, FrameTicket,
    SessionConfig, SessionReport,
};
pub use strategies::{Decision, OffloadPolicy, Policy, PolicyInput, QuantileStream, ScoreKind};
pub use update::{CalibrationSnapshot, CalibrationUpdate, UpdateConfig, UPDATE_FORMAT};

/// A config refused where it enters the library: `path` names the field
/// from the config's root, like `edge.retry.base_s`, and `reason` what it
/// must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The offending field's dotted path.
    pub path: String,
    /// What the field must be, and what it was.
    pub reason: String,
}

impl ConfigError {
    /// Refuses the field at `path`.
    pub fn new(path: &str, reason: impl Into<String>) -> ConfigError {
        let (path, reason) = (path.to_string(), reason.into());
        ConfigError { path, reason }
    }

    /// This refusal seen from the config that holds it at `prefix` (an
    /// empty `path` becomes `prefix`).
    pub fn within(self, prefix: &str) -> ConfigError {
        let path = format!("{prefix}.{}", self.path);
        ConfigError::new(path.trim_end_matches('.'), self.reason)
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}", self.path, self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// Refuses a config where the entry's return type has no room for it.
pub(crate) fn expect_valid(checked: Result<(), ConfigError>, what: &str) {
    if let Err(e) = checked {
        panic!("invalid {what}: {e}");
    }
}

/// [`simnet::RetryConfig::validate`]'s refusal, under `retry`.
pub(crate) fn check_retry(retry: &simnet::RetryConfig) -> Result<(), ConfigError> {
    let refuse = |(field, reason)| ConfigError::new(field, reason).within("retry");
    retry.validate().map_err(refuse)
}

/// Support shared by the crate's unit tests.
#[cfg(test)]
mod test_support {
    use std::sync::mpsc::RecvTimeoutError;
    use std::time::Duration;

    /// Runs `f` on a thread of its own and returns what it returned, or
    /// panics naming `name` once `f` has run for `limit`: a test that hangs
    /// fails by name instead of stalling the suite. A panic in `f` goes on
    /// in the caller.
    pub(crate) fn bounded<T: Send + 'static>(
        name: &str,
        limit: Duration,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let spawned = std::thread::Builder::new()
            .name(name.to_string())
            .spawn(move || {
                let _ = done_tx.send(f());
            });
        let worker = spawned.expect("spawning a test thread");
        match done_rx.recv_timeout(limit) {
            Ok(value) => value,
            Err(RecvTimeoutError::Timeout) => panic!("{name} did not finish within {limit:?}"),
            Err(RecvTimeoutError::Disconnected) => match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("the worker sends before it ends"),
            },
        }
    }
}
