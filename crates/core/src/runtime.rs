//! The legacy batch runtime, now a thin wrapper over the streaming session
//! layer ([`crate::CloudServer`] / [`crate::EdgeSession`]).
//!
//! [`run_system`] drives one edge session frame-by-frame against one
//! cloud, both on the calling thread, exactly mirroring the paper's
//! Jetson-Nano-plus-server deployment (Sec. VI-D). Images flow through the
//! small model and the discriminator; difficult cases are "uploaded" over
//! a [`LinkModel`]-governed link, processed by the big model under the
//! server's [`DeviceModel`], and the results return to the edge. All
//! latencies are *virtual time* computed from the device/link models — runs
//! are deterministic and fast regardless of wall-clock, and byte-for-byte
//! identical to the pre-session-layer implementation (guarded by
//! `tests/api_equivalence.rs`).

use crate::fleet::MetricsMode;
use crate::scheduler::{SchedulerConfig, SchedulerSlot};
use crate::server::{
    CloudConfig, CloudMachine, CloudPort, EdgeMachine, EdgePipeline, Inline, SessionConfig, ToCloud,
};
use crate::strategies::OffloadPolicy;
use crate::{DifficultCaseDiscriminator, Policy};
use datagen::Dataset;
use detcore::ApProtocol;
use detcore::CountingConfig;
use modelzoo::Detector;
use serde::{Deserialize, Serialize};
use simnet::{DeviceModel, FaultPlan, LatencyStats, LinkModel, LinkTrace, RetryConfig};

/// Routing mode for the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeMode {
    /// Small model + discriminator; difficult cases go to the cloud.
    SmallBig,
    /// Every image goes to the cloud (no edge inference).
    CloudOnly,
    /// Every image is handled by the edge model only.
    EdgeOnly,
}

/// Configuration of a runtime session.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Edge device model (default: Jetson Nano).
    pub edge: DeviceModel,
    /// Cloud device model (default: RTX3060 server).
    pub cloud: DeviceModel,
    /// The edge↔cloud link (default: the paper's WLAN).
    pub link: LinkModel,
    /// Resolution at which frames are rendered/encoded for upload sizing.
    pub frame_size: (usize, usize),
    /// Fixed discriminator execution time (threshold checks are trivial).
    pub discriminator_s: f64,
    /// Seed for link jitter draws.
    pub seed: u64,
    /// AP protocol for the final report.
    pub ap_protocol: ApProtocol,
    /// Counting thresholds for the detected-objects metric.
    pub counting: CountingConfig,
    /// Optional per-image latency deadline. When the cloud's answer would
    /// arrive later than `deadline_s` after the image entered the system,
    /// the edge falls back to the small model's local result (the upload
    /// bandwidth is still spent). `None` = wait indefinitely.
    pub deadline_s: Option<f64>,
    /// Dynamic schedule overlaying [`link`](Self::link) (outages, ramps,
    /// bursty loss — see [`simnet::LinkTrace`]). `None` (the default) is the
    /// static fast path, bit-identical to the historical behaviour.
    pub link_trace: Option<LinkTrace>,
    /// Scheduled cloud stalls and session drop windows (the single session
    /// `run_system` drives has id 0). Empty by default.
    pub faults: FaultPlan,
    /// Backoff schedule for traced retransmissions.
    pub retry: RetryConfig,
    /// Cloud-side batch scheduler (see the *Scheduling control plane*
    /// section of [`crate::CloudServer`]'s module docs). The default
    /// ([`SchedulerConfig::Fifo`]) is bit-identical to the historical
    /// behaviour; the blocking one-frame-at-a-time drive of `run_system`
    /// means priority schedulers mostly matter for the streaming API.
    pub scheduler: SchedulerConfig,
    /// Admission control: cloud queue depth (queued frames plus virtual
    /// backlog, see [`crate::CloudConfig::queue_limit`]) beyond which
    /// uploads are refused and served edge-only
    /// ([`RuntimeReport::admission_fallbacks`]). Note that `run_system`
    /// drives its one session strictly poll-per-frame, so the cloud never
    /// falls behind it and only `Some(0)` can bind here; the streaming
    /// API is where admission control earns its keep. `None` (the
    /// default) admits everything and changes nothing.
    pub queue_limit: Option<usize>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            edge: DeviceModel::jetson_nano(),
            cloud: DeviceModel::gpu_server(),
            link: LinkModel::wlan(),
            frame_size: (300, 300),
            discriminator_s: 0.0004,
            seed: 0x5417,
            ap_protocol: ApProtocol::Voc07ElevenPoint,
            counting: CountingConfig::default(),
            deadline_s: None,
            link_trace: None,
            faults: FaultPlan::new(),
            retry: RetryConfig::default(),
            scheduler: SchedulerConfig::Fifo,
            queue_limit: None,
        }
    }
}

/// What a runtime session reports (the paper's Table XI columns).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct RuntimeReport {
    /// End-to-end mAP (%) of the results the edge device returned.
    pub map_pct: f64,
    /// Objects detected across the run.
    pub detected: usize,
    /// Ground-truth objects.
    pub total_gt: usize,
    /// Total (virtual) inference time for the whole run, seconds.
    pub total_time_s: f64,
    /// Fraction of images uploaded.
    pub upload_ratio: f64,
    /// Per-component latency totals.
    pub latency: LatencyStats,
    /// Total bytes shipped edge→cloud.
    pub uplink_bytes: u64,
    /// Uploads whose cloud answer missed the deadline (local fallback used).
    pub deadline_misses: usize,
    /// Frames routed to the cloud that the (traced) link could not deliver;
    /// the edge served its local answer. Always zero on a static link.
    pub link_fallbacks: usize,
    /// Frames the cloud refused at admission
    /// ([`RuntimeConfig::queue_limit`]); the edge served its local answer
    /// and spent no uplink. Always zero without a queue limit.
    pub admission_fallbacks: usize,
}

/// Runs the live system over a dataset and reports Table XI-style metrics.
///
/// The cloud keeps its own virtual busy-clock; requests queue if they
/// arrive while the server is busy. The edge processes frames
/// sequentially, as the paper's measurement does. Internally this is the
/// machine behind an [`crate::EdgeSession`] driven against the machine
/// behind a [`crate::CloudServer`], inline on the calling thread; use
/// those types directly for incremental submission or multiple concurrent
/// edges.
///
/// # Examples
///
/// ```
/// use datagen::{Dataset, DatasetProfile, SplitId};
/// use modelzoo::{ModelKind, SimDetector};
/// use smallbig_core::{run_system, DifficultCaseDiscriminator, RuntimeConfig, RuntimeMode};
///
/// let test = Dataset::generate("demo", &DatasetProfile::helmet(), 20, 3);
/// let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
/// let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
/// let report = run_system(
///     &test, &small, &big,
///     &DifficultCaseDiscriminator::default(),
///     RuntimeMode::SmallBig,
///     &RuntimeConfig { frame_size: (96, 96), ..Default::default() },
/// );
/// assert!(report.total_time_s > 0.0);
/// ```
pub fn run_system(
    test: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
    discriminator: &DifficultCaseDiscriminator,
    mode: RuntimeMode,
    config: &RuntimeConfig,
) -> RuntimeReport {
    assert!(!test.is_empty(), "cannot run over an empty dataset");
    let num_classes = test.taxonomy().len();

    let cloud_cfg = CloudConfig {
        device: config.cloud.clone(),
        seed: config.seed,
        faults: config.faults.clone(),
        scheduler: config.scheduler,
        queue_limit: config.queue_limit,
        ..CloudConfig::default()
    };
    let session_cfg = SessionConfig {
        edge: config.edge.clone(),
        link: config.link.clone(),
        frame_size: config.frame_size,
        discriminator_s: config.discriminator_s,
        seed: config.seed,
        ap_protocol: config.ap_protocol,
        counting: config.counting,
        deadline_s: config.deadline_s,
        pipeline: match mode {
            RuntimeMode::SmallBig => EdgePipeline::Full,
            RuntimeMode::EdgeOnly => EdgePipeline::ModelOnly,
            RuntimeMode::CloudOnly => EdgePipeline::Bypass,
        },
        num_classes,
        link_trace: config.link_trace.clone(),
        drop_windows: config.faults.drops_for(0),
        retry: config.retry,
    };
    let policy: Box<dyn OffloadPolicy + '_> = match mode {
        RuntimeMode::SmallBig => Box::new(discriminator.clone()),
        RuntimeMode::EdgeOnly => Box::new(Policy::EdgeOnly),
        RuntimeMode::CloudOnly => Box::new(Policy::CloudOnly),
    };

    // Edge and cloud on this thread: the cloud handles each message as the
    // session sends it, and the session pops the reply it left.
    let admission = cloud_cfg.queue_limit.is_some();
    let sched = SchedulerSlot::from_config(&cloud_cfg.scheduler);
    let mut cloud = Inline {
        machine: CloudMachine::new(cloud_cfg, sched),
        big,
    };
    let link = session_cfg.link.clone();
    cloud.send(ToCloud::Register { session: 0, link });
    let mut edge = EdgeMachine::new(0, session_cfg, small, policy, admission, MetricsMode::Full);
    for scene in test.iter() {
        let ticket = edge.submit_inner(&mut cloud, scene, None);
        // Block on each frame: the paper's edge is strictly sequential.
        let _ = edge.poll(&mut cloud, ticket);
    }
    let report = edge.drain(&mut cloud);
    let stats = cloud.machine.finish();

    assert!(
        stats.served == report.uploads,
        "server must have processed every uploaded image"
    );
    RuntimeReport {
        map_pct: report.map_pct,
        detected: report.detected,
        total_gt: report.total_gt,
        total_time_s: report.total_time_s,
        upload_ratio: report.upload_ratio,
        latency: report.latency,
        uplink_bytes: report.uplink_bytes,
        deadline_misses: report.deadline_misses,
        link_fallbacks: report.link_fallbacks,
        admission_fallbacks: report.admission_fallbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{DatasetProfile, SplitId};
    use modelzoo::{ModelKind, SimDetector};

    fn fixture() -> (Dataset, SimDetector, SimDetector) {
        let test = Dataset::generate("t", &DatasetProfile::helmet(), 40, 9);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
        (test, small, big)
    }

    /// Thresholds calibrated on a HELMET-like training set (computed once via
    /// `calibrate`; pinned here to keep the tests fast).
    fn helmet_disc() -> DifficultCaseDiscriminator {
        DifficultCaseDiscriminator::new(crate::Thresholds {
            conf: 0.21,
            count: 4,
            area: 0.03,
        })
    }

    fn small_cfg() -> RuntimeConfig {
        RuntimeConfig {
            frame_size: (96, 96),
            ..Default::default()
        }
    }

    #[test]
    fn edge_only_never_uploads() {
        let (test, small, big) = fixture();
        let r = run_system(
            &test,
            &small,
            &big,
            &helmet_disc(),
            RuntimeMode::EdgeOnly,
            &small_cfg(),
        );
        assert_eq!(r.upload_ratio, 0.0);
        assert_eq!(r.uplink_bytes, 0);
        assert!(r.total_time_s > 0.0);
    }

    /// Edge-only never renders, so only the session's validation can catch
    /// this.
    #[test]
    #[should_panic(expected = "frame_size must be positive")]
    fn zero_frame_size_fails_before_any_frame() {
        let (test, small, big) = fixture();
        let _ = run_system(
            &test,
            &small,
            &big,
            &helmet_disc(),
            RuntimeMode::EdgeOnly,
            &RuntimeConfig {
                frame_size: (0, 0),
                ..Default::default()
            },
        );
    }

    #[test]
    fn cloud_only_uploads_everything_and_is_slowest() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        // Paper-realistic frame size: WLAN transfer dominates, so offloading
        // everything is slower than hybrid routing (Table XI's regime).
        let cfg = RuntimeConfig::default();
        let cloud = run_system(&test, &small, &big, &disc, RuntimeMode::CloudOnly, &cfg);
        let edge = run_system(&test, &small, &big, &disc, RuntimeMode::EdgeOnly, &cfg);
        let ours = run_system(&test, &small, &big, &disc, RuntimeMode::SmallBig, &cfg);
        assert_eq!(cloud.upload_ratio, 1.0);
        // The paper's Table XI ordering: edge < ours < cloud in time,
        // edge < ours <= cloud in accuracy.
        assert!(edge.total_time_s < ours.total_time_s);
        assert!(ours.total_time_s < cloud.total_time_s);
        assert!(edge.map_pct <= ours.map_pct + 1e-9);
        assert!(ours.map_pct <= cloud.map_pct + 1e-9);
        assert!(edge.detected <= ours.detected);
    }

    #[test]
    fn runtime_is_deterministic() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        let cfg = small_cfg();
        let a = run_system(&test, &small, &big, &disc, RuntimeMode::SmallBig, &cfg);
        let b = run_system(&test, &small, &big, &disc, RuntimeMode::SmallBig, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn smallbig_matches_batch_upload_ratio() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        let r = run_system(
            &test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &small_cfg(),
        );
        let batch = crate::evaluate(
            &test,
            &small,
            &big,
            &crate::Policy::DifficultCase(disc),
            &crate::EvalConfig::default(),
        );
        assert!((r.upload_ratio - batch.upload_ratio).abs() < 1e-9);
        assert!((r.map_pct - batch.e2e_map_pct).abs() < 1e-9);
        assert_eq!(r.detected, batch.e2e_detected);
    }

    #[test]
    fn tight_deadline_forces_local_fallback() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        // 150 ms: enough for edge inference but never for a WLAN round trip.
        let cfg = RuntimeConfig {
            frame_size: (96, 96),
            deadline_s: Some(0.15),
            ..Default::default()
        };
        let strict = run_system(&test, &small, &big, &disc, RuntimeMode::SmallBig, &cfg);
        let relaxed = run_system(
            &test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &RuntimeConfig {
                frame_size: (96, 96),
                ..Default::default()
            },
        );
        // Same routing decisions => same bandwidth, but misses under strict.
        assert_eq!(strict.upload_ratio, relaxed.upload_ratio);
        assert_eq!(strict.uplink_bytes, relaxed.uplink_bytes);
        if strict.upload_ratio > 0.0 {
            assert!(strict.deadline_misses > 0, "WLAN cannot meet 150 ms");
            // Falling back to local results costs accuracy but bounds time.
            assert!(strict.detected <= relaxed.detected);
            assert!(strict.total_time_s < relaxed.total_time_s);
            // Every image finished within edge time + deadline.
            assert!(strict.latency.max_image_s <= 0.15 + 0.2);
        }
        assert_eq!(relaxed.deadline_misses, 0);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        let base = RuntimeConfig {
            frame_size: (96, 96),
            ..Default::default()
        };
        let with_deadline = RuntimeConfig {
            frame_size: (96, 96),
            deadline_s: Some(60.0),
            ..Default::default()
        };
        let a = run_system(&test, &small, &big, &disc, RuntimeMode::SmallBig, &base);
        let b = run_system(
            &test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &with_deadline,
        );
        assert_eq!(a.detected, b.detected);
        assert_eq!(b.deadline_misses, 0);
        assert!((a.total_time_s - b.total_time_s).abs() < 1e-9);
    }

    #[test]
    fn uplink_bytes_scale_with_uploads() {
        let (test, small, big) = fixture();
        let disc = helmet_disc();
        let r = run_system(
            &test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &small_cfg(),
        );
        if r.latency.cloud_images > 0 {
            assert!(r.uplink_bytes > 0);
            let per_image = r.uplink_bytes as f64 / r.latency.cloud_images as f64;
            assert!(
                per_image > 500.0,
                "encoded frames are non-trivial: {per_image}"
            );
        }
    }
}
