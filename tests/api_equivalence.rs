//! API-redesign guarantees: the streaming session layer must reproduce the
//! legacy batch API exactly, and multi-edge runs must be deterministic.
//!
//! The strongest guard is [`legacy`]: a faithful transcription of the
//! *pre-redesign* `run_system` (the seed's single-purpose threaded loop,
//! deleted when the session layer replaced it). Comparing today's wrapper
//! against that reference is what makes "bit-for-bit identical reports"
//! a non-circular claim.

use smallbig::core::{
    run_system, CloudConfig, CloudServer, DifficultCaseDiscriminator, Policy, RuntimeConfig,
    RuntimeMode, SessionConfig, SessionReport, Thresholds,
};
use smallbig::prelude::*;
use std::sync::Arc;

/// The seed implementation of `run_system`, transcribed verbatim (modulo
/// visibility: `parking_lot::Mutex` → `std::sync::Mutex`, and the report is
/// a local struct because `SessionReport` is `#[non_exhaustive]`).
mod legacy {
    use crossbeam::channel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use serde::{Deserialize, Serialize};
    use smallbig::core::wire::{decode_frame, encode_frame};
    use smallbig::core::{CaseKind, DifficultCaseDiscriminator, RuntimeConfig, RuntimeMode};
    use smallbig::detcore::{count_detected, DatasetCounter, MapEvaluator};
    use smallbig::imaging::{encoded_size_bytes, render, result_size_bytes};
    use smallbig::prelude::*;
    use smallbig::simnet::{LatencyBreakdown, LatencyStats};
    use std::sync::{Arc, Mutex};
    use std::thread;

    #[derive(Debug, Clone, PartialEq)]
    pub struct Report {
        pub map_pct: f64,
        pub detected: usize,
        pub total_gt: usize,
        pub total_time_s: f64,
        pub upload_ratio: f64,
        pub latency: LatencyStats,
        pub uplink_bytes: u64,
        pub deadline_misses: usize,
    }

    #[derive(Debug, Serialize, Deserialize)]
    struct UploadRequest {
        scene: Scene,
        frame_bytes: usize,
        sent_at: f64,
    }

    #[derive(Debug, Serialize, Deserialize)]
    struct UploadResponse {
        dets: smallbig::detcore::ImageDetections,
        sent_at: f64,
        infer_s: f64,
        uplink_s: f64,
    }

    pub fn run_system(
        test: &Dataset,
        small: &(dyn Detector + Sync),
        big: &(dyn Detector + Sync),
        discriminator: &DifficultCaseDiscriminator,
        mode: RuntimeMode,
        config: &RuntimeConfig,
    ) -> Report {
        assert!(!test.is_empty(), "cannot run over an empty dataset");
        let num_classes = test.taxonomy().len();

        let (req_tx, req_rx) = channel::unbounded::<bytes::Bytes>();
        let (resp_tx, resp_rx) = channel::unbounded::<bytes::Bytes>();

        let served = Arc::new(Mutex::new(0usize));
        let served_cloud = Arc::clone(&served);

        let cloud_cfg = (config.cloud.clone(), config.link.clone(), config.seed);
        let report = thread::scope(|scope| {
            // ---- Cloud server thread ----
            scope.spawn(move || {
                let (device, link, seed) = cloud_cfg;
                let mut rng = StdRng::seed_from_u64(seed ^ 0xc10d);
                let mut server_free_at = 0.0f64;
                while let Ok(frame) = req_rx.recv() {
                    let req: UploadRequest =
                        decode_frame(&frame).expect("edge sends well-formed frames");
                    let uplink_s = link.transfer_time(req.frame_bytes, &mut rng);
                    let arrival = req.sent_at + uplink_s;
                    let start = server_free_at.max(arrival);
                    let infer_s = device.inference_time(big.flops());
                    server_free_at = start + infer_s;
                    let dets = big.detect(&req.scene);
                    *served_cloud.lock().unwrap() += 1;
                    let resp = UploadResponse {
                        dets,
                        sent_at: server_free_at,
                        infer_s,
                        uplink_s,
                    };
                    if resp_tx.send(encode_frame(&resp)).is_err() {
                        break; // edge hung up
                    }
                }
            });

            // ---- Edge device (this thread) ----
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0xed6e);
            let mut now = 0.0f64;
            let mut map = MapEvaluator::new(num_classes, config.ap_protocol);
            let mut counter = DatasetCounter::new();
            let mut latency = LatencyStats::new();
            let mut uplink_bytes = 0u64;
            let mut deadline_misses = 0usize;
            let mut uploads = 0usize;

            for scene in test.iter() {
                let gts = scene.ground_truths();
                let mut breakdown = LatencyBreakdown::default();

                let (final_dets, decision) = match mode {
                    RuntimeMode::EdgeOnly => {
                        breakdown.edge_infer_s = config.edge.inference_time(small.flops());
                        (small.detect(scene), CaseKind::Easy)
                    }
                    RuntimeMode::CloudOnly => (small.detect(scene), CaseKind::Difficult),
                    RuntimeMode::SmallBig => {
                        breakdown.edge_infer_s = config.edge.inference_time(small.flops());
                        breakdown.discriminator_s = config.discriminator_s;
                        let dets = small.detect(scene);
                        let kind = discriminator.classify(&dets);
                        (dets, kind)
                    }
                };

                now += breakdown.edge_infer_s + breakdown.discriminator_s;

                let final_dets = if decision.is_difficult() {
                    let image_entered_at = now - breakdown.edge_infer_s - breakdown.discriminator_s;
                    let frame =
                        render(&scene.render_spec(config.frame_size.0, config.frame_size.1));
                    let frame_bytes = encoded_size_bytes(&frame);
                    uplink_bytes += frame_bytes as u64;
                    uploads += 1;
                    let req = UploadRequest {
                        scene: scene.clone(),
                        frame_bytes,
                        sent_at: now,
                    };
                    req_tx.send(encode_frame(&req)).expect("cloud thread alive");
                    let resp: UploadResponse =
                        decode_frame(&resp_rx.recv().expect("cloud thread replies"))
                            .expect("cloud sends well-formed frames");
                    let downlink_s = config
                        .link
                        .transfer_time(result_size_bytes(resp.dets.len()), &mut rng);
                    let answer_at = resp.sent_at + downlink_s;
                    let missed_deadline = config
                        .deadline_s
                        .map(|d| answer_at - image_entered_at > d)
                        .unwrap_or(false);
                    if missed_deadline {
                        deadline_misses += 1;
                        let deadline = config.deadline_s.expect("checked above");
                        let waited = (image_entered_at + deadline - now).max(0.0);
                        breakdown.uplink_s = waited;
                        now += waited;
                        final_dets
                    } else {
                        breakdown.uplink_s = resp.uplink_s;
                        breakdown.cloud_infer_s = resp.infer_s
                            + (resp.sent_at - now - resp.uplink_s - resp.infer_s).max(0.0);
                        breakdown.downlink_s = downlink_s;
                        now = answer_at;
                        resp.dets
                    }
                } else {
                    final_dets
                };

                latency.add(breakdown);
                map.add_image(&final_dets, &gts);
                counter.add(count_detected(&final_dets, &gts, &config.counting));
            }
            drop(req_tx); // shut the cloud thread down

            Report {
                map_pct: map.evaluate().map_percent(),
                detected: counter.total_detected(),
                total_gt: counter.total_gt(),
                total_time_s: now,
                upload_ratio: uploads as f64 / test.len() as f64,
                latency,
                uplink_bytes,
                deadline_misses,
            }
        });

        assert!(
            *served.lock().unwrap() == (report.upload_ratio * test.len() as f64).round() as usize,
            "server must have processed every uploaded image"
        );
        report
    }
}

fn fixture() -> (Dataset, SimDetector, SimDetector) {
    let test = Dataset::generate("equiv", &DatasetProfile::helmet(), 40, 9);
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
    (test, small, big)
}

fn disc() -> DifficultCaseDiscriminator {
    DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.21,
        count: 4,
        area: 0.03,
    })
}

/// The session-layer `run_system` must reproduce the seed implementation's
/// report bit-for-bit — same latencies, mAP, upload ratio — in every mode,
/// with and without a deadline. This compares against the transcribed
/// pre-redesign code in [`legacy`], so it is not circular.
#[test]
fn run_system_matches_seed_implementation_exactly() {
    let (test, small, big) = fixture();
    let configs = [
        RuntimeConfig {
            frame_size: (96, 96),
            ..Default::default()
        },
        RuntimeConfig {
            frame_size: (96, 96),
            deadline_s: Some(0.15),
            ..Default::default()
        },
        RuntimeConfig {
            frame_size: (96, 96),
            link: LinkModel::cellular(),
            seed: 0xbeef,
            ..Default::default()
        },
    ];
    for config in &configs {
        for mode in [
            RuntimeMode::SmallBig,
            RuntimeMode::EdgeOnly,
            RuntimeMode::CloudOnly,
        ] {
            let new = run_system(&test, &small, &big, &disc(), mode, config);
            let old = legacy::run_system(&test, &small, &big, &disc(), mode, config);
            assert_eq!(new.map_pct, old.map_pct, "{mode:?} map");
            assert_eq!(new.detected, old.detected, "{mode:?} detected");
            assert_eq!(new.total_gt, old.total_gt, "{mode:?} gt");
            assert_eq!(new.total_time_s, old.total_time_s, "{mode:?} time");
            assert_eq!(new.upload_ratio, old.upload_ratio, "{mode:?} upload");
            assert_eq!(new.latency, old.latency, "{mode:?} latency");
            assert_eq!(new.uplink_bytes, old.uplink_bytes, "{mode:?} bytes");
            assert_eq!(new.deadline_misses, old.deadline_misses, "{mode:?} misses");
        }
    }
}

/// `run_system` is documented as a thin wrapper over one blocking
/// single-session `CloudServer`. Drive that session by hand and require the
/// identical `SessionReport`, the whole of it, bit for bit.
#[test]
fn run_system_equals_manual_single_session() {
    let (test, small, big) = fixture();
    let config = RuntimeConfig {
        frame_size: (96, 96),
        ..Default::default()
    };

    let run = run_system(&test, &small, &big, &disc(), RuntimeMode::SmallBig, &config);

    let big_arc: Arc<dyn Detector + Send + Sync> = Arc::new(big.clone());
    let mut cloud = CloudServer::spawn(
        CloudConfig {
            device: config.cloud.clone(),
            seed: config.seed,
            max_batch: 1,
            ..CloudConfig::default()
        },
        big_arc,
    );
    let session_cfg = SessionConfig {
        edge: config.edge.clone(),
        link: config.link.clone(),
        frame_size: config.frame_size,
        discriminator_s: config.discriminator_s,
        seed: config.seed,
        ap_protocol: config.ap_protocol,
        counting: config.counting,
        deadline_s: config.deadline_s,
        ..SessionConfig::new(test.taxonomy().len())
    };
    let mut session = cloud.connect(session_cfg, &small, Box::new(disc()));
    for scene in test.iter() {
        let ticket = session.submit(scene);
        let _ = session.poll(ticket);
    }
    let manual = session.drain();
    drop(session);
    let stats = cloud.shutdown();

    assert_eq!(stats.served, manual.uploads);
    assert_eq!(run, manual);
}

/// All three legacy modes run bit-identically twice through the wrapper.
#[test]
fn wrapper_is_deterministic_in_every_mode() {
    let (test, small, big) = fixture();
    let config = RuntimeConfig {
        frame_size: (96, 96),
        ..Default::default()
    };
    for mode in [
        RuntimeMode::SmallBig,
        RuntimeMode::EdgeOnly,
        RuntimeMode::CloudOnly,
    ] {
        let a = run_system(&test, &small, &big, &disc(), mode, &config);
        let b = run_system(&test, &small, &big, &disc(), mode, &config);
        assert_eq!(a, b, "{mode:?}");
    }
}

/// The acceptance scenario: four concurrent edge sessions with distinct
/// link models and policies against one cloud, driven round-robin with
/// skewed workloads, twice — identical reports both times.
#[test]
fn four_edge_run_is_deterministic() {
    let run = || {
        let (test, small, big) = fixture();
        let big_arc: Arc<dyn Detector + Send + Sync> = Arc::new(big);
        let mut cloud = CloudServer::spawn(
            CloudConfig {
                max_batch: 3,
                ..CloudConfig::default()
            },
            big_arc,
        );
        let base = SessionConfig {
            frame_size: (96, 96),
            ..SessionConfig::new(2)
        };
        let mut sessions = vec![
            cloud.connect(
                SessionConfig {
                    link: LinkModel::wlan(),
                    seed: 1,
                    ..base.clone()
                },
                &small,
                Box::new(disc()),
            ),
            cloud.connect(
                SessionConfig {
                    link: LinkModel::fast_wifi(),
                    seed: 2,
                    ..base.clone()
                },
                &small,
                Box::new(Policy::CloudOnly),
            ),
            cloud.connect(
                SessionConfig {
                    link: LinkModel::cellular(),
                    seed: 3,
                    ..base.clone()
                },
                &small,
                Box::new(Policy::Random {
                    upload_fraction: 0.5,
                    seed: 9,
                }),
            ),
            cloud.connect(
                SessionConfig {
                    link: LinkModel::wlan(),
                    seed: 4,
                    ..base.clone()
                },
                &small,
                Policy::Top1Quantile {
                    upload_fraction: 0.4,
                }
                .into_stream(),
            ),
        ];
        // Skewed workloads: session i sees every (i+1)-th frame.
        for (i, scene) in test.iter().enumerate() {
            for (k, session) in sessions.iter_mut().enumerate() {
                if i % (k + 1) == 0 {
                    session.submit(scene);
                }
            }
        }
        let reports: Vec<SessionReport> = sessions.iter_mut().map(|s| s.drain()).collect();
        drop(sessions);
        let stats = cloud.shutdown();
        (reports, stats)
    };
    let (ra, sa) = run();
    let (rb, sb) = run();
    assert_eq!(ra, rb);
    assert_eq!(sa, sb);
    assert_eq!(ra.len(), 4);
    assert_eq!(sa.sessions, 4);
    // Session 1 is cloud-only over its 20-frame share (every 2nd frame).
    assert_eq!(ra[1].frames, 20);
    assert_eq!(ra[1].uploads, 20);
    // The cloud served exactly the union of all uploads.
    assert_eq!(sa.served, ra.iter().map(|r| r.uploads).sum::<usize>());
    // Distinct links/policies actually produced distinct sessions.
    assert!(ra[0].total_time_s != ra[1].total_time_s);
}
