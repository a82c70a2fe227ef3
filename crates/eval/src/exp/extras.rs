//! Beyond the numbered tables: the intro's partition motivation and the
//! ablations of the serving stack (ROADMAP.md item 18 maps paper sections
//! to modules).

use crate::pairs::{pair_run, ExpConfig};
use crate::table::{f2, Table};
use crate::Report;
use datagen::SplitId;
use imaging::{encoded_size_bytes, render};
use modelzoo::{Detector, ModelKind, PartitionAnalysis};
use smallbig_core::{
    run_system, CloudConfig, CloudServer, DifficultCaseDiscriminator, DiscriminatorConfig, Policy,
    RuntimeConfig, RuntimeMode, SchedulerConfig, SessionConfig,
};
use std::sync::Arc;

/// The intro's motivation: partitioned execution of an object detector ships
/// more bytes than the image itself at almost every split point.
pub fn motivation(cfg: &ExpConfig) -> Report {
    let net = modelzoo::ssd300_vgg16(20);
    let analysis = PartitionAnalysis::of(&net);
    // A representative encoded frame.
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Voc07,
        cfg,
    );
    let scene = &run.split.test.scenes()[0];
    let image_bytes = encoded_size_bytes(&render(&scene.render_spec(300, 300))) as u64;

    let mut t = Table::new(vec![
        "split after layer".into(),
        "activation bytes".into(),
        "vs encoded image".into(),
        "device FLOPs share(%)".into(),
    ]);
    let total: u64 = analysis
        .splits
        .last()
        .map(|s| s.device_flops + s.cloud_flops)
        .unwrap_or(1);
    for sp in analysis.splits.iter().step_by(3) {
        t.add_row(vec![
            sp.layer_name.clone(),
            format!("{}", sp.transfer_bytes),
            format!("{:.1}x", sp.transfer_bytes as f64 / image_bytes as f64),
            f2(sp.device_flops as f64 / total as f64 * 100.0),
        ]);
    }
    let worse = analysis.splits_larger_than_image(image_bytes);
    let best_cheap = analysis.min_transfer_within_budget(0.25);
    let mut report = Report::new(
        "motivation",
        "Model partition ships more bytes than the image (SSD300, Sec. II-C)",
        t,
    )
    .with_note(format!(
        "encoded 300x300 frame = {image_bytes} bytes; {worse}/{} split points transfer more",
        analysis.splits.len()
    ));
    if let Some(sp) = best_cheap {
        report = report.with_note(format!(
            "cheapest split within a 25% edge-FLOPs budget still ships {} bytes ({:.1}x the image) after {}",
            sp.transfer_bytes,
            sp.transfer_bytes as f64 / image_bytes as f64,
            sp.layer_name
        ));
    }
    report
}

/// Ablation: which parts of the discriminator matter (Sec. V-C's three steps).
pub fn ablation_features(cfg: &ExpConfig) -> Report {
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Voc0712,
        cfg,
    );
    let th = run.calibration.thresholds;
    let variants: [(&str, DiscriminatorConfig); 4] = [
        (
            "full (count + area + shortcut)",
            DiscriminatorConfig::default(),
        ),
        (
            "count only",
            DiscriminatorConfig {
                use_area: false,
                ..Default::default()
            },
        ),
        (
            "area only",
            DiscriminatorConfig {
                use_count: false,
                ..Default::default()
            },
        ),
        (
            "no all-detected shortcut",
            DiscriminatorConfig {
                use_all_detected_shortcut: false,
                ..Default::default()
            },
        ),
    ];
    let mut t = Table::new(vec![
        "discriminator variant".into(),
        "e2e mAP(%)".into(),
        "e2e dets/big(%)".into(),
        "upload(%)".into(),
    ]);
    for (name, config) in variants {
        let disc = DifficultCaseDiscriminator::with_config(th, config);
        let out = run.evaluate_policy(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            &Policy::DifficultCase(disc),
        );
        t.add_row(vec![
            name.into(),
            f2(out.e2e_map_pct),
            f2(out.e2e_detected_vs_big_pct()),
            f2(out.upload_ratio * 100.0),
        ]);
    }
    let oracle = run.evaluate_policy(ModelKind::VggLiteSsd, ModelKind::SsdVgg16, &Policy::Oracle);
    t.add_row(vec![
        "oracle (true labels)".into(),
        f2(oracle.e2e_map_pct),
        f2(oracle.e2e_detected_vs_big_pct()),
        f2(oracle.upload_ratio * 100.0),
    ]);
    Report::new(
        "ablation-features",
        "Ablation: discriminator steps (VOC07+12, small model 1)",
        t,
    )
    .with_note("'no shortcut' uploads far more at little accuracy gain; both features contribute")
}

/// Ablation: sensitivity to the noise-filter confidence threshold.
pub fn ablation_tconf(cfg: &ExpConfig) -> Report {
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Voc0712,
        cfg,
    );
    let th = run.calibration.thresholds;
    let mut t = Table::new(vec![
        "t_conf".into(),
        "e2e mAP(%)".into(),
        "upload(%)".into(),
    ]);
    for step in 1..=9 {
        let conf = step as f64 * 0.05;
        let disc = DifficultCaseDiscriminator::new(smallbig_core::Thresholds { conf, ..th });
        let out = run.evaluate_policy(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            &Policy::DifficultCase(disc),
        );
        t.add_row(vec![
            f2(conf),
            f2(out.e2e_map_pct),
            f2(out.upload_ratio * 100.0),
        ]);
    }
    Report::new(
        "ablation-tconf",
        "Ablation: sensitivity to the confidence (noise-filter) threshold",
        t,
    )
    .with_note(format!(
        "calibration picked t_conf = {:.2}; the paper reports the useful band as 0.15-0.35",
        th.conf
    ))
}

/// Ablation: Table XI under different network links.
pub fn ablation_links(cfg: &ExpConfig) -> Report {
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Helmet,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    let links = [
        ("WLAN (paper)", simnet::LinkModel::wlan()),
        ("fast Wi-Fi", simnet::LinkModel::fast_wifi()),
        ("cellular", simnet::LinkModel::cellular()),
    ];
    let mut t = Table::new(vec![
        "link".into(),
        "ours total(s)".into(),
        "cloud-only total(s)".into(),
        "ours saves(%)".into(),
    ]);
    for (name, link) in links {
        let rt = RuntimeConfig {
            link,
            frame_size: (300, 300),
            ..Default::default()
        };
        let ours = run_system(
            &run.split.test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &rt,
        );
        let cloud = run_system(
            &run.split.test,
            &small,
            &big,
            &disc,
            RuntimeMode::CloudOnly,
            &rt,
        );
        t.add_row(vec![
            name.into(),
            f2(ours.total_time_s),
            f2(cloud.total_time_s),
            f2((1.0 - ours.total_time_s / cloud.total_time_s) * 100.0),
        ]);
    }
    Report::new(
        "ablation-links",
        "Ablation: end-to-end time vs network link (HELMET runtime)",
        t,
    )
    .with_note("the slower the link, the more the difficult-case routing saves")
}

/// Extension: per-class AP breakdown on VOC07 — shows *where* the small
/// model loses to the big one (person/chair-like crowded classes) and how
/// the end-to-end system recovers it.
pub fn perclass(cfg: &ExpConfig) -> Report {
    use detcore::{ApProtocol, ClassId, MapEvaluator, Taxonomy};
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Voc07,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    let taxonomy = Taxonomy::voc20();

    let mut small_ev = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
    let mut big_ev = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
    let mut e2e_ev = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
    // Detections and ground truths are consumed per frame, so three reused
    // buffers carry the whole scan: `detect_into` for the models and
    // `ground_truths_into` for the annotations, all allocation-free when
    // warm.
    let mut s = detcore::ImageDetections::new();
    let mut b = detcore::ImageDetections::new();
    let mut gts = Vec::new();
    for scene in run.split.test.iter() {
        scene.ground_truths_into(&mut gts);
        modelzoo::Detector::detect_into(&small, scene, &mut s);
        modelzoo::Detector::detect_into(&big, scene, &mut b);
        let final_dets = if disc.classify(&s).is_difficult() {
            &b
        } else {
            &s
        };
        e2e_ev.add_image(final_dets, &gts);
        small_ev.add_image(&s, &gts);
        big_ev.add_image(&b, &gts);
    }
    let (sr, br, er) = (small_ev.evaluate(), big_ev.evaluate(), e2e_ev.evaluate());

    let mut t = Table::new(vec![
        "class".into(),
        "objects".into(),
        "small AP(%)".into(),
        "big AP(%)".into(),
        "e2e AP(%)".into(),
        "recovered(%)".into(),
    ]);
    for c in 0..20u16 {
        let id = ClassId(c);
        let (s, b, e) = (
            sr.per_class[c as usize].ap * 100.0,
            br.per_class[c as usize].ap * 100.0,
            er.per_class[c as usize].ap * 100.0,
        );
        let gap = b - s;
        let recovered = if gap.abs() < 1e-9 {
            100.0
        } else {
            (e - s) / gap * 100.0
        };
        t.add_row(vec![
            taxonomy.name(id).to_string(),
            format!("{}", sr.per_class[c as usize].num_gt),
            f2(s),
            f2(b),
            f2(e),
            f2(recovered.clamp(-100.0, 200.0)),
        ]);
    }
    Report::new(
        "perclass",
        "Extension: per-class AP on VOC07 (small model 1) — where uploads help",
        t,
    )
    .with_note("'recovered' = fraction of the small→big AP gap closed by routing difficult cases")
}

/// Extension (paper Sec. VII future work): automatic model compression —
/// given an edge budget, search the width multiplier automatically.
pub fn compress(_cfg: &ExpConfig) -> Report {
    use modelzoo::{compress_to_budget, CompressBase, EdgeBudget};
    let mut t = Table::new(vec![
        "base / budget".into(),
        "found width".into(),
        "size(MB)".into(),
        "GFLOPs".into(),
        "pruned vs SSD(%)".into(),
    ]);
    let big = modelzoo::ssd300_vgg16(20);
    for (base, label) in [
        (CompressBase::MobileNetV1, "MobileNetV1"),
        (CompressBase::MobileNetV2, "MobileNetV2"),
    ] {
        for budget_mb in [4.0, 8.0, 12.0, 20.0] {
            match compress_to_budget(base, 20, EdgeBudget::size_mb(budget_mb)) {
                Some(c) => t.add_row(vec![
                    format!("{label} @ {budget_mb:.0} MB"),
                    format!("{:.2}", c.alpha),
                    f2(c.network.size_mb()),
                    f2(c.network.gflops()),
                    f2(c.network.pruned_percent_vs(&big)),
                ]),
                None => t.add_row(vec![
                    format!("{label} @ {budget_mb:.0} MB"),
                    "infeasible".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                ]),
            }
        }
    }
    Report::new(
        "compress",
        "Extension: automatic small-model compression under an edge budget (Sec. VII)",
        t,
    )
    .with_note(
        "bisection over the MobileNet width multiplier; 12 MB recovers the paper's small model 2",
    )
}

/// Extension ablation: per-image latency deadlines with local fallback.
pub fn ablation_deadline(cfg: &ExpConfig) -> Report {
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Helmet,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    let mut t = Table::new(vec![
        "deadline".into(),
        "mAP(%)".into(),
        "detected".into(),
        "deadline misses".into(),
        "mean latency(ms)".into(),
    ]);
    for deadline in [None, Some(2.0), Some(1.0), Some(0.5), Some(0.2)] {
        let rt = RuntimeConfig {
            frame_size: (300, 300),
            deadline_s: deadline,
            ..Default::default()
        };
        let r = run_system(
            &run.split.test,
            &small,
            &big,
            &disc,
            RuntimeMode::SmallBig,
            &rt,
        );
        t.add_row(vec![
            deadline
                .map(|d| format!("{d:.1} s"))
                .unwrap_or_else(|| "none".into()),
            f2(r.map_pct),
            format!("{}", r.detected),
            format!("{}", r.deadline_misses),
            f2(r.latency.mean_s() * 1000.0),
        ]);
    }
    Report::new(
        "ablation-deadline",
        "Extension: latency deadlines with local fallback (HELMET runtime)",
        t,
    )
    .with_note("tight deadlines trade detection quality for bounded per-frame latency")
}

/// Extension: the discriminator vs the fixed baselines when the link
/// actually degrades — a step outage, Gilbert–Elliott bursty loss, and a
/// diurnal capacity ramp over the paper's WLAN. Fixed seeds and virtual
/// clocks make every cell deterministic; `link fallbacks` counts frames
/// the policy wanted in the cloud but the link could not deliver (the edge
/// answer was served instead).
pub fn degraded(cfg: &ExpConfig) -> Report {
    use simnet::LinkTrace;
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Helmet,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    // Windows sized to bite at reduced --scale runs (a few virtual seconds
    // of traffic) and still land inside full-scale ones.
    let traces: [(&str, LinkTrace); 3] = [
        ("outage 2–8s", LinkTrace::step_outage(2.0, 6.0)),
        ("bursty loss", LinkTrace::bursty(11, 600.0, 3.0, 1.5, 0.9)),
        ("diurnal ramp", LinkTrace::diurnal_ramp(8.0, 0.15, 8, 40)),
    ];
    let mut t = Table::new(vec![
        "trace / policy".into(),
        "mAP(%)".into(),
        "total(s)".into(),
        "upload(%)".into(),
        "link fallbacks".into(),
        "retransmit(s)".into(),
    ]);
    for (trace_name, trace) in traces {
        for (policy_name, mode) in [
            ("difficult-case", RuntimeMode::SmallBig),
            ("cloud-only", RuntimeMode::CloudOnly),
            ("edge-only", RuntimeMode::EdgeOnly),
        ] {
            let rt = RuntimeConfig {
                link_trace: Some(trace.clone()),
                frame_size: (300, 300),
                ..Default::default()
            };
            let r = run_system(&run.split.test, &small, &big, &disc, mode, &rt);
            t.add_row(vec![
                format!("{trace_name} / {policy_name}"),
                f2(r.map_pct),
                f2(r.total_time_s),
                f2(r.upload_ratio * 100.0),
                format!("{}", r.link_fallbacks),
                f2(r.latency.total.retransmit_s),
            ]);
        }
    }
    Report::new(
        "degraded",
        "Extension: offload policies under degraded networks (HELMET runtime, traced WLAN)",
        t,
    )
    .with_note("selective upload degrades gracefully: fewer frames depend on the broken link")
    .with_note("deterministic: piecewise traces over virtual time, seeded RNG streams")
}

/// Extension: the cloud scheduling control plane — FIFO vs deadline-aware
/// vs difficulty-priority batch formation under bursty traffic and the
/// degraded-network scenarios, plus an admission-control row. Every cell
/// is a fixed-seed streaming session driven in bursts (eight frames in
/// flight), so the cloud queue actually fills and the scheduler's service
/// order matters.
pub fn scheduling(cfg: &ExpConfig) -> Report {
    use simnet::LinkTrace;
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Helmet,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(big);

    let drive = |scheduler, queue_limit: Option<usize>, trace: Option<LinkTrace>| {
        let mut cloud = CloudServer::spawn(
            CloudConfig {
                max_batch: 4,
                scheduler,
                queue_limit,
                ..CloudConfig::default()
            },
            Arc::clone(&big),
        );
        let frame_size = (cfg.render_size.0.max(96), cfg.render_size.1.max(96));
        // A deadline-less cloud-only co-tenant keeps the cloud queue full:
        // its frames carry no deadline and no difficulty score, so FIFO
        // interleaves our frames behind them while the priority schedulers
        // can serve ours (deadlined, scored) first.
        let mut background = cloud.connect(
            SessionConfig {
                frame_size,
                seed: 0x7e57,
                ..SessionConfig::new(run.num_classes)
            },
            &small,
            Box::new(Policy::CloudOnly),
        );
        let mut session = cloud.connect(
            SessionConfig {
                frame_size,
                deadline_s: Some(1.0),
                link_trace: trace,
                ..SessionConfig::new(run.num_classes)
            },
            &small,
            Box::new(disc.clone()),
        );
        // Burst drive: per round, four unpolled background frames and four
        // of ours go up before the first poll, so batches really queue and
        // the scheduler has frames to order.
        for chunk in run.split.test.scenes().chunks(8) {
            let (bg, ours) = chunk.split_at(chunk.len() / 2);
            for s in bg {
                background.submit(s);
            }
            let tickets: Vec<_> = ours.iter().map(|s| session.submit(s)).collect();
            for t in tickets {
                let _ = session.poll(t);
            }
        }
        let report = session.drain();
        background.drain();
        drop((session, background));
        (report, cloud.shutdown())
    };

    let scenarios: [(&str, Option<LinkTrace>); 3] = [
        ("steady", None),
        ("outage 2–8s", Some(LinkTrace::step_outage(2.0, 6.0))),
        (
            "bursty loss",
            Some(LinkTrace::bursty(11, 600.0, 3.0, 1.5, 0.9)),
        ),
    ];
    let schedulers = [
        SchedulerConfig::Fifo,
        SchedulerConfig::DeadlineAware { lookahead: 2 },
        SchedulerConfig::DifficultyPriority { lookahead: 2 },
    ];

    let mut t = Table::new(vec![
        "scenario / scheduler".into(),
        "mAP(%)".into(),
        "upload(%)".into(),
        "deadline misses".into(),
        "fallbacks".into(),
        "mean latency(ms)".into(),
    ]);
    for (scenario_name, trace) in &scenarios {
        for sched in schedulers {
            let (r, _) = drive(sched, None, trace.clone());
            t.add_row(vec![
                format!("{scenario_name} / {}", sched.name()),
                f2(r.map_pct),
                f2(r.upload_ratio * 100.0),
                format!("{}", r.deadline_misses),
                format!("{}", r.link_fallbacks + r.admission_fallbacks),
                f2(r.latency.mean_s() * 1000.0),
            ]);
        }
    }
    // Control-plane extra on the steady scenario: admission control.
    let (adm, adm_stats) = drive(SchedulerConfig::Fifo, Some(2), None);
    t.add_row(vec![
        "steady / fifo + queue_limit 2".into(),
        f2(adm.map_pct),
        f2(adm.upload_ratio * 100.0),
        format!("{}", adm.deadline_misses),
        format!("{}", adm.link_fallbacks + adm.admission_fallbacks),
        f2(adm.latency.mean_s() * 1000.0),
    ]);

    Report::new(
        "scheduling",
        "Extension: cloud scheduling control plane under bursty traffic (HELMET streaming)",
        t,
    )
    .with_note(
        "burst drive (8 in flight, max_batch 4): deadline-aware serves the tightest deadlines \
         first, difficulty-priority the hardest cases first (both hold back 2 batches)",
    )
    .with_note(format!(
        "admission row: {} of our frames (plus background's — {} rejects total) were refused at \
         the queue limit and served edge-only with zero uplink spent",
        adm.admission_fallbacks, adm_stats.admission_rejects
    ))
    .with_note("deterministic: virtual clocks, seeded RNG streams, randomness-free schedulers")
}

/// Extension: multi-edge serving — N edge sessions with heterogeneous links
/// and policies sharing one batched cloud server, a scenario the paper's
/// single-edge deployment (and our legacy `run_system`) cannot express.
pub fn multiedge(cfg: &ExpConfig) -> Report {
    let run = pair_run(
        ModelKind::VggLiteSsd,
        ModelKind::SsdVgg16,
        SplitId::Helmet,
        cfg,
    );
    let (small, big) = run.detectors(ModelKind::VggLiteSsd, ModelKind::SsdVgg16);
    let disc = run.discriminator();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(big);

    let mut cloud = CloudServer::spawn(
        CloudConfig {
            max_batch: 4,
            ..CloudConfig::default()
        },
        big,
    );
    let base = SessionConfig {
        frame_size: (cfg.render_size.0.max(96), cfg.render_size.1.max(96)),
        ..SessionConfig::new(run.num_classes)
    };
    let specs: [(
        &str,
        simnet::LinkModel,
        Box<dyn smallbig_core::OffloadPolicy>,
    ); 4] = [
        (
            "fast-wifi + discriminator",
            simnet::LinkModel::fast_wifi(),
            Box::new(disc.clone()),
        ),
        (
            "wlan + discriminator",
            simnet::LinkModel::wlan(),
            Box::new(disc.clone()),
        ),
        (
            "cellular + random 30%",
            simnet::LinkModel::cellular(),
            Box::new(Policy::Random {
                upload_fraction: 0.3,
                seed: 7,
            }),
        ),
        (
            "wlan + cloud-only",
            simnet::LinkModel::wlan(),
            Box::new(Policy::CloudOnly),
        ),
    ];
    let mut names = Vec::new();
    let mut sessions = Vec::new();
    for (i, (name, link, policy)) in specs.into_iter().enumerate() {
        names.push(name);
        sessions.push(cloud.connect(
            SessionConfig {
                link,
                seed: 1 + i as u64,
                ..base.clone()
            },
            &small,
            policy,
        ));
    }
    // Skewed traffic: session k sees every (k+1)-th frame of the stream.
    for (i, scene) in run.split.test.iter().enumerate() {
        for (k, session) in sessions.iter_mut().enumerate() {
            if i % (k + 1) == 0 {
                session.submit(scene);
            }
        }
    }

    let mut t = Table::new(vec![
        "edge session".into(),
        "frames".into(),
        "upload(%)".into(),
        "mAP(%)".into(),
        "total(s)".into(),
        "mean latency(ms)".into(),
    ]);
    for (name, session) in names.iter().zip(sessions.iter_mut()) {
        let r = session.drain();
        t.add_row(vec![
            (*name).into(),
            r.frames.to_string(),
            f2(r.upload_ratio * 100.0),
            f2(r.map_pct),
            f2(r.total_time_s),
            f2(r.latency.mean_s() * 1000.0),
        ]);
    }
    drop(sessions);
    let stats = cloud.shutdown();
    Report::new(
        "multiedge",
        "Extension: heterogeneous multi-edge serving against one batched cloud",
        t,
    )
    .with_note(format!(
        "cloud served {} frames in {} batches (max batch 4), busy {:.2}s",
        stats.served, stats.batches, stats.busy_s
    ))
    .with_note("sessions share one FIFO scheduler; links and policies differ per edge")
}

/// Extension: calibration drift and the model-update loop (PR 10).
///
/// A HELMET camera lives through a day → night → dawn drift schedule
/// (night: harsher blur and noise, dimmer illumination, smaller apparent
/// objects). Both calibrations drive a streaming difficulty-quantile
/// policy targeting 50% uploads:
///
/// * **static** keeps whatever score history it accumulates on-device —
///   after the swap its long day history ranks nearly every night frame
///   as upload-worthy (bandwidth blowout), and at dawn the accumulated
///   night mass ranks day frames as easy, so truly difficult frames stay
///   local (recall collapse);
/// * **updated** receives the cloud's refit artifact at every window
///   boundary — the `quantile_scores` replay `UpdatePublisher`'s epoch
///   refit, so its adaptation lags each swap by exactly one window, like
///   the real rollout.
///
/// Per window the table reports the realised upload ratio (target 50%)
/// and difficult-case recall (fraction of truly difficult frames each
/// stream uploaded).
pub fn drift(cfg: &ExpConfig) -> Report {
    use datagen::{Dataset, DatasetProfile, DriftPhase, DriftSchedule};
    use modelzoo::SimDetector;
    use smallbig_core::{
        calibrate, detect_all, label_dataset_with, CalibrationUpdate, OffloadPolicy, PolicyInput,
        QuantileStream, ScoreKind,
    };

    const WINDOW_S: f64 = 60.0;
    const WINDOWS: usize = 9;
    const TARGET: f64 = 0.5;
    let day = DatasetProfile::helmet();
    let schedule = DriftSchedule {
        phases: vec![
            DriftPhase {
                start_s: 0.0,
                profile: day.clone(),
            },
            DriftPhase {
                start_s: 3.0 * WINDOW_S,
                profile: day.night(),
            },
            DriftPhase {
                start_s: 6.0 * WINDOW_S,
                profile: day.clone(),
            },
        ],
    };
    schedule.validate().expect("well-formed schedule");
    let num_classes = day.taxonomy.len();
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, num_classes);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, num_classes);
    let n = ((400.0 * cfg.scale).round() as usize).max(24);

    // Day-time calibration, as the factory would ship it: the confidence
    // threshold for difficulty labelling plus a day score history warmed
    // into both streams.
    let train = Dataset::generate("drift-train", &day, n, 0xd21f7);
    let (calibration, _) = calibrate(&train, &small, &big);
    let t_conf = calibration.thresholds.conf;
    let kind = ScoreKind::Difficulty { t_conf };
    let mut static_stream = QuantileStream::new(kind, TARGET);
    let mut updated_stream = QuantileStream::new(kind, TARGET);
    // The camera has been deployed for a while: weeks of day traffic give
    // the on-device history real inertia (several windows' worth of
    // scores), which is exactly what makes it slow to track a swap.
    for pass in 0..4u64 {
        let warm_data = Dataset::generate("drift-warm", &day, n, 0xd21f7 ^ (pass << 40));
        let warm = detect_all(&warm_data, &small, &big);
        for (scene, (small_dets, _)) in warm_data.scenes().iter().zip(&warm) {
            for stream in [&mut static_stream, &mut updated_stream] {
                stream.decide(&PolicyInput {
                    scene,
                    small_dets,
                    label: None,
                    num_classes,
                    link: None,
                    cloud_queue: None,
                });
            }
        }
    }

    let mut t = Table::new(vec![
        "window / phase".into(),
        "static upload(%)".into(),
        "updated upload(%)".into(),
        "static recall(%)".into(),
        "updated recall(%)".into(),
    ]);
    let (mut static_dev, mut updated_dev) = (0.0f64, 0.0f64);
    let mut recall_margin = Vec::new();
    for w in 0..WINDOWS {
        let t_s = w as f64 * WINDOW_S;
        let phase = ["day", "night", "dawn"][schedule.phase_index(t_s)];
        let window = Dataset::generate(
            &format!("drift-w{w}"),
            schedule.profile_at(t_s),
            n,
            0xd21f7 ^ ((w as u64 + 1) << 8),
        );
        let dets = detect_all(&window, &small, &big);
        let examples = label_dataset_with(&window, &dets, t_conf);
        // (uploads, difficult frames uploaded) per stream.
        let mut counts = [(0usize, 0usize); 2];
        let mut fresh_scores = Vec::with_capacity(window.len());
        let difficult = examples.iter().filter(|e| e.label.is_difficult()).count();
        for ((scene, (small_dets, _)), ex) in window.scenes().iter().zip(&dets).zip(&examples) {
            let streams = [&mut static_stream, &mut updated_stream];
            for (i, stream) in streams.into_iter().enumerate() {
                let input = PolicyInput {
                    scene,
                    small_dets,
                    label: None,
                    num_classes,
                    link: None,
                    cloud_queue: None,
                };
                let upload = stream.decide(&input).is_upload();
                if i == 1 {
                    fresh_scores.push(stream.difficulty(&input).expect("quantile difficulty"));
                }
                counts[i].0 += upload as usize;
                counts[i].1 += (upload && ex.label.is_difficult()) as usize;
            }
        }
        let frac = |c: usize| c as f64 / window.len() as f64;
        let recall = |c: usize| {
            if difficult == 0 {
                1.0
            } else {
                c as f64 / difficult as f64
            }
        };
        static_dev += (frac(counts[0].0) - TARGET).abs();
        updated_dev += (frac(counts[1].0) - TARGET).abs();
        if phase == "dawn" {
            recall_margin.push(recall(counts[1].1) - recall(counts[0].1));
        }
        t.add_row(vec![
            format!("{w} / {phase}"),
            f2(frac(counts[0].0) * 100.0),
            f2(frac(counts[1].0) * 100.0),
            f2(recall(counts[0].1) * 100.0),
            f2(recall(counts[1].1) * 100.0),
        ]);
        // Window boundary: the cloud's refit artifact replaces the
        // updated stream's score history, exactly as `apply_calibration`
        // does on a live session.
        fresh_scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        let mut artifact = CalibrationUpdate::factory(calibration.thresholds);
        artifact.version = w as u64 + 1;
        artifact.quantile_scores = fresh_scores;
        assert!(updated_stream.apply_calibration(&artifact));
    }
    let dawn_margin = 100.0 * recall_margin.iter().cloned().fold(f64::MIN, f64::max);
    Report::new(
        "drift",
        "Extension: day→night→dawn drift — on-device history vs the model-update loop (HELMET, 50% target)",
        t,
    )
    .with_note(format!(
        "mean |upload − target|: static {} pp, update loop {} pp",
        f2(100.0 * static_dev / WINDOWS as f64),
        f2(100.0 * updated_dev / WINDOWS as f64)
    ))
    .with_note(format!(
        "largest dawn-window difficult-case recall margin of the update loop: {} pp — \
         the night-polluted on-device history keeps difficult day frames local",
        f2(dawn_margin)
    ))
    .with_note("count/area thresholds stay put under this drift; the score distribution is what moves")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perclass_has_twenty_rows() {
        let r = perclass(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 20);
    }

    #[test]
    fn compress_experiment_has_eight_rows() {
        let r = compress(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 8);
    }

    #[test]
    fn ablation_deadline_rows() {
        let r = ablation_deadline(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 5);
    }

    #[test]
    fn motivation_quick() {
        let r = motivation(&ExpConfig::quick());
        assert!(r.table.num_rows() > 3);
        assert!(r.notes[0].contains("split points transfer more"));
    }

    #[test]
    fn ablation_features_has_five_rows() {
        let r = ablation_features(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 5);
    }

    #[test]
    fn ablation_tconf_sweeps() {
        let r = ablation_tconf(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 9);
    }

    #[test]
    fn ablation_links_runs_three() {
        let r = ablation_links(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 3);
    }

    #[test]
    fn degraded_covers_three_traces_by_three_policies() {
        let r = degraded(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 9);
        let text = r.to_string();
        assert!(text.contains("outage"));
        assert!(text.contains("bursty"));
        assert!(text.contains("diurnal"));
    }

    #[test]
    fn drift_covers_nine_windows_and_reports_margins() {
        let r = drift(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 9, "3 day + 3 night + 3 dawn windows");
        let text = r.to_string();
        assert!(text.contains("night"));
        assert!(text.contains("dawn"));
        assert!(text.contains("recall margin"));
    }

    #[test]
    fn scheduling_covers_grid_and_control_rows() {
        let r = scheduling(&ExpConfig::quick());
        assert_eq!(r.table.num_rows(), 10, "3 scenarios × 3 schedulers + 1");
        let text = r.to_string();
        assert!(text.contains("deadline-aware"));
        assert!(text.contains("difficulty-priority"));
        assert!(text.contains("queue_limit"));
    }
}
