//! Beyond the numbered tables: the intro's partition motivation, the
//! ablations of the paper's method (discriminator steps, `t_conf`, links,
//! deadlines) and two extensions of it (per-class AP, automatic
//! compression). ROADMAP.md item 18 maps paper sections to modules.
//!
//! Serving-stack scenarios (several edges on one cloud, degraded links,
//! cloud scheduling, the model-update loop) are not experiments: each runs
//! as an example under `examples/`.

use crate::pairs::{pair_run, ExpConfig};
use crate::table::{f2, Table};
use crate::Report;
use datagen::SplitId;
use imaging::{encoded_size_bytes, render};
use modelzoo::{ModelKind, PartitionAnalysis};
use smallbig_core::{
    run_system, DifficultCaseDiscriminator, DiscriminatorConfig, Policy, RuntimeConfig, RuntimeMode,
};

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
}
