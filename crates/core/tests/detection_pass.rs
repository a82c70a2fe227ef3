//! A [`DetectionPass`] scored once serves every policy: each outcome of
//! [`evaluate_detections`] and [`evaluate_streaming`] is held bit-for-bit
//! against the per-policy loop they replaced, which re-matched, re-counted
//! and re-finalised both models for every policy and is kept here as the
//! oracle.

use datagen::{Dataset, DatasetProfile, SplitId};
use detcore::{
    count_detected_with, ApProtocol, CountScratch, DatasetCounter, ImageContribution,
    ImageDetections, MapEvaluator,
};
use modelzoo::{ModelKind, SimDetector};
use smallbig_core::{
    calibrate, detect_all, evaluate_detections, evaluate_streaming, CaseKind, Decision,
    DetectionPass, DifficultCaseDiscriminator, EvalConfig, EvalOutcome, Policy, PolicyInput,
    PREDICTION_THRESHOLD,
};

// Eval shares passes across parallel experiments behind `Arc`.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<DetectionPass>();
};

/// The per-policy loop, as `evaluate_detections` and `evaluate_streaming`
/// ran it for every call: label, decide (`decide` is handed the whole
/// batch), then match and count both models per image and replay the
/// routed one into a third evaluator.
fn per_policy_loop(
    test: &Dataset,
    results: &[(ImageDetections, ImageDetections)],
    decide: impl FnOnce(&[PolicyInput<'_>]) -> Vec<Decision>,
    config: &EvalConfig,
) -> EvalOutcome {
    let num_classes = test.taxonomy().len();
    let scenes = test.scenes();
    let labels: Vec<CaseKind> = results
        .iter()
        .map(|(s, b)| {
            if b.count_above(PREDICTION_THRESHOLD) > s.count_above(PREDICTION_THRESHOLD) {
                CaseKind::Difficult
            } else {
                CaseKind::Easy
            }
        })
        .collect();
    let inputs: Vec<PolicyInput<'_>> = (scenes.iter().zip(results).zip(&labels))
        .map(|((scene, (small_dets, _)), label)| PolicyInput {
            scene,
            small_dets,
            label: Some(*label),
            num_classes,
            link: None,
            cloud_queue: None,
        })
        .collect();
    let decisions = decide(&inputs);

    let mut small_map = MapEvaluator::new(num_classes, config.ap_protocol);
    let mut big_map = MapEvaluator::new(num_classes, config.ap_protocol);
    let mut e2e_map = MapEvaluator::new(num_classes, config.ap_protocol);
    let mut small_count = DatasetCounter::new();
    let mut big_count = DatasetCounter::new();
    let mut e2e_count = DatasetCounter::new();
    let mut count_scratch = CountScratch::new();
    let mut small_contrib = ImageContribution::new();
    let mut big_contrib = ImageContribution::new();
    let mut gts = Vec::new();
    let mut uploads = 0usize;
    for ((scene, (small_dets, big_dets)), decision) in scenes.iter().zip(results).zip(&decisions) {
        scene.ground_truths_into(&mut gts);
        small_map.add_image_recording(small_dets, &gts, &mut small_contrib);
        big_map.add_image_recording(big_dets, &gts, &mut big_contrib);
        let small_c = count_detected_with(small_dets, &gts, &config.counting, &mut count_scratch);
        let big_c = count_detected_with(big_dets, &gts, &config.counting, &mut count_scratch);
        small_count.add(small_c);
        big_count.add(big_c);
        if decision.is_upload() {
            uploads += 1;
            e2e_map.replay_contribution(big_map.matched(), &big_contrib);
            e2e_count.add(big_c);
        } else {
            e2e_map.replay_contribution(small_map.matched(), &small_contrib);
            e2e_count.add(small_c);
        }
    }
    EvalOutcome {
        big_map_pct: big_map.evaluate().map_percent(),
        small_map_pct: small_map.evaluate().map_percent(),
        e2e_map_pct: e2e_map.evaluate().map_percent(),
        big_detected: big_count.total_detected(),
        small_detected: small_count.total_detected(),
        e2e_detected: e2e_count.total_detected(),
        total_gt: big_count.total_gt(),
        upload_ratio: uploads as f64 / test.len() as f64,
        num_images: test.len(),
    }
}

fn outcome_bits(o: &EvalOutcome) -> [u64; 9] {
    [
        o.big_map_pct.to_bits(),
        o.small_map_pct.to_bits(),
        o.e2e_map_pct.to_bits(),
        o.big_detected as u64,
        o.small_detected as u64,
        o.e2e_detected as u64,
        o.total_gt as u64,
        o.upload_ratio.to_bits(),
        o.num_images as u64,
    ]
}

/// (test set, small, big, calibrated discriminator) for a VOC, a COCO and
/// a HELMET split, on the three detector families.
fn splits() -> Vec<(
    Dataset,
    SimDetector,
    SimDetector,
    DifficultCaseDiscriminator,
)> {
    use ModelKind::*;
    let splits = [
        (DatasetProfile::voc(), SplitId::Voc07, VggLiteSsd, SsdVgg16),
        (
            DatasetProfile::coco18(),
            SplitId::Coco18,
            MobileNetV2Ssd,
            SsdVgg16,
        ),
        (
            DatasetProfile::helmet(),
            SplitId::Helmet,
            YoloMobileNetV1,
            YoloV4,
        ),
    ];
    (splits.into_iter())
        .map(|(profile, split, small, big)| {
            let train = Dataset::generate("pass-train", &profile, 120, 23);
            let test = Dataset::generate("pass-test", &profile, 120, 71);
            let classes = test.taxonomy().len();
            let small = SimDetector::new(small, split, classes);
            let big = SimDetector::new(big, split, classes);
            let disc =
                DifficultCaseDiscriminator::new(calibrate(&train, &small, &big).0.thresholds);
            (test, small, big, disc)
        })
        .collect()
}

/// One policy of every variant.
fn every_policy(disc: &DifficultCaseDiscriminator) -> [Policy; 8] {
    [
        Policy::DifficultCase(disc.clone()),
        Policy::CloudOnly,
        Policy::EdgeOnly,
        Policy::Random {
            upload_fraction: 0.4,
            seed: 5,
        },
        Policy::BlurQuantile {
            upload_fraction: 0.3,
            render_size: (32, 24),
        },
        Policy::Top1Quantile {
            upload_fraction: 0.5,
        },
        Policy::DifficultyQuantile {
            upload_fraction: 0.5,
            t_conf: disc.thresholds().conf,
        },
        Policy::Oracle,
    ]
}

#[test]
fn one_pass_scores_every_policy_like_the_per_policy_loop() {
    let default = EvalConfig::default();
    let all_point = EvalConfig {
        ap_protocol: ApProtocol::AllPoint,
        ..default
    };
    for (test, small, big, disc) in splits() {
        // Each config first on one pass and second on the other: a pass
        // scored under one config must not answer for the other.
        for order in [[default, all_point], [all_point, default]] {
            let pass = detect_all(&test, &small, &big);
            for config in order {
                for policy in every_policy(&disc) {
                    let at = format!(
                        "{} {:?} {}",
                        test.taxonomy().name_str(),
                        config.ap_protocol,
                        policy.name()
                    );
                    let ours = evaluate_detections(&test, &pass, &policy, &config);
                    let oracle = per_policy_loop(&test, &pass, |i| policy.decide_all(i), &config);
                    assert_eq!(outcome_bits(&ours), outcome_bits(&oracle), "{at}");
                }
            }
        }
    }
}

#[test]
fn streaming_replays_the_pass_like_the_per_frame_loop() {
    let config = EvalConfig::default();
    for (test, small, big, disc) in splits() {
        let pass = detect_all(&test, &small, &big);
        for policy in every_policy(&disc) {
            let at = format!("{} {}", test.taxonomy().name_str(), policy.name());
            let mut ours = policy.clone().into_stream();
            let ours = evaluate_streaming(&test, &small, &big, &mut *ours, &config);
            let mut stream = policy.into_stream();
            let decide =
                |inputs: &[PolicyInput<'_>]| inputs.iter().map(|i| stream.decide(i)).collect();
            let oracle = per_policy_loop(&test, &pass, decide, &config);
            assert_eq!(outcome_bits(&ours), outcome_bits(&oracle), "{at}");
        }
    }
}

#[test]
#[should_panic(expected = "scored only against the dataset it was detected on")]
fn a_pass_is_never_scored_against_another_dataset() {
    let profile = DatasetProfile::voc();
    let detected_on = Dataset::generate("a", &profile, 20, 1);
    let other = Dataset::generate("b", &profile, 20, 2);
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
    let pass = detect_all(&detected_on, &small, &big);
    evaluate_detections(&other, &pass, &Policy::CloudOnly, &EvalConfig::default());
}
