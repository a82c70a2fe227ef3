//! The seed's experiment-driver flows, transcribed, held bit-for-bit
//! against the driver behind the paper's tables:
//!
//! 1. [`evaluate`] ≡ the seed's batch evaluation: two sequential detect
//!    loops, three mAP evaluators and a fresh count per image.
//! 2. [`calibrate`] → [`detect_all`] → [`discriminator_stats_on`] →
//!    [`evaluate_detections`] ≡ the seed's redundant pair flow: the naive
//!    confidence scan, the training set detected again to label it, the
//!    naive 186-cell count/area grid, and the test set detected twice.
//!
//! Only the flows are transcribed. The detectors and the detcore kernels
//! are the library's own, which their tests hold to their seed
//! transcriptions (`modelzoo`'s `detect_matches_seed_reference`,
//! `detcore/src/equivalence_tests.rs`).

use datagen::{Dataset, DatasetProfile, Scene, SplitId};
use detcore::{count_detected, ApProtocol, CountingConfig, ImageDetections, MapEvaluator};
use modelzoo::{Detector, ModelKind, SimDetector};
use smallbig_core::{
    calibrate, detect_all, discriminator_stats_on, evaluate, evaluate_detections, BinaryStats,
    CaseKind, DifficultCaseDiscriminator, EvalConfig, EvalOutcome, LabeledExample, Policy,
    PolicyInput, SemanticFeatures, Thresholds, PREDICTION_THRESHOLD,
};

/// The seed's difficulty label: the big model predicts more objects.
fn seed_label(small: &ImageDetections, big: &ImageDetections) -> CaseKind {
    if big.count_above(PREDICTION_THRESHOLD) > small.count_above(PREDICTION_THRESHOLD) {
        CaseKind::Difficult
    } else {
        CaseKind::Easy
    }
}

/// The seed's labelling of one scene, detecting both models afresh.
fn seed_label_scene(
    scene: &Scene,
    small: &dyn Detector,
    big: &dyn Detector,
    t_conf: f64,
) -> LabeledExample {
    let small_dets = small.detect(scene);
    let big_dets = big.detect(scene);
    LabeledExample {
        scene_id: scene.id,
        true_count: scene.num_objects(),
        true_min_area: scene.min_area_ratio(),
        features: SemanticFeatures::extract(&small_dets, t_conf),
        label: seed_label(&small_dets, &big_dets),
    }
}

/// The seed's batch evaluation: both models over the test set in two
/// sequential loops, the whole batch decided at once, then per image a mAP
/// evaluator each for small, big and routed results and a count for each.
fn seed_evaluate(
    test: &Dataset,
    small: &dyn Detector,
    big: &dyn Detector,
    policy: &Policy,
) -> EvalOutcome {
    let counting = CountingConfig::default();
    let num_classes = test.taxonomy().len();
    let small_results: Vec<ImageDetections> = test.iter().map(|s| small.detect(s)).collect();
    let big_results: Vec<ImageDetections> = test.iter().map(|s| big.detect(s)).collect();
    let inputs: Vec<PolicyInput<'_>> = (test.iter().zip(&small_results).zip(&big_results))
        .map(|((scene, small_dets), big_dets)| PolicyInput {
            scene,
            small_dets,
            label: Some(seed_label(small_dets, big_dets)),
            num_classes,
            link: None,
            cloud_queue: None,
        })
        .collect();
    let decisions = policy.decide_all(&inputs);

    let new_map = || MapEvaluator::new(num_classes, ApProtocol::Voc07ElevenPoint);
    let (mut small_map, mut big_map, mut e2e_map) = (new_map(), new_map(), new_map());
    let (mut small_detected, mut big_detected, mut e2e_detected) = (0, 0, 0);
    let (mut total_gt, mut uploads) = (0, 0);
    for (((scene, small_dets), big_dets), decision) in (test.iter().zip(&small_results))
        .zip(&big_results)
        .zip(&decisions)
    {
        let gts = scene.ground_truths();
        let routed = if decision.is_upload() {
            uploads += 1;
            big_dets
        } else {
            small_dets
        };
        small_map.add_image(small_dets, &gts);
        big_map.add_image(big_dets, &gts);
        e2e_map.add_image(routed, &gts);
        small_detected += count_detected(small_dets, &gts, &counting).detected;
        let big_count = count_detected(big_dets, &gts, &counting);
        big_detected += big_count.detected;
        total_gt += big_count.num_gt;
        e2e_detected += count_detected(routed, &gts, &counting).detected;
    }
    EvalOutcome {
        big_map_pct: big_map.evaluate().map * 100.0,
        small_map_pct: small_map.evaluate().map * 100.0,
        e2e_map_pct: e2e_map.evaluate().map * 100.0,
        big_detected,
        small_detected,
        e2e_detected,
        total_gt,
        upload_ratio: uploads as f64 / test.len() as f64,
        num_images: test.len(),
    }
}

/// The seed's naive count/area grid: all 6 × 31 cells, each re-classifying
/// every example; the first strictly most accurate cell wins.
fn seed_count_area(examples: &[LabeledExample]) -> (usize, f64, BinaryStats) {
    let mut best: Option<(usize, f64, BinaryStats)> = None;
    let conf = 0.2; // irrelevant for true-feature classification
    for count in 1..=6usize {
        let mut area = 0.01;
        while area <= 0.61 {
            let disc = DifficultCaseDiscriminator::new(Thresholds { conf, count, area });
            let stats = BinaryStats::from_pairs(examples.iter().map(|e| {
                let predicted = disc.classify_true_features(e.true_count, e.true_min_area);
                (predicted, e.label)
            }));
            if best.is_none_or(|(_, _, b)| stats.accuracy > b.accuracy) {
                best = Some((count, area, stats));
            }
            area += 0.02;
        }
    }
    best.expect("grid is non-empty")
}

/// What one (split, pair) cell of the experiment driver reports, as bits:
/// the thresholds, Eq. 1's loss, train and test [`BinaryStats`], the outcome.
fn cell_bits(
    t: Thresholds,
    loss: u64,
    stats: [&BinaryStats; 2],
    outcome: &EvalOutcome,
) -> Vec<u64> {
    let mut bits = vec![t.conf.to_bits(), t.count as u64, t.area.to_bits(), loss];
    for s in stats {
        bits.extend([s.accuracy, s.precision, s.recall, s.f1].map(f64::to_bits));
        bits.push(s.predicted_positive_rate.to_bits());
    }
    bits.extend(outcome_bits(outcome));
    bits
}

/// The seed's experiment driver for one cell, detection pass by detection
/// pass: the confidence scan detects the training set, labelling detects
/// it again with both models, the test stats detect the test set, and the
/// evaluation detects it again.
fn seed_pair_flow(
    train: &Dataset,
    test: &Dataset,
    small: &dyn Detector,
    big: &dyn Detector,
) -> Vec<u64> {
    let per_image: Vec<(Vec<f64>, usize)> = train
        .iter()
        .map(|scene| {
            let mut scores: Vec<f64> = small.detect(scene).iter().map(|d| d.score()).collect();
            scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
            (scores, scene.num_objects())
        })
        .collect();
    let (mut conf, mut counting_loss) = (0.20, u64::MAX);
    let mut t = 0.05;
    while t <= 0.451 {
        let mut loss = 0u64;
        for (scores, n_true) in &per_image {
            let n_est = scores.len() - scores.partition_point(|&s| s < t);
            loss += n_est.abs_diff(*n_true) as u64;
        }
        if loss < counting_loss {
            (conf, counting_loss) = (t, loss);
        }
        t += 0.01;
    }

    let examples: Vec<LabeledExample> = (train.iter())
        .map(|scene| seed_label_scene(scene, small, big, conf))
        .collect();
    let (count, area, train_stats) = seed_count_area(&examples);
    let thresholds = Thresholds { conf, count, area };
    let disc = DifficultCaseDiscriminator::new(thresholds);
    let test_stats = BinaryStats::from_pairs(test.iter().map(|scene| {
        let ex = seed_label_scene(scene, small, big, conf);
        (disc.classify_features(&ex.features), ex.label)
    }));
    let outcome = seed_evaluate(test, small, big, &Policy::DifficultCase(disc));
    cell_bits(
        thresholds,
        counting_loss,
        [&train_stats, &test_stats],
        &outcome,
    )
}

/// The library's driver for the same cell: one calibration pass, one
/// shared detection pass over the test set.
fn library_pair_flow(
    train: &Dataset,
    test: &Dataset,
    small: &SimDetector,
    big: &SimDetector,
) -> Vec<u64> {
    let (cal, _) = calibrate(train, small, big);
    let disc = DifficultCaseDiscriminator::new(cal.thresholds);
    let test_dets = detect_all(test, small, big);
    let test_stats = discriminator_stats_on(test, &test_dets, &disc);
    let policy = Policy::DifficultCase(disc);
    let outcome = evaluate_detections(test, &test_dets, &policy, &EvalConfig::default());
    cell_bits(
        cal.thresholds,
        cal.counting_loss,
        [&cal.train_stats, &test_stats],
        &outcome,
    )
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

/// (train, test, small, big) at ~100 scenes each: the paper's VOC pair plus
/// a COCO and a HELMET cell on the other two detector families.
fn cells() -> Vec<(Dataset, Dataset, SimDetector, SimDetector)> {
    use ModelKind::*;
    let cells = [
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
    (cells.into_iter())
        .map(|(profile, split, small, big)| {
            let train = Dataset::generate("seed-driver-train", &profile, 100, 41);
            let test = Dataset::generate("seed-driver-test", &profile, 100, 17);
            let classes = train.taxonomy().len();
            let small = SimDetector::new(small, split, classes);
            (train, test, small, SimDetector::new(big, split, classes))
        })
        .collect()
}

#[test]
fn evaluate_matches_the_seed_batch_evaluation() {
    for (_, test, small, big) in cells() {
        for policy in [
            Policy::DifficultCase(DifficultCaseDiscriminator::new(Thresholds::paper())),
            Policy::Oracle,
        ] {
            let at = format!("{} / {}, {}", small.name(), big.name(), policy.name());
            let ours = evaluate(&test, &small, &big, &policy, &EvalConfig::default());
            let seed = seed_evaluate(&test, &small, &big, &policy);
            assert_eq!(outcome_bits(&ours), outcome_bits(&seed), "{at}");
        }
    }
}

#[test]
fn shared_detection_driver_matches_the_seed_pair_flow() {
    for (train, test, small, big) in cells() {
        let ours = library_pair_flow(&train, &test, &small, &big);
        let seed = seed_pair_flow(&train, &test, &small, &big);
        assert_eq!(ours, seed, "{} / {}", small.name(), big.name());
    }
}
