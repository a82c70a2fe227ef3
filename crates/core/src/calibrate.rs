//! Threshold calibration (Sec. V-D): the paper's training procedure.
//!
//! 1. The confidence (noise-filter) threshold minimises
//!    `L = Σ |N_predict − N_truth|` over the training set (Eq. 1).
//! 2. The count and area thresholds maximise accuracy of the difficulty
//!    prediction computed from *ground-truth* features against the labels
//!    from [`crate::label_dataset`].

use crate::{
    CaseKind, DifficultCaseDiscriminator, LabeledExample, SemanticFeatures, Thresholds,
    PREDICTION_THRESHOLD,
};
use datagen::Dataset;
use modelzoo::Detector;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering::Less;

/// Binary-classification quality metrics (difficult = positive).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BinaryStats {
    /// (TP + TN) / all.
    pub accuracy: f64,
    /// TP / (TP + FP).
    pub precision: f64,
    /// TP / (TP + FN).
    pub recall: f64,
    /// Harmonic mean of precision and recall (the paper's "hm").
    pub f1: f64,
    /// Fraction of examples predicted positive (the upload ratio this
    /// discriminator would produce).
    pub predicted_positive_rate: f64,
}

impl BinaryStats {
    /// Computes stats from paired (predicted, actual) outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (CaseKind, CaseKind)>) -> BinaryStats {
        let (mut tp, mut fp, mut tn, mut fn_) = (0usize, 0usize, 0usize, 0usize);
        for (pred, actual) in pairs {
            match (pred.is_difficult(), actual.is_difficult()) {
                (true, true) => tp += 1,
                (true, false) => fp += 1,
                (false, false) => tn += 1,
                (false, true) => fn_ += 1,
            }
        }
        let total = tp + fp + tn + fn_;
        assert!(total > 0, "cannot compute stats over zero examples");
        let precision = if tp + fp == 0 {
            0.0
        } else {
            tp as f64 / (tp + fp) as f64
        };
        let recall = if tp + fn_ == 0 {
            0.0
        } else {
            tp as f64 / (tp + fn_) as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        BinaryStats {
            accuracy: (tp + tn) as f64 / total as f64,
            precision,
            recall,
            f1,
            predicted_positive_rate: (tp + fp) as f64 / total as f64,
        }
    }
}

/// Result of the full calibration procedure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// The calibrated thresholds.
    pub thresholds: Thresholds,
    /// Counting loss `Σ|N_est − N_true|` at the chosen confidence threshold.
    pub counting_loss: u64,
    /// Training-set stats of the (count, area) rule on ground-truth features
    /// (the paper's Table I "Ground Truth" row).
    pub train_stats: BinaryStats,
}

/// Calibrates the noise-filter confidence threshold by scanning
/// `(0.05..=0.45)` and minimising Eq. 1's loss.
///
/// # Panics
///
/// Panics if the dataset is empty.
pub fn calibrate_conf_threshold(dataset: &Dataset, small: &(dyn Detector + Sync)) -> (f64, u64) {
    assert!(!dataset.is_empty(), "cannot calibrate on an empty dataset");
    // Each block of scenes folds into its own loss sums through one reused
    // detection buffer; no detection is retained.
    let scenes = dataset.scenes();
    let blocks = crate::par::ordered_blocks(scenes.len(), |range| {
        let mut loss = CountingLoss::new();
        let mut dets = detcore::ImageDetections::new();
        for scene in &scenes[range] {
            small.detect_into(scene, &mut dets);
            loss.add_image(&dets, scene.num_objects());
        }
        loss
    });
    CountingLoss::best(blocks)
}

/// Eq. 1's loss `Σ |N_est(t) − N_true|` at every threshold of the scan,
/// folded one image at a time.
///
/// Each image's ascending scores are swept once against the ascending
/// threshold grid with a moving pointer. Per-image loss terms are integers,
/// so the sums of any partition of the images add up to the same 41 totals
/// exactly, and the strictly-smaller selection over the same threshold
/// order picks the same `(threshold, loss)` as a scan of the whole set.
struct CountingLoss {
    /// `(threshold, loss sum)` in scan order.
    cells: Vec<(f64, u64)>,
    /// Scratch: the current image's scores, ascending.
    scores: Vec<f64>,
}

impl CountingLoss {
    fn new() -> CountingLoss {
        let mut cells = Vec::new();
        let mut t = 0.05;
        while t <= 0.451 {
            cells.push((t, 0));
            t += 0.01;
        }
        let scores = Vec::new();
        CountingLoss { cells, scores }
    }

    fn add_image(&mut self, dets: &detcore::ImageDetections, n_true: usize) {
        let scores = &mut self.scores;
        scores.clear();
        scores.extend(dets.iter().map(|d| d.score()));
        scores.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite scores"));
        // `idx` tracks `partition_point(|s| s < t)` as `t` ascends.
        let mut idx = 0usize;
        for (t, loss) in &mut self.cells {
            while idx < scores.len() && scores[idx] < *t {
                idx += 1;
            }
            let n_est = scores.len() - idx;
            *loss += n_est.abs_diff(n_true) as u64;
        }
    }

    /// Adds the parts' sums up and returns the first threshold of the scan
    /// with the smallest loss, and that loss.
    fn best(parts: impl IntoIterator<Item = CountingLoss>) -> (f64, u64) {
        let mut total = CountingLoss::new();
        for part in parts {
            for (sum, (_, loss)) in total.cells.iter_mut().zip(part.cells) {
                sum.1 += loss;
            }
        }
        let mut best = (0.20, u64::MAX);
        for (t, loss) in total.cells {
            if loss < best.1 {
                best = (t, loss);
            }
        }
        best
    }
}

/// Grid-searches the count and area thresholds on ground-truth features,
/// maximising accuracy against the difficulty labels (Sec. V-D).
///
/// The naive grid re-classifies every example for all `6 × 31` cells; this
/// version visits the same cells in the same order but first tallies the
/// examples by object count (0–6, or more) and by area bin — how many of
/// the 31 area thresholds the example's minimum area is *not* below — in
/// one pass, without sorting. Every cell's confusion counts are then sums
/// of tallies. The winning cell and its [`BinaryStats`] are identical to
/// the naive scan (each cell's accuracy is the same integer-count
/// division, and the strictly-greater tie-break is evaluated in the same
/// cell order); the naive implementation stays in the tests as the oracle.
pub fn calibrate_count_area(examples: &[LabeledExample]) -> (usize, f64, BinaryStats) {
    assert!(!examples.is_empty(), "cannot calibrate on zero examples");
    let total = examples.len();
    let positives = examples.iter().filter(|e| e.label.is_difficult()).count();

    // The area thresholds in scan order, accumulated as the naive scan
    // accumulates them.
    let mut areas = Vec::new();
    let mut area = 0.01;
    while area <= 0.61 {
        areas.push(area);
        area += 0.02;
    }
    // tally[min(true_count, 7)][bin] = [easy, difficult] examples. An
    // example is predicted difficult by area at threshold k iff
    // `min_area < areas[k]`, i.e. iff k ≥ its bin; a missing area never
    // is (`classify_true_features`), so it takes the last bin.
    let mut tally = vec![vec![[0usize; 2]; areas.len() + 1]; 8];
    let not_below = |a: f64| areas.partition_point(|t| a.partial_cmp(t) != Some(Less));
    for e in examples {
        let bin = e.true_min_area.map_or(areas.len(), not_below);
        tally[e.true_count.min(7)][bin][usize::from(e.label.is_difficult())] += 1;
    }

    let mut best: Option<(usize, f64, f64)> = None; // (count, area, accuracy)
    for count in 1..=6usize {
        // Examples with more objects than the threshold are predicted
        // difficult regardless of area; the rest join bin by bin as the
        // area threshold rises past them.
        let (mut fp, mut tp) = (0usize, 0usize);
        for &[easy, difficult] in tally[count + 1..].iter().flatten() {
            (fp, tp) = (fp + easy, tp + difficult);
        }
        for (k, &area) in areas.iter().enumerate() {
            for row in &tally[..=count] {
                let [easy, difficult] = row[k];
                (fp, tp) = (fp + easy, tp + difficult);
            }
            let fn_ = positives - tp;
            let tn = total - tp - fp - fn_;
            let accuracy = (tp + tn) as f64 / total as f64;
            if best.is_none_or(|(_, _, b)| accuracy > b) {
                best = Some((count, area, accuracy));
            }
        }
    }
    let (count, area, _) = best.expect("grid is non-empty");
    // Full stats for the winning cell only (identical to what the naive
    // scan stored when it visited that cell).
    let disc = DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.2, // irrelevant for true-feature classification
        count,
        area,
    });
    let stats = BinaryStats::from_pairs(examples.iter().map(|e| {
        (
            disc.classify_true_features(e.true_count, e.true_min_area),
            e.label,
        )
    }));
    (count, area, stats)
}

/// Runs the complete calibration: confidence threshold by regression, then
/// count/area thresholds by grid search over labelled training data.
///
/// Two passes over blocks of scenes (see [`crate::par`]), equal to
/// [`crate::detect_all`] → Eq. 1 scan → [`crate::label_dataset_with`] →
/// [`calibrate_count_area`] exactly (the detectors are deterministic). The
/// first keeps what labelling will need — each small-model detection's
/// score and box area, end to end in one buffer per block, and the big
/// model's predicted-object count, which [`Detector::count_above`] takes
/// without drawing the big model's boxes — and folds the small model's
/// scores into the block's Eq. 1 sums; once those pick `t_conf`, the
/// second labels every scene, block by block.
pub fn calibrate(
    train: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
) -> (Calibration, Vec<LabeledExample>) {
    calibrate_with(crate::par::harness_workers(train.len()), train, small, big)
}

/// What the first calibration pass keeps of one block of training scenes
/// for labelling.
struct DetectedBlock {
    /// Index of the block's first scene in the dataset.
    first_scene: usize,
    /// Each small-model detection's `(score, box area)`, scene after
    /// scene, in one buffer.
    small_dets: Vec<(f64, f64)>,
    /// Per scene: where its detections end in `small_dets`, and the big
    /// model's predicted-object count.
    scenes: Vec<(usize, usize)>,
}

/// [`calibrate`] with an explicit worker count.
fn calibrate_with(
    workers: usize,
    train: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
) -> (Calibration, Vec<LabeledExample>) {
    assert!(!train.is_empty(), "cannot calibrate on an empty dataset");
    let scenes = train.scenes();
    let blocks = crate::par::ordered_blocks_with(workers, scenes.len(), |range| {
        let mut loss = CountingLoss::new();
        let mut block = DetectedBlock {
            first_scene: range.start,
            small_dets: Vec::new(),
            scenes: Vec::with_capacity(range.len()),
        };
        let mut small_dets = detcore::ImageDetections::new();
        for scene in &scenes[range] {
            small.detect_into(scene, &mut small_dets);
            loss.add_image(&small_dets, scene.num_objects());
            (block.small_dets).extend(small_dets.iter().map(|d| (d.score(), d.bbox().area())));
            let n_big = big.count_above(scene, PREDICTION_THRESHOLD);
            block.scenes.push((block.small_dets.len(), n_big));
        }
        (block, loss)
    });
    let (blocks, losses): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
    let (conf, counting_loss) = CountingLoss::best(losses);

    let examples = crate::par::ordered_map_with(workers, blocks.len(), |b| {
        let block = &blocks[b];
        let mut start = 0;
        (block.scenes.iter().enumerate())
            .map(|(i, &(end, n_big))| {
                let features =
                    SemanticFeatures::from_scored_areas(&block.small_dets[start..end], conf);
                start = end;
                crate::labeling::label_scene_counted(
                    &scenes[block.first_scene + i],
                    features,
                    n_big,
                )
            })
            .collect()
    });
    let examples = crate::par::concat(examples);
    let (count, area, train_stats) = calibrate_count_area(&examples);
    (
        Calibration {
            thresholds: Thresholds { conf, count, area },
            counting_loss,
            train_stats,
        },
        examples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{DatasetProfile, SplitId};
    use modelzoo::{ModelKind, SimDetector};

    fn setup() -> (Dataset, SimDetector, SimDetector) {
        let ds = Dataset::generate("t", &DatasetProfile::voc(), 300, 5);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        (ds, small, big)
    }

    /// The naive 186-cell grid scan (the pre-refactor implementation),
    /// kept as the oracle for the prefix-sum version.
    fn naive_count_area(examples: &[LabeledExample]) -> (usize, f64, BinaryStats) {
        let mut best: Option<(usize, f64, BinaryStats)> = None;
        for count in 1..=6usize {
            let mut area = 0.01;
            while area <= 0.61 {
                let disc = DifficultCaseDiscriminator::new(Thresholds {
                    conf: 0.2,
                    count,
                    area,
                });
                let stats = BinaryStats::from_pairs(examples.iter().map(|e| {
                    (
                        disc.classify_true_features(e.true_count, e.true_min_area),
                        e.label,
                    )
                }));
                let better = match &best {
                    None => true,
                    Some((_, _, b)) => stats.accuracy > b.accuracy,
                };
                if better {
                    best = Some((count, area, stats));
                }
                area += 0.02;
            }
        }
        best.expect("grid is non-empty")
    }

    fn assert_matches_naive(examples: &[LabeledExample], shape: &str) {
        let fast = calibrate_count_area(examples);
        let naive = naive_count_area(examples);
        assert_eq!(fast.0, naive.0, "{shape}");
        assert_eq!(fast.1.to_bits(), naive.1.to_bits(), "{shape}");
        assert_eq!(fast.2, naive.2, "{shape}");
    }

    #[test]
    fn count_area_grid_matches_naive_oracle() {
        let (ds, small, big) = setup();
        let examples = crate::label_dataset(&ds, &small, &big, 0.2);
        assert_matches_naive(&examples, "labelled VOC");

        // Edge shapes. Each rewrites one field of every example.
        let reshaped = |f: &dyn Fn(usize, &LabeledExample) -> LabeledExample| {
            (examples.iter().enumerate())
                .map(|(i, e)| f(i, e))
                .collect::<Vec<_>>()
        };
        let no_areas = reshaped(&|_, e| LabeledExample {
            true_min_area: None,
            ..*e
        });
        assert_matches_naive(&no_areas, "all-None areas");
        // Three distinct areas, two of them on grid thresholds: every
        // prefix boundary falls inside a run of ties with mixed labels.
        let tied = reshaped(&|i, e| LabeledExample {
            true_min_area: Some([0.03, 0.05, 0.2][i % 3]),
            ..*e
        });
        assert_matches_naive(&tied, "tied areas");
        // Every area exactly on a threshold as the scan accumulates it,
        // and counts from 0 up: each example sits on a bin boundary.
        let mut on_grid = Vec::new();
        let mut area = 0.01;
        while area <= 0.61 {
            on_grid.push(area);
            area += 0.02;
        }
        let on_steps = reshaped(&|i, e| LabeledExample {
            true_count: i % 8,
            true_min_area: Some(on_grid[i % on_grid.len()]),
            ..*e
        });
        assert_matches_naive(&on_steps, "areas on the thresholds");
        let crowded = reshaped(&|i, e| LabeledExample {
            true_count: 7 + i % 3,
            ..*e
        });
        assert_matches_naive(&crowded, "every true_count > 6");
        for e in examples.iter().take(8) {
            assert_matches_naive(std::slice::from_ref(e), "a single example");
        }
    }

    /// The four small/big pairs of the paper's tables.
    const PAIRS: [(ModelKind, ModelKind); 4] = [
        (ModelKind::VggLiteSsd, ModelKind::SsdVgg16),
        (ModelKind::MobileNetV1Ssd, ModelKind::SsdVgg16),
        (ModelKind::MobileNetV2Ssd, ModelKind::SsdVgg16),
        (ModelKind::YoloMobileNetV1, ModelKind::YoloV4),
    ];

    /// `calibrate` composed from public pieces, nothing fused: retain every
    /// detection pair, scan Eq. 1 the seed's way (thresholds outermost, one
    /// count per image), label, grid-search.
    fn two_pass_reference(
        train: &Dataset,
        small: &SimDetector,
        big: &SimDetector,
    ) -> (Calibration, Vec<LabeledExample>) {
        let results = crate::detect_all(train, small, big);
        let (mut conf, mut counting_loss) = (0.20, u64::MAX);
        let mut t = 0.05;
        while t <= 0.451 {
            let loss: u64 = train
                .iter()
                .zip(&results)
                .map(|(scene, (s, _))| s.count_above(t).abs_diff(scene.num_objects()) as u64)
                .sum();
            if loss < counting_loss {
                (conf, counting_loss) = (t, loss);
            }
            t += 0.01;
        }
        let examples = crate::label_dataset_with(train, &results, conf);
        let (count, area, train_stats) = calibrate_count_area(&examples);
        let thresholds = Thresholds { conf, count, area };
        (
            Calibration {
                thresholds,
                counting_loss,
                train_stats,
            },
            examples,
        )
    }

    fn calibration_bits(cal: &Calibration) -> [u64; 9] {
        let stats = cal.train_stats;
        [
            cal.thresholds.conf.to_bits(),
            cal.thresholds.count as u64,
            cal.thresholds.area.to_bits(),
            cal.counting_loss,
            stats.accuracy.to_bits(),
            stats.precision.to_bits(),
            stats.recall.to_bits(),
            stats.f1.to_bits(),
            stats.predicted_positive_rate.to_bits(),
        ]
    }

    #[test]
    fn fused_calibrate_equals_two_pass_reference_for_any_worker_count() {
        let profiles = [
            (DatasetProfile::voc(), SplitId::Voc07),
            (DatasetProfile::coco18(), SplitId::Coco18),
            (DatasetProfile::helmet(), SplitId::Helmet),
        ];
        for (profile, split) in profiles {
            // 3 scenes: fewer than the 5 workers.
            for scenes in [3, 150] {
                let train = Dataset::generate("t", &profile, scenes, 29);
                let classes = train.taxonomy().len();
                for pair in PAIRS {
                    let small = SimDetector::new(pair.0, split, classes);
                    let big = SimDetector::new(pair.1, split, classes);
                    let (cal_ref, examples_ref) = two_pass_reference(&train, &small, &big);
                    let at = format!("{split:?} {pair:?} {scenes} scenes");
                    for workers in [1, 2, 5] {
                        let (cal, examples) = calibrate_with(workers, &train, &small, &big);
                        let at = format!("{at} {workers} workers");
                        assert_eq!(calibration_bits(&cal), calibration_bits(&cal_ref), "{at}");
                        assert_eq!(examples, examples_ref, "{at}");
                    }
                    let (conf, loss) = calibrate_conf_threshold(&train, &small);
                    assert_eq!(conf.to_bits(), cal_ref.thresholds.conf.to_bits(), "{at}");
                    assert_eq!(loss, cal_ref.counting_loss, "{at}");
                }
            }
        }
    }

    #[test]
    fn binary_stats_hand_example() {
        use CaseKind::{Difficult as D, Easy as E};
        // pred, actual: TP, TP, FP, FN, TN
        let s = BinaryStats::from_pairs(vec![(D, D), (D, D), (D, E), (E, D), (E, E)]);
        assert!((s.accuracy - 0.6).abs() < 1e-12);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.predicted_positive_rate - 0.6).abs() < 1e-12);
    }

    #[test]
    fn conf_threshold_lands_in_paper_band() {
        let (ds, small, _) = setup();
        let (t, loss) = calibrate_conf_threshold(&ds, &small);
        // The paper reports the useful band as 0.15–0.35.
        assert!(
            (0.10..=0.40).contains(&t),
            "calibrated t_conf {t} outside plausible band"
        );
        assert!(loss < ds.total_objects() as u64, "loss should beat trivial");
    }

    #[test]
    fn count_area_grid_prefers_discriminative_thresholds() {
        let (ds, small, big) = setup();
        let (cal, examples) = calibrate(&ds, &small, &big);
        assert!(!examples.is_empty());
        // Sanity: training accuracy must beat the majority-class baseline.
        let frac = crate::difficult_fraction(&examples);
        let majority = frac.max(1.0 - frac);
        assert!(
            cal.train_stats.accuracy >= majority - 0.02,
            "grid accuracy {} vs majority {majority}",
            cal.train_stats.accuracy
        );
        assert!((1..=6).contains(&cal.thresholds.count));
        assert!(cal.thresholds.area > 0.0 && cal.thresholds.area < 0.62);
    }

    #[test]
    fn calibration_is_deterministic() {
        let (ds, small, big) = setup();
        let (a, _) = calibrate(&ds, &small, &big);
        let (b, _) = calibrate(&ds, &small, &big);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "zero examples")]
    fn empty_examples_panic() {
        let _ = calibrate_count_area(&[]);
    }
}
