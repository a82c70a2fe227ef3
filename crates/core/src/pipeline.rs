//! Batch evaluation of the small-big system over a dataset.
//!
//! Computes everything the paper's tables report: per-model mAP, end-to-end
//! mAP under a policy, detected-object totals, and the upload ratio.

use std::sync::OnceLock;

use crate::par::ordered_map;
use crate::{CaseKind, Decision, Policy, PolicyInput, PREDICTION_THRESHOLD};
use datagen::Dataset;
use detcore::{
    count_detected_with, ApProtocol, CountScratch, CountingConfig, DatasetCounter,
    ImageContribution, ImageDetections, MapEvaluator, MatchedRecords,
};
use modelzoo::Detector;
use serde::{Deserialize, Serialize};

/// Evaluation configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalConfig {
    /// AP interpolation protocol (the paper uses VOC 11-point).
    pub ap_protocol: ApProtocol,
    /// Counting thresholds for the detected-objects metric.
    pub counting: CountingConfig,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            ap_protocol: ApProtocol::Voc07ElevenPoint,
            counting: CountingConfig::default(),
        }
    }
}

/// Everything one table row needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EvalOutcome {
    /// Big model mAP (%): "upload everything" quality.
    pub big_map_pct: f64,
    /// Small model mAP (%): "edge-only" quality.
    pub small_map_pct: f64,
    /// End-to-end mAP (%) under the policy.
    pub e2e_map_pct: f64,
    /// Objects the big model detects on the whole test set.
    pub big_detected: usize,
    /// Objects the small model detects.
    pub small_detected: usize,
    /// Objects the end-to-end system detects.
    pub e2e_detected: usize,
    /// Ground-truth objects in the test set.
    pub total_gt: usize,
    /// Fraction of images uploaded to the cloud.
    pub upload_ratio: f64,
    /// Number of test images.
    pub num_images: usize,
}

impl EvalOutcome {
    /// End-to-end mAP relative to the big model, in percent
    /// (the paper's headline 91.22–92.52 % band).
    pub fn e2e_map_vs_big_pct(&self) -> f64 {
        if self.big_map_pct == 0.0 {
            0.0
        } else {
            self.e2e_map_pct / self.big_map_pct * 100.0
        }
    }

    /// End-to-end detected objects relative to the big model, in percent
    /// (the paper's "End-to-end/Big model" columns, ~94 %).
    pub fn e2e_detected_vs_big_pct(&self) -> f64 {
        if self.big_detected == 0 {
            0.0
        } else {
            self.e2e_detected as f64 / self.big_detected as f64 * 100.0
        }
    }
}

/// Evaluates a (small, big, policy) triple over a test dataset.
///
/// Detections are computed once per model per image; the end-to-end result
/// re-uses the big model's output on uploaded images and the small model's on
/// local ones, exactly like the deployed system (big model outputs are
/// identical whether computed in the cloud or here, since detectors are
/// deterministic).
///
/// The detection pass fans out across images (see [`crate::par`]); results
/// merge back in dataset order and all metric accumulation stays
/// sequential, so the outcome is bit-identical to a single-threaded run.
///
/// # Examples
///
/// ```
/// use datagen::{Dataset, DatasetProfile, SplitId};
/// use modelzoo::{ModelKind, SimDetector};
/// use smallbig_core::{evaluate, EvalConfig, Policy};
///
/// let test = Dataset::generate("demo", &DatasetProfile::voc(), 50, 3);
/// let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
/// let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
/// let outcome = evaluate(&test, &small, &big, &Policy::CloudOnly, &EvalConfig::default());
/// assert_eq!(outcome.upload_ratio, 1.0);
/// assert!((outcome.e2e_map_pct - outcome.big_map_pct).abs() < 1e-9);
/// ```
pub fn evaluate(
    test: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
    policy: &Policy,
    config: &EvalConfig,
) -> EvalOutcome {
    evaluate_detections(test, &detect_all(test, small, big), policy, config)
}

/// Runs both models over every scene of a dataset, fanning images out
/// across the harness workers (see [`crate::par`]) and returning the
/// `(small, big)` detection pairs in dataset order as a [`DetectionPass`].
///
/// Detectors are deterministic, so callers that need the same detections
/// more than once — [`evaluate_detections`] under several policies,
/// [`discriminator_stats_on`] next to an evaluation — detect once and
/// share the result instead of re-running the models.
///
/// Each image's results are retained, so one output buffer per
/// (model, image) is inherent and plain [`Detector::detect`] is the right
/// call here — for [`modelzoo::SimDetector`] it is a thin wrapper over the
/// allocation-free `detect_into` fast path, so the detection loop itself
/// performs no allocation beyond that one retained buffer. Streaming
/// consumers that *can* reuse a buffer across frames call
/// [`Detector::detect_into`] directly.
pub fn detect_all(
    test: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
) -> DetectionPass {
    let scenes = test.scenes();
    DetectionPass {
        pairs: ordered_map(scenes.len(), |i| {
            (small.detect(&scenes[i]), big.detect(&scenes[i]))
        }),
        dataset: fingerprint(test),
        score: OnceLock::new(),
    }
}

/// Both models' detections over one dataset, as [`detect_all`] returns
/// them: it derefs to the `(small, big)` pairs in dataset order.
///
/// Policies evaluated over one pass differ only in how they route images.
/// The first [`evaluate_detections`] call therefore scores the pass under
/// its [`EvalConfig`] and keeps the score: each image's matched mAP
/// records, object counts and oracle label, plus both models' mAP. Every
/// later call under that config only decides, sums the routed counts and
/// finalises one end-to-end mAP. A call under another config scores the
/// pass afresh and keeps nothing. The score is plain data, so a pass is
/// `Send + Sync` and can be shared across threads behind an `Arc`.
#[derive(Debug)]
pub struct DetectionPass {
    pairs: Vec<(ImageDetections, ImageDetections)>,
    /// [`fingerprint`] of the dataset the pairs were detected on.
    dataset: u64,
    score: OnceLock<PassScore>,
}

impl std::ops::Deref for DetectionPass {
    type Target = [(ImageDetections, ImageDetections)];

    fn deref(&self) -> &Self::Target {
        &self.pairs
    }
}

impl<'a> IntoIterator for &'a DetectionPass {
    type Item = &'a (ImageDetections, ImageDetections);
    type IntoIter = std::slice::Iter<'a, (ImageDetections, ImageDetections)>;

    fn into_iter(self) -> Self::IntoIter {
        self.pairs.iter()
    }
}

impl DetectionPass {
    /// Runs `f` on the pass's score under `config`: the kept one (scored
    /// on first use) when `config` is the one it was scored under, a fresh
    /// one otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `test` is not the dataset the pass was detected on.
    fn scored<R>(&self, test: &Dataset, config: &EvalConfig, f: impl FnOnce(&PassScore) -> R) -> R {
        assert_eq!(
            self.dataset,
            fingerprint(test),
            "a detection pass is scored only against the dataset it was detected on"
        );
        let kept = self
            .score
            .get_or_init(|| PassScore::new(test, &self.pairs, config));
        if kept.config == *config {
            f(kept)
        } else {
            f(&PassScore::new(test, &self.pairs, config))
        }
    }
}

/// Digest of what scoring reads off a dataset's scenes: their number and
/// order, ids, seeds (every scene is sampled from its seed) and object
/// counts.
fn fingerprint(test: &Dataset) -> u64 {
    let mut h = test.taxonomy().len() as u64;
    for scene in test.scenes() {
        for v in [scene.id, scene.seed, scene.objects.len() as u64] {
            h = (h.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
        }
    }
    h
}

/// What evaluation reads of a [`DetectionPass`] under one [`EvalConfig`].
#[derive(Debug)]
struct PassScore {
    config: EvalConfig,
    num_classes: usize,
    /// Per image, [`Policy::Oracle`]'s label: difficult when the big model
    /// predicts more objects than the small one.
    labels: Vec<CaseKind>,
    small: ModelScore,
    big: ModelScore,
}

/// One model's side of a [`PassScore`].
#[derive(Debug)]
struct ModelScore {
    /// The model's mAP evaluator, finalised into `map_pct` and then
    /// stripped of its (non-`Sync`) sort cache.
    records: MatchedRecords,
    /// Per image, the records and ground truths it added to `records`.
    contributions: Vec<ImageContribution>,
    /// Per image, the objects the model detected.
    detected: Vec<usize>,
    counter: DatasetCounter,
    map_pct: f64,
}

impl PassScore {
    fn new(
        test: &Dataset,
        pairs: &[(ImageDetections, ImageDetections)],
        config: &EvalConfig,
    ) -> PassScore {
        let labels = (pairs.iter())
            .map(|(s, b)| {
                if b.count_above(PREDICTION_THRESHOLD) > s.count_above(PREDICTION_THRESHOLD) {
                    CaseKind::Difficult
                } else {
                    CaseKind::Easy
                }
            })
            .collect();
        PassScore {
            config: *config,
            num_classes: test.taxonomy().len(),
            labels,
            small: ModelScore::new(test, pairs.iter().map(|(s, _)| s), config),
            big: ModelScore::new(test, pairs.iter().map(|(_, b)| b), config),
        }
    }

    /// One [`PolicyInput`] per image, in dataset order.
    fn policy_inputs<'a>(
        &self,
        test: &'a Dataset,
        pass: &'a DetectionPass,
    ) -> Vec<PolicyInput<'a>> {
        (test.scenes().iter().zip(pass).zip(&self.labels))
            .map(|((scene, (small_dets, _)), label)| PolicyInput {
                scene,
                small_dets,
                label: Some(*label),
                num_classes: self.num_classes,
                link: None,
                cloud_queue: None,
            })
            .collect()
    }

    /// The outcome of taking the big model's result on uploaded images and
    /// the small model's on the rest.
    fn route(&self, decisions: &[Decision]) -> EvalOutcome {
        let n = self.labels.len();
        assert_eq!(decisions.len(), n, "one decision per image required");
        let routed = |i: usize| match decisions[i] {
            Decision::Upload => &self.big,
            Decision::Local => &self.small,
        };
        let uploads = decisions.iter().filter(|d| d.is_upload()).count();
        // Routing every image to one model replays that model's records in
        // their own order, so its mAP is the end-to-end mAP, bit for bit.
        let e2e_map_pct = match uploads {
            0 => self.small.map_pct,
            u if u == n => self.big.map_pct,
            _ => {
                let mut e2e = MapEvaluator::new(self.num_classes, self.config.ap_protocol);
                for i in 0..n {
                    let model = routed(i);
                    e2e.replay_contribution(&model.records, &model.contributions[i]);
                }
                e2e.evaluate().map_percent()
            }
        };
        EvalOutcome {
            big_map_pct: self.big.map_pct,
            small_map_pct: self.small.map_pct,
            e2e_map_pct,
            big_detected: self.big.counter.total_detected(),
            small_detected: self.small.counter.total_detected(),
            e2e_detected: (0..n).map(|i| routed(i).detected[i]).sum(),
            total_gt: self.big.counter.total_gt(),
            upload_ratio: uploads as f64 / n as f64,
            num_images: n,
        }
    }
}

impl ModelScore {
    fn new<'a>(
        test: &Dataset,
        dets: impl Iterator<Item = &'a ImageDetections>,
        config: &EvalConfig,
    ) -> ModelScore {
        let mut map = MapEvaluator::new(test.taxonomy().len(), config.ap_protocol);
        let mut counter = DatasetCounter::new();
        let mut count_scratch = CountScratch::new();
        let mut gts = Vec::new();
        let (contributions, detected) = (test.scenes().iter().zip(dets))
            .map(|(scene, dets)| {
                scene.ground_truths_into(&mut gts);
                let mut contribution = ImageContribution::new();
                map.add_image_recording(dets, &gts, &mut contribution);
                let count = count_detected_with(dets, &gts, &config.counting, &mut count_scratch);
                counter.add(count);
                (contribution, count.detected)
            })
            .unzip();
        ModelScore {
            map_pct: map.evaluate().map_percent(),
            records: map.into_matched(),
            contributions,
            detected,
            counter,
        }
    }
}

/// [`evaluate`] over detections precomputed with [`detect_all`].
///
/// Scores `pass` under `config` on the first call and reuses that score on
/// every later call under the same config (see [`DetectionPass`]), so a
/// policy sweep over one pass matches and counts each image once.
///
/// # Panics
///
/// Panics if the dataset is empty or is not the one `pass` was detected on.
pub fn evaluate_detections(
    test: &Dataset,
    pass: &DetectionPass,
    policy: &Policy,
    config: &EvalConfig,
) -> EvalOutcome {
    assert!(!test.is_empty(), "cannot evaluate an empty dataset");
    pass.scored(test, config, |score| {
        score.route(&policy.decide_all(&score.policy_inputs(test, pass)))
    })
}

/// Evaluates a streaming [`crate::OffloadPolicy`] over a test dataset,
/// deciding frame-by-frame in dataset order.
///
/// The batch [`evaluate`] hands the policy the whole test set at once (the
/// paper's protocol); this variant feeds one frame at a time, which is what
/// a deployed [`crate::EdgeSession`] does. For per-image policies
/// (discriminator, extremes) both agree exactly; for quantile baselines the
/// streaming form converges on the batch quantile as frames accumulate.
///
/// # Examples
///
/// ```
/// use datagen::{Dataset, DatasetProfile, SplitId};
/// use modelzoo::{ModelKind, SimDetector};
/// use smallbig_core::{evaluate_streaming, DifficultCaseDiscriminator, EvalConfig};
///
/// let test = Dataset::generate("demo", &DatasetProfile::voc(), 50, 3);
/// let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
/// let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
/// let mut disc = DifficultCaseDiscriminator::default();
/// let outcome =
///     evaluate_streaming(&test, &small, &big, &mut disc, &EvalConfig::default());
/// assert!(outcome.upload_ratio >= 0.0 && outcome.upload_ratio <= 1.0);
/// ```
pub fn evaluate_streaming(
    test: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
    policy: &mut dyn crate::OffloadPolicy,
    config: &EvalConfig,
) -> EvalOutcome {
    assert!(!test.is_empty(), "cannot evaluate an empty dataset");
    // Detectors are deterministic, so the per-frame detection work can fan
    // out ahead of the strictly-sequential policy loop without changing a
    // single decision. The label is the batch path's, so Policy::Oracle
    // works identically in streaming form.
    let pass = detect_all(test, small, big);
    pass.scored(test, config, |score| {
        let inputs = score.policy_inputs(test, &pass);
        let decisions: Vec<Decision> = inputs.iter().map(|input| policy.decide(input)).collect();
        score.route(&decisions)
    })
}

/// Labels the dataset and reports discriminator quality on it
/// (used for the paper's Table I test row).
pub fn discriminator_test_stats(
    test: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
    disc: &crate::DifficultCaseDiscriminator,
) -> crate::BinaryStats {
    discriminator_stats_on(test, &detect_all(test, small, big), disc)
}

/// [`discriminator_test_stats`] over detections precomputed with
/// [`detect_all`] — the experiment driver shares one detection pass between
/// this and [`evaluate_detections`].
///
/// # Panics
///
/// Panics if `results` does not line up with the dataset.
pub fn discriminator_stats_on(
    test: &Dataset,
    results: &[(ImageDetections, ImageDetections)],
    disc: &crate::DifficultCaseDiscriminator,
) -> crate::BinaryStats {
    let scenes = test.scenes();
    assert_eq!(
        scenes.len(),
        results.len(),
        "one detection pair per scene required"
    );
    let t_conf = disc.thresholds().conf;
    let pairs = scenes.iter().zip(results).map(|(scene, (s, b))| {
        let ex = crate::label_scene_with(scene, s, b, t_conf);
        (disc.classify_features(&ex.features), ex.label)
    });
    crate::BinaryStats::from_pairs(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DifficultCaseDiscriminator, Thresholds};
    use datagen::{DatasetProfile, SplitId};
    use modelzoo::{ModelKind, SimDetector};

    fn fixture() -> (Dataset, SimDetector, SimDetector) {
        let test = Dataset::generate("t", &DatasetProfile::voc(), 250, 17);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        (test, small, big)
    }

    #[test]
    fn cloud_only_equals_big_edge_only_equals_small() {
        let (test, small, big) = fixture();
        let cfg = EvalConfig::default();
        let cloud = evaluate(&test, &small, &big, &Policy::CloudOnly, &cfg);
        assert_eq!(cloud.upload_ratio, 1.0);
        assert!((cloud.e2e_map_pct - cloud.big_map_pct).abs() < 1e-9);
        assert_eq!(cloud.e2e_detected, cloud.big_detected);
        let edge = evaluate(&test, &small, &big, &Policy::EdgeOnly, &cfg);
        assert_eq!(edge.upload_ratio, 0.0);
        assert!((edge.e2e_map_pct - edge.small_map_pct).abs() < 1e-9);
        assert_eq!(edge.e2e_detected, edge.small_detected);
    }

    #[test]
    fn big_beats_small() {
        let (test, small, big) = fixture();
        let out = evaluate(
            &test,
            &small,
            &big,
            &Policy::CloudOnly,
            &EvalConfig::default(),
        );
        assert!(out.big_map_pct > out.small_map_pct + 5.0);
        assert!(out.big_detected > out.small_detected);
    }

    #[test]
    fn discriminator_between_extremes_and_beats_random() {
        let (test, small, big) = fixture();
        let cfg = EvalConfig::default();
        // Calibrate on a separate training set, as the paper does.
        let train = Dataset::generate("train", &DatasetProfile::voc(), 400, 99);
        let (cal, _) = crate::calibrate(&train, &small, &big);
        let disc = DifficultCaseDiscriminator::new(cal.thresholds);
        let ours = evaluate(&test, &small, &big, &Policy::DifficultCase(disc), &cfg);
        assert!(ours.upload_ratio > 0.1 && ours.upload_ratio < 0.9);
        assert!(ours.e2e_map_pct > ours.small_map_pct);
        assert!(ours.e2e_map_pct <= ours.big_map_pct + 1e-9);
        // Compare with random at the same upload ratio.
        let rand = evaluate(
            &test,
            &small,
            &big,
            &Policy::Random {
                upload_fraction: ours.upload_ratio,
                seed: 5,
            },
            &cfg,
        );
        assert!(
            ours.e2e_map_pct > rand.e2e_map_pct,
            "ours {} vs random {}",
            ours.e2e_map_pct,
            rand.e2e_map_pct
        );
    }

    #[test]
    fn oracle_is_upper_boundish() {
        let (test, small, big) = fixture();
        let cfg = EvalConfig::default();
        let disc = DifficultCaseDiscriminator::new(Thresholds::paper());
        let ours = evaluate(&test, &small, &big, &Policy::DifficultCase(disc), &cfg);
        let oracle = evaluate(&test, &small, &big, &Policy::Oracle, &cfg);
        // The oracle detects at least as many objects per uploaded image.
        assert!(oracle.e2e_detected_vs_big_pct() >= ours.e2e_detected_vs_big_pct() - 2.0);
    }

    #[test]
    fn ratios_are_percentages() {
        let (test, small, big) = fixture();
        let out = evaluate(
            &test,
            &small,
            &big,
            &Policy::CloudOnly,
            &EvalConfig::default(),
        );
        assert!((out.e2e_map_vs_big_pct() - 100.0).abs() < 1e-9);
        assert!((out.e2e_detected_vs_big_pct() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn test_stats_have_sane_ranges() {
        let (test, small, big) = fixture();
        let disc = DifficultCaseDiscriminator::default();
        let stats = discriminator_test_stats(&test, &small, &big, &disc);
        assert!(stats.accuracy > 0.5, "accuracy {}", stats.accuracy);
        assert!(stats.recall > 0.5, "recall {}", stats.recall);
    }
}
