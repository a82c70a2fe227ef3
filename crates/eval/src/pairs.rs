//! Shared (small, big, split) evaluation machinery with process-level caching.
//!
//! Several tables report different projections of the same run (e.g. Tables
//! III and IV both need small-model-1 over all four splits), so runs are
//! memoised on `(small, big, split, scale)`.

use datagen::{Split, SplitId};
use modelzoo::{ModelKind, SimDetector};
use parking_lot::Mutex;
use smallbig_core::{
    calibrate, detect_all, discriminator_stats_on, evaluate, evaluate_detections, BinaryStats,
    Calibration, DetectionPass, DifficultCaseDiscriminator, EvalConfig, EvalOutcome,
    LabeledExample, Policy,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Experiment-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExpConfig {
    /// Dataset scale in `(0, 1]` (1 = the paper's full split sizes).
    pub scale: f64,
    /// Render resolution for pixel-level baselines (blur) and the runtime.
    pub render_size: (usize, usize),
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            scale: 1.0,
            render_size: (128, 96),
        }
    }
}

impl ExpConfig {
    /// A reduced-scale config for quick runs and tests.
    pub fn quick() -> Self {
        ExpConfig {
            scale: 0.02,
            render_size: (64, 48),
        }
    }
}

/// Everything a (small, big, split) run produces.
#[derive(Debug, Clone)]
pub struct PairRun {
    /// Which split was used.
    pub split_id: SplitId,
    /// The calibration obtained on the training set.
    pub calibration: Calibration,
    /// Labelled training examples (Fig. 4 data).
    pub train_examples: Vec<LabeledExample>,
    /// Discriminator quality on the test set (predicted features).
    pub test_stats: BinaryStats,
    /// Our policy's outcome on the test set.
    pub ours: EvalOutcome,
    /// The loaded split (kept for baseline policies).
    pub split: Arc<Split>,
    /// Number of classes.
    pub num_classes: usize,
    /// The model pair this run was computed for.
    small_kind: ModelKind,
    big_kind: ModelKind,
    /// Both models' test-set detections (dataset order). Detectors are
    /// deterministic, so baseline policies evaluated on the same pair reuse
    /// these instead of re-running the models per table, and share the
    /// pass's score: each image is matched and counted once per run.
    test_detections: Arc<DetectionPass>,
}

impl PairRun {
    /// The calibrated discriminator for this pair.
    pub fn discriminator(&self) -> DifficultCaseDiscriminator {
        DifficultCaseDiscriminator::new(self.calibration.thresholds)
    }

    /// The detectors for this pair (reconstructed deterministically).
    pub fn detectors(&self, small: ModelKind, big: ModelKind) -> (SimDetector, SimDetector) {
        (
            SimDetector::new(small, self.split_id, self.num_classes),
            SimDetector::new(big, self.split_id, self.num_classes),
        )
    }

    /// Evaluates a different policy on the same split/pair.
    ///
    /// When `(small_kind, big_kind)` is the pair this run was computed for
    /// (the common case — tables sweep policies, not models), the cached
    /// test-set detections are reused; the result is identical either way.
    pub fn evaluate_policy(
        &self,
        small_kind: ModelKind,
        big_kind: ModelKind,
        policy: &Policy,
    ) -> EvalOutcome {
        if small_kind == self.small_kind && big_kind == self.big_kind {
            return evaluate_detections(
                &self.split.test,
                &self.test_detections,
                policy,
                &EvalConfig::default(),
            );
        }
        let (small, big) = self.detectors(small_kind, big_kind);
        evaluate(
            &self.split.test,
            &small,
            &big,
            policy,
            &EvalConfig::default(),
        )
    }
}

type CacheKey = (ModelKind, ModelKind, SplitId, u64);

/// Per-key slot: concurrent callers for the same key block on one
/// computation instead of redoing it (experiments now run in parallel, so
/// a cold cache would otherwise stampede on the shared pairs).
type CacheSlot = Arc<OnceLock<Arc<PairRun>>>;

fn cache() -> &'static Mutex<HashMap<CacheKey, CacheSlot>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, CacheSlot>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Runs (or retrieves from cache) the full pipeline for one pair on a split:
/// calibration on the train set, discriminator stats, our policy's outcome.
pub fn pair_run(
    small_kind: ModelKind,
    big_kind: ModelKind,
    split_id: SplitId,
    cfg: &ExpConfig,
) -> Arc<PairRun> {
    let key = (small_kind, big_kind, split_id, cfg.scale.to_bits());
    // The map lock is held only to fetch the key's slot; the expensive
    // computation runs under the slot's OnceLock, which serialises callers
    // of the same key without blocking other keys.
    let slot = Arc::clone(cache().lock().entry(key).or_default());
    Arc::clone(slot.get_or_init(|| compute_pair_run(small_kind, big_kind, split_id, cfg)))
}

fn compute_pair_run(
    small_kind: ModelKind,
    big_kind: ModelKind,
    split_id: SplitId,
    cfg: &ExpConfig,
) -> Arc<PairRun> {
    let split = Arc::new(Split::load_scaled(split_id, cfg.scale));
    let num_classes = split.test.taxonomy().len();
    let small = SimDetector::new(small_kind, split_id, num_classes);
    let big = SimDetector::new(big_kind, split_id, num_classes);
    let (calibration, train_examples) = calibrate(&split.train, &small, &big);
    let disc = DifficultCaseDiscriminator::new(calibration.thresholds);
    // One detection pass over the test set serves the discriminator stats,
    // our policy's outcome, and (via the cache on PairRun) every baseline
    // policy a table evaluates later.
    let test_detections = Arc::new(detect_all(&split.test, &small, &big));
    let test_stats = discriminator_stats_on(&split.test, &test_detections, &disc);
    let ours = evaluate_detections(
        &split.test,
        &test_detections,
        &Policy::DifficultCase(disc),
        &EvalConfig::default(),
    );
    Arc::new(PairRun {
        split_id,
        calibration,
        train_examples,
        test_stats,
        ours,
        split,
        num_classes,
        small_kind,
        big_kind,
        test_detections,
    })
}

/// The paper's three SSD small models in table order.
pub const SSD_SMALLS: [ModelKind; 3] = [
    ModelKind::VggLiteSsd,
    ModelKind::MobileNetV1Ssd,
    ModelKind::MobileNetV2Ssd,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_returns_same_arc() {
        let cfg = ExpConfig::quick();
        let a = pair_run(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            SplitId::Voc07,
            &cfg,
        );
        let b = pair_run(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            SplitId::Voc07,
            &cfg,
        );
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn pair_run_is_complete() {
        let cfg = ExpConfig::quick();
        let run = pair_run(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            SplitId::Voc07,
            &cfg,
        );
        assert!(!run.train_examples.is_empty());
        assert!(run.ours.num_images > 0);
        assert!(run.calibration.thresholds.conf > 0.0);
        assert!(run.test_stats.accuracy > 0.0);
    }

    #[test]
    fn evaluate_policy_reuses_split() {
        let cfg = ExpConfig::quick();
        let run = pair_run(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            SplitId::Voc07,
            &cfg,
        );
        let cloud = run.evaluate_policy(
            ModelKind::VggLiteSsd,
            ModelKind::SsdVgg16,
            &Policy::CloudOnly,
        );
        assert_eq!(cloud.upload_ratio, 1.0);
        assert_eq!(cloud.num_images, run.ours.num_images);
    }
}
