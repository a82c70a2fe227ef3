//! Ground-truth difficulty labelling (Sec. V-A).
//!
//! "We define an image as a difficult case if the small model fails to detect
//! all the objects in it": operationally, both models run at the 0.5
//! confidence threshold and the image is difficult when the big model reports
//! at least one more object than the small model.

use crate::{CaseKind, SemanticFeatures, PREDICTION_THRESHOLD};
use datagen::{Dataset, Scene};
use modelzoo::Detector;
use serde::{Deserialize, Serialize};

/// One labelled training example for the discriminator (also the data behind
/// the paper's Fig. 4 scatter plot).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LabeledExample {
    /// Scene id within its dataset.
    pub scene_id: u64,
    /// Ground-truth object count (Fig. 4's x-feature).
    pub true_count: usize,
    /// Ground-truth minimum object area ratio (Fig. 4's y-feature).
    pub true_min_area: Option<f64>,
    /// Semantic features extracted from the small model's raw output.
    pub features: SemanticFeatures,
    /// The difficulty label derived from the two models' outputs.
    pub label: CaseKind,
}

/// Labels one scene by comparing big- and small-model detection counts.
///
/// # Examples
///
/// ```
/// use datagen::{DatasetProfile, Scene, SplitId};
/// use modelzoo::{ModelKind, SimDetector};
/// use smallbig_core::label_scene;
///
/// let scene = Scene::sample(&DatasetProfile::voc(), 3, 0);
/// let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
/// let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
/// let example = label_scene(&scene, &small, &big, 0.2);
/// assert_eq!(example.true_count, scene.num_objects());
/// ```
pub fn label_scene(
    scene: &Scene,
    small: &dyn Detector,
    big: &dyn Detector,
    t_conf: f64,
) -> LabeledExample {
    let features = SemanticFeatures::extract(&small.detect(scene), t_conf);
    label_scene_counted(
        scene,
        features,
        big.count_above(scene, PREDICTION_THRESHOLD),
    )
}

/// [`label_scene`] over detections both models already produced for this
/// scene (detectors are deterministic, so the label is identical).
pub fn label_scene_with(
    scene: &Scene,
    small_dets: &detcore::ImageDetections,
    big_dets: &detcore::ImageDetections,
    t_conf: f64,
) -> LabeledExample {
    let features = SemanticFeatures::extract(small_dets, t_conf);
    label_scene_counted(scene, features, big_dets.count_above(PREDICTION_THRESHOLD))
}

/// [`label_scene_with`] from the small model's `features` and `n_big`, the
/// objects the big model predicts (score ≥ [`PREDICTION_THRESHOLD`]).
pub(crate) fn label_scene_counted(
    scene: &Scene,
    features: SemanticFeatures,
    n_big: usize,
) -> LabeledExample {
    let label = if n_big > features.predicted_count {
        CaseKind::Difficult
    } else {
        CaseKind::Easy
    };
    LabeledExample {
        scene_id: scene.id,
        true_count: scene.num_objects(),
        true_min_area: scene.min_area_ratio(),
        features,
        label,
    }
}

/// Labels every scene of a dataset.
///
/// Labelling is per-scene pure, so the detection work fans out across the
/// harness workers (see [`crate::par`]) and merges back in dataset order —
/// the result is identical to the sequential loop.
pub fn label_dataset(
    dataset: &Dataset,
    small: &(dyn Detector + Sync),
    big: &(dyn Detector + Sync),
    t_conf: f64,
) -> Vec<LabeledExample> {
    label_dataset_with(dataset, &crate::detect_all(dataset, small, big), t_conf)
}

/// [`label_dataset`] over detections precomputed with
/// [`crate::detect_all`].
///
/// # Panics
///
/// Panics if `results` does not line up with the dataset.
pub fn label_dataset_with(
    dataset: &Dataset,
    results: &[(detcore::ImageDetections, detcore::ImageDetections)],
    t_conf: f64,
) -> Vec<LabeledExample> {
    let scenes = dataset.scenes();
    assert_eq!(
        scenes.len(),
        results.len(),
        "one detection pair per scene required"
    );
    scenes
        .iter()
        .zip(results)
        .map(|(scene, (s, b))| label_scene_with(scene, s, b, t_conf))
        .collect()
}

/// Fraction of difficult cases among labelled examples.
pub fn difficult_fraction(examples: &[LabeledExample]) -> f64 {
    if examples.is_empty() {
        return 0.0;
    }
    examples.iter().filter(|e| e.label.is_difficult()).count() as f64 / examples.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::DatasetProfile;
    use modelzoo::{ModelKind, SimDetector};

    fn setup() -> (Dataset, SimDetector, SimDetector) {
        let ds = Dataset::generate("t", &DatasetProfile::voc(), 200, 42);
        let small = SimDetector::new(ModelKind::VggLiteSsd, datagen::SplitId::Voc07, 20);
        let big = SimDetector::new(ModelKind::SsdVgg16, datagen::SplitId::Voc07, 20);
        (ds, small, big)
    }

    #[test]
    fn labels_are_deterministic() {
        let (ds, small, big) = setup();
        let a = label_dataset(&ds, &small, &big, 0.2);
        let b = label_dataset(&ds, &small, &big, 0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn a_reasonable_fraction_is_difficult() {
        let (ds, small, big) = setup();
        let examples = label_dataset(&ds, &small, &big, 0.2);
        let frac = difficult_fraction(&examples);
        // The paper's VOC numbers put the true difficult rate near 40-55 %.
        assert!(
            (0.2..=0.75).contains(&frac),
            "difficult fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn difficult_cases_have_more_or_smaller_objects() {
        // Fig. 4's structure: difficult cases concentrate at high counts and
        // small minimum areas.
        let (ds, small, big) = setup();
        let examples = label_dataset(&ds, &small, &big, 0.2);
        let (mut d_count, mut d_n, mut e_count, mut e_n) = (0.0, 0, 0.0, 0);
        let (mut d_area, mut e_area) = (0.0, 0.0);
        for ex in &examples {
            let area = ex.true_min_area.unwrap_or(1.0);
            if ex.label.is_difficult() {
                d_count += ex.true_count as f64;
                d_area += area;
                d_n += 1;
            } else {
                e_count += ex.true_count as f64;
                e_area += area;
                e_n += 1;
            }
        }
        assert!(d_n > 0 && e_n > 0);
        let mean_d_count = d_count / d_n as f64;
        let mean_e_count = e_count / e_n as f64;
        let mean_d_area = d_area / d_n as f64;
        let mean_e_area = e_area / e_n as f64;
        assert!(
            mean_d_count > mean_e_count,
            "difficult {mean_d_count} vs easy {mean_e_count} objects"
        );
        assert!(
            mean_d_area < mean_e_area,
            "difficult {mean_d_area} vs easy {mean_e_area} min area"
        );
    }

    #[test]
    fn empty_examples_give_zero_fraction() {
        assert_eq!(difficult_fraction(&[]), 0.0);
    }
}
