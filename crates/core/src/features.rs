//! Semantic-feature extraction from the small model's preliminary result.
//!
//! The discriminator never looks at pixels: it reads two semantic features
//! off the small model's raw detections (Sec. V-B) — the estimated **number
//! of objects** and the estimated **minimum object area ratio** — plus the
//! count the small model would report at the standard 0.5 prediction
//! threshold.

use detcore::ImageDetections;
use serde::{Deserialize, Serialize};

/// The standard prediction threshold: boxes scoring below 0.5 are not
/// reported as detections (Sec. V-A).
pub const PREDICTION_THRESHOLD: f64 = 0.5;

/// Semantic features of one image, as seen by the discriminator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SemanticFeatures {
    /// Objects the small model *predicts* (score ≥ 0.5).
    pub predicted_count: usize,
    /// Objects estimated after noise filtering at the calibrated confidence
    /// threshold (score ≥ `t_conf`, typically 0.15–0.35).
    pub estimated_count: usize,
    /// Smallest box area among the estimated objects (`None` if none).
    pub estimated_min_area: Option<f64>,
}

impl SemanticFeatures {
    /// Extracts features from the small model's raw output.
    ///
    /// # Examples
    ///
    /// ```
    /// use detcore::{BBox, ClassId, Detection, ImageDetections};
    /// use smallbig_core::SemanticFeatures;
    ///
    /// // The paper's Fig. 6: a person at 0.98 and a missed dog at 0.25.
    /// let dets = ImageDetections::from_vec(vec![
    ///     Detection::new(ClassId(14), 0.9818, BBox::new(0.007, 0.02, 0.99, 0.97).unwrap()),
    ///     Detection::new(ClassId(11), 0.2507, BBox::new(0.089, 0.42, 0.66, 0.92).unwrap()),
    /// ]);
    /// let f = SemanticFeatures::extract(&dets, 0.2);
    /// assert_eq!(f.predicted_count, 1); // only the person clears 0.5
    /// assert_eq!(f.estimated_count, 2); // the dog's box survives filtering
    /// assert!(f.all_detected() == false);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `t_conf` is not in `(0, PREDICTION_THRESHOLD]`.
    pub fn extract(dets: &ImageDetections, t_conf: f64) -> SemanticFeatures {
        assert!(
            t_conf > 0.0 && t_conf <= PREDICTION_THRESHOLD,
            "noise-filter threshold must be in (0, 0.5], got {t_conf}"
        );
        SemanticFeatures {
            predicted_count: dets.count_above(PREDICTION_THRESHOLD),
            estimated_count: dets.count_above(t_conf),
            estimated_min_area: dets.min_area_above(t_conf),
        }
    }

    /// [`SemanticFeatures::extract`] over each detection's `(score, box
    /// area)`, all that calibration keeps of the small model's output; the
    /// counts and the minimum are taken as [`ImageDetections::count_above`]
    /// and [`ImageDetections::min_area_above`] take them. `extract` keeps
    /// its own code because it runs per frame on the serving path, where
    /// it computes a box area only for the boxes that clear `t_conf`.
    pub(crate) fn from_scored_areas(dets: &[(f64, f64)], t_conf: f64) -> SemanticFeatures {
        assert!(
            t_conf > 0.0 && t_conf <= PREDICTION_THRESHOLD,
            "noise-filter threshold must be in (0, 0.5], got {t_conf}"
        );
        let above = |t: f64| dets.iter().filter(move |&&(score, _)| score >= t);
        SemanticFeatures {
            predicted_count: above(PREDICTION_THRESHOLD).count(),
            estimated_count: above(t_conf).count(),
            estimated_min_area: (above(t_conf).map(|&(_, area)| area))
                .min_by(|a, b| a.partial_cmp(b).expect("areas are finite")),
        }
    }

    /// The step-1 shortcut (Sec. V-C-1): if the predicted count equals the
    /// estimated count, "the value of the threshold does not make a
    /// difference and there is no uncertain object" — presumably easy.
    pub fn all_detected(&self) -> bool {
        self.predicted_count == self.estimated_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use detcore::{BBox, ClassId, Detection};

    fn det(score: f64, side: f64) -> Detection {
        Detection::new(
            ClassId(0),
            score,
            BBox::new(0.1, 0.1, 0.1 + side, 0.1 + side).unwrap(),
        )
    }

    #[test]
    fn empty_detections() {
        let f = SemanticFeatures::extract(&ImageDetections::new(), 0.2);
        assert_eq!(f.predicted_count, 0);
        assert_eq!(f.estimated_count, 0);
        assert_eq!(f.estimated_min_area, None);
        assert!(f.all_detected());
    }

    #[test]
    fn counts_split_by_thresholds() {
        let dets = ImageDetections::from_vec(vec![
            det(0.9, 0.5),
            det(0.3, 0.2),  // sub-threshold box
            det(0.05, 0.1), // noise, below t_conf
        ]);
        let f = SemanticFeatures::extract(&dets, 0.2);
        assert_eq!(f.predicted_count, 1);
        assert_eq!(f.estimated_count, 2);
        assert!(!f.all_detected());
        assert!((f.estimated_min_area.unwrap() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn min_area_ignores_sub_tconf_boxes() {
        let dets = ImageDetections::from_vec(vec![det(0.9, 0.5), det(0.1, 0.01)]);
        let f = SemanticFeatures::extract(&dets, 0.2);
        assert!((f.estimated_min_area.unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "noise-filter threshold")]
    fn rejects_threshold_above_half() {
        let _ = SemanticFeatures::extract(&ImageDetections::new(), 0.6);
    }
}
