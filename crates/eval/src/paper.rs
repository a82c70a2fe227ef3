//! The paper's published numbers, embedded for side-by-side reporting.
//!
//! Every experiment prints `measured (paper)` so the comparison can be
//! recorded mechanically (ROADMAP.md item 18 plans that record). Values are
//! transcribed from the ICDCS 2023 paper; where the camera-ready's table
//! captions are inconsistent (the small-model-2 vs small-model-3 mAP
//! columns), the constant's doc comment says so, and item 18a's record
//! is to open its deviations with it.

/// One row of a Tables III/V/VII/IX-style mAP table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapRow {
    /// Split label ("07", "07+12", …).
    pub split: &'static str,
    /// Big model mAP (%).
    pub big: f64,
    /// Small model mAP (%).
    pub small: f64,
    /// End-to-end mAP (%).
    pub e2e: f64,
    /// Upload ratio (%).
    pub upload: f64,
}

/// One row of a Tables IV/VI/VIII/X-style detected-objects table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetRow {
    /// Split label.
    pub split: &'static str,
    /// Objects detected by the big model.
    pub big: u64,
    /// Objects detected by the small model.
    pub small: u64,
    /// Objects detected end-to-end.
    pub e2e: u64,
    /// End-to-end / big model, %.
    pub e2e_vs_big: f64,
}

/// Table I — discriminator quality (train = ground-truth features).
pub mod table1 {
    /// accuracy, f1, precision, recall on the training set.
    pub const TRAIN: (f64, f64, f64, f64) = (85.35, 0.8665, 77.51, 98.24);
    /// accuracy, f1, precision, recall on the test set.
    pub const TEST: (f64, f64, f64, f64) = (78.35, 0.7732, 78.38, 76.29);
}

/// Table II — model size / pruned / FLOPs.
pub mod table2 {
    /// (name, size MB, pruned %, GFLOPs); pruned is vs SSD.
    pub const ROWS: [(&str, f64, f64, f64); 4] = [
        ("Small model 1", 18.50, 81.55, 5.60),
        ("Small model 2", 11.55, 88.48, 5.31),
        ("Small model 3", 6.50, 93.52, 1.31),
        ("SSD", 100.28, 0.0, 61.19),
    ];
}

/// Tables III/IV — small model 1 (VGG-Lite).
pub mod small1 {
    use super::{DetRow, MapRow};
    /// Table III.
    pub const MAP: [MapRow; 4] = [
        MapRow {
            split: "07",
            big: 70.76,
            small: 41.28,
            e2e: 62.68,
            upload: 51.47,
        },
        MapRow {
            split: "07+12",
            big: 77.41,
            small: 51.34,
            e2e: 71.61,
            upload: 51.23,
        },
        MapRow {
            split: "07++12",
            big: 72.31,
            small: 49.02,
            e2e: 66.42,
            upload: 50.76,
        },
        MapRow {
            split: "COCO",
            big: 42.18,
            small: 27.78,
            e2e: 38.76,
            upload: 52.09,
        },
    ];
    /// Table IV.
    pub const DETS: [DetRow; 4] = [
        DetRow {
            split: "07",
            big: 9055,
            small: 4759,
            e2e: 8325,
            e2e_vs_big: 93.00,
        },
        DetRow {
            split: "07+12",
            big: 9628,
            small: 5511,
            e2e: 9100,
            e2e_vs_big: 94.51,
        },
        DetRow {
            split: "07++12",
            big: 8434,
            small: 5202,
            e2e: 7852,
            e2e_vs_big: 95.07,
        },
        DetRow {
            split: "COCO",
            big: 7996,
            small: 4353,
            e2e: 7424,
            e2e_vs_big: 92.84,
        },
    ];
}

/// Tables V/VI — small model 2 (MobileNetV1).
pub mod small2 {
    use super::{DetRow, MapRow};
    /// Table V (as printed: its caption and Table VII's look swapped in
    /// the camera-ready; ROADMAP.md item 18a is to record the deviation).
    pub const MAP: [MapRow; 4] = [
        MapRow {
            split: "07",
            big: 70.76,
            small: 49.62,
            e2e: 64.00,
            upload: 52.16,
        },
        MapRow {
            split: "07+12",
            big: 77.41,
            small: 56.24,
            e2e: 71.38,
            upload: 51.97,
        },
        MapRow {
            split: "07++12",
            big: 72.31,
            small: 56.01,
            e2e: 67.80,
            upload: 51.69,
        },
        MapRow {
            split: "COCO",
            big: 42.18,
            small: 32.66,
            e2e: 41.46,
            upload: 50.65,
        },
    ];
    /// Table VI.
    pub const DETS: [DetRow; 4] = [
        DetRow {
            split: "07",
            big: 9055,
            small: 6264,
            e2e: 8810,
            e2e_vs_big: 97.29,
        },
        DetRow {
            split: "07+12",
            big: 9628,
            small: 6486,
            e2e: 9320,
            e2e_vs_big: 96.80,
        },
        DetRow {
            split: "07++12",
            big: 8434,
            small: 6393,
            e2e: 8323,
            e2e_vs_big: 98.68,
        },
        DetRow {
            split: "COCO",
            big: 7996,
            small: 6257,
            e2e: 7884,
            e2e_vs_big: 98.60,
        },
    ];
}

/// Tables VII/VIII — small model 3 (MobileNetV2).
pub mod small3 {
    use super::{DetRow, MapRow};
    /// Table VII.
    pub const MAP: [MapRow; 4] = [
        MapRow {
            split: "07",
            big: 70.76,
            small: 42.00,
            e2e: 64.29,
            upload: 51.99,
        },
        MapRow {
            split: "07+12",
            big: 77.41,
            small: 48.47,
            e2e: 72.24,
            upload: 51.85,
        },
        MapRow {
            split: "07++12",
            big: 72.31,
            small: 44.84,
            e2e: 66.42,
            upload: 51.99,
        },
        MapRow {
            split: "COCO",
            big: 42.18,
            small: 26.85,
            e2e: 38.50,
            upload: 48.96,
        },
    ];
    /// Table VIII.
    pub const DETS: [DetRow; 4] = [
        DetRow {
            split: "07",
            big: 9055,
            small: 4889,
            e2e: 8647,
            e2e_vs_big: 95.49,
        },
        DetRow {
            split: "07+12",
            big: 9628,
            small: 5242,
            e2e: 9079,
            e2e_vs_big: 94.29,
        },
        DetRow {
            split: "07++12",
            big: 8434,
            small: 4645,
            e2e: 8101,
            e2e_vs_big: 96.05,
        },
        DetRow {
            split: "COCO",
            big: 7996,
            small: 6388,
            e2e: 7917,
            e2e_vs_big: 99.01,
        },
    ];
}

/// Tables IX/X — YOLOv4 experiments.
pub mod yolo {
    use super::{DetRow, MapRow};
    /// Table IX (paper prints small before big for this table).
    pub const MAP: [MapRow; 2] = [
        MapRow {
            split: "07",
            big: 83.48,
            small: 73.64,
            e2e: 79.52,
            upload: 20.90,
        },
        MapRow {
            split: "07+12",
            big: 90.02,
            small: 79.72,
            e2e: 85.78,
            upload: 21.32,
        },
    ];
    /// Table X.
    pub const DETS: [DetRow; 2] = [
        DetRow {
            split: "07",
            big: 11098,
            small: 10509,
            e2e: 10985,
            e2e_vs_big: 98.98,
        },
        DetRow {
            split: "07+12",
            big: 11574,
            small: 10478,
            e2e: 11360,
            e2e_vs_big: 98.15,
        },
    ];
}

/// Table XI — HELMET on the real Jetson-Nano + server testbed.
pub mod table11 {
    /// (mAP %, detected objects, total inference time s, upload %).
    pub const EDGE_ONLY: (f64, u64, f64, f64) = (75.04, 940, 47.13, 0.0);
    /// Cloud-only row.
    pub const CLOUD_ONLY: (f64, u64, f64, f64) = (92.40, 1135, 264.76, 100.0);
    /// The small-big system row.
    pub const OURS: (f64, u64, f64, f64) = (86.07, 1119, 179.79, 51.19);
}

/// Tables XII–XVII — baseline comparisons (small model 1 + SSD).
pub mod baselines {
    /// Table XII: end-to-end mAP, random vs ours, per split.
    pub const RANDOM_MAP: [(&str, f64, f64); 4] = [
        ("07", 56.64, 62.68),
        ("07+12", 64.06, 71.61),
        ("07++12", 60.87, 66.42),
        ("COCO", 34.82, 38.76),
    ];
    /// Table XIII: detected objects as % of big, ours vs random.
    pub const RANDOM_DETS: [(&str, f64, f64, f64); 4] = [
        ("07", 93.00, 74.83, 51.47),
        ("07+12", 94.51, 77.07, 51.23),
        ("07++12", 95.07, 78.69, 50.76),
        ("COCO", 92.84, 75.06, 52.09),
    ];
    /// Table XIV: end-to-end mAP, blurred-upload vs ours.
    pub const BLUR_MAP: [(&str, f64, f64); 4] = [
        ("07", 57.30, 62.68),
        ("07+12", 65.22, 71.61),
        ("07++12", 60.05, 66.42),
        ("COCO", 35.26, 38.76),
    ];
    /// Table XV: detected objects as % of big, ours vs blurred.
    pub const BLUR_DETS: [(&str, f64, f64, f64); 4] = [
        ("07", 93.00, 73.13, 50.84),
        ("07+12", 94.51, 75.90, 50.84),
        ("07++12", 95.07, 78.33, 50.42),
        ("COCO", 92.84, 70.14, 50.48),
    ];
    /// Table XVI: end-to-end mAP, top-1-confidence vs ours.
    pub const TOP1_MAP: [(&str, f64, f64); 4] = [
        ("07", 57.30, 62.68),
        ("07+12", 65.22, 71.61),
        ("07++12", 60.05, 66.42),
        ("COCO", 35.26, 38.76),
    ];
    /// Table XVII: detected objects as % of big, ours vs top-1 confidence.
    pub const TOP1_DETS: [(&str, f64, f64, f64); 4] = [
        ("07", 93.00, 73.13, 50.84),
        ("07+12", 94.51, 75.90, 50.84),
        ("07++12", 95.07, 78.33, 50.42),
        ("COCO", 92.84, 70.14, 50.48),
    ];
}

/// The paper's published optimal thresholds (Sec. V-D, Fig. 7).
pub mod thresholds {
    /// Object-count threshold.
    pub const COUNT: usize = 2;
    /// Minimum-area-ratio threshold.
    pub const AREA: f64 = 0.31;
    /// Confidence-threshold band reported for noise filtering.
    pub const CONF_BAND: (f64, f64) = (0.15, 0.35);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_bands_consistent() {
        // The abstract's 94.01-97.84 % detected-objects band matches the
        // per-table averages.
        let avg = |rows: &[DetRow]| -> f64 {
            rows.iter().map(|r| r.e2e_vs_big).sum::<f64>() / rows.len() as f64
        };
        assert!((avg(&small1::DETS) - 94.01).abs() < 0.51);
        assert!((avg(&yolo::DETS) - 98.57).abs() < 0.1);
    }

    #[test]
    fn upload_ratios_near_half_for_ssd() {
        for r in small1::MAP.iter().chain(&small2::MAP).chain(&small3::MAP) {
            assert!((48.0..=53.0).contains(&r.upload), "{}", r.split);
        }
        for r in yolo::MAP.iter() {
            assert!((20.0..=22.0).contains(&r.upload));
        }
    }

    #[test]
    fn e2e_always_between_small_and_big() {
        for r in small1::MAP
            .iter()
            .chain(&small2::MAP)
            .chain(&small3::MAP)
            .chain(&yolo::MAP)
        {
            assert!(r.small < r.e2e && r.e2e < r.big, "{}", r.split);
        }
    }
}
