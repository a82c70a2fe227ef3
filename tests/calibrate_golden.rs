//! Frozen calibration golden: the batch calibrator's thresholds, loss, stats
//! and labelled examples must not drift.
//!
//! `calibrate` is pinned equal to its two-pass composition from public
//! pieces inside `smallbig-core`, but both sides of that comparison run the
//! live detectors, labelling and grid search. These checksums were captured
//! at the commit before the block-folding calibrator landed (PR 13), when
//! `calibrate` still retained every detection pair and scanned Eq. 1 from a
//! flat score buffer.

use smallbig::core::{Calibration, LabeledExample};
use smallbig::prelude::*;

const SCENES: usize = 400;
const SEED: u64 = 13;

/// The four small/big pairs of the paper's tables.
const PAIRS: [(ModelKind, ModelKind); 4] = [
    (ModelKind::VggLiteSsd, ModelKind::SsdVgg16),
    (ModelKind::MobileNetV1Ssd, ModelKind::SsdVgg16),
    (ModelKind::MobileNetV2Ssd, ModelKind::SsdVgg16),
    (ModelKind::YoloMobileNetV1, ModelKind::YoloV4),
];

fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn fnv1a_all(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, fnv1a)
}

/// `None` hashes apart from every `Some` (no area is NaN).
fn area_bits(area: Option<f64>) -> u64 {
    area.map_or(u64::MAX, f64::to_bits)
}

/// `(checksum of every Calibration field, checksum of the examples)`.
fn checksums(cal: &Calibration, examples: &[LabeledExample]) -> (u64, u64) {
    let stats = cal.train_stats;
    let calibration = fnv1a_all([
        cal.thresholds.conf.to_bits(),
        cal.thresholds.count as u64,
        cal.thresholds.area.to_bits(),
        cal.counting_loss,
        stats.accuracy.to_bits(),
        stats.precision.to_bits(),
        stats.recall.to_bits(),
        stats.f1.to_bits(),
        stats.predicted_positive_rate.to_bits(),
    ]);
    let examples = fnv1a_all(examples.iter().flat_map(|e| {
        [
            e.scene_id,
            e.true_count as u64,
            area_bits(e.true_min_area),
            e.features.predicted_count as u64,
            e.features.estimated_count as u64,
            area_bits(e.features.estimated_min_area),
            e.label.is_difficult() as u64,
        ]
    }));
    (calibration, examples)
}

#[test]
fn calibrations_match_the_frozen_checksums() {
    // per profile: one (calibration, examples) checksum pair per model pair
    let golden = [
        (
            "voc",
            DatasetProfile::voc(),
            SplitId::Voc07,
            [
                (0x5ef8_1f18_ff3b_a588, 0xafd2_60ce_3b7a_4b17),
                (0xebcd_131f_1410_0098, 0xd977_413d_6ed2_8dd8),
                (0x307e_1f31_fb70_a369, 0xa875_dd6d_6244_31c6),
                (0xf576_4a89_3420_0c36, 0xec7f_ca8f_21df_7003),
            ],
        ),
        (
            "coco18",
            DatasetProfile::coco18(),
            SplitId::Coco18,
            [
                (0x5162_144f_8d12_f7bb, 0x652a_93e9_1a06_7151),
                (0xad9a_c581_610c_fbd1, 0x0131_c4cd_2ad4_0672),
                (0x9d67_ed5d_a939_3dcf, 0x6829_78f6_09b2_fa6d),
                (0x4a8f_eddc_0e9f_a40f, 0x98d6_46f4_fe50_61cc),
            ],
        ),
        (
            "helmet",
            DatasetProfile::helmet(),
            SplitId::Helmet,
            [
                (0x9383_946a_fab9_403d, 0x34ec_e654_bf9c_be64),
                (0xa71f_0413_1094_360d, 0x9501_5433_2df5_b37a),
                (0xe39e_62d9_b2fd_7377, 0x0909_26c2_3959_3424),
                (0x8e3c_a9ca_c439_212c, 0x0a2e_2d1f_2e3a_fbb2),
            ],
        ),
    ];
    // Every cell is computed before any is judged, so one failing run
    // prints the whole table.
    let mut drifted = Vec::new();
    for (name, profile, split, expected) in golden {
        let train = Dataset::generate("golden", &profile, SCENES, SEED);
        let classes = train.taxonomy().len();
        for (pair, expected) in PAIRS.into_iter().zip(expected) {
            let small = SimDetector::new(pair.0, split, classes);
            let big = SimDetector::new(pair.1, split, classes);
            let (cal, examples) = calibrate(&train, &small, &big);
            assert_eq!(examples.len(), SCENES);
            let got = checksums(&cal, &examples);
            if got != expected {
                drifted.push(format!(
                    "{name} {:?}: got ({:#018x}, {:#018x}) from {cal:?}",
                    pair.0, got.0, got.1
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
