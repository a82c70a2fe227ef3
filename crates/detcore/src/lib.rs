//! # detcore — object-detection primitives
//!
//! Foundation crate of the `smallbig` workspace (a reproduction of
//! *Edge-Cloud Collaborated Object Detection via Difficult-Case
//! Discriminator*, ICDCS 2023). It provides the detection-domain vocabulary
//! every other crate builds on:
//!
//! * [`BBox`] — normalised axis-aligned boxes with IoU and friends,
//! * [`ClassId`] / [`Taxonomy`] — class identifiers for VOC-20, COCO-18 and
//!   the HELMET dataset,
//! * [`Detection`] / [`GroundTruth`] / [`ImageDetections`] — prediction and
//!   annotation containers,
//! * [`nms`] / [`soft_nms`] — non-maximum suppression (with
//!   [`nms_into`]/[`soft_nms_into`] scratch-buffer forms for per-frame use),
//! * [`match_greedy`] — VOC-protocol detection↔object matching
//!   ([`match_greedy_into`] for the allocation-free form),
//! * [`MapEvaluator`] — PASCAL-VOC mAP (11-point and all-point),
//! * [`count_detected`] / [`DatasetCounter`] — the paper's
//!   "number of detected objects" metric.
//!
//! # Example
//!
//! ```
//! use detcore::{ApProtocol, BBox, ClassId, Detection, GroundTruth, ImageDetections,
//!               MapEvaluator};
//!
//! let gts = vec![GroundTruth::new(ClassId(0), BBox::new(0.1, 0.1, 0.6, 0.6).unwrap())];
//! let dets = ImageDetections::from_vec(vec![Detection::new(
//!     ClassId(0),
//!     0.92,
//!     BBox::new(0.12, 0.1, 0.61, 0.6).unwrap(),
//! )]);
//!
//! let mut evaluator = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
//! evaluator.add_image(&dets, &gts);
//! assert!(evaluator.evaluate().map > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod class;
mod counting;
mod det;
#[cfg(test)]
mod equivalence_tests;
mod geom;
mod map;
mod matching;
mod nms;

pub use class::{ClassId, Taxonomy, COCO18_NAMES, HELMET_NAMES, VOC20_NAMES};
pub use counting::{
    count_detected, count_detected_with, CountScratch, CountingConfig, DatasetCounter, ImageCount,
};
pub use det::{Detection, GroundTruth, ImageDetections};
pub use geom::{BBox, BBoxError};
pub use map::{
    ApProtocol, ClassAp, ImageContribution, MapEvaluator, MapReport, MatchedRecords, PrPoint,
};
pub use matching::{match_greedy, match_greedy_into, ImageMatch, MatchOutcome, MatchScratch};
pub use nms::{nms, nms_into, soft_nms, soft_nms_into, NmsConfig, NmsScratch};
