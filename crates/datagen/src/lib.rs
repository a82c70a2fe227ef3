//! # datagen — synthetic dataset substrate
//!
//! Generates VOC-, COCO- and HELMET-like datasets for the smallbig
//! reproduction. A dataset is a set of [`Scene`]s — ground-truth object
//! layouts plus camera conditions — drawn deterministically from a
//! [`DatasetProfile`] that encodes the statistics the paper's analysis
//! depends on (Fig. 4): the object-count distribution, the object
//! area-ratio distribution, intrinsic difficulty and camera degradation.
//!
//! The paper's exact split structure is reproduced by [`Split`]:
//! `07`, `07+12`, `07++12`, `COCO` (18-class subset) and `HELMET` at the
//! published image counts.
//!
//! # Example
//!
//! ```
//! use datagen::{Split, SplitId};
//!
//! // Scaled-down 07 split for a quick experiment:
//! let split = Split::load_scaled(SplitId::Voc07, 0.01);
//! assert_eq!(split.test.taxonomy().len(), 20);
//! println!("{} train / {} test", split.train.len(), split.test.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod drift;
mod profile;
mod scene;
mod splits;
mod stats;

pub use dataset::Dataset;
pub use drift::{DriftPhase, DriftSchedule};
pub use profile::{AreaModel, CameraModel, CountModel, DatasetProfile, DifficultyModel};
pub use scene::{Scene, SceneObject};
pub use splits::{Split, SplitId};
pub use stats::DatasetStats;
