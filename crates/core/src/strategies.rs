//! Offload policies: the extensible [`OffloadPolicy`] trait, the concrete
//! [`Policy`] catalogue, and the streaming quantile adapter.
//!
//! Two ways to decide:
//!
//! * **Streaming** — [`OffloadPolicy::decide`] sees one frame at a time in
//!   arrival order. This is what [`crate::EdgeSession`] consumes; implement
//!   the trait to plug a custom strategy into the runtime without touching
//!   this crate.
//! * **Batch** — [`Policy::decide_all`] sees the whole test set at once and
//!   reproduces the paper's protocol (quantile baselines sort the entire
//!   set and upload the worst fraction).
//!
//! The catalogue:
//!
//! * [`Policy::DifficultCase`] — the paper's discriminator (Sec. V).
//! * [`Policy::CloudOnly`] / [`Policy::EdgeOnly`] — the two extremes.
//! * [`Policy::Random`] — upload a random 50 % (Sec. VI-E-1).
//! * [`Policy::BlurQuantile`] — upload the blurriest images by Brenner
//!   gradient (Sec. VI-E-2, Eq. 2).
//! * [`Policy::Top1Quantile`] — upload the images with the lowest mean
//!   per-class top-1 confidence (Sec. VI-E-3).
//! * [`Policy::Oracle`] — upload exactly the true difficult cases (upper
//!   bound, not in the paper; used for ablations).

use crate::{CaseKind, DifficultCaseDiscriminator};
use datagen::Scene;
use detcore::ImageDetections;
use imaging::{brenner_gradient, render};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Per-image routing decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Decision {
    /// Keep the small model's local result.
    Local,
    /// Upload to the cloud; the big model's result becomes final.
    Upload,
}

impl Decision {
    /// `true` when the image is uploaded.
    pub fn is_upload(&self) -> bool {
        matches!(self, Decision::Upload)
    }
}

/// Everything a policy may consult for one image.
#[derive(Debug, Clone, Copy)]
pub struct PolicyInput<'a> {
    /// The scene (gives the Oracle and the blur baseline their inputs).
    pub scene: &'a Scene,
    /// The small model's raw detections.
    pub small_dets: &'a ImageDetections,
    /// The ground-truth difficulty label, when known (Oracle only).
    pub label: Option<CaseKind>,
    /// Number of classes in the taxonomy (top-1 baseline normalisation).
    pub num_classes: usize,
    /// The edge↔cloud link's observed state when the frame arrived
    /// (effective bandwidth/RTT/loss under the session's [`simnet::LinkTrace`],
    /// or the static link's nominal point). `None` in batch evaluation,
    /// where no link semantics exist. Lets adaptive policies keep frames
    /// local through outages or congestion — see
    /// [`simnet::LinkState::nominal_transfer_time`].
    pub link: Option<simnet::LinkState>,
    /// Cloud queue depth the session last observed — admission probes
    /// report the instantaneous depth, answer headers the depth at their
    /// batch's formation (the congestion that answer actually queued
    /// behind); see the *Scheduling control plane* section of
    /// [`crate::CloudServer`]'s module docs. `None` before any cloud
    /// interaction and in batch evaluation. Lets adaptive policies back
    /// off when the cloud itself — not the link — is the bottleneck.
    pub cloud_queue: Option<usize>,
}

/// A per-frame offload strategy, decided in arrival order.
///
/// This is the extension point of the framework: the streaming runtime
/// ([`crate::EdgeSession`]) routes every frame through a
/// `Box<dyn OffloadPolicy>`, so downstream users can implement the trait for
/// their own types and plug them in without touching this crate. The
/// receiver is `&mut self` so stateful strategies (running quantiles,
/// token buckets, learned controllers) fit the same object-safe interface.
///
/// [`Policy`] implements the trait for every variant whose semantics are
/// well-defined one frame at a time; the batch-protocol quantile baselines
/// get a faithful streaming counterpart in [`QuantileStream`].
///
/// # Examples
///
/// ```
/// use smallbig_core::{Decision, OffloadPolicy, PolicyInput};
///
/// /// Upload whenever the small model saw nothing at all.
/// struct UploadOnEmpty;
///
/// impl OffloadPolicy for UploadOnEmpty {
///     fn decide(&mut self, input: &PolicyInput<'_>) -> Decision {
///         if input.small_dets.is_empty() {
///             Decision::Upload
///         } else {
///             Decision::Local
///         }
///     }
/// }
/// ```
pub trait OffloadPolicy: Send {
    /// Decides one frame, given everything the edge knows about it.
    fn decide(&mut self, input: &PolicyInput<'_>) -> Decision;

    /// Human-readable strategy name for reports. Return
    /// [`Cow::Borrowed`] for fixed names (no per-call allocation) and
    /// [`Cow::Owned`] when the name embeds parameters.
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("custom")
    }

    /// Optional difficulty score for the frame (higher = harder), asked
    /// right after [`decide`](Self::decide) returned
    /// [`Decision::Upload`]. The score rides the upload's wire header so
    /// cloud-side priority schedulers
    /// ([`DifficultyPriority`](crate::DifficultyPriority)) can serve the
    /// hardest cases first. The default (`None`) stamps `0` — FIFO among
    /// unscored frames. Must not draw randomness or the run stops
    /// replaying.
    fn difficulty(&mut self, _input: &PolicyInput<'_>) -> Option<f64> {
        None
    }

    /// Applies a cloud-pushed [`CalibrationUpdate`](crate::CalibrationUpdate),
    /// returning `true` if the policy actually changed state. The runtime
    /// calls this *between* frames only (never mid-decision), so an
    /// implementation may replace itself wholesale. The default ignores
    /// updates — policies with no calibrated state (cloud-only, random…)
    /// are unaffected by the model-update loop.
    fn apply_calibration(&mut self, _update: &crate::CalibrationUpdate) -> bool {
        false
    }

    /// Snapshots the policy's calibrated state right before an update is
    /// applied, so a divergence trip can restore it via
    /// [`restore_calibration`](Self::restore_calibration). Policies that
    /// accept updates should return a non-empty snapshot or rollback
    /// becomes a no-op for them.
    fn calibration_snapshot(&self) -> crate::CalibrationSnapshot {
        crate::CalibrationSnapshot::default()
    }

    /// Restores a snapshot taken by
    /// [`calibration_snapshot`](Self::calibration_snapshot) (the rollback
    /// path). The default does nothing.
    fn restore_calibration(&mut self, _snapshot: &crate::CalibrationSnapshot) {}
}

/// The discriminator's scalar difficulty score (higher = harder): count
/// mismatch dominates, then estimated count, then small minimum area —
/// the ranking behind [`Policy::DifficultyQuantile`] and the score
/// uploaded frames carry for [`DifficultyPriority`](crate::DifficultyPriority).
fn semantic_difficulty(dets: &ImageDetections, t_conf: f64) -> f64 {
    let f = crate::SemanticFeatures::extract(dets, t_conf);
    let uncertain = f.estimated_count.saturating_sub(f.predicted_count) as f64;
    let min_area = f.estimated_min_area.unwrap_or(1.0);
    uncertain * 1e6 + f.estimated_count as f64 * 1e3 + (1.0 - min_area)
}

impl OffloadPolicy for DifficultCaseDiscriminator {
    fn decide(&mut self, input: &PolicyInput<'_>) -> Decision {
        match self.classify(input.small_dets) {
            CaseKind::Difficult => Decision::Upload,
            CaseKind::Easy => Decision::Local,
        }
    }

    fn name(&self) -> Cow<'static, str> {
        let t = self.thresholds();
        Cow::Owned(format!(
            "difficult-case (conf {:.2}, count {}, area {:.2})",
            t.conf, t.count, t.area
        ))
    }

    fn difficulty(&mut self, input: &PolicyInput<'_>) -> Option<f64> {
        Some(semantic_difficulty(
            input.small_dets,
            self.thresholds().conf,
        ))
    }

    fn apply_calibration(&mut self, update: &crate::CalibrationUpdate) -> bool {
        if self.thresholds() == update.thresholds {
            return false;
        }
        // The refit grid only emits in-range thresholds, so the
        // constructor's invariants hold by construction.
        *self = DifficultCaseDiscriminator::with_config(update.thresholds, self.config());
        true
    }

    fn calibration_snapshot(&self) -> crate::CalibrationSnapshot {
        crate::CalibrationSnapshot {
            thresholds: Some(self.thresholds()),
            quantile_scores: None,
        }
    }

    fn restore_calibration(&mut self, snapshot: &crate::CalibrationSnapshot) {
        if let Some(t) = snapshot.thresholds {
            *self = DifficultCaseDiscriminator::with_config(t, self.config());
        }
    }
}

/// Streaming [`OffloadPolicy`] for [`Policy`].
///
/// Per-image variants (`DifficultCase`, `CloudOnly`, `EdgeOnly`, `Oracle`)
/// decide exactly as [`Policy::decide_all`] does. `Random` derives its coin
/// flip from a per-scene hash of `(seed, scene.id)` so the stream is
/// deterministic and order-independent; it converges on `upload_fraction`
/// but does not reproduce `decide_all`'s exact batch shuffle.
///
/// # Panics
///
/// The quantile variants (`BlurQuantile`, `Top1Quantile`,
/// `DifficultyQuantile`) are defined by the paper as whole-test-set sorts
/// and have no exact per-frame meaning; calling `decide` on them panics
/// with a pointer to [`Policy::into_stream`], which converts them into the
/// online-quantile approximation instead.
impl OffloadPolicy for Policy {
    fn decide(&mut self, input: &PolicyInput<'_>) -> Decision {
        match self {
            Policy::DifficultCase(disc) => disc.decide(input),
            Policy::CloudOnly => Decision::Upload,
            Policy::EdgeOnly => Decision::Local,
            Policy::Random {
                upload_fraction,
                seed,
            } => {
                assert!((0.0..=1.0).contains(upload_fraction), "fraction in [0, 1]");
                if scene_hash_unit(*seed, input.scene.id) < *upload_fraction {
                    Decision::Upload
                } else {
                    Decision::Local
                }
            }
            Policy::Oracle => match input.label.expect("oracle policy requires labelled inputs") {
                CaseKind::Difficult => Decision::Upload,
                CaseKind::Easy => Decision::Local,
            },
            Policy::BlurQuantile { .. }
            | Policy::Top1Quantile { .. }
            | Policy::DifficultyQuantile { .. } => panic!(
                "{} is a batch-protocol policy with no exact streaming form; \
                 use Policy::into_stream() for the online-quantile version",
                Policy::name(self)
            ),
        }
    }

    fn name(&self) -> Cow<'static, str> {
        match self {
            Policy::CloudOnly => Cow::Borrowed("cloud-only"),
            Policy::EdgeOnly => Cow::Borrowed("edge-only"),
            Policy::Oracle => Cow::Borrowed("oracle"),
            other => Cow::Owned(Policy::name(other)),
        }
    }

    fn difficulty(&mut self, input: &PolicyInput<'_>) -> Option<f64> {
        match self {
            Policy::DifficultCase(disc) => disc.difficulty(input),
            _ => None,
        }
    }

    fn apply_calibration(&mut self, update: &crate::CalibrationUpdate) -> bool {
        match self {
            Policy::DifficultCase(disc) => disc.apply_calibration(update),
            _ => false,
        }
    }

    fn calibration_snapshot(&self) -> crate::CalibrationSnapshot {
        match self {
            Policy::DifficultCase(disc) => OffloadPolicy::calibration_snapshot(disc),
            _ => crate::CalibrationSnapshot::default(),
        }
    }

    fn restore_calibration(&mut self, snapshot: &crate::CalibrationSnapshot) {
        if let Policy::DifficultCase(disc) = self {
            disc.restore_calibration(snapshot);
        }
    }
}

/// SplitMix64-style hash of `(seed, id)` mapped to `[0, 1)`.
fn scene_hash_unit(seed: u64, id: u64) -> f64 {
    let mut z = seed ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An offload policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Policy {
    /// The paper's difficult-case discriminator.
    DifficultCase(DifficultCaseDiscriminator),
    /// Upload everything (the traditional cloud-offload scheme).
    CloudOnly,
    /// Upload nothing.
    EdgeOnly,
    /// Upload a uniformly random fraction of the images.
    Random {
        /// Fraction of images to upload (0–1).
        upload_fraction: f64,
        /// RNG seed (decisions are deterministic given the seed).
        seed: u64,
    },
    /// Upload the blurriest `upload_fraction` by Brenner gradient.
    BlurQuantile {
        /// Fraction of images to upload (0–1).
        upload_fraction: f64,
        /// Resolution at which frames are rendered for scoring.
        render_size: (usize, usize),
    },
    /// Upload the `upload_fraction` with the lowest mean top-1 confidence.
    Top1Quantile {
        /// Fraction of images to upload (0–1).
        upload_fraction: f64,
    },
    /// Upload the `upload_fraction` most difficult-looking images, ranked by
    /// the discriminator's semantic features (count mismatch, estimated
    /// count, minimum area). This is the sweep behind the paper's Figs. 8–9:
    /// the knee of the mAP-vs-upload curve sits near 50 %.
    DifficultyQuantile {
        /// Fraction of images to upload (0–1).
        upload_fraction: f64,
        /// Noise-filter confidence threshold for feature extraction.
        t_conf: f64,
    },
    /// Upload exactly the images whose true label is difficult.
    Oracle,
}

impl Policy {
    /// Human-readable policy name for reports.
    pub fn name(&self) -> String {
        match self {
            Policy::DifficultCase(d) => {
                let t = d.thresholds();
                format!(
                    "difficult-case (conf {:.2}, count {}, area {:.2})",
                    t.conf, t.count, t.area
                )
            }
            Policy::CloudOnly => "cloud-only".to_string(),
            Policy::EdgeOnly => "edge-only".to_string(),
            Policy::Random {
                upload_fraction, ..
            } => {
                format!("random {:.0}%", upload_fraction * 100.0)
            }
            Policy::BlurQuantile {
                upload_fraction, ..
            } => {
                format!("blurred {:.0}% (Brenner)", upload_fraction * 100.0)
            }
            Policy::Top1Quantile { upload_fraction } => {
                format!("top-1 confidence {:.0}%", upload_fraction * 100.0)
            }
            Policy::DifficultyQuantile {
                upload_fraction, ..
            } => {
                format!("difficulty-ranked {:.0}%", upload_fraction * 100.0)
            }
            Policy::Oracle => "oracle".to_string(),
        }
    }

    /// Decides the whole batch at once.
    ///
    /// Quantile policies (random / blur / top-1) reproduce the paper's
    /// protocol of sorting the entire test set and uploading the worst
    /// fraction; the discriminator and the extremes decide per image.
    ///
    /// # Panics
    ///
    /// Panics if a quantile fraction is outside `[0, 1]`, or if
    /// [`Policy::Oracle`] is used on inputs without labels.
    pub fn decide_all(&self, inputs: &[PolicyInput<'_>]) -> Vec<Decision> {
        match self {
            Policy::DifficultCase(disc) => inputs
                .iter()
                .map(|ctx| match disc.classify(ctx.small_dets) {
                    CaseKind::Difficult => Decision::Upload,
                    CaseKind::Easy => Decision::Local,
                })
                .collect(),
            Policy::CloudOnly => vec![Decision::Upload; inputs.len()],
            Policy::EdgeOnly => vec![Decision::Local; inputs.len()],
            Policy::Random {
                upload_fraction,
                seed,
            } => {
                assert!((0.0..=1.0).contains(upload_fraction), "fraction in [0, 1]");
                let mut order: Vec<usize> = (0..inputs.len()).collect();
                let mut rng = StdRng::seed_from_u64(*seed);
                order.shuffle(&mut rng);
                let k = quantile_count(inputs.len(), *upload_fraction);
                let mut out = vec![Decision::Local; inputs.len()];
                for &i in order.iter().take(k) {
                    out[i] = Decision::Upload;
                }
                out
            }
            Policy::BlurQuantile {
                upload_fraction,
                render_size,
            } => {
                assert!((0.0..=1.0).contains(upload_fraction), "fraction in [0, 1]");
                let scores: Vec<f64> = inputs
                    .iter()
                    .map(|ctx| {
                        let frame = render(&ctx.scene.render_spec(render_size.0, render_size.1));
                        brenner_gradient(&frame)
                    })
                    .collect();
                // Blurriest = lowest Brenner score; upload those.
                upload_lowest(&scores, *upload_fraction)
            }
            Policy::Top1Quantile { upload_fraction } => {
                assert!((0.0..=1.0).contains(upload_fraction), "fraction in [0, 1]");
                let scores: Vec<f64> = inputs
                    .iter()
                    .map(|ctx| ctx.small_dets.mean_top1_score(ctx.num_classes))
                    .collect();
                upload_lowest(&scores, *upload_fraction)
            }
            Policy::DifficultyQuantile {
                upload_fraction,
                t_conf,
            } => {
                assert!((0.0..=1.0).contains(upload_fraction), "fraction in [0, 1]");
                let scores: Vec<f64> = inputs
                    .iter()
                    // Higher = more difficult; negate for upload_lowest.
                    .map(|ctx| -semantic_difficulty(ctx.small_dets, *t_conf))
                    .collect();
                upload_lowest(&scores, *upload_fraction)
            }
            Policy::Oracle => inputs
                .iter()
                .map(
                    |ctx| match ctx.label.expect("oracle policy requires labelled inputs") {
                        CaseKind::Difficult => Decision::Upload,
                        CaseKind::Easy => Decision::Local,
                    },
                )
                .collect(),
        }
    }
}

impl Policy {
    /// Converts the policy into a boxed streaming [`OffloadPolicy`].
    ///
    /// Per-image variants stream as themselves. The quantile baselines
    /// become a [`QuantileStream`] that ranks each frame against every
    /// score seen so far — the online analogue of the paper's
    /// sort-the-whole-test-set protocol.
    pub fn into_stream(self) -> Box<dyn OffloadPolicy> {
        match self {
            Policy::BlurQuantile {
                upload_fraction,
                render_size,
            } => Box::new(QuantileStream::new(
                ScoreKind::Blur { render_size },
                upload_fraction,
            )),
            Policy::Top1Quantile { upload_fraction } => {
                Box::new(QuantileStream::new(ScoreKind::Top1, upload_fraction))
            }
            Policy::DifficultyQuantile {
                upload_fraction,
                t_conf,
            } => Box::new(QuantileStream::new(
                ScoreKind::Difficulty { t_conf },
                upload_fraction,
            )),
            other => Box::new(other),
        }
    }
}

/// How a [`QuantileStream`] scores a frame (lower = more worth uploading).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScoreKind {
    /// Brenner gradient of the rendered frame (blurry frames score low).
    Blur {
        /// Resolution at which frames are rendered for scoring.
        render_size: (usize, usize),
    },
    /// Mean per-class top-1 confidence of the small model's output.
    Top1,
    /// Negated discriminator difficulty features (difficult frames score low).
    Difficulty {
        /// Noise-filter confidence threshold for feature extraction.
        t_conf: f64,
    },
}

/// Online-quantile adapter turning a batch quantile baseline into a
/// streaming [`OffloadPolicy`].
///
/// Each frame is scored, inserted into the sorted history, and uploaded iff
/// its rank falls within the lowest `upload_fraction` of all scores seen so
/// far (rounded — with one score seen, the first frame uploads iff
/// `upload_fraction >= 0.5`). Early frames decide against little history;
/// as the stream grows, the decision converges on the batch quantile.
/// Insertion is `O(n)` per frame, which is fine at simulation scale.
///
/// # Examples
///
/// ```
/// use smallbig_core::{OffloadPolicy, Policy};
///
/// let mut policy = Policy::Top1Quantile { upload_fraction: 0.5 }.into_stream();
/// assert!(policy.name().contains("streaming"));
/// ```
#[derive(Debug, Clone)]
pub struct QuantileStream {
    kind: ScoreKind,
    upload_fraction: f64,
    sorted_scores: Vec<f64>,
    /// Score of the most recently decided frame. `difficulty` is asked
    /// right after `decide` on the same frame, and blur scoring re-renders
    /// the whole frame — so it reuses this instead of recomputing.
    last_score: Option<f64>,
}

impl QuantileStream {
    /// Creates a streaming quantile policy.
    ///
    /// # Panics
    ///
    /// Panics if `upload_fraction` is outside `[0, 1]`.
    pub fn new(kind: ScoreKind, upload_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&upload_fraction), "fraction in [0, 1]");
        QuantileStream {
            kind,
            upload_fraction,
            sorted_scores: Vec::new(),
            last_score: None,
        }
    }

    /// Number of frames scored so far.
    pub fn frames_seen(&self) -> usize {
        self.sorted_scores.len()
    }

    fn score(&self, input: &PolicyInput<'_>) -> f64 {
        match self.kind {
            ScoreKind::Blur { render_size } => {
                let frame = render(&input.scene.render_spec(render_size.0, render_size.1));
                brenner_gradient(&frame)
            }
            ScoreKind::Top1 => input.small_dets.mean_top1_score(input.num_classes),
            ScoreKind::Difficulty { t_conf } => -semantic_difficulty(input.small_dets, t_conf),
        }
    }
}

impl OffloadPolicy for QuantileStream {
    fn decide(&mut self, input: &PolicyInput<'_>) -> Decision {
        let score = self.score(input);
        self.last_score = Some(score);
        let rank = self.sorted_scores.partition_point(|s| *s < score);
        self.sorted_scores.insert(rank, score);
        let k = quantile_count(self.sorted_scores.len(), self.upload_fraction);
        if rank < k {
            Decision::Upload
        } else {
            Decision::Local
        }
    }

    fn name(&self) -> Cow<'static, str> {
        let what = match self.kind {
            ScoreKind::Blur { .. } => "blurred",
            ScoreKind::Top1 => "top-1 confidence",
            ScoreKind::Difficulty { .. } => "difficulty-ranked",
        };
        Cow::Owned(format!(
            "streaming {what} {:.0}%",
            self.upload_fraction * 100.0
        ))
    }

    fn difficulty(&mut self, input: &PolicyInput<'_>) -> Option<f64> {
        // A quantile stream scores frames with "lower = more worth
        // uploading"; negated, that is a difficulty (higher = harder).
        // `decide` just scored this frame, so reuse its score rather than
        // re-render (blur) or re-extract features.
        Some(-self.last_score.unwrap_or_else(|| self.score(input)))
    }

    fn apply_calibration(&mut self, update: &crate::CalibrationUpdate) -> bool {
        // The artifact carries the cloud-observed difficulty scores sorted
        // ascending (higher = harder); this stream ranks by "lower = more
        // worth uploading", so negate and reverse to keep the history
        // ascending in the stream's own convention.
        if update.quantile_scores.is_empty() {
            return false;
        }
        self.sorted_scores = update.quantile_scores.iter().rev().map(|d| -d).collect();
        true
    }

    fn calibration_snapshot(&self) -> crate::CalibrationSnapshot {
        crate::CalibrationSnapshot {
            thresholds: None,
            quantile_scores: Some(self.sorted_scores.iter().rev().map(|s| -s).collect()),
        }
    }

    fn restore_calibration(&mut self, snapshot: &crate::CalibrationSnapshot) {
        if let Some(scores) = &snapshot.quantile_scores {
            self.sorted_scores = scores.iter().rev().map(|d| -d).collect();
        }
    }
}

fn quantile_count(n: usize, fraction: f64) -> usize {
    ((n as f64 * fraction).round() as usize).min(n)
}

/// Uploads the images with the `fraction` lowest scores.
fn upload_lowest(scores: &[f64], fraction: f64) -> Vec<Decision> {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).expect("finite scores"));
    let k = quantile_count(scores.len(), fraction);
    let mut out = vec![Decision::Local; scores.len()];
    for &i in order.iter().take(k) {
        out[i] = Decision::Upload;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::DatasetProfile;
    use modelzoo::{Detector, ModelKind, SimDetector};

    fn inputs_fixture(n: u64) -> (Vec<Scene>, Vec<ImageDetections>) {
        let profile = DatasetProfile::voc();
        let scenes: Vec<Scene> = (0..n).map(|id| Scene::sample(&profile, 21, id)).collect();
        let small = SimDetector::new(ModelKind::VggLiteSsd, datagen::SplitId::Voc07, 20);
        let dets: Vec<ImageDetections> = scenes.iter().map(|s| small.detect(s)).collect();
        (scenes, dets)
    }

    fn make_inputs<'a>(scenes: &'a [Scene], dets: &'a [ImageDetections]) -> Vec<PolicyInput<'a>> {
        scenes
            .iter()
            .zip(dets)
            .map(|(scene, small_dets)| PolicyInput {
                scene,
                small_dets,
                label: Some(if scene.num_objects() > 2 {
                    CaseKind::Difficult
                } else {
                    CaseKind::Easy
                }),
                num_classes: 20,
                link: None,
                cloud_queue: None,
            })
            .collect()
    }

    #[test]
    fn extremes() {
        let (scenes, dets) = inputs_fixture(20);
        let inputs = make_inputs(&scenes, &dets);
        assert!(Policy::CloudOnly
            .decide_all(&inputs)
            .iter()
            .all(|d| d.is_upload()));
        assert!(Policy::EdgeOnly
            .decide_all(&inputs)
            .iter()
            .all(|d| !d.is_upload()));
    }

    #[test]
    fn random_hits_requested_fraction_and_is_deterministic() {
        let (scenes, dets) = inputs_fixture(100);
        let inputs = make_inputs(&scenes, &dets);
        let p = Policy::Random {
            upload_fraction: 0.5,
            seed: 3,
        };
        let a = p.decide_all(&inputs);
        let b = p.decide_all(&inputs);
        assert_eq!(a, b);
        assert_eq!(a.iter().filter(|d| d.is_upload()).count(), 50);
        let p2 = Policy::Random {
            upload_fraction: 0.5,
            seed: 4,
        };
        assert_ne!(p2.decide_all(&inputs), a);
    }

    #[test]
    fn quantile_policies_hit_fraction_exactly() {
        let (scenes, dets) = inputs_fixture(40);
        let inputs = make_inputs(&scenes, &dets);
        for p in [
            Policy::BlurQuantile {
                upload_fraction: 0.5,
                render_size: (64, 48),
            },
            Policy::Top1Quantile {
                upload_fraction: 0.5,
            },
        ] {
            let d = p.decide_all(&inputs);
            assert_eq!(
                d.iter().filter(|x| x.is_upload()).count(),
                20,
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn blur_uploads_blurriest() {
        let (scenes, dets) = inputs_fixture(60);
        let inputs = make_inputs(&scenes, &dets);
        let p = Policy::BlurQuantile {
            upload_fraction: 0.5,
            render_size: (64, 48),
        };
        let decisions = p.decide_all(&inputs);
        let blur_of = |i: usize| scenes[i].camera_blur;
        let uploaded: Vec<f64> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| d.is_upload())
            .map(|(i, _)| blur_of(i))
            .collect();
        let kept: Vec<f64> = decisions
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_upload())
            .map(|(i, _)| blur_of(i))
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&uploaded) > mean(&kept),
            "uploaded frames should be blurrier on average"
        );
    }

    #[test]
    fn oracle_follows_labels() {
        let (scenes, dets) = inputs_fixture(30);
        let inputs = make_inputs(&scenes, &dets);
        let d = Policy::Oracle.decide_all(&inputs);
        for (ctx, dec) in inputs.iter().zip(&d) {
            assert_eq!(ctx.label.unwrap().is_difficult(), dec.is_upload());
        }
    }

    #[test]
    fn discriminator_policy_routes_by_classification() {
        let (scenes, dets) = inputs_fixture(50);
        let inputs = make_inputs(&scenes, &dets);
        let disc = DifficultCaseDiscriminator::default();
        let p = Policy::DifficultCase(disc.clone());
        let decisions = p.decide_all(&inputs);
        for (ctx, dec) in inputs.iter().zip(&decisions) {
            assert_eq!(
                disc.classify(ctx.small_dets).is_difficult(),
                dec.is_upload()
            );
        }
    }

    #[test]
    fn names_are_informative() {
        assert!(Policy::CloudOnly.name().contains("cloud"));
        assert!(Policy::Random {
            upload_fraction: 0.5,
            seed: 0
        }
        .name()
        .contains("50"));
        assert!(Policy::DifficultCase(DifficultCaseDiscriminator::default())
            .name()
            .contains("0.31"));
    }

    #[test]
    #[should_panic(expected = "labelled")]
    fn oracle_without_labels_panics() {
        let (scenes, dets) = inputs_fixture(3);
        let mut inputs = make_inputs(&scenes, &dets);
        inputs[0].label = None;
        let _ = Policy::Oracle.decide_all(&inputs);
    }
}
