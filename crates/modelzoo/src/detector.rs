//! The simulated detector: scene in, post-NMS detections out.
//!
//! [`SimDetector`] turns a [`Capability`] into a [`Detector`] whose output
//! has the structure the paper's discriminator exploits (Fig. 6):
//!
//! * detected objects produce well-localised boxes scoring
//!   0.5 + 0.5·Beta, capped at 0.9999,
//! * confident false positives (duplicated or badly-localised boxes) score
//!   0.5 + 0.45·Beta,
//! * *marginally* missed objects often produce a sub-threshold box scoring
//!   0.16 + 0.32·u, below 0.48 (like the missed dog at 0.2507),
//! * spurious noise boxes score 0.02 + 0.33·u^1.5, at most 0.35,
//! * deeply invisible objects produce nothing at all.
//!
//! [`Detector::count_above`] relies on these four bands: for a threshold in
//! (0.48, 0.5] the count is exactly the non-empty hit and false-positive
//! boxes, so [`SimDetector`] counts them without drawing a box.
//!
//! **Common random numbers:** the per-object detection draw `u` is derived
//! from the *scene and object* only, so when the big model has a higher
//! detection probability than the small model it detects a superset of the
//! small model's objects on the same image — matching the real systems'
//! behaviour ("hard objects are hard for everyone") and making difficulty
//! labels well-defined.

use crate::{Capability, ModelKind};
use datagen::{Scene, SplitId};
use detcore::{BBox, ClassId, Detection, ImageDetections};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Beta, Distribution, Normal};

/// Anything that can run object detection over a scene.
///
/// Implementors must be deterministic: the same scene yields the same output.
pub trait Detector {
    /// Detector name (for reports). Names are static model labels, so no
    /// per-call (or per-construction) allocation is involved.
    fn name(&self) -> &'static str;

    /// Runs detection, returning the post-processing (post-NMS) output.
    fn detect(&self, scene: &Scene) -> ImageDetections;

    /// [`detect`](Self::detect) into a caller-owned buffer: `out` is cleared
    /// and refilled, keeping its capacity, so a caller that reuses one
    /// buffer across frames (mirroring `detcore`'s `nms_into`) pays the
    /// output allocation once per buffer instead of once per frame.
    ///
    /// The default clears `out` and copies [`detect`](Self::detect)'s result
    /// into it — contract-honouring but still one temporary allocation per
    /// call; implementations with a zero-allocation fast path (like
    /// [`SimDetector`]) override it to fill `out` directly.
    fn detect_into(&self, scene: &Scene, out: &mut ImageDetections) {
        out.clear();
        out.extend(self.detect(scene));
    }

    /// How many of [`detect`](Self::detect)'s detections score at least
    /// `threshold`.
    ///
    /// The default is `detect(scene).count_above(threshold)`. An
    /// implementation may count without building the boxes (as
    /// [`SimDetector`] does), but must return exactly the default's answer.
    fn count_above(&self, scene: &Scene, threshold: f64) -> usize {
        self.detect(scene).count_above(threshold)
    }

    /// FLOPs for one forward pass (used by the latency model).
    fn flops(&self) -> u64;

    /// Model size in bytes (weights at float32).
    fn model_size_bytes(&self) -> u64;
}

/// splitmix64 mixer for stable per-object draws.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[0, 1)` derived from a hash.
#[inline]
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Inverse-CDF Poisson draw from a uniform (rates here are small; capped at
/// 8). `neg_rate_exp` must equal `(-rate).exp()`: the base is a per-rate
/// invariant the [`SamplerCache`] computes once per detector, so repeated
/// draws for the same rate don't re-exponentiate.
fn poisson_draw(u: f64, rate: f64, neg_rate_exp: f64) -> usize {
    if rate <= 0.0 {
        return 0;
    }
    let mut k = 0usize;
    let mut acc = neg_rate_exp;
    let mut cum = acc;
    while u > cum && k < 8 {
        k += 1;
        acc *= rate / k as f64;
        cum += acc;
    }
    k
}

/// Per-detector sampling invariants, computed once at construction.
///
/// `SimDetector::detect` used to rebuild its `Beta`/`Normal` distributions
/// per object and re-derive `area_floor.ln()` and the `exp(-rate)` Poisson
/// bases per call; none of those depend on the scene. Hoisting them changes
/// no draw — distribution construction consumes no RNG state, and every
/// cached value is the exact expression the loop used to evaluate — so the
/// output stays bit-identical (`detect_matches_seed_reference` pins this
/// against a transcription of the pre-cache implementation).
#[derive(Debug, Clone)]
struct SamplerCache {
    /// `mix` input component: the model's stable seed tag.
    seed_tag: u64,
    /// `capability.area_floor.ln()` for `p_detect_cached`.
    area_floor_ln: f64,
    /// `exp(-fp_rate)`: Poisson base for confident false positives.
    fp_base: f64,
    /// `exp(-noise_rate)`: Poisson base for spurious noise boxes.
    noise_base: f64,
    /// Score distribution for detected objects: `Beta(score_conc, 1.6)`.
    hit_score: Beta,
    /// Localisation jitter for detected objects: `Normal(0, loc_jitter)`.
    hit_jitter: Normal,
    /// Localisation jitter for sub-threshold boxes near missed objects:
    /// `Normal(0, 2 · loc_jitter)`.
    miss_jitter: Normal,
    /// Score distribution for confident false positives: `Beta(2, 4)`.
    fp_score: Beta,
    /// Box–Muller's first uniform `u1` above which a hit's jitter draw is
    /// below 0.49 in magnitude: `exp(-(0.49 / loc_jitter)² / 2)`, widened
    /// by a part in 10⁶ (`|N| ≤ sqrt(-2 ln u1)`).
    jitter_floor: f64,
}

impl SamplerCache {
    fn new(kind: ModelKind, cap: &Capability) -> Self {
        SamplerCache {
            seed_tag: kind.seed_tag(),
            area_floor_ln: cap.area_floor.ln(),
            fp_base: (-cap.fp_rate).exp(),
            noise_base: (-cap.noise_rate).exp(),
            hit_score: Beta::new(cap.score_conc, 1.6).expect("valid beta"),
            hit_jitter: Normal::new(0.0, cap.loc_jitter).expect("valid normal"),
            miss_jitter: Normal::new(0.0, cap.loc_jitter * 2.0).expect("valid normal"),
            fp_score: Beta::new(2.0, 4.0).expect("valid beta"),
            jitter_floor: (-(MAX_COUNTED_JITTER / cap.loc_jitter).powi(2) / 2.0).exp()
                * (1.0 + 1e-6),
        }
    }
}

/// The largest jitter, as a fraction of the object's side, under which
/// [`SimDetector::count_fast`] vouches that a hit's box is non-empty.
const MAX_COUNTED_JITTER: f64 = 0.49;

/// The smallest object side [`SimDetector::count_fast`] accepts: far above
/// the rounding error of the box arithmetic, far below any sampled object.
const MIN_COUNTED_SIDE: f64 = 1e-6;

/// A simulated, deterministic object detector.
///
/// # Examples
///
/// ```
/// use datagen::{DatasetProfile, Scene, SplitId};
/// use modelzoo::{Detector, ModelKind, SimDetector};
///
/// let scene = Scene::sample(&DatasetProfile::voc(), 1, 0);
/// let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
/// let out1 = big.detect(&scene);
/// let out2 = big.detect(&scene);
/// assert_eq!(out1, out2); // deterministic
/// ```
#[derive(Debug, Clone)]
pub struct SimDetector {
    kind: ModelKind,
    capability: Capability,
    num_classes: usize,
    flops: u64,
    size_bytes: u64,
    cache: SamplerCache,
}

impl SimDetector {
    /// Creates a detector for `kind` calibrated on `split`.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(kind: ModelKind, split: SplitId, num_classes: usize) -> Self {
        Self::with_capability(kind, Capability::profile(kind, split), num_classes)
    }

    /// Creates a detector with an explicit capability (for ablations).
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn with_capability(kind: ModelKind, capability: Capability, num_classes: usize) -> Self {
        assert!(num_classes > 0, "need at least one class");
        let net = kind.network(num_classes);
        SimDetector {
            kind,
            num_classes,
            flops: net.total_flops(),
            size_bytes: net.total_params() * 4,
            cache: SamplerCache::new(kind, &capability),
            capability,
        }
    }

    /// The model kind.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// The behavioural capability in use.
    pub fn capability(&self) -> &Capability {
        &self.capability
    }

    /// Number of classes this detector emits.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The shared per-object detection draw (common random number).
    fn object_draw(scene: &Scene, index: usize) -> f64 {
        unit(mix(
            scene.seed ^ (index as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93)
        ))
    }

    /// `detect(scene).count_above(threshold)` without building a box, or
    /// `None` when it cannot vouch for the answer cheaply.
    ///
    /// For `threshold` in (0.48, 0.5] the counted boxes are the hits and the
    /// confident false positives (the score bands in the module docs) that
    /// survive `clamp_unit` non-empty. That holds for all of them when every
    /// object box lies in [0, 1]² with sides above [`MIN_COUNTED_SIDE`] and
    /// every hit's jitter draws stay below [`MAX_COUNTED_JITTER`]: a hit's
    /// box then still straddles its object's centre, a duplicate-style false
    /// positive contains its anchor's centre, and a free-floating one is
    /// centred in the unit square. The count is the hits plus `n_fps`.
    ///
    /// The object loop replays `detect_into`'s RNG draws one for one, so
    /// every object sees the stream `detect_into` gives it; the jitter
    /// normals are checked on their first uniform and never evaluated. The
    /// false-positive and noise draws come after the loop and change no
    /// count, so they are not made.
    pub(crate) fn count_fast(&self, scene: &Scene, threshold: f64) -> Option<usize> {
        let countable = |b: &BBox| {
            b.x_min() >= 0.0
                && b.y_min() >= 0.0
                && b.x_max() <= 1.0
                && b.y_max() <= 1.0
                && b.width() > MIN_COUNTED_SIDE
                && b.height() > MIN_COUNTED_SIDE
        };
        let in_window = threshold > 0.48 && threshold <= 0.5;
        if !(in_window && scene.objects.iter().all(|o| countable(&o.bbox))) {
            return None;
        }
        let cap = &self.capability;
        let cache = &self.cache;
        let mut rng = StdRng::seed_from_u64(mix(scene.seed ^ cache.seed_tag));
        let clutter_term = cap.clutter_term(scene.num_objects());
        let mut hits = 0;
        for (i, obj) in scene.objects.iter().enumerate() {
            let p = cap.p_detect_cached(
                obj.area_ratio(),
                cache.area_floor_ln,
                clutter_term,
                obj.difficulty,
                scene.camera_blur,
            );
            if Self::object_draw(scene, i) < p {
                cache.hit_score.sample(&mut rng);
                for _ in 0..4 {
                    // One Box–Muller normal: `u1`, then `u2`.
                    let u1: f64 = rng.gen();
                    rng.next_u64();
                    if u1 <= cache.jitter_floor {
                        return None;
                    }
                }
                if rng.gen::<f64>() < cap.misclass_prob {
                    rng.gen_range(0..self.num_classes);
                }
                hits += 1;
            } else {
                let emit_prob = if p > 0.02 {
                    cap.sub_box_prob
                } else {
                    cap.sub_box_prob * 0.3
                };
                if rng.gen::<f64>() < emit_prob {
                    // The score, then four jitter normals.
                    for _ in 0..1 + 4 * 2 {
                        rng.next_u64();
                    }
                }
            }
        }
        let fp_draw = unit(mix(scene.seed ^ 0xfa15_e905));
        Some(hits + poisson_draw(fp_draw, cap.fp_rate, cache.fp_base))
    }
}

impl Detector for SimDetector {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// Thin wrapper over [`detect_into`](Detector::detect_into) (mirroring
    /// `detcore`'s `nms` over `nms_into`): allocates one fresh output and
    /// fills it through the zero-allocation fast path.
    fn detect(&self, scene: &Scene) -> ImageDetections {
        let mut out = ImageDetections::new();
        self.detect_into(scene, &mut out);
        out
    }

    /// The hot path: every per-detector invariant (distributions, log/exp
    /// bases, seed tag) comes from the [`SamplerCache`], the per-scene
    /// clutter factor is computed once ahead of the object loop, and the
    /// output buffer is caller-owned — after warmup a `detect_into` call
    /// performs no allocation at all. Draw sequence and arithmetic are
    /// bit-identical to the pre-cache implementation (kept below as the
    /// `seed_reference` test oracle).
    fn detect_into(&self, scene: &Scene, out: &mut ImageDetections) {
        let cap = &self.capability;
        let cache = &self.cache;
        let mut rng = StdRng::seed_from_u64(mix(scene.seed ^ cache.seed_tag));
        // One box per object plus a few false positives is the typical
        // output size; reserving it keeps the hot loop reallocation-free.
        out.clear();
        let n = scene.num_objects();
        out.reserve(n + 4);
        let clutter_term = cap.clutter_term(n);

        for (i, obj) in scene.objects.iter().enumerate() {
            let p = cap.p_detect_cached(
                obj.area_ratio(),
                cache.area_floor_ln,
                clutter_term,
                obj.difficulty,
                scene.camera_blur,
            );
            let u = Self::object_draw(scene, i);
            if u < p {
                // Detected: high score, well-localised box, usually right class.
                let score = 0.5 + 0.5 * cache.hit_score.sample(&mut rng);
                let jitter = &cache.hit_jitter;
                let w = obj.bbox.width();
                let h = obj.bbox.height();
                let bbox = BBox::from_corners(
                    obj.bbox.x_min() + jitter.sample(&mut rng) * w,
                    obj.bbox.y_min() + jitter.sample(&mut rng) * h,
                    obj.bbox.x_max() + jitter.sample(&mut rng) * w,
                    obj.bbox.y_max() + jitter.sample(&mut rng) * h,
                )
                .clamp_unit();
                let class = if rng.gen::<f64>() < cap.misclass_prob {
                    ClassId(rng.gen_range(0..self.num_classes) as u16)
                } else {
                    obj.class
                };
                if !bbox.is_empty() {
                    out.push(Detection::new(class, score.min(0.9999), bbox));
                }
            } else {
                // Missed. Real SSD-style heads almost always leave a
                // low-score box near a missed object (the paper's dog at
                // 0.2507); only deeply invisible objects stay silent.
                let emit_prob = if p > 0.02 {
                    cap.sub_box_prob
                } else {
                    cap.sub_box_prob * 0.3
                };
                if rng.gen::<f64>() < emit_prob {
                    let score = rng.gen_range(0.16..0.48);
                    let jitter = &cache.miss_jitter;
                    let w = obj.bbox.width();
                    let h = obj.bbox.height();
                    let bbox = BBox::from_corners(
                        obj.bbox.x_min() + jitter.sample(&mut rng) * w,
                        obj.bbox.y_min() + jitter.sample(&mut rng) * h,
                        obj.bbox.x_max() + jitter.sample(&mut rng) * w,
                        obj.bbox.y_max() + jitter.sample(&mut rng) * h,
                    )
                    .clamp_unit();
                    if !bbox.is_empty() {
                        out.push(Detection::new(obj.class, score, bbox));
                    }
                }
            }
        }

        // Confident false positives: duplicated / badly-localised boxes that
        // score above 0.5 — the error mode that bounds real detectors' mAP.
        // The underlying uniform is shared across models (common random
        // numbers): hard images trigger FPs in both models, so difficulty
        // labels (count differences) reflect real detection gaps, not
        // independent FP noise.
        let fp_draw = unit(mix(scene.seed ^ 0xfa15_e905));
        let n_fps = poisson_draw(fp_draw, cap.fp_rate, cache.fp_base);
        for _ in 0..n_fps {
            let score = 0.5 + 0.45 * cache.fp_score.sample(&mut rng);
            // Anchor near a real object when one exists (duplicate-style FP),
            // otherwise free-floating.
            let bbox = if !scene.objects.is_empty() && rng.gen::<f64>() < 0.7 {
                let obj = &scene.objects[rng.gen_range(0..scene.objects.len())];
                let (cx, cy) = obj.bbox.center();
                let w = obj.bbox.width() * rng.gen_range(0.5..1.6);
                let h = obj.bbox.height() * rng.gen_range(0.5..1.6);
                BBox::from_center(
                    cx + rng.gen_range(-0.5..0.5) * w,
                    cy + rng.gen_range(-0.5..0.5) * h,
                    w,
                    h,
                )
                .clamp_unit()
            } else {
                BBox::from_center(
                    rng.gen_range(0.15..0.85),
                    rng.gen_range(0.15..0.85),
                    rng.gen_range(0.05..0.4),
                    rng.gen_range(0.05..0.4),
                )
                .clamp_unit()
            };
            let class = ClassId(rng.gen_range(0..self.num_classes) as u16);
            if !bbox.is_empty() {
                out.push(Detection::new(class, score, bbox));
            }
        }

        // Spurious noise boxes: low scores, random class and geometry.
        let noise_boxes = poisson_draw(rng.gen(), cap.noise_rate, cache.noise_base);
        for _ in 0..noise_boxes {
            let score = 0.02 + 0.33 * rng.gen::<f64>().powf(1.5);
            let cx = rng.gen_range(0.1..0.9);
            let cy = rng.gen_range(0.1..0.9);
            let w = rng.gen_range(0.03..0.35);
            let h = rng.gen_range(0.03..0.35);
            let bbox = BBox::from_center(cx, cy, w, h).clamp_unit();
            let class = ClassId(rng.gen_range(0..self.num_classes) as u16);
            out.push(Detection::new(class, score, bbox));
        }
    }

    /// [`count_fast`](SimDetector::count_fast), falling back to
    /// [`detect`](Detector::detect) whenever it cannot vouch for the count.
    fn count_above(&self, scene: &Scene, threshold: f64) -> usize {
        self.count_fast(scene, threshold)
            .unwrap_or_else(|| self.detect(scene).count_above(threshold))
    }

    fn flops(&self) -> u64 {
        self.flops
    }

    fn model_size_bytes(&self) -> u64 {
        self.size_bytes
    }
}

/// Transcription of the pre-cache (seed) `SimDetector::detect`, kept as the
/// bit-identity oracle for the sampler-cache fast path: per-object
/// `Beta::new`/`Normal::new` constructions, per-call `p_detect`, and a
/// `poisson_draw` that re-exponentiates its rate every call.
#[cfg(test)]
mod seed_reference {
    use super::*;

    fn poisson_draw(u: f64, rate: f64) -> usize {
        if rate <= 0.0 {
            return 0;
        }
        let mut k = 0usize;
        let mut acc = (-rate).exp();
        let mut cum = acc;
        while u > cum && k < 8 {
            k += 1;
            acc *= rate / k as f64;
            cum += acc;
        }
        k
    }

    pub fn detect(det: &SimDetector, scene: &Scene) -> ImageDetections {
        let cap = &det.capability;
        let mut rng = StdRng::seed_from_u64(mix(scene.seed ^ det.kind.seed_tag()));
        let mut out = ImageDetections::with_capacity(scene.num_objects() + 4);
        let n = scene.num_objects();

        for (i, obj) in scene.objects.iter().enumerate() {
            let p = cap.p_detect(obj.area_ratio(), n, obj.difficulty, scene.camera_blur);
            let u = SimDetector::object_draw(scene, i);
            if u < p {
                let beta = Beta::new(cap.score_conc, 1.6).expect("valid beta");
                let score = 0.5 + 0.5 * beta.sample(&mut rng);
                let jitter = Normal::new(0.0, cap.loc_jitter).expect("valid normal");
                let w = obj.bbox.width();
                let h = obj.bbox.height();
                let bbox = BBox::from_corners(
                    obj.bbox.x_min() + jitter.sample(&mut rng) * w,
                    obj.bbox.y_min() + jitter.sample(&mut rng) * h,
                    obj.bbox.x_max() + jitter.sample(&mut rng) * w,
                    obj.bbox.y_max() + jitter.sample(&mut rng) * h,
                )
                .clamp_unit();
                let class = if rng.gen::<f64>() < cap.misclass_prob {
                    ClassId(rng.gen_range(0..det.num_classes) as u16)
                } else {
                    obj.class
                };
                if !bbox.is_empty() {
                    out.push(Detection::new(class, score.min(0.9999), bbox));
                }
            } else {
                let emit_prob = if p > 0.02 {
                    cap.sub_box_prob
                } else {
                    cap.sub_box_prob * 0.3
                };
                if rng.gen::<f64>() < emit_prob {
                    let score = rng.gen_range(0.16..0.48);
                    let jitter = Normal::new(0.0, cap.loc_jitter * 2.0).expect("valid normal");
                    let w = obj.bbox.width();
                    let h = obj.bbox.height();
                    let bbox = BBox::from_corners(
                        obj.bbox.x_min() + jitter.sample(&mut rng) * w,
                        obj.bbox.y_min() + jitter.sample(&mut rng) * h,
                        obj.bbox.x_max() + jitter.sample(&mut rng) * w,
                        obj.bbox.y_max() + jitter.sample(&mut rng) * h,
                    )
                    .clamp_unit();
                    if !bbox.is_empty() {
                        out.push(Detection::new(obj.class, score, bbox));
                    }
                }
            }
        }

        let fp_draw = unit(mix(scene.seed ^ 0xfa15_e905));
        let n_fps = poisson_draw(fp_draw, cap.fp_rate);
        for _ in 0..n_fps {
            let beta = Beta::new(2.0, 4.0).expect("valid beta");
            let score = 0.5 + 0.45 * beta.sample(&mut rng);
            let bbox = if !scene.objects.is_empty() && rng.gen::<f64>() < 0.7 {
                let obj = &scene.objects[rng.gen_range(0..scene.objects.len())];
                let (cx, cy) = obj.bbox.center();
                let w = obj.bbox.width() * rng.gen_range(0.5..1.6);
                let h = obj.bbox.height() * rng.gen_range(0.5..1.6);
                BBox::from_center(
                    cx + rng.gen_range(-0.5..0.5) * w,
                    cy + rng.gen_range(-0.5..0.5) * h,
                    w,
                    h,
                )
                .clamp_unit()
            } else {
                BBox::from_center(
                    rng.gen_range(0.15..0.85),
                    rng.gen_range(0.15..0.85),
                    rng.gen_range(0.05..0.4),
                    rng.gen_range(0.05..0.4),
                )
                .clamp_unit()
            };
            let class = ClassId(rng.gen_range(0..det.num_classes) as u16);
            if !bbox.is_empty() {
                out.push(Detection::new(class, score, bbox));
            }
        }

        let noise_boxes = poisson_draw(rng.gen(), cap.noise_rate);
        for _ in 0..noise_boxes {
            let score = 0.02 + 0.33 * rng.gen::<f64>().powf(1.5);
            let cx = rng.gen_range(0.1..0.9);
            let cy = rng.gen_range(0.1..0.9);
            let w = rng.gen_range(0.03..0.35);
            let h = rng.gen_range(0.03..0.35);
            let bbox = BBox::from_center(cx, cy, w, h).clamp_unit();
            let class = ClassId(rng.gen_range(0..det.num_classes) as u16);
            out.push(Detection::new(class, score, bbox));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::DatasetProfile;
    use detcore::{count_detected, CountingConfig};
    use proptest::prelude::*;

    fn scenes(n: u64) -> Vec<Scene> {
        let p = DatasetProfile::voc();
        (0..n).map(|id| Scene::sample(&p, 99, id)).collect()
    }

    #[test]
    fn detection_is_deterministic() {
        let det = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        for s in scenes(10) {
            assert_eq!(det.detect(&s), det.detect(&s));
        }
    }

    #[test]
    fn big_model_detects_more_than_small() {
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let cfg = CountingConfig::default();
        let mut big_total = 0;
        let mut small_total = 0;
        for s in scenes(300) {
            let gts = s.ground_truths();
            big_total += count_detected(&big.detect(&s), &gts, &cfg).detected;
            small_total += count_detected(&small.detect(&s), &gts, &cfg).detected;
        }
        assert!(
            big_total as f64 > small_total as f64 * 1.3,
            "big {big_total} vs small {small_total}"
        );
    }

    #[test]
    fn common_random_numbers_big_superset() {
        // On most images, objects the small model detects are also detected
        // by the big model (count-wise), thanks to shared draws.
        let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let cfg = CountingConfig::default();
        let mut violations = 0;
        let all = scenes(200);
        for s in &all {
            let gts = s.ground_truths();
            let b = count_detected(&big.detect(s), &gts, &cfg).detected;
            let sm = count_detected(&small.detect(s), &gts, &cfg).detected;
            if sm > b {
                violations += 1;
            }
        }
        assert!(
            violations < all.len() / 10,
            "small out-detected big on {violations}/200 images"
        );
    }

    #[test]
    fn scores_respect_structure() {
        let det = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        for s in scenes(50) {
            for d in det.detect(&s).iter() {
                assert!(d.score() > 0.0 && d.score() < 1.0);
            }
        }
    }

    #[test]
    fn sub_threshold_boxes_exist() {
        let det = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let mut sub = 0;
        for s in scenes(200) {
            sub += det
                .detect(&s)
                .iter()
                .filter(|d| d.score() >= 0.16 && d.score() < 0.5)
                .count();
        }
        assert!(sub > 20, "expected sub-threshold boxes, got {sub}");
    }

    #[test]
    fn flops_and_size_come_from_network() {
        let det = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
        let net = ModelKind::VggLiteSsd.network(20);
        assert_eq!(det.flops(), net.total_flops());
        assert_eq!(det.model_size_bytes(), net.total_params() * 4);
        assert_eq!(det.num_classes(), 20);
    }

    #[test]
    fn different_kinds_differ_on_same_scene() {
        let s = &scenes(1)[0];
        let a = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20).detect(s);
        let b = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20).detect(s);
        assert_ne!(a, b);
    }

    #[test]
    fn detect_into_reuses_capacity() {
        let det = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
        let all = scenes(20);
        let mut out = ImageDetections::new();
        // Warm the buffer to the workload's high-water mark…
        for s in &all {
            det.detect_into(s, &mut out);
        }
        let ptr = out.as_slice().as_ptr();
        // …after which refills reuse the same backing buffer.
        for s in &all {
            det.detect_into(s, &mut out);
            assert_eq!(out.as_slice().as_ptr(), ptr, "refill must not reallocate");
        }
    }

    #[test]
    fn default_detect_into_clears_and_keeps_capacity() {
        // A Detector that does NOT override detect_into gets the
        // contract-honouring default: clear + refill, capacity kept.
        struct Wrapper(SimDetector);
        impl Detector for Wrapper {
            fn name(&self) -> &'static str {
                "wrapper"
            }
            fn detect(&self, scene: &Scene) -> ImageDetections {
                self.0.detect(scene)
            }
            fn flops(&self) -> u64 {
                self.0.flops()
            }
            fn model_size_bytes(&self) -> u64 {
                self.0.model_size_bytes()
            }
        }
        let det = Wrapper(SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20));
        let all = scenes(10);
        let mut out = ImageDetections::new();
        for s in &all {
            det.detect_into(s, &mut out);
        }
        let ptr = out.as_slice().as_ptr();
        for s in &all {
            det.detect_into(s, &mut out);
            assert_eq!(out, det.detect(s), "default must clear before refilling");
            assert_eq!(out.as_slice().as_ptr(), ptr, "warm buffer must be reused");
        }
    }

    /// `SimDetector::with_capability(kind, cap, ..)` with `cap.loc_jitter`
    /// replaced.
    fn with_jitter(det: &SimDetector, loc_jitter: f64) -> SimDetector {
        let cap = Capability {
            loc_jitter,
            ..*det.capability()
        };
        SimDetector::with_capability(det.kind(), cap, det.num_classes())
    }

    /// The largest `|N|` among the hits' jitter normals on `s`, read off
    /// `probe`'s hit boxes. Box–Muller takes two words per normal whatever
    /// the `loc_jitter`, so every detector differing from `probe` only in
    /// `loc_jitter` scales these same normals. `probe`'s jitter must be too
    /// small to swap a box's corners; a corner clamped to the unit square
    /// reads low, never high.
    fn max_hit_normal(probe: &SimDetector, s: &Scene) -> f64 {
        let cap = probe.capability();
        let hit_objects = (s.objects.iter().enumerate()).filter(|&(i, o)| {
            let p = cap.p_detect(o.area_ratio(), s.num_objects(), o.difficulty, s.camera_blur);
            SimDetector::object_draw(s, i) < p
        });
        // Hits precede the false positives; sub-threshold boxes score < 0.5.
        let dets = probe.detect(s);
        let hit_boxes = dets.iter().filter(|d| d.score() >= 0.5);
        let mut max = 0.0f64;
        for ((_, obj), hit) in hit_objects.zip(hit_boxes) {
            let (o, b) = (&obj.bbox, hit.bbox());
            let (w, h) = (o.width(), o.height());
            for (moved, side) in [
                (b.x_min() - o.x_min(), w),
                (b.y_min() - o.y_min(), h),
                (b.x_max() - o.x_max(), w),
                (b.y_max() - o.y_max(), h),
            ] {
                max = max.max((moved / (side * cap.loc_jitter)).abs());
            }
        }
        max
    }

    /// `count_above` equals `detect(scene).count_above(threshold)` for every
    /// `ModelKind` × `SplitId` on 2 000 scenes of each profile, inside the
    /// (0.48, 0.5] window and outside it. The fast path must answer nearly
    /// every in-window case of the real capabilities, and each fallback is
    /// forced once: jitter wide enough to trip the per-draw floor, object
    /// boxes the per-scene check rejects, and a threshold of exactly 0.48.
    /// Where the wide detector answers fast, every hit's jitter must be
    /// below 0.49 of its object's side: the floor is checked on the very
    /// draws `detect_into` jitters with.
    #[test]
    fn count_above_equals_detect_then_count() {
        const WINDOW: [f64; 2] = [0.49, 0.5];
        const OUTSIDE: [f64; 4] = [0.0, 0.2, 0.48, 0.6];
        const WIDE: f64 = 0.3;
        let (mut window_cases, mut fast_answers) = (0, 0);
        let (mut wide_fast, mut wide_fallbacks) = (0, 0);
        for profile in [
            DatasetProfile::voc(),
            DatasetProfile::coco18(),
            DatasetProfile::helmet(),
        ] {
            let num_classes = profile.taxonomy.len();
            let all: Vec<Scene> = (0..2_000)
                .map(|id| Scene::sample(&profile, 7, id))
                .collect();
            for kind in ModelKind::ALL {
                for split in SplitId::ALL {
                    let det = SimDetector::new(kind, split, num_classes);
                    let (wide, probe) = (with_jitter(&det, WIDE), with_jitter(&det, 1e-3));
                    for s in &all {
                        let at = format!("{kind:?}/{split:?} scene {}", s.id);
                        let dets = det.detect(s);
                        for t in OUTSIDE {
                            assert_eq!(det.count_fast(s, t), None, "{t} is outside the window");
                            assert_eq!(det.count_above(s, t), dets.count_above(t));
                        }
                        for t in WINDOW {
                            let expected = dets.count_above(t);
                            window_cases += 1;
                            if let Some(n) = det.count_fast(s, t) {
                                fast_answers += 1;
                                assert_eq!(n, expected, "{at}");
                            }
                            assert_eq!(det.count_above(s, t), expected);
                        }
                        let expected = wide.detect(s).count_above(0.5);
                        match wide.count_fast(s, 0.5) {
                            Some(n) => {
                                wide_fast += 1;
                                assert_eq!(n, expected, "{at}");
                                let jitter = WIDE * max_hit_normal(&probe, s);
                                assert!(jitter < MAX_COUNTED_JITTER, "{at}: jitter {jitter}");
                            }
                            None => wide_fallbacks += 1,
                        }
                        assert_eq!(wide.count_above(s, 0.5), expected);
                    }
                }
            }
        }
        assert!(
            fast_answers * 100 >= window_cases * 99,
            "fast path answered {fast_answers} of {window_cases}"
        );
        assert!(
            wide_fast > 0 && wide_fallbacks > 0,
            "loc_jitter {WIDE}: {wide_fast} fast, {wide_fallbacks} fallbacks"
        );

        // Object boxes the per-scene check rejects: a sliver on the right
        // border and a box hanging over it.
        let profile = DatasetProfile::voc();
        for border in [
            BBox::new(1.0 - 1e-9, 0.3, 1.0, 0.6).unwrap(),
            BBox::new(0.9, 0.2, 1.2, 0.5).unwrap(),
        ] {
            for id in 0..50 {
                let mut s = Scene::sample(&profile, 7, id);
                if let Some(obj) = s.objects.first_mut() {
                    obj.bbox = border;
                }
                for kind in ModelKind::ALL {
                    let det = SimDetector::new(kind, SplitId::Voc07, 20);
                    if !s.objects.is_empty() {
                        assert_eq!(det.count_fast(&s, 0.5), None);
                    }
                    assert_eq!(det.count_above(&s, 0.5), det.detect(&s).count_above(0.5));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The sampler-cache fast path (`detect_into`) and its `detect`
        /// wrapper are bit-identical to the transcribed seed implementation
        /// across every `ModelKind` × `SplitId` capability profile.
        #[test]
        fn detect_matches_seed_reference(
            kind_idx in 0usize..6,
            split in prop::sample::select(vec![
                SplitId::Voc07,
                SplitId::Voc0712,
                SplitId::Voc0712pp,
                SplitId::Coco18,
                SplitId::Helmet,
            ]),
            profile_idx in 0usize..3,
            seed in 0u64..1_000,
            id in 0u64..1_000,
        ) {
            let kind = ModelKind::ALL[kind_idx];
            let profile = match profile_idx {
                0 => DatasetProfile::voc(),
                1 => DatasetProfile::coco18(),
                _ => DatasetProfile::helmet(),
            };
            let num_classes = profile.taxonomy.len();
            let det = SimDetector::new(kind, split, num_classes);
            let scene = Scene::sample(&profile, seed, id);

            let reference = seed_reference::detect(&det, &scene);
            prop_assert_eq!(&det.detect(&scene), &reference);

            // A dirty reused buffer produces the same output.
            let mut reused = det.detect(&Scene::sample(&profile, seed ^ 0xabcd, id));
            det.detect_into(&scene, &mut reused);
            prop_assert_eq!(&reused, &reference);
        }
    }
}
