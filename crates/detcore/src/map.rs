//! Mean average precision (mAP) evaluation over a dataset of images.
//!
//! Implements the PASCAL VOC protocol: per-class greedy matching at IoU ≥ 0.5,
//! precision/recall curve construction over descending score, and AP either by
//! the VOC2007 11-point interpolation or by the continuous (all-point)
//! interpolation. The paper reports VOC-style mAP percentages.

use crate::matching::{match_greedy_into, ImageMatch, MatchScratch};
use crate::{ClassId, Detection, GroundTruth, ImageDetections};
use serde::{Deserialize, Serialize};
use std::cell::{Cell, Ref, RefCell};

/// AP interpolation protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ApProtocol {
    /// VOC2007 11-point interpolation (recall ∈ {0, 0.1, …, 1.0}).
    #[default]
    Voc07ElevenPoint,
    /// Continuous interpolation (area under the monotonised PR curve).
    AllPoint,
}

/// One precision/recall point at a score cut-off.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PrPoint {
    /// Precision at this cut-off.
    pub precision: f64,
    /// Recall at this cut-off.
    pub recall: f64,
    /// The detection score at which this point was produced.
    pub score: f64,
}

/// Per-class AP result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassAp {
    /// The class this entry describes.
    pub class: ClassId,
    /// Average precision in `[0, 1]`.
    pub ap: f64,
    /// Number of (non-difficult) ground-truth objects of this class.
    pub num_gt: usize,
    /// Number of detections of this class that were evaluated.
    pub num_dets: usize,
}

/// Full mAP report for a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MapReport {
    /// Per-class APs, indexed by class order.
    pub per_class: Vec<ClassAp>,
    /// Mean AP over classes that have at least one ground-truth object.
    pub map: f64,
}

impl MapReport {
    /// mAP as a percentage (the paper reports e.g. `70.76`).
    pub fn map_percent(&self) -> f64 {
        self.map * 100.0
    }
}

/// Streaming mAP evaluator: feed image results one at a time, then evaluate.
///
/// # Examples
///
/// ```
/// use detcore::{ApProtocol, BBox, ClassId, Detection, GroundTruth, ImageDetections,
///               MapEvaluator};
///
/// let mut ev = MapEvaluator::new(2, ApProtocol::Voc07ElevenPoint);
/// let gts = vec![GroundTruth::new(ClassId(0), BBox::new(0.0, 0.0, 0.5, 0.5).unwrap())];
/// let dets = ImageDetections::from_vec(vec![Detection::new(
///     ClassId(0), 0.9, BBox::new(0.0, 0.0, 0.5, 0.5).unwrap(),
/// )]);
/// ev.add_image(&dets, &gts);
/// let report = ev.evaluate();
/// assert!((report.map - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MapEvaluator {
    protocol: ApProtocol,
    matched: MatchedRecords,
    /// Per class: number of non-difficult ground truths.
    gt_counts: Vec<usize>,
    images_seen: usize,
    /// Per class, `records[c]` sorted by descending score — built lazily on
    /// the first [`MapEvaluator::pr_curve`] after accumulation and reused
    /// until the next [`MapEvaluator::add_image`] invalidates it, so a full
    /// [`MapEvaluator::evaluate`] sorts each class once instead of cloning
    /// and re-sorting per call.
    sorted: RefCell<Vec<Vec<(f64, bool)>>>,
    sorted_valid: Cell<bool>,
    /// Reusable per-image grouping buffers (no allocation after warmup).
    scratch: AddImageScratch,
}

/// Working storage for [`MapEvaluator::add_image`]: one stable index sort
/// by class gathers detections and ground truths into class-contiguous
/// buffers, which the matcher then consumes run by run.
#[derive(Debug, Default, Clone)]
struct AddImageScratch {
    /// In-range detection indices, stably sorted by class.
    det_idx: Vec<u32>,
    /// Detections gathered contiguously by class, input order preserved.
    dets_buf: Vec<Detection>,
    /// In-range ground-truth indices, stably sorted by class.
    gt_idx: Vec<u32>,
    /// Ground truths gathered contiguously by class, input order preserved.
    gts_buf: Vec<GroundTruth>,
    match_scratch: MatchScratch,
    match_out: ImageMatch,
}

/// The `(score, is_tp)` records a [`MapEvaluator`] has matched, per class
/// in accumulation order, with the IoU threshold they were matched at.
///
/// The source side of [`MapEvaluator::replay_contribution`]: borrowed
/// from a live evaluator with [`MapEvaluator::matched`], or kept after it
/// with [`MapEvaluator::into_matched`]. Unlike the evaluator, whose sort
/// cache is a `RefCell`, this is plain data and therefore `Sync`.
#[derive(Debug, Clone)]
pub struct MatchedRecords {
    iou_threshold: f64,
    records: Vec<Vec<(f64, bool)>>,
}

/// What one image contributed to a [`MapEvaluator`]: per-class spans of the
/// appended `(score, is_tp)` records plus per-class ground-truth counts.
///
/// Produced by [`MapEvaluator::add_image_recording`] and replayed into
/// another evaluator with [`MapEvaluator::replay_contribution`]. The
/// end-to-end harness uses this to build the routed ("final") evaluator
/// from the per-model evaluators' already-matched records instead of
/// matching every routed image a second time.
#[derive(Debug, Default, Clone)]
pub struct ImageContribution {
    /// `(class index, record start, record end)` in the source evaluator.
    spans: Vec<(u32, u32, u32)>,
    /// `(class index, non-difficult ground truths added)`.
    gt_added: Vec<(u32, u32)>,
}

impl ImageContribution {
    /// Creates an empty contribution (reusable across
    /// [`MapEvaluator::add_image_recording`] calls).
    pub fn new() -> Self {
        Self::default()
    }

    fn clear(&mut self) {
        self.spans.clear();
        self.gt_added.clear();
    }
}

impl MapEvaluator {
    /// Creates an evaluator for `num_classes` classes at IoU threshold 0.5.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0`.
    pub fn new(num_classes: usize, protocol: ApProtocol) -> Self {
        Self::with_iou(num_classes, protocol, 0.5)
    }

    /// Creates an evaluator with a custom IoU threshold.
    ///
    /// # Panics
    ///
    /// Panics if `num_classes == 0` or the threshold is outside `[0, 1]`.
    pub fn with_iou(num_classes: usize, protocol: ApProtocol, iou_threshold: f64) -> Self {
        assert!(num_classes > 0, "need at least one class");
        assert!(
            (0.0..=1.0).contains(&iou_threshold),
            "iou threshold must be in [0, 1]"
        );
        MapEvaluator {
            protocol,
            matched: MatchedRecords {
                iou_threshold,
                records: vec![Vec::new(); num_classes],
            },
            gt_counts: vec![0; num_classes],
            images_seen: 0,
            sorted: RefCell::new(Vec::new()),
            sorted_valid: Cell::new(false),
            scratch: AddImageScratch::default(),
        }
    }

    /// Number of classes being evaluated.
    pub fn num_classes(&self) -> usize {
        self.matched.records.len()
    }

    /// Number of images accumulated so far.
    pub fn images_seen(&self) -> usize {
        self.images_seen
    }

    /// Accumulates one image's detections against its ground truths.
    ///
    /// Detections or ground truths whose class index is out of range are
    /// ignored (they belong to a different taxonomy).
    ///
    /// Internally this is one stable index sort by class into reusable
    /// class-contiguous buffers followed by a scratch-backed matching pass
    /// per occupied class — after warmup it allocates only when a class's
    /// record vector grows.
    pub fn add_image(&mut self, dets: &ImageDetections, gts: &[GroundTruth]) {
        self.add_image_impl(dets, gts, None);
    }

    /// [`add_image`](Self::add_image) that also records *what* was appended
    /// into `contrib` (cleared first), for later
    /// [`replay_contribution`](Self::replay_contribution) into another
    /// evaluator. Accumulation is identical to `add_image`.
    pub fn add_image_recording(
        &mut self,
        dets: &ImageDetections,
        gts: &[GroundTruth],
        contrib: &mut ImageContribution,
    ) {
        self.add_image_impl(dets, gts, Some(contrib));
    }

    /// The records matched so far (see [`MatchedRecords`]).
    pub fn matched(&self) -> &MatchedRecords {
        &self.matched
    }

    /// Consumes the evaluator, keeping only its matched records.
    pub fn into_matched(self) -> MatchedRecords {
        self.matched
    }

    /// Replays one image's contribution, recorded on the evaluator `src`
    /// was taken from, into `self`, copying the already-matched records
    /// instead of re-running matching.
    ///
    /// Equivalent to the `add_image(dets, gts)` call that produced `contrib`
    /// on `src` — matching is deterministic, so the copied records are
    /// exactly what re-matching would append.
    ///
    /// # Panics
    ///
    /// Panics if the class counts or IoU thresholds differ (the
    /// contribution would not describe the same matching).
    pub fn replay_contribution(&mut self, src: &MatchedRecords, contrib: &ImageContribution) {
        assert_eq!(
            self.matched.records.len(),
            src.records.len(),
            "replay requires identical class counts"
        );
        assert_eq!(
            self.matched.iou_threshold.to_bits(),
            src.iou_threshold.to_bits(),
            "replay requires identical IoU thresholds"
        );
        self.images_seen += 1;
        self.sorted_valid.set(false);
        for &(c, start, end) in &contrib.spans {
            self.matched.records[c as usize]
                .extend_from_slice(&src.records[c as usize][start as usize..end as usize]);
        }
        for &(c, added) in &contrib.gt_added {
            self.gt_counts[c as usize] += added as usize;
        }
    }

    fn add_image_impl(
        &mut self,
        dets: &ImageDetections,
        gts: &[GroundTruth],
        mut contrib: Option<&mut ImageContribution>,
    ) {
        self.images_seen += 1;
        self.sorted_valid.set(false);
        if let Some(c) = contrib.as_deref_mut() {
            c.clear();
        }
        let n = self.matched.records.len();
        let s = &mut self.scratch;
        let all_dets = dets.as_slice();

        // Stable sort by class preserves input order within each class,
        // matching the old grouped layout.
        s.det_idx.clear();
        s.det_idx.extend(
            all_dets
                .iter()
                .enumerate()
                .filter(|(_, d)| d.class().index() < n)
                .map(|(i, _)| i as u32),
        );
        s.det_idx.sort_by_key(|&i| all_dets[i as usize].class());
        s.dets_buf.clear();
        s.dets_buf
            .extend(s.det_idx.iter().map(|&i| all_dets[i as usize]));

        s.gt_idx.clear();
        s.gt_idx.extend(
            gts.iter()
                .enumerate()
                .filter(|(_, g)| g.class().index() < n)
                .map(|(i, _)| i as u32),
        );
        s.gt_idx.sort_by_key(|&i| gts[i as usize].class());
        s.gts_buf.clear();
        s.gts_buf.extend(s.gt_idx.iter().map(|&i| gts[i as usize]));

        // Walk the merged class runs in ascending class order (classes
        // absent from the image contribute nothing, exactly as before).
        let (mut di, mut gi) = (0usize, 0usize);
        while di < s.dets_buf.len() || gi < s.gts_buf.len() {
            let next_det_class = s.dets_buf.get(di).map(|d| d.class());
            let next_gt_class = s.gts_buf.get(gi).map(|g| g.class());
            let class = match (next_det_class, next_gt_class) {
                (Some(d), Some(g)) => d.min(g),
                (Some(d), None) => d,
                (None, Some(g)) => g,
                (None, None) => unreachable!("loop condition"),
            };
            let mut de = di;
            while de < s.dets_buf.len() && s.dets_buf[de].class() == class {
                de += 1;
            }
            let mut ge = gi;
            while ge < s.gts_buf.len() && s.gts_buf[ge].class() == class {
                ge += 1;
            }
            let class_dets = &s.dets_buf[di..de];
            let class_gts = &s.gts_buf[gi..ge];
            let c = class.index();

            let gt_add = class_gts.iter().filter(|g| !g.is_difficult()).count();
            self.gt_counts[c] += gt_add;
            if gt_add > 0 {
                if let Some(contrib) = contrib.as_deref_mut() {
                    contrib.gt_added.push((c as u32, gt_add as u32));
                }
            }

            if !class_dets.is_empty() {
                match_greedy_into(
                    class_dets,
                    class_gts,
                    self.matched.iou_threshold,
                    &mut s.match_scratch,
                    &mut s.match_out,
                );
                let start = self.matched.records[c].len();
                for (d, outcome) in class_dets.iter().zip(&s.match_out.outcomes) {
                    match outcome {
                        crate::MatchOutcome::TruePositive { .. } => {
                            self.matched.records[c].push((d.score(), true));
                        }
                        crate::MatchOutcome::FalsePositive => {
                            self.matched.records[c].push((d.score(), false));
                        }
                        crate::MatchOutcome::IgnoredDifficult => {}
                    }
                }
                let end = self.matched.records[c].len();
                if end > start {
                    if let Some(contrib) = contrib.as_deref_mut() {
                        contrib.spans.push((c as u32, start as u32, end as u32));
                    }
                }
            }
            di = de;
            gi = ge;
        }
    }

    /// Returns the per-class records sorted by descending score, rebuilding
    /// the cache if accumulation happened since the last call.
    fn sorted_records(&self) -> Ref<'_, Vec<Vec<(f64, bool)>>> {
        if !self.sorted_valid.get() {
            let mut sorted = self.sorted.borrow_mut();
            sorted.resize_with(self.matched.records.len(), Vec::new);
            for (dst, src) in sorted.iter_mut().zip(&self.matched.records) {
                dst.clear();
                dst.extend_from_slice(src);
                // Stable integer-key sort: same permutation as a descending
                // `partial_cmp` sort on the (non-negative) scores.
                dst.sort_by_key(|r| std::cmp::Reverse(crate::det::score_sort_key(r.0)));
            }
            self.sorted_valid.set(true);
        }
        self.sorted.borrow()
    }

    /// Computes the PR curve for one class (descending score order).
    pub fn pr_curve(&self, class: ClassId) -> Vec<PrPoint> {
        let c = class.index();
        assert!(c < self.matched.records.len(), "class out of range");
        let sorted = self.sorted_records();
        let mut points = Vec::with_capacity(sorted[c].len());
        pr_points_into(self.gt_counts[c], &sorted[c], &mut points);
        points
    }

    /// AP for one class under the configured protocol.
    pub fn class_ap(&self, class: ClassId) -> f64 {
        let points = self.pr_curve(class);
        let mut aux = Vec::new();
        ap_from_points(self.protocol, &points, &mut aux)
    }

    /// Evaluates mAP over all classes with at least one ground truth.
    ///
    /// Classes with zero ground truths are skipped (they would be undefined);
    /// if *all* classes are empty the mAP is 0.
    ///
    /// One sorted-record pass plus two reused buffers serve every class;
    /// per-class output is identical to calling [`class_ap`](Self::class_ap).
    pub fn evaluate(&self) -> MapReport {
        let sorted = self.sorted_records();
        let mut points_buf: Vec<PrPoint> = Vec::new();
        let mut aux: Vec<f64> = Vec::new();
        let mut per_class = Vec::with_capacity(self.matched.records.len());
        let mut sum = 0.0;
        let mut counted = 0usize;
        for c in 0..self.matched.records.len() {
            let id = ClassId(c as u16);
            let ap = if self.gt_counts[c] > 0 {
                pr_points_into(self.gt_counts[c], &sorted[c], &mut points_buf);
                ap_from_points(self.protocol, &points_buf, &mut aux)
            } else {
                0.0
            };
            if self.gt_counts[c] > 0 {
                sum += ap;
                counted += 1;
            }
            per_class.push(ClassAp {
                class: id,
                ap,
                num_gt: self.gt_counts[c],
                num_dets: self.matched.records[c].len(),
            });
        }
        let map = if counted == 0 {
            0.0
        } else {
            sum / counted as f64
        };
        MapReport { per_class, map }
    }
}

/// Builds the PR points for one class from its score-sorted records.
fn pr_points_into(num_gt: usize, recs: &[(f64, bool)], out: &mut Vec<PrPoint>) {
    out.clear();
    out.reserve(recs.len());
    let mut tp = 0usize;
    let mut fp = 0usize;
    for &(score, is_tp) in recs {
        if is_tp {
            tp += 1;
        } else {
            fp += 1;
        }
        let precision = tp as f64 / (tp + fp) as f64;
        let recall = if num_gt == 0 {
            0.0
        } else {
            tp as f64 / num_gt as f64
        };
        out.push(PrPoint {
            precision,
            recall,
            score,
        });
    }
}

/// AP under `protocol`, reusing `aux` as working storage.
fn ap_from_points(protocol: ApProtocol, points: &[PrPoint], aux: &mut Vec<f64>) -> f64 {
    match protocol {
        ApProtocol::Voc07ElevenPoint => eleven_point_ap(points, aux),
        ApProtocol::AllPoint => all_point_ap(points, aux),
    }
}

/// VOC2007 11-point interpolated AP.
///
/// Recall is non-decreasing along `points`, so "max precision among points
/// with recall ≥ r" is a suffix maximum: one right-to-left pass fills
/// `suffix_max` and each grid point is a binary search plus a lookup.
/// `f64::max` over a set of finite, non-negative values is
/// order-independent, so this equals the original filter-and-fold scan
/// bit for bit (proven against the oracle in the equivalence tests).
fn eleven_point_ap(points: &[PrPoint], suffix_max: &mut Vec<f64>) -> f64 {
    suffix_max.clear();
    suffix_max.resize(points.len() + 1, 0.0);
    for i in (0..points.len()).rev() {
        suffix_max[i] = points[i].precision.max(suffix_max[i + 1]);
    }
    let mut ap = 0.0;
    for i in 0..=10 {
        let r = i as f64 / 10.0;
        let idx = points.partition_point(|p| p.recall < r - 1e-12);
        ap += suffix_max[idx];
    }
    ap / 11.0
}

/// Continuous (all-point) interpolated AP: area under the monotonised
/// curve. `mono` is reused storage for the monotonised precisions.
fn all_point_ap(points: &[PrPoint], mono: &mut Vec<f64>) -> f64 {
    if points.is_empty() {
        return 0.0;
    }
    // Precision monotonised from the right.
    mono.clear();
    mono.extend(points.iter().map(|p| p.precision));
    for i in (0..mono.len().saturating_sub(1)).rev() {
        mono[i] = mono[i].max(mono[i + 1]);
    }
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    for (point, &p) in points.iter().zip(mono.iter()) {
        let r = point.recall;
        if r > prev_recall {
            ap += (r - prev_recall) * p;
            prev_recall = r;
        }
    }
    ap
}

#[cfg(test)]
pub(crate) mod reference {
    //! The pre-refactor `MapEvaluator` accumulation/PR-curve logic, kept
    //! verbatim (over the oracle matcher) for equivalence testing.

    use super::{ApProtocol, ClassAp, MapReport, PrPoint};
    use crate::matching::reference::match_greedy;
    use crate::{ClassId, Detection, GroundTruth, ImageDetections};

    fn eleven_point_ap(points: &[PrPoint]) -> f64 {
        let mut ap = 0.0;
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let p_max = points
                .iter()
                .filter(|p| p.recall >= r - 1e-12)
                .map(|p| p.precision)
                .fold(0.0, f64::max);
            ap += p_max;
        }
        ap / 11.0
    }

    fn all_point_ap(points: &[PrPoint]) -> f64 {
        if points.is_empty() {
            return 0.0;
        }
        let mut rp: Vec<(f64, f64)> = points.iter().map(|p| (p.recall, p.precision)).collect();
        for i in (0..rp.len().saturating_sub(1)).rev() {
            rp[i].1 = rp[i].1.max(rp[i + 1].1);
        }
        let mut ap = 0.0;
        let mut prev_recall = 0.0;
        for (r, p) in rp {
            if r > prev_recall {
                ap += (r - prev_recall) * p;
                prev_recall = r;
            }
        }
        ap
    }

    #[derive(Debug, Clone)]
    pub struct MapEvaluator {
        iou_threshold: f64,
        protocol: ApProtocol,
        records: Vec<Vec<(f64, bool)>>,
        gt_counts: Vec<usize>,
    }

    impl MapEvaluator {
        pub fn with_iou(num_classes: usize, protocol: ApProtocol, iou_threshold: f64) -> Self {
            MapEvaluator {
                iou_threshold,
                protocol,
                records: vec![Vec::new(); num_classes],
                gt_counts: vec![0; num_classes],
            }
        }

        pub fn add_image(&mut self, dets: &ImageDetections, gts: &[GroundTruth]) {
            let n = self.records.len();
            let mut dets_by_class: Vec<Vec<Detection>> = vec![Vec::new(); n];
            for d in dets.iter() {
                if d.class().index() < n {
                    dets_by_class[d.class().index()].push(*d);
                }
            }
            let mut gts_by_class: Vec<Vec<GroundTruth>> = vec![Vec::new(); n];
            for g in gts {
                if g.class().index() < n {
                    gts_by_class[g.class().index()].push(*g);
                }
            }
            for c in 0..n {
                let class_dets = &dets_by_class[c];
                let class_gts = &gts_by_class[c];
                self.gt_counts[c] += class_gts.iter().filter(|g| !g.is_difficult()).count();
                if class_dets.is_empty() {
                    continue;
                }
                let m = match_greedy(class_dets, class_gts, self.iou_threshold);
                for (d, outcome) in class_dets.iter().zip(&m.outcomes) {
                    match outcome {
                        crate::MatchOutcome::TruePositive { .. } => {
                            self.records[c].push((d.score(), true));
                        }
                        crate::MatchOutcome::FalsePositive => {
                            self.records[c].push((d.score(), false));
                        }
                        crate::MatchOutcome::IgnoredDifficult => {}
                    }
                }
            }
        }

        pub fn pr_curve(&self, class: ClassId) -> Vec<PrPoint> {
            let c = class.index();
            let num_gt = self.gt_counts[c];
            let mut recs = self.records[c].clone();
            recs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            let mut tp = 0usize;
            let mut fp = 0usize;
            let mut points = Vec::with_capacity(recs.len());
            for (score, is_tp) in recs {
                if is_tp {
                    tp += 1;
                } else {
                    fp += 1;
                }
                let precision = tp as f64 / (tp + fp) as f64;
                let recall = if num_gt == 0 {
                    0.0
                } else {
                    tp as f64 / num_gt as f64
                };
                points.push(PrPoint {
                    precision,
                    recall,
                    score,
                });
            }
            points
        }

        pub fn class_ap(&self, class: ClassId) -> f64 {
            let points = self.pr_curve(class);
            match self.protocol {
                ApProtocol::Voc07ElevenPoint => eleven_point_ap(&points),
                ApProtocol::AllPoint => all_point_ap(&points),
            }
        }

        pub fn evaluate(&self) -> MapReport {
            let mut per_class = Vec::with_capacity(self.records.len());
            let mut sum = 0.0;
            let mut counted = 0usize;
            for c in 0..self.records.len() {
                let id = ClassId(c as u16);
                let ap = if self.gt_counts[c] > 0 {
                    self.class_ap(id)
                } else {
                    0.0
                };
                if self.gt_counts[c] > 0 {
                    sum += ap;
                    counted += 1;
                }
                per_class.push(ClassAp {
                    class: id,
                    ap,
                    num_gt: self.gt_counts[c],
                    num_dets: self.records[c].len(),
                });
            }
            let map = if counted == 0 {
                0.0
            } else {
                sum / counted as f64
            };
            MapReport { per_class, map }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BBox;

    fn det(c: u16, score: f64, x0: f64, y0: f64, x1: f64, y1: f64) -> Detection {
        Detection::new(ClassId(c), score, BBox::new(x0, y0, x1, y1).unwrap())
    }

    fn gt(c: u16, x0: f64, y0: f64, x1: f64, y1: f64) -> GroundTruth {
        GroundTruth::new(ClassId(c), BBox::new(x0, y0, x1, y1).unwrap())
    }

    #[test]
    fn perfect_detection_gives_map_one() {
        for protocol in [ApProtocol::Voc07ElevenPoint, ApProtocol::AllPoint] {
            let mut ev = MapEvaluator::new(1, protocol);
            ev.add_image(
                &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.5, 0.5)]),
                &[gt(0, 0.0, 0.0, 0.5, 0.5)],
            );
            let r = ev.evaluate();
            assert!((r.map - 1.0).abs() < 1e-9, "protocol {protocol:?}");
        }
    }

    #[test]
    fn no_detections_gives_zero() {
        let mut ev = MapEvaluator::new(1, ApProtocol::Voc07ElevenPoint);
        ev.add_image(&ImageDetections::new(), &[gt(0, 0.0, 0.0, 0.5, 0.5)]);
        assert_eq!(ev.evaluate().map, 0.0);
    }

    #[test]
    fn all_fp_gives_zero() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.6, 0.6, 0.9, 0.9)]),
            &[gt(0, 0.0, 0.0, 0.3, 0.3)],
        );
        assert_eq!(ev.evaluate().map, 0.0);
    }

    #[test]
    fn half_detected_eleven_point() {
        // Two objects, one detected perfectly: recall tops out at 0.5 with
        // precision 1 => 11-pt AP = 6/11 (recall points 0.0..0.5).
        let mut ev = MapEvaluator::new(1, ApProtocol::Voc07ElevenPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4), gt(0, 0.6, 0.6, 0.9, 0.9)],
        );
        let r = ev.evaluate();
        assert!((r.map - 6.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn half_detected_all_point() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4), gt(0, 0.6, 0.6, 0.9, 0.9)],
        );
        let r = ev.evaluate();
        assert!((r.map - 0.5).abs() < 1e-9);
    }

    #[test]
    fn map_averages_over_classes_with_gt_only() {
        let mut ev = MapEvaluator::new(3, ApProtocol::AllPoint);
        // class 0 perfect, class 1 missed, class 2 has no gt at all
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4), gt(1, 0.6, 0.6, 0.9, 0.9)],
        );
        let r = ev.evaluate();
        assert!((r.map - 0.5).abs() < 1e-9, "mean of AP(1.0) and AP(0.0)");
        assert_eq!(r.per_class.len(), 3);
        assert_eq!(r.per_class[2].num_gt, 0);
    }

    #[test]
    fn fp_before_tp_lowers_ap() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![
                det(0, 0.95, 0.6, 0.6, 0.9, 0.9), // FP at higher score
                det(0, 0.80, 0.0, 0.0, 0.4, 0.4), // TP
            ]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4)],
        );
        let r = ev.evaluate();
        assert!((r.map - 0.5).abs() < 1e-9, "precision at recall 1 is 1/2");
    }

    #[test]
    fn difficult_gt_not_in_denominator() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        let gts = vec![
            GroundTruth::new(ClassId(0), BBox::new(0.0, 0.0, 0.4, 0.4).unwrap()),
            GroundTruth::new_difficult(ClassId(0), BBox::new(0.6, 0.6, 0.9, 0.9).unwrap()),
        ];
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &gts,
        );
        let r = ev.evaluate();
        assert!((r.map - 1.0).abs() < 1e-9);
        assert_eq!(r.per_class[0].num_gt, 1);
    }

    #[test]
    fn pr_curve_monotone_recall() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![
                det(0, 0.9, 0.0, 0.0, 0.4, 0.4),
                det(0, 0.8, 0.6, 0.6, 0.9, 0.9),
                det(0, 0.7, 0.1, 0.5, 0.3, 0.9),
            ]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4), gt(0, 0.6, 0.6, 0.9, 0.9)],
        );
        let pr = ev.pr_curve(ClassId(0));
        assert_eq!(pr.len(), 3);
        assert!(pr.windows(2).all(|w| w[0].recall <= w[1].recall));
    }

    #[test]
    fn streaming_matches_batch() {
        // Adding images one by one equals adding them in another order.
        let img1 = (
            ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            vec![gt(0, 0.0, 0.0, 0.4, 0.4)],
        );
        let img2 = (
            ImageDetections::from_vec(vec![det(0, 0.3, 0.5, 0.5, 0.9, 0.9)]),
            vec![gt(0, 0.5, 0.5, 0.9, 0.9), gt(0, 0.0, 0.5, 0.2, 0.9)],
        );
        let mut a = MapEvaluator::new(1, ApProtocol::AllPoint);
        a.add_image(&img1.0, &img1.1);
        a.add_image(&img2.0, &img2.1);
        let mut b = MapEvaluator::new(1, ApProtocol::AllPoint);
        b.add_image(&img2.0, &img2.1);
        b.add_image(&img1.0, &img1.1);
        assert!((a.evaluate().map - b.evaluate().map).abs() < 1e-12);
        assert_eq!(a.images_seen(), 2);
    }

    #[test]
    fn interleaved_queries_match_reference() {
        // pr_curve/evaluate between add_image calls must see exactly what a
        // fresh (reference) evaluator would, despite the sorted-record cache.
        let images = [
            (
                ImageDetections::from_vec(vec![
                    det(0, 0.9, 0.0, 0.0, 0.4, 0.4),
                    det(0, 0.9, 0.41, 0.0, 0.8, 0.4), // tied score
                    det(1, 0.3, 0.5, 0.5, 0.9, 0.9),
                ]),
                vec![gt(0, 0.0, 0.0, 0.4, 0.4), gt(1, 0.5, 0.5, 0.9, 0.9)],
            ),
            (
                ImageDetections::from_vec(vec![det(1, 0.3, 0.1, 0.5, 0.3, 0.9)]),
                vec![gt(1, 0.1, 0.5, 0.3, 0.9), gt(0, 0.6, 0.1, 0.9, 0.4)],
            ),
        ];
        for protocol in [ApProtocol::Voc07ElevenPoint, ApProtocol::AllPoint] {
            let mut ours = MapEvaluator::new(2, protocol);
            let mut oracle = reference::MapEvaluator::with_iou(2, protocol, 0.5);
            for (dets, gts) in &images {
                ours.add_image(dets, gts);
                oracle.add_image(dets, gts);
                for c in 0..2 {
                    assert_eq!(ours.pr_curve(ClassId(c)), oracle.pr_curve(ClassId(c)));
                    assert_eq!(
                        ours.class_ap(ClassId(c)).to_bits(),
                        oracle.class_ap(ClassId(c)).to_bits()
                    );
                }
                assert_eq!(ours.evaluate(), oracle.evaluate());
            }
        }
    }

    #[test]
    fn clone_preserves_state() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4)],
        );
        let snapshot = ev.clone();
        assert_eq!(snapshot.evaluate(), ev.evaluate());
        // The clone keeps accumulating independently.
        ev.add_image(&ImageDetections::new(), &[gt(0, 0.5, 0.5, 0.9, 0.9)]);
        assert!(ev.evaluate().map < snapshot.evaluate().map);
    }

    #[test]
    fn map_percent_scales() {
        let mut ev = MapEvaluator::new(1, ApProtocol::AllPoint);
        ev.add_image(
            &ImageDetections::from_vec(vec![det(0, 0.9, 0.0, 0.0, 0.4, 0.4)]),
            &[gt(0, 0.0, 0.0, 0.4, 0.4)],
        );
        assert!((ev.evaluate().map_percent() - 100.0).abs() < 1e-9);
    }
}
