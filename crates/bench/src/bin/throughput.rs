//! Throughput harness: measures kernel ns/op and end-to-end eval harness
//! frames/sec against the pre-refactor reference implementations, and
//! writes the perf-trajectory JSON (`BENCH_PR<N>.json` at the repo root).
//!
//! ```bash
//! # Full run; writes target/throughput.json so the committed baseline is
//! # never overwritten by accident:
//! cargo run --release -p bench --bin throughput
//! # CI smoke:
//! cargo run --release -p bench --bin throughput -- --quick
//! # Regenerate a committed baseline, explicitly:
//! cargo run --release -p bench --bin throughput -- --json-out BENCH_PR3.json
//! ```
//!
//! Methodology (see PERFORMANCE.md): every timing is the **minimum** over
//! several repeats after a warmup pass — the minimum is the least noisy
//! statistic on shared machines — and every before/after pair is verified
//! to produce identical results in-process before it is timed, so a kernel
//! that drifts from its reference fails the run instead of reporting a
//! meaningless speedup.

use datagen::{Dataset, DatasetProfile, Scene, SplitId};
use detcore::{
    count_detected_with, nms, nms_into, soft_nms, soft_nms_into, ApProtocol, BBox, ClassId,
    CountScratch, CountingConfig, Detection, GroundTruth, ImageDetections, MapEvaluator,
    MatchScratch, NmsConfig, NmsScratch,
};
use modelzoo::{Detector, ModelKind, SimDetector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use smallbig_core::{
    calibrate, detect_all, discriminator_stats_on, evaluate, evaluate_detections, transport, wire,
    DifficultCaseDiscriminator, EvalConfig, FifoBatcher, Policy, QueuedFrame, Scheduler,
    Thresholds,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The pre-refactor implementations, transcribed from the seed so the
/// "before" numbers are measured in the same binary under the same
/// conditions as the "after" numbers.
mod reference {
    use super::*;
    use rand_distr::{Distribution, Normal};
    use std::collections::BTreeMap;

    /// splitmix64 mixer (transcribed from the detector module).
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[inline]
    fn unit(h: u64) -> f64 {
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The seed's standard normal (Box–Muller, first component only) —
    /// unchanged in the library, transcribed so the seed Beta below is
    /// self-contained.
    fn standard_normal<R: rand::RngCore + ?Sized>(rng: &mut R) -> f64 {
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// The seed's `Gamma(shape, 1)` via Marsaglia–Tsang: `d` and `c` are
    /// recomputed on **every draw** (the library now caches them per
    /// distribution construction).
    fn seed_gamma_draw<R: rand::RngCore + ?Sized>(shape: f64, rng: &mut R) -> f64 {
        if shape < 1.0 {
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            return seed_gamma_draw(shape + 1.0, rng) * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = standard_normal(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
                return d * v;
            }
        }
    }

    /// The seed's `Beta`: validation-only construction, per-draw gamma
    /// constant recomputation.
    struct SeedBeta {
        alpha: f64,
        beta: f64,
    }

    impl SeedBeta {
        fn new(alpha: f64, beta: f64) -> Self {
            assert!(alpha > 0.0 && beta > 0.0, "beta shapes must be positive");
            SeedBeta { alpha, beta }
        }

        fn sample<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
            let x = seed_gamma_draw(self.alpha, rng);
            let y = seed_gamma_draw(self.beta, rng);
            x / (x + y)
        }
    }

    /// The seed's `poisson_draw`: re-exponentiates the rate on every call.
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

    /// The seed/PR 2-era `SimDetector`: per-object `Beta::new`/`Normal::new`
    /// constructions, a full `p_detect` (two `ln`s and the clutter `exp`) per
    /// object, and a fresh output allocation per call. The PR 3 sampler
    /// cache must reproduce it bit-for-bit — the harness asserts that over
    /// the whole dataset for every `ModelKind` before timing.
    pub struct SeedDetector {
        kind: ModelKind,
        capability: modelzoo::Capability,
        num_classes: usize,
        flops: u64,
        size_bytes: u64,
    }

    impl SeedDetector {
        pub fn new(kind: ModelKind, split: SplitId, num_classes: usize) -> Self {
            let net = kind.network(num_classes);
            SeedDetector {
                kind,
                capability: modelzoo::Capability::profile(kind, split),
                num_classes,
                flops: net.total_flops(),
                size_bytes: net.total_params() * 4,
            }
        }

        fn object_draw(scene: &Scene, index: usize) -> f64 {
            unit(mix(
                scene.seed ^ (index as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93)
            ))
        }
    }

    impl Detector for SeedDetector {
        fn name(&self) -> &'static str {
            self.kind.label()
        }

        fn detect(&self, scene: &Scene) -> ImageDetections {
            let cap = &self.capability;
            let mut rng = StdRng::seed_from_u64(mix(scene.seed ^ self.kind.seed_tag()));
            let mut out = ImageDetections::with_capacity(scene.num_objects() + 4);
            let n = scene.num_objects();

            for (i, obj) in scene.objects.iter().enumerate() {
                let p = cap.p_detect(obj.area_ratio(), n, obj.difficulty, scene.camera_blur);
                let u = Self::object_draw(scene, i);
                if u < p {
                    let beta = SeedBeta::new(cap.score_conc, 1.6);
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
                        ClassId(rng.gen_range(0..self.num_classes) as u16)
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
                let beta = SeedBeta::new(2.0, 4.0);
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
                let class = ClassId(rng.gen_range(0..self.num_classes) as u16);
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
                let class = ClassId(rng.gen_range(0..self.num_classes) as u16);
                out.push(Detection::new(class, score, bbox));
            }
            out
        }

        fn flops(&self) -> u64 {
            self.flops
        }

        fn model_size_bytes(&self) -> u64 {
            self.size_bytes
        }
    }

    /// The seed serializer: render a full `serde::Value` tree, then walk it
    /// to text with one `to_string` allocation per number (transcribed from
    /// `vendor/serde_json`'s pre-streaming `to_string`), framed with the
    /// same length prefix as `wire::encode_frame_into`.
    pub fn encode_frame_into<T: serde::Serialize>(
        buf: &mut Vec<u8>,
        payload: &mut String,
        value: &T,
    ) {
        payload.clear();
        write_value(payload, &value.to_value());
        buf.clear();
        buf.reserve(4 + payload.len());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(payload.as_bytes());
    }

    fn write_value(out: &mut String, v: &serde::Value) {
        use serde::Value;
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::U64(n) => out.push_str(&n.to_string()),
            Value::I64(n) => out.push_str(&n.to_string()),
            Value::F64(x) => {
                assert!(x.is_finite(), "frame payloads are finite");
                out.push_str(&x.to_string());
            }
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_value(out, item);
                }
                out.push(']');
            }
            Value::Object(map) => {
                out.push('{');
                for (i, (k, item)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    write_value(out, item);
                }
                out.push('}');
            }
        }
    }

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn group_by_class(dets: &ImageDetections, floor: f64) -> BTreeMap<ClassId, Vec<Detection>> {
        let mut groups: BTreeMap<ClassId, Vec<Detection>> = BTreeMap::new();
        for d in dets.iter().filter(|d| d.score() >= floor) {
            groups.entry(d.class()).or_default().push(*d);
        }
        for group in groups.values_mut() {
            group.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
        }
        groups
    }

    pub fn nms(dets: &ImageDetections, config: &NmsConfig) -> ImageDetections {
        let groups = group_by_class(dets, config.score_floor);
        let mut kept: Vec<Detection> = Vec::new();
        for (_, group) in groups {
            let mut class_kept: Vec<Detection> = Vec::new();
            for d in group {
                if class_kept.len() >= config.max_per_class {
                    break;
                }
                let suppressed = class_kept
                    .iter()
                    .any(|k| k.bbox().iou(&d.bbox()) > config.iou_threshold);
                if !suppressed {
                    class_kept.push(d);
                }
            }
            kept.extend(class_kept);
        }
        kept.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
        ImageDetections::from_vec(kept)
    }

    pub fn soft_nms(dets: &ImageDetections, config: &NmsConfig, sigma: f64) -> ImageDetections {
        assert!(sigma > 0.0, "soft-nms sigma must be positive");
        let groups = group_by_class(dets, config.score_floor);
        let mut kept: Vec<Detection> = Vec::new();
        for (_, group) in groups {
            let mut pool = group;
            let mut class_kept: Vec<Detection> = Vec::new();
            while !pool.is_empty() && class_kept.len() < config.max_per_class {
                let (best_idx, _) = pool
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        a.score().partial_cmp(&b.score()).expect("finite scores")
                    })
                    .expect("pool is non-empty");
                let best = pool.swap_remove(best_idx);
                pool = pool
                    .into_iter()
                    .filter_map(|d| {
                        let iou = best.bbox().iou(&d.bbox());
                        let decayed = d.score() * (-iou * iou / sigma).exp();
                        if decayed >= config.score_floor {
                            Some(d.with_score(decayed))
                        } else {
                            None
                        }
                    })
                    .collect();
                class_kept.push(best);
            }
            kept.extend(class_kept);
        }
        kept.sort_by(|a, b| b.score().partial_cmp(&a.score()).expect("finite scores"));
        ImageDetections::from_vec(kept)
    }

    pub fn match_greedy(
        dets: &[Detection],
        gts: &[GroundTruth],
        iou_threshold: f64,
    ) -> detcore::ImageMatch {
        let mut order: Vec<usize> = (0..dets.len()).collect();
        order.sort_by(|&a, &b| {
            dets[b]
                .score()
                .partial_cmp(&dets[a].score())
                .expect("finite scores")
        });
        let mut claimed = vec![false; gts.len()];
        let mut outcomes = vec![detcore::MatchOutcome::FalsePositive; dets.len()];
        for &di in &order {
            let det = &dets[di];
            let mut best: Option<(usize, f64)> = None;
            for (gi, gt) in gts.iter().enumerate() {
                let iou = det.bbox().iou(&gt.bbox());
                if iou >= iou_threshold {
                    match best {
                        Some((_, biou)) if biou >= iou => {}
                        _ => best = Some((gi, iou)),
                    }
                }
            }
            outcomes[di] = match best {
                Some((gi, iou)) => {
                    if gts[gi].is_difficult() {
                        detcore::MatchOutcome::IgnoredDifficult
                    } else if !claimed[gi] {
                        claimed[gi] = true;
                        detcore::MatchOutcome::TruePositive { gt_index: gi, iou }
                    } else {
                        detcore::MatchOutcome::FalsePositive
                    }
                }
                None => detcore::MatchOutcome::FalsePositive,
            };
        }
        let num_gt = gts.iter().filter(|g| !g.is_difficult()).count();
        let missed_gt = gts
            .iter()
            .enumerate()
            .filter(|(gi, gt)| !gt.is_difficult() && !claimed[*gi])
            .map(|(gi, _)| gi)
            .collect();
        detcore::ImageMatch {
            outcomes,
            num_gt,
            missed_gt,
        }
    }

    /// The seed's `MapEvaluator` (per-image `Vec<Vec<_>>` grouping, clone +
    /// re-sort per `pr_curve`).
    pub struct MapEvaluator {
        iou_threshold: f64,
        records: Vec<Vec<(f64, bool)>>,
        gt_counts: Vec<usize>,
    }

    impl MapEvaluator {
        pub fn new(num_classes: usize) -> Self {
            MapEvaluator {
                iou_threshold: 0.5,
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
                        detcore::MatchOutcome::TruePositive { .. } => {
                            self.records[c].push((d.score(), true));
                        }
                        detcore::MatchOutcome::FalsePositive => {
                            self.records[c].push((d.score(), false));
                        }
                        detcore::MatchOutcome::IgnoredDifficult => {}
                    }
                }
            }
        }

        fn class_ap(&self, c: usize) -> f64 {
            let num_gt = self.gt_counts[c];
            let mut recs = self.records[c].clone();
            recs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
            let mut tp = 0usize;
            let mut fp = 0usize;
            let mut points: Vec<(f64, f64)> = Vec::with_capacity(recs.len());
            for (_, is_tp) in recs {
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
                points.push((recall, precision));
            }
            let mut ap = 0.0;
            for i in 0..=10 {
                let r = i as f64 / 10.0;
                let p_max = points
                    .iter()
                    .filter(|p| p.0 >= r - 1e-12)
                    .map(|p| p.1)
                    .fold(0.0, f64::max);
                ap += p_max;
            }
            ap / 11.0
        }

        pub fn map(&self) -> f64 {
            let mut sum = 0.0;
            let mut counted = 0usize;
            for c in 0..self.records.len() {
                if self.gt_counts[c] > 0 {
                    sum += self.class_ap(c);
                    counted += 1;
                }
            }
            if counted == 0 {
                0.0
            } else {
                sum / counted as f64
            }
        }
    }

    pub fn count_detected(
        dets: &ImageDetections,
        gts: &[GroundTruth],
        config: &CountingConfig,
    ) -> detcore::ImageCount {
        let num_gt = gts.iter().filter(|g| !g.is_difficult()).count();
        let mut classes: std::collections::BTreeSet<u16> = std::collections::BTreeSet::new();
        for d in dets.iter() {
            classes.insert(d.class().0);
        }
        for g in gts {
            classes.insert(g.class().0);
        }
        let mut detected = 0usize;
        let mut false_positives = 0usize;
        for c in classes {
            let class_dets: Vec<Detection> = dets
                .iter()
                .copied()
                .filter(|d| d.class().0 == c && d.score() >= config.score_threshold)
                .collect();
            let class_gts: Vec<GroundTruth> =
                gts.iter().copied().filter(|g| g.class().0 == c).collect();
            if class_dets.is_empty() {
                continue;
            }
            let m = match_greedy(&class_dets, &class_gts, config.iou_threshold);
            for o in &m.outcomes {
                if o.is_tp() {
                    detected += 1;
                } else if o.is_fp() {
                    false_positives += 1;
                }
            }
        }
        detcore::ImageCount {
            num_gt,
            detected,
            false_positives,
        }
    }

    /// The seed's experiment-driver flow: confidence-threshold scan
    /// (detects the train set), difficulty labelling (detects the train set
    /// again, both models), discriminator test stats (detects the test
    /// set), then [`evaluate_e2e`] (detects the test set again) — exactly
    /// the redundant passes `pair_run` used to make.
    pub fn pair_flow(
        train: &Dataset,
        test: &Dataset,
        small: &SeedDetector,
        big: &SeedDetector,
        counting: &CountingConfig,
    ) -> ((f64, usize, f64), smallbig_core::BinaryStats, Thresholds) {
        use smallbig_core::{BinaryStats, LabeledExample, SemanticFeatures, PREDICTION_THRESHOLD};

        // The seed's naive 186-cell grid scan (re-classifies every example
        // per cell); the optimized library version reads cells off prefix
        // sums.
        fn calibrate_count_area(examples: &[LabeledExample]) -> (usize, f64, BinaryStats) {
            let mut best: Option<(usize, f64, BinaryStats)> = None;
            for count in 1..=6usize {
                let mut area = 0.01;
                while area <= 0.61 {
                    let disc = DifficultCaseDiscriminator::new(Thresholds {
                        conf: 0.2,
                        count,
                        area,
                    });
                    let stats = BinaryStats::from_pairs(examples.iter().map(|e| {
                        (
                            disc.classify_true_features(e.true_count, e.true_min_area),
                            e.label,
                        )
                    }));
                    let better = match &best {
                        None => true,
                        Some((_, _, b)) => stats.accuracy > b.accuracy,
                    };
                    if better {
                        best = Some((count, area, stats));
                    }
                    area += 0.02;
                }
            }
            best.expect("grid is non-empty")
        }

        let label_one = |scene: &datagen::Scene, t_conf: f64| {
            let small_dets = small.detect(scene);
            let big_dets = big.detect(scene);
            let label = if big_dets.count_above(PREDICTION_THRESHOLD)
                > small_dets.count_above(PREDICTION_THRESHOLD)
            {
                smallbig_core::CaseKind::Difficult
            } else {
                smallbig_core::CaseKind::Easy
            };
            LabeledExample {
                scene_id: scene.id,
                true_count: scene.num_objects(),
                true_min_area: scene.min_area_ratio(),
                features: SemanticFeatures::extract(&small_dets, t_conf),
                label,
            }
        };

        // Confidence threshold: small model over the train set.
        let per_image: Vec<(Vec<f64>, usize)> = train
            .iter()
            .map(|scene| {
                let dets = small.detect(scene);
                let mut scores: Vec<f64> = dets.iter().map(|d| d.score()).collect();
                scores.sort_by(|a, b| a.partial_cmp(b).expect("finite scores"));
                (scores, scene.num_objects())
            })
            .collect();
        let mut best = (0.20, u64::MAX);
        let mut t = 0.05;
        while t <= 0.451 {
            let mut loss = 0u64;
            for (scores, n_true) in &per_image {
                let idx = scores.partition_point(|&s| s < t);
                loss += (scores.len() - idx).abs_diff(*n_true) as u64;
            }
            if loss < best.1 {
                best = (t, loss);
            }
            t += 0.01;
        }
        let conf = best.0;

        // Difficulty labels: both models over the train set (again).
        let examples: Vec<LabeledExample> =
            train.iter().map(|scene| label_one(scene, conf)).collect();
        let (count, area, _train_stats) = calibrate_count_area(&examples);
        let thresholds = Thresholds { conf, count, area };
        let disc = DifficultCaseDiscriminator::new(thresholds);

        // Test-set stats: both models over the test set.
        let stats = BinaryStats::from_pairs(test.iter().map(|scene| {
            let ex = label_one(scene, conf);
            (disc.classify_features(&ex.features), ex.label)
        }));

        // Evaluation: both models over the test set (again).
        let outcome = evaluate_e2e(test, small, big, &Policy::DifficultCase(disc), counting);
        (outcome, stats, thresholds)
    }

    /// The seed's batch `evaluate` (sequential detect loops, three full
    /// mAP/count accumulations) over the reference kernels above.
    pub fn evaluate_e2e(
        test: &Dataset,
        small: &SeedDetector,
        big: &SeedDetector,
        policy: &Policy,
        counting: &CountingConfig,
    ) -> (f64, usize, f64) {
        use smallbig_core::{CaseKind, PolicyInput, PREDICTION_THRESHOLD};
        let num_classes = test.taxonomy().len();
        let small_results: Vec<ImageDetections> = test.iter().map(|s| small.detect(s)).collect();
        let big_results: Vec<ImageDetections> = test.iter().map(|s| big.detect(s)).collect();
        let labels: Vec<CaseKind> = small_results
            .iter()
            .zip(&big_results)
            .map(|(s, b)| {
                if b.count_above(PREDICTION_THRESHOLD) > s.count_above(PREDICTION_THRESHOLD) {
                    CaseKind::Difficult
                } else {
                    CaseKind::Easy
                }
            })
            .collect();
        let inputs: Vec<PolicyInput<'_>> = test
            .iter()
            .zip(&small_results)
            .zip(&labels)
            .map(|((scene, small_dets), label)| PolicyInput {
                scene,
                small_dets,
                label: Some(*label),
                num_classes,
                link: None,
                cloud_queue: None,
            })
            .collect();
        let decisions = policy.decide_all(&inputs);

        let mut small_map = MapEvaluator::new(num_classes);
        let mut big_map = MapEvaluator::new(num_classes);
        let mut e2e_map = MapEvaluator::new(num_classes);
        let mut e2e_detected = 0usize;
        let mut uploads = 0usize;
        for (((scene, small_dets), big_dets), decision) in test
            .iter()
            .zip(&small_results)
            .zip(&big_results)
            .zip(&decisions)
        {
            let gts = scene.ground_truths();
            small_map.add_image(small_dets, &gts);
            big_map.add_image(big_dets, &gts);
            let _ = count_detected(small_dets, &gts, counting);
            let _ = count_detected(big_dets, &gts, counting);
            let final_dets = if decision.is_upload() {
                uploads += 1;
                big_dets
            } else {
                small_dets
            };
            e2e_map.add_image(final_dets, &gts);
            e2e_detected += count_detected(final_dets, &gts, counting).detected;
        }
        let _ = small_map.map();
        let _ = big_map.map();
        (
            e2e_map.map() * 100.0,
            e2e_detected,
            uploads as f64 / test.len() as f64,
        )
    }
}

/// The pre-refactor inline batching loop (PR 1–4's `cloud_scheduler`
/// queue logic, transcribed): arrivals append to a `Vec`; when the queue
/// reaches `max_batch` the whole queue drains as one batch; periodic
/// flushes drain whatever is queued. Returns a `(batches, checksum)`
/// fingerprint of the exact service order, folded frame by frame, so the
/// trait-based `FifoBatcher` can be asserted identical before timing.
fn inline_fifo_drive(pool: &[QueuedFrame], max_batch: usize, flush_every: usize) -> (usize, u64) {
    let mut queue: Vec<QueuedFrame> = Vec::new();
    let mut batches = 0usize;
    let mut checksum = 0u64;
    let serve = |queue: &mut Vec<QueuedFrame>, batches: &mut usize, checksum: &mut u64| {
        if queue.is_empty() {
            return;
        }
        for q in queue.drain(..) {
            *checksum = checksum.wrapping_mul(31).wrapping_add(q.ticket());
        }
        *checksum = checksum.rotate_left(7); // batch boundary marker
        *batches += 1;
    };
    for (i, frame) in pool.iter().enumerate() {
        queue.push(frame.clone());
        if queue.len() >= max_batch {
            serve(&mut queue, &mut batches, &mut checksum);
        }
        if (i + 1) % flush_every == 0 {
            serve(&mut queue, &mut batches, &mut checksum);
        }
    }
    serve(&mut queue, &mut batches, &mut checksum);
    (batches, checksum)
}

/// The same drive through the `Scheduler` seam, exactly as the cloud
/// worker runs it (push → dispatch while ready; flush drains). Generic
/// over the scheduler so one body measures both dispatch shapes the
/// cloud now contains: `S = dyn Scheduler` is the boxed custom-scheduler
/// path, `S = FifoBatcher` monomorphizes to the static-dispatch fast
/// path the default configuration takes through `SchedulerSlot`.
fn fifo_drive<S: Scheduler + ?Sized>(
    sched: &mut S,
    batch_scratch: &mut Vec<QueuedFrame>,
    pool: &[QueuedFrame],
    max_batch: usize,
    flush_every: usize,
) -> (usize, u64) {
    let mut batches = 0usize;
    let mut checksum = 0u64;
    // Mirrors `dispatch_ready` / `drain_all` in the cloud worker: the
    // ready check gates eager dispatch, flushes drain until empty, and an
    // empty take stops the round.
    let serve =
        |batch_scratch: &mut Vec<QueuedFrame>, batches: &mut usize, checksum: &mut u64| -> bool {
            if batch_scratch.is_empty() {
                return false;
            }
            for q in batch_scratch.drain(..) {
                *checksum = checksum.wrapping_mul(31).wrapping_add(q.ticket());
            }
            *checksum = checksum.rotate_left(7);
            *batches += 1;
            true
        };
    for (i, frame) in pool.iter().enumerate() {
        sched.push(frame.clone());
        while sched.ready(max_batch) {
            sched.take_batch(max_batch, batch_scratch);
            if !serve(batch_scratch, &mut batches, &mut checksum) {
                break;
            }
        }
        if (i + 1) % flush_every == 0 {
            while !sched.is_empty() {
                sched.take_batch(max_batch, batch_scratch);
                if !serve(batch_scratch, &mut batches, &mut checksum) {
                    break;
                }
            }
        }
    }
    while !sched.is_empty() {
        sched.take_batch(max_batch, batch_scratch);
        if !serve(batch_scratch, &mut batches, &mut checksum) {
            break;
        }
    }
    (batches, checksum)
}

// ---------------------------------------------------------------------------

fn random_detections(n: usize, seed: u64) -> ImageDetections {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x0: f64 = rng.gen_range(0.0..0.8);
            let y0: f64 = rng.gen_range(0.0..0.8);
            Detection::new(
                ClassId(rng.gen_range(0..20)),
                rng.gen_range(0.01..1.0),
                BBox::new(
                    x0,
                    y0,
                    x0 + rng.gen_range(0.05..0.2),
                    y0 + rng.gen_range(0.05..0.2),
                )
                .unwrap(),
            )
        })
        .collect()
}

/// Generic result sink so the optimizer cannot discard benchmarked work.
fn sink<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Minimum wall-clock per variant over `repeats` rounds, with the variants
/// **interleaved** within every round (after one warmup pass each).
///
/// Background load on shared hosts drifts over seconds; timing all of
/// "before" and then all of "after" would let that drift masquerade as a
/// speedup (or hide one). Interleaving makes every round sample the same
/// load profile for each variant, and the per-variant minimum then discards
/// the noisy rounds.
fn best_of_each(repeats: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<Duration> {
    for f in variants.iter_mut() {
        f();
    }
    let mut best = vec![Duration::MAX; variants.len()];
    for _ in 0..repeats {
        for (f, best) in variants.iter_mut().zip(best.iter_mut()) {
            let t = Instant::now();
            f();
            *best = (*best).min(t.elapsed());
        }
    }
    best
}

#[derive(Debug, Serialize)]
struct KernelRow {
    before_ns_per_op: f64,
    after_ns_per_op: f64,
    /// The `*_into` / scratch form where one exists (reused buffers).
    after_scratch_ns_per_op: Option<f64>,
    speedup: f64,
}

impl KernelRow {
    fn new(before: Duration, after: Duration, scratch: Option<Duration>, ops: u64) -> Self {
        let per = |d: Duration| d.as_nanos() as f64 / ops as f64;
        let best_after = scratch.map(|s| s.min(after)).unwrap_or(after);
        KernelRow {
            before_ns_per_op: per(before),
            after_ns_per_op: per(after),
            after_scratch_ns_per_op: scratch.map(per),
            speedup: per(before) / per(best_after),
        }
    }
}

#[derive(Debug, Serialize)]
struct HarnessRow {
    images: usize,
    before_fps: f64,
    after_fps_single_worker: f64,
    after_fps_parallel: f64,
    /// Single-core speedup: data-oriented kernels only, no thread help.
    speedup_single_worker: f64,
    /// Speedup with the parallel fan-out enabled (equals the single-worker
    /// number on a 1-CPU host).
    speedup_parallel: f64,
}

#[derive(Debug, Serialize)]
struct Harness {
    /// `evaluate()` alone: one policy over a test set (detect + metrics).
    evaluate_only: HarnessRow,
    /// The experiment-driver flow behind every table: calibrate on a train
    /// set, discriminator test stats, policy evaluation. The "before" runs
    /// the seed's redundant detection passes; the "after" detects each
    /// (model, scene) once and shares the results.
    experiment_driver: HarnessRow,
}

#[derive(Debug, Serialize)]
struct SessionRow {
    images: usize,
    /// Frames/sec of the zero-trace (static link) fast path — the number
    /// this section exists to watch: adding the dynamic-network layer must
    /// not tax sessions that don't use it.
    static_fps: f64,
    /// Frames/sec with a constant identity trace (full trace machinery,
    /// identity schedule).
    constant_trace_fps: f64,
    /// Frames/sec under a bursty-loss trace (retransmissions in play).
    bursty_trace_fps: f64,
    /// `static_fps / constant_trace_fps` (equivalently constant-trace
    /// wall-clock over static wall-clock): the cost of the trace machinery
    /// itself at identity. ≈1.0 expected; **above** 1.0 means the traced
    /// path got slower than the zero-trace fast path.
    static_over_constant: f64,
}

#[derive(Debug, Serialize)]
struct UpdateRow {
    images: usize,
    /// Frames/sec with the update loop disabled (`updates: None`, the
    /// default every other section runs under).
    disabled_fps: f64,
    /// Frames/sec with an epoch cadence that actually refits and rolls
    /// artifacts out to the session.
    enabled_fps: f64,
    /// Refits the enabled run published (sanity: ≥ 1 or the row is
    /// vacuous — asserted before timing).
    updates_published: u64,
    /// enabled wall-clock over disabled wall-clock: the cost of the
    /// pseudo-label accumulation + refit + rollout machinery where it
    /// fires. The disabled path is separately asserted bit-identical to a
    /// starved loop, so `updates: None` stays free.
    enabled_over_disabled: f64,
}

#[derive(Debug, Serialize)]
struct Sessions {
    /// `run_system` end-to-end: one blocking edge session against one cloud
    /// worker, with and without a link trace.
    runtime_session: SessionRow,
    /// The model-update loop on the same session shape: disabled vs an
    /// epoch cadence that refits, bit-identity-gated before timing.
    update_loop: UpdateRow,
}

#[derive(Debug, Serialize)]
struct TransportRow {
    frames: usize,
    /// Mean length-prefixed wire size of one scene frame — the dominant
    /// payload a cloud-only session ships per image — encoded as JSON
    /// (the protocol default; PR 6 reported this unlabeled as
    /// `scene_frame_bytes_avg`).
    scene_frame_bytes_avg_json: f64,
    /// The same frames through the binary codec.
    scene_frame_bytes_avg_binary: f64,
    /// binary / JSON bytes per frame (the PR 7 target is ≤ 0.45).
    binary_over_json_bytes: f64,
    /// The historical in-process channel path (`CloudServer::connect`).
    channel_fps: f64,
    /// The same session bridged over the in-memory transport
    /// (`RemoteCloud` + `serve`), handshake and frame codec included.
    memory_transport_fps: f64,
    /// The same session over real loopback TCP (JSON codec).
    tcp_loopback_fps: f64,
    /// The same session over loopback TCP with the binary codec
    /// negotiated in the handshake.
    tcp_loopback_binary_fps: f64,
    /// channel time / memory-transport time (≤ 1.0 means the transport
    /// bridge costs throughput; reports are asserted bit-identical first).
    memory_over_channel: f64,
    /// channel time / loopback-TCP time, JSON codec.
    tcp_over_channel: f64,
    /// channel time / loopback-TCP time, binary codec.
    tcp_binary_over_channel: f64,
}

#[derive(Debug, Serialize)]
struct MuxRow {
    sessions: usize,
    frames_per_session: usize,
    /// All sessions driven over the historical in-process channel path.
    channel_fps: f64,
    /// One loopback-TCP connection **per session** (the pre-mux shape),
    /// binary codec.
    tcp_per_connection_fps: f64,
    /// Every session multiplexed over **one** loopback-TCP connection,
    /// binary codec, submits interleaved across sessions.
    tcp_mux_fps: f64,
    /// channel time / mux time (the PR 7 bar is ≥ 0.95).
    mux_over_channel: f64,
    /// per-connection time / mux time (> 1.0 means multiplexing beats
    /// dialing one connection per device).
    mux_over_per_connection: f64,
}

#[derive(Debug, Serialize)]
struct TransportBench {
    /// One cloud-only edge session end to end on each substrate and codec.
    remote_session: TransportRow,
    /// A device fleet's sessions over one multiplexed connection vs one
    /// connection each vs the channel path — reports asserted
    /// bit-identical across all three before timing.
    mux_fleet: MuxRow,
}

#[derive(Debug, Serialize)]
struct Report {
    pr: u32,
    title: String,
    command: String,
    quick: bool,
    host_parallelism: usize,
    kernels: Kernels,
    serializer: Serializer,
    scheduler: SchedulerBench,
    harness: Harness,
    sessions: Sessions,
    transport: TransportBench,
    fleet: FleetBench,
}

#[derive(Debug, Serialize)]
struct Kernels {
    nms_200_boxes: KernelRow,
    soft_nms_200_boxes: KernelRow,
    match_greedy_40x10: KernelRow,
    map_accumulate_per_image: KernelRow,
    count_detected_per_image: KernelRow,
    /// Both models over one scene: seed detector (per-object distribution
    /// constructions, per-call `p_detect` invariants, fresh output) vs the
    /// PR 3 sampler-cache fast path; the scratch column reuses one
    /// `detect_into` buffer per model across the dataset.
    detect_per_image: KernelRow,
}

#[derive(Debug, Serialize)]
struct Serializer {
    /// One length-prefixed wire frame per image of big-model detections:
    /// serialize-via-`Value`-tree (seed) vs the streaming serializer, both
    /// into reused buffers; the scratch column is `encode_frame_into`
    /// (streaming **and** reusing the frame buffer — the session path).
    encode_frame: KernelRow,
}

#[derive(Debug, Serialize)]
struct SchedulerRow {
    frames: usize,
    max_batch: usize,
    /// The pre-refactor inline `Vec` batching loop, transcribed.
    inline_ns_per_frame: f64,
    /// The same drive through the object-safe `Scheduler` seam
    /// (`FifoBatcher` behind a `Box<dyn Scheduler>`).
    fifo_trait_ns_per_frame: f64,
    /// trait / inline — the cost of the control-plane seam. ≈1.0
    /// expected; the service order itself is asserted identical (batch
    /// partition checksum) before any timing happens.
    overhead_ratio: f64,
    /// The monomorphized fast path the *default* configuration now takes:
    /// `SchedulerSlot::Fifo` calls `FifoBatcher` by value (static
    /// dispatch, inlinable), only custom schedulers pay the box. Measured
    /// by instantiating the same drive directly over `FifoBatcher`.
    fifo_mono_ns_per_frame: f64,
    /// mono / inline — the PR 8 bar: the default path should be
    /// indistinguishable from the hard-coded loop it replaced (≈1.0,
    /// closing the ~29% seam tax BENCH_PR5 recorded for the boxed drive).
    mono_over_inline: f64,
}

#[derive(Debug, Serialize)]
struct SchedulerBench {
    /// Push/dispatch/flush cycle over synthetic queued frames: the
    /// `Scheduler`-trait FIFO vs the inline loop it replaced.
    fifo_vs_inline: SchedulerRow,
}

#[derive(Debug, Serialize)]
struct FleetRow {
    sessions: usize,
    shards: usize,
    frames: u64,
    upload_ratio: f64,
    wall_s: f64,
    /// Whole-population throughput: sessions retired per wall second.
    sessions_per_sec: f64,
    frames_per_sec: f64,
    /// Mean uplink bytes each session shipped (admission shedding pulls
    /// this down at scales where the cloud saturates).
    bytes_per_session: f64,
    p50_ms: f64,
    p99_ms: f64,
    p999_ms: f64,
    /// Fraction of frames that would miss a 500 ms deadline (one point of
    /// the report's miss curve).
    miss_at_500ms: f64,
    /// Frames the admission controller shed to the edge-local answer.
    admission_fallbacks: u64,
}

#[derive(Debug, Serialize)]
struct FleetThreadsRow {
    sessions: usize,
    shards: usize,
    /// Drive-thread counts swept (`FleetSpec::threads`; one worker per
    /// shard group).
    threads: Vec<usize>,
    /// Wall-clock frames/sec at each thread count (same order as
    /// `threads`). The `FleetReport` is asserted bit-identical across all
    /// thread counts before any timing happens.
    fps: Vec<f64>,
    /// time(threads = 1) / time(threads = t): > 1.0 means the parallel
    /// drive pays on this host, ≈ 1.0 means the host has no spare cores
    /// to fan the shard groups out over.
    speedup_vs_single: Vec<f64>,
}

#[derive(Debug, Serialize)]
struct FleetRssRow {
    sessions: usize,
    frames: u64,
    /// Peak RSS (VmHWM) of a fresh subprocess running the fleet with the
    /// full per-session evaluators (`MetricsMode::Full`) — the PR 8
    /// memory shape.
    full_peak_rss_mb: f64,
    /// Peak RSS of the same fleet with the compact frame-metrics
    /// accumulator (`MetricsMode::Compact`, the `run_fleet` default).
    compact_peak_rss_mb: f64,
    /// full / compact — the PR 9 memory bar (≥ 5× at 10⁶ sessions).
    reduction_x: f64,
    full_wall_s: f64,
    compact_wall_s: f64,
}

#[derive(Debug, Serialize)]
struct FleetBench {
    /// Sessions in the conformance fleet: the event-driven core is
    /// asserted bit-identical (per-session reports and per-shard cloud
    /// stats) to the thread-per-session reference deployment before any
    /// timing happens.
    conformance_sessions: usize,
    /// `run_fleet` over `FleetSpec::new(n)` at increasing population
    /// scale; the last full-mode row is the 10⁶-session smoke run.
    scale: Vec<FleetRow>,
    /// The PR 9 shard-parallel drive swept over thread counts, reports
    /// asserted bit-identical first.
    threads_sweep: FleetThreadsRow,
    /// Full vs compact metrics peak RSS, each measured in its own
    /// subprocess (VmHWM is a process-lifetime high-water mark, so
    /// in-process before/after would pollute each other).
    rss: Vec<FleetRssRow>,
}

/// Peak resident set size (VmHWM) of this process, from
/// `/proc/self/status`. `None` off Linux — the RSS rows are then skipped.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Child mode behind the hidden `--fleet-rss` flag: run one fleet in this
/// fresh process and print its own peak RSS. Parent parses the line.
fn fleet_rss_child(sessions: usize, mode: smallbig_core::fleet::MetricsMode) {
    let spec = smallbig_core::fleet::FleetSpec::new(sessions);
    let t = Instant::now();
    let r = smallbig_core::fleet::run_fleet_with(&spec, mode).expect("healthy drive");
    let wall = t.elapsed().as_secs_f64();
    let peak_kb = peak_rss_kb().unwrap_or(0);
    println!("frames={} peak_kb={peak_kb} wall_s={wall:.3}", r.frames);
}

/// Re-exec this binary to measure one fleet configuration's peak RSS in an
/// unpolluted process. Returns (frames, peak_kb, wall_s).
fn fleet_rss_probe(sessions: usize, mode: &str) -> (u64, u64, f64) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = std::process::Command::new(exe)
        .args(["--fleet-rss", &sessions.to_string(), mode])
        .output()
        .expect("spawn fleet RSS probe");
    assert!(
        out.status.success(),
        "fleet RSS probe ({sessions} sessions, {mode}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let (mut frames, mut peak_kb, mut wall) = (0u64, 0u64, 0f64);
    for tok in text.split_whitespace() {
        if let Some(v) = tok.strip_prefix("frames=") {
            frames = v.parse().expect("frames field");
        } else if let Some(v) = tok.strip_prefix("peak_kb=") {
            peak_kb = v.parse().expect("peak_kb field");
        } else if let Some(v) = tok.strip_prefix("wall_s=") {
            wall = v.parse().expect("wall_s field");
        }
    }
    assert!(
        frames > 0 && peak_kb > 0,
        "probe printed no measurement: {text}"
    );
    (frames, peak_kb, wall)
}

fn main() {
    let mut quick = false;
    // The default lands in target/ so a casual regeneration can never
    // clobber a committed BENCH_PR<N>.json baseline; committing a new
    // baseline is an explicit `--json-out BENCH_PR<N>.json`.
    let mut out_path = "target/throughput.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--json-out" | "--out" => {
                out_path = args.next().unwrap_or_else(|| {
                    eprintln!("{arg} needs a path");
                    std::process::exit(2);
                })
            }
            // Hidden: child mode for the RSS rows. Runs one fleet in this
            // fresh process, prints its own VmHWM, exits.
            "--fleet-rss" => {
                let sessions: usize = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--fleet-rss SESSIONS full|compact");
                let mode = match args.next().as_deref() {
                    Some("full") => smallbig_core::fleet::MetricsMode::Full,
                    Some("compact") => smallbig_core::fleet::MetricsMode::Compact,
                    other => panic!("--fleet-rss mode must be full|compact, got {other:?}"),
                };
                fleet_rss_child(sessions, mode);
                return;
            }
            "--help" | "-h" => {
                println!("usage: throughput [--quick] [--json-out PATH]");
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }

    // Min-over-repeats converges with more repeats; the full run spends
    // the extra passes to keep the committed numbers stable on shared
    // hosts.
    let (repeats, kernel_iters, images) = if quick { (2, 50, 100) } else { (9, 1000, 2000) };
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "# throughput bench — quick={quick}, repeats={repeats}, images={images}, cpus={host_parallelism}"
    );

    // ---- Kernel fixtures --------------------------------------------------
    let dets200 = random_detections(200, 1);
    let nms_cfg = NmsConfig::default();
    let single_class: Vec<Detection> = random_detections(40, 2)
        .into_iter()
        .map(|d| Detection::new(ClassId(0), d.score(), d.bbox()))
        .collect();
    let single_gts: Vec<GroundTruth> = random_detections(10, 3)
        .iter()
        .map(|d| GroundTruth::new(ClassId(0), d.bbox()))
        .collect();
    let dataset = Dataset::generate("bench-e2e", &DatasetProfile::voc(), images, 17);
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
    let seed_small = reference::SeedDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, 20);
    let seed_big = reference::SeedDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, 20);
    let big_results: Vec<ImageDetections> = dataset.iter().map(|s| big.detect(s)).collect();
    let gts: Vec<Vec<GroundTruth>> = dataset.iter().map(|s| s.ground_truths()).collect();
    let counting = CountingConfig::default();
    let policy = Policy::DifficultCase(DifficultCaseDiscriminator::new(Thresholds::paper()));

    // ---- Self-check: before/after must agree before timing ---------------
    // Detector fast path: the sampler cache must reproduce the seed detector
    // bit-for-bit, for every model kind, including through a dirty reused
    // `detect_into` buffer.
    {
        let mut reused = ImageDetections::new();
        for kind in ModelKind::ALL {
            let lib = SimDetector::new(kind, SplitId::Voc07, 20);
            let seed = reference::SeedDetector::new(kind, SplitId::Voc07, 20);
            for scene in dataset.iter().take(if quick { 50 } else { 400 }) {
                let fast = lib.detect(scene);
                assert_eq!(fast, seed.detect(scene), "detector drift for {kind:?}");
                lib.detect_into(scene, &mut reused);
                assert_eq!(fast, reused, "detect_into drift for {kind:?}");
            }
        }
    }
    // Streaming serializer: every answer frame must match the Value-tree
    // reference byte-for-byte.
    {
        let mut ref_buf = Vec::new();
        let mut ref_payload = String::new();
        let mut new_buf = Vec::new();
        for dets in &big_results {
            reference::encode_frame_into(&mut ref_buf, &mut ref_payload, dets);
            wire::encode_frame_into(&mut new_buf, dets);
            assert_eq!(ref_buf, new_buf, "serializer drift on a detections frame");
        }
    }
    eprintln!("# self-check passed: detector fast path and streaming serializer are bit-identical");
    assert_eq!(reference::nms(&dets200, &nms_cfg), nms(&dets200, &nms_cfg));
    assert_eq!(
        reference::soft_nms(&dets200, &nms_cfg, 0.5),
        soft_nms(&dets200, &nms_cfg, 0.5)
    );
    assert_eq!(
        reference::match_greedy(&single_class, &single_gts, 0.5),
        detcore::match_greedy(&single_class, &single_gts, 0.5)
    );
    {
        let mut reference_map = reference::MapEvaluator::new(20);
        let mut new_map = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
        for (d, g) in big_results.iter().zip(&gts) {
            reference_map.add_image(d, g);
            new_map.add_image(d, g);
        }
        assert_eq!(
            reference_map.map().to_bits(),
            new_map.evaluate().map.to_bits()
        );
        let mut cs = CountScratch::new();
        for (d, g) in big_results.iter().zip(&gts) {
            assert_eq!(
                reference::count_detected(d, g, &counting),
                count_detected_with(d, g, &counting, &mut cs)
            );
        }
    }
    let reference_outcome =
        reference::evaluate_e2e(&dataset, &seed_small, &seed_big, &policy, &counting);
    let cfg = EvalConfig::default();
    let outcome = evaluate(&dataset, &small, &big, &policy, &cfg);
    assert_eq!(reference_outcome.0.to_bits(), outcome.e2e_map_pct.to_bits());
    assert_eq!(reference_outcome.1, outcome.e2e_detected);
    assert_eq!(
        reference_outcome.2.to_bits(),
        outcome.upload_ratio.to_bits()
    );
    eprintln!("# self-check passed: reference and optimized paths agree bit-for-bit");

    // ---- Kernels ----------------------------------------------------------
    let mut nms_scratch = NmsScratch::new();
    let mut nms_out = ImageDetections::new();
    let nms_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for _ in 0..kernel_iters {
                    sink(reference::nms(&dets200, &nms_cfg));
                }
            },
            &mut || {
                for _ in 0..kernel_iters {
                    sink(nms(&dets200, &nms_cfg));
                }
            },
            &mut || {
                for _ in 0..kernel_iters {
                    nms_into(&dets200, &nms_cfg, &mut nms_scratch, &mut nms_out);
                    sink(&nms_out);
                }
            },
        ],
    );
    let nms_row = KernelRow::new(nms_times[0], nms_times[1], Some(nms_times[2]), kernel_iters);
    eprintln!("nms_200_boxes: {nms_row:?}");

    let soft_iters = kernel_iters / 2 + 1;
    let mut soft_scratch = NmsScratch::new();
    let mut soft_out = ImageDetections::new();
    let soft_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for _ in 0..soft_iters {
                    sink(reference::soft_nms(&dets200, &nms_cfg, 0.5));
                }
            },
            &mut || {
                for _ in 0..soft_iters {
                    sink(soft_nms(&dets200, &nms_cfg, 0.5));
                }
            },
            &mut || {
                for _ in 0..soft_iters {
                    soft_nms_into(&dets200, &nms_cfg, 0.5, &mut soft_scratch, &mut soft_out);
                    sink(&soft_out);
                }
            },
        ],
    );
    let soft_row = KernelRow::new(
        soft_times[0],
        soft_times[1],
        Some(soft_times[2]),
        soft_iters,
    );
    eprintln!("soft_nms_200_boxes: {soft_row:?}");

    let match_iters = kernel_iters * 20;
    let mut match_scratch = MatchScratch::new();
    let mut match_out = detcore::ImageMatch::default();
    let match_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for _ in 0..match_iters {
                    sink(reference::match_greedy(&single_class, &single_gts, 0.5));
                }
            },
            &mut || {
                for _ in 0..match_iters {
                    detcore::match_greedy_into(
                        &single_class,
                        &single_gts,
                        0.5,
                        &mut match_scratch,
                        &mut match_out,
                    );
                    sink(&match_out);
                }
            },
        ],
    );
    let match_row = KernelRow::new(match_times[0], match_times[1], None, match_iters);
    eprintln!("match_greedy_40x10: {match_row:?}");

    let map_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                let mut ev = reference::MapEvaluator::new(20);
                for (d, g) in big_results.iter().zip(&gts) {
                    ev.add_image(d, g);
                }
                sink(ev.map());
            },
            &mut || {
                let mut ev = MapEvaluator::new(20, ApProtocol::Voc07ElevenPoint);
                for (d, g) in big_results.iter().zip(&gts) {
                    ev.add_image(d, g);
                }
                sink(ev.evaluate().map);
            },
        ],
    );
    let map_row = KernelRow::new(map_times[0], map_times[1], None, images as u64);
    eprintln!("map_accumulate_per_image: {map_row:?}");

    let mut count_scratch = CountScratch::new();
    let count_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for (d, g) in big_results.iter().zip(&gts) {
                    sink(reference::count_detected(d, g, &counting));
                }
            },
            &mut || {
                for (d, g) in big_results.iter().zip(&gts) {
                    sink(count_detected_with(d, g, &counting, &mut count_scratch));
                }
            },
        ],
    );
    let count_row = KernelRow::new(count_times[0], count_times[1], None, images as u64);
    eprintln!("count_detected_per_image: {count_row:?}");

    // ---- Detector: both models over every scene ---------------------------
    // This is the ~60 % of `evaluate()` the ROADMAP named. The scratch
    // variant reuses one output buffer per model, which is what a streaming
    // session (results consumed per frame) gets to do.
    let mut small_scratch = ImageDetections::new();
    let mut big_scratch = ImageDetections::new();
    let detect_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for scene in dataset.iter() {
                    sink(seed_small.detect(scene));
                    sink(seed_big.detect(scene));
                }
            },
            &mut || {
                for scene in dataset.iter() {
                    sink(small.detect(scene));
                    sink(big.detect(scene));
                }
            },
            &mut || {
                for scene in dataset.iter() {
                    small.detect_into(scene, &mut small_scratch);
                    sink(&small_scratch);
                    big.detect_into(scene, &mut big_scratch);
                    sink(&big_scratch);
                }
            },
        ],
    );
    let detect_row = KernelRow::new(
        detect_times[0],
        detect_times[1],
        Some(detect_times[2]),
        images as u64,
    );
    eprintln!("detect_per_image: {detect_row:?}");

    // ---- Serializer: one detections wire frame per image -------------------
    let mut ref_frame_buf = Vec::new();
    let mut ref_payload = String::new();
    let mut frame_buf = Vec::new();
    let encode_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for dets in &big_results {
                    reference::encode_frame_into(&mut ref_frame_buf, &mut ref_payload, dets);
                    sink(&ref_frame_buf);
                }
            },
            &mut || {
                for dets in &big_results {
                    sink(wire::encode_frame(dets));
                }
            },
            &mut || {
                for dets in &big_results {
                    wire::encode_frame_into(&mut frame_buf, dets);
                    sink(&frame_buf);
                }
            },
        ],
    );
    let encode_row = KernelRow::new(
        encode_times[0],
        encode_times[1],
        Some(encode_times[2]),
        images as u64,
    );
    eprintln!("serializer/encode_frame: {encode_row:?}");

    // ---- Scheduler seam: FIFO trait vs the inline loop it replaced --------
    // The control plane must be pay-for-what-you-use: routing every frame
    // through `Box<dyn Scheduler>` instead of the hard-coded Vec loop may
    // not tax the cloud worker. Self-check first: both drives must form
    // the same batches in the same order (checksummed) — a semantic drift
    // would make the timing meaningless.
    // One drive over 50k frames is ~1.6 ms — timer-noise territory (the
    // BENCH_PR5/7 ratios bounced 0.95–1.29 run to run). Growing the pool
    // instead would change the regime (a 500k pool overflows the LLC and
    // memory stalls swamp the dispatch cost being measured), so each
    // timed pass drives the *same* 50k pool `sched_iters` times: ~16 ms
    // per pass, working set unchanged from the PR 5 measurement.
    let sched_frames = if quick { 2_000 } else { 50_000 };
    let sched_iters = if quick { 1 } else { 10 };
    let sched_max_batch = 4;
    let sched_flush_every = 37;
    let sched_pool: Vec<QueuedFrame> = (0..sched_frames as u64)
        .map(|i| QueuedFrame::synthetic(i % 7, i, i as f64 * 1e-3, 0.0, None))
        .collect();
    {
        let mut fifo = FifoBatcher::new();
        let mut scratch = Vec::new();
        let inline = inline_fifo_drive(&sched_pool, sched_max_batch, sched_flush_every);
        let traited = fifo_drive(
            &mut fifo as &mut dyn Scheduler,
            &mut scratch,
            &sched_pool,
            sched_max_batch,
            sched_flush_every,
        );
        let mut mono = FifoBatcher::new();
        let monoed = fifo_drive(
            &mut mono,
            &mut scratch,
            &sched_pool,
            sched_max_batch,
            sched_flush_every,
        );
        assert_eq!(
            inline, traited,
            "FifoBatcher must form the inline loop's exact batches"
        );
        assert_eq!(
            inline, monoed,
            "the monomorphized FIFO fast path must form the same batches too"
        );
    }
    eprintln!(
        "# scheduler self-check passed: inline loop, boxed trait and monomorphized FIFO form identical batches"
    );
    let mut sched_fifo = FifoBatcher::new();
    let mut sched_mono = FifoBatcher::new();
    let mut sched_scratch = Vec::new();
    let mut mono_scratch = Vec::new();
    let sched_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                for _ in 0..sched_iters {
                    sink(inline_fifo_drive(
                        &sched_pool,
                        sched_max_batch,
                        sched_flush_every,
                    ));
                }
            },
            &mut || {
                for _ in 0..sched_iters {
                    sink(fifo_drive(
                        &mut sched_fifo as &mut dyn Scheduler,
                        &mut sched_scratch,
                        &sched_pool,
                        sched_max_batch,
                        sched_flush_every,
                    ));
                }
            },
            &mut || {
                for _ in 0..sched_iters {
                    sink(fifo_drive(
                        &mut sched_mono,
                        &mut mono_scratch,
                        &sched_pool,
                        sched_max_batch,
                        sched_flush_every,
                    ));
                }
            },
        ],
    );
    let per_frame = |d: Duration| d.as_nanos() as f64 / (sched_frames * sched_iters) as f64;
    let scheduler = SchedulerBench {
        fifo_vs_inline: SchedulerRow {
            frames: sched_frames,
            max_batch: sched_max_batch,
            inline_ns_per_frame: per_frame(sched_times[0]),
            fifo_trait_ns_per_frame: per_frame(sched_times[1]),
            overhead_ratio: per_frame(sched_times[1]) / per_frame(sched_times[0]),
            fifo_mono_ns_per_frame: per_frame(sched_times[2]),
            mono_over_inline: per_frame(sched_times[2]) / per_frame(sched_times[0]),
        },
    };
    eprintln!("scheduler/fifo_vs_inline: {:?}", scheduler.fifo_vs_inline);

    // ---- End-to-end harness: evaluate() alone ----------------------------
    // The single-worker variant pins the harness to its sequential path via
    // the env var; toggling happens on the main thread while no harness
    // threads are alive.
    let e2e_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(reference::evaluate_e2e(
                    &dataset,
                    &seed_small,
                    &seed_big,
                    &policy,
                    &counting,
                ));
            },
            &mut || {
                std::env::set_var("SMALLBIG_HARNESS_WORKERS", "1");
                sink(evaluate(&dataset, &small, &big, &policy, &cfg));
                std::env::remove_var("SMALLBIG_HARNESS_WORKERS");
            },
            &mut || {
                sink(evaluate(&dataset, &small, &big, &policy, &cfg));
            },
        ],
    );
    let fps = |n: usize, d: Duration| n as f64 / d.as_secs_f64();
    let evaluate_only = HarnessRow {
        images,
        before_fps: fps(images, e2e_times[0]),
        after_fps_single_worker: fps(images, e2e_times[1]),
        after_fps_parallel: fps(images, e2e_times[2]),
        speedup_single_worker: e2e_times[0].as_secs_f64() / e2e_times[1].as_secs_f64(),
        speedup_parallel: e2e_times[0].as_secs_f64() / e2e_times[2].as_secs_f64(),
    };
    eprintln!("harness/evaluate_only: {evaluate_only:?}");

    // ---- End-to-end harness: the experiment-driver flow -------------------
    let train = Dataset::generate("bench-train", &DatasetProfile::voc(), images, 41);
    let driver_after = || {
        let (cal, _examples) = calibrate(&train, &small, &big);
        let disc = DifficultCaseDiscriminator::new(cal.thresholds);
        let test_dets = detect_all(&dataset, &small, &big);
        let stats = discriminator_stats_on(&dataset, &test_dets, &disc);
        let outcome = evaluate_detections(&dataset, &test_dets, &Policy::DifficultCase(disc), &cfg);
        (outcome, stats, cal.thresholds)
    };

    // Self-check: the shared-detection driver reproduces the redundant
    // reference flow exactly.
    let (ref_outcome, ref_stats, ref_thresholds) =
        reference::pair_flow(&train, &dataset, &seed_small, &seed_big, &counting);
    let (new_outcome, new_stats, new_thresholds) = driver_after();
    assert_eq!(ref_thresholds, new_thresholds);
    assert_eq!(ref_stats, new_stats);
    assert_eq!(ref_outcome.0.to_bits(), new_outcome.e2e_map_pct.to_bits());
    assert_eq!(ref_outcome.1, new_outcome.e2e_detected);
    assert_eq!(ref_outcome.2.to_bits(), new_outcome.upload_ratio.to_bits());
    eprintln!("# driver self-check passed: shared-detection flow is bit-identical");

    let driver_images = 2 * images; // train + test
    let driver_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(reference::pair_flow(
                    &train,
                    &dataset,
                    &seed_small,
                    &seed_big,
                    &counting,
                ));
            },
            &mut || {
                std::env::set_var("SMALLBIG_HARNESS_WORKERS", "1");
                sink(driver_after());
                std::env::remove_var("SMALLBIG_HARNESS_WORKERS");
            },
            &mut || {
                sink(driver_after());
            },
        ],
    );
    let experiment_driver = HarnessRow {
        images: driver_images,
        before_fps: fps(driver_images, driver_times[0]),
        after_fps_single_worker: fps(driver_images, driver_times[1]),
        after_fps_parallel: fps(driver_images, driver_times[2]),
        speedup_single_worker: driver_times[0].as_secs_f64() / driver_times[1].as_secs_f64(),
        speedup_parallel: driver_times[0].as_secs_f64() / driver_times[2].as_secs_f64(),
    };
    eprintln!("harness/experiment_driver: {experiment_driver:?}");
    let harness = Harness {
        evaluate_only,
        experiment_driver,
    };

    // ---- Session layer: static fast path vs traced links -------------------
    // The degraded-network layer must be pay-for-what-you-use: a session
    // without a trace takes the zero-trace fast path, and this section
    // watches its throughput across PRs. The traced columns exercise the
    // dynamic layer end-to-end (constant identity + bursty retransmission).
    let session_images = if quick { 60 } else { 200 };
    let session_data = Dataset::generate(
        "bench-session",
        &DatasetProfile::helmet(),
        session_images,
        17,
    );
    let session_small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let session_big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
    let session_disc = DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.21,
        count: 4,
        area: 0.03,
    });
    let session_run = |trace: Option<simnet::LinkTrace>| {
        smallbig_core::run_system(
            &session_data,
            &session_small,
            &session_big,
            &session_disc,
            smallbig_core::RuntimeMode::SmallBig,
            &smallbig_core::RuntimeConfig {
                frame_size: (96, 96),
                link_trace: trace,
                ..Default::default()
            },
        )
    };
    let bursty_trace = || Some(simnet::LinkTrace::bursty(11, 60.0, 3.0, 1.5, 0.9));
    // Self-check before timing: the static path replays bit-identically,
    // a constant identity trace preserves routing/quality exactly, and the
    // traced run is itself deterministic.
    {
        let static_a = session_run(None);
        let static_b = session_run(None);
        assert_eq!(
            static_a, static_b,
            "static session run must be deterministic"
        );
        let constant = session_run(Some(simnet::LinkTrace::constant()));
        assert_eq!(static_a.upload_ratio, constant.upload_ratio);
        assert_eq!(static_a.uplink_bytes, constant.uplink_bytes);
        assert_eq!(static_a.detected, constant.detected);
        assert_eq!(static_a.map_pct, constant.map_pct);
        assert_eq!(session_run(bursty_trace()), session_run(bursty_trace()));
    }
    eprintln!("# session self-check passed: zero-trace fast path and traces are deterministic");
    let session_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(session_run(None));
            },
            &mut || {
                sink(session_run(Some(simnet::LinkTrace::constant())));
            },
            &mut || {
                sink(session_run(bursty_trace()));
            },
        ],
    );
    let runtime_session = SessionRow {
        images: session_images,
        static_fps: fps(session_images, session_times[0]),
        constant_trace_fps: fps(session_images, session_times[1]),
        bursty_trace_fps: fps(session_images, session_times[2]),
        static_over_constant: session_times[1].as_secs_f64() / session_times[0].as_secs_f64(),
    };
    eprintln!("sessions/runtime_session: {runtime_session:?}");

    // ---- Model-update loop: pay only where it fires ------------------------
    // Twice over, in fact: `updates: None` (the default every other
    // section runs under) is asserted bit-identical to an enabled loop
    // that never reaches `min_examples` — so the machinery costs nothing
    // until it fires — and the firing cadence is then timed against the
    // disabled path.
    let update_cfg = smallbig_core::UpdateConfig {
        epoch_s: 1.0,
        min_examples: 8,
        ..Default::default()
    };
    let update_run = |updates: Option<smallbig_core::UpdateConfig>| {
        let mut cloud = smallbig_core::CloudServer::spawn(
            smallbig_core::CloudConfig {
                updates,
                ..Default::default()
            },
            Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2)),
        );
        let mut sess = cloud.connect(
            smallbig_core::SessionConfig {
                frame_size: (96, 96),
                ..smallbig_core::SessionConfig::new(2)
            },
            &session_small,
            Box::new(Policy::DifficultCase(DifficultCaseDiscriminator::default())),
        );
        for scene in session_data.iter() {
            let ticket = sess.submit(scene);
            sess.poll(ticket).expect("frame resolves");
        }
        let report = sess.drain();
        drop(sess);
        (report, cloud.shutdown())
    };
    let update_published;
    {
        let (disabled, _) = update_run(None);
        let starved = smallbig_core::UpdateConfig {
            min_examples: usize::MAX,
            ..Default::default()
        };
        let (starved_report, starved_stats) = update_run(Some(starved));
        assert_eq!(
            disabled, starved_report,
            "an update loop that never fires must be bit-identical to `updates: None`"
        );
        assert_eq!(starved_stats.updates_published, 0);
        let (enabled_a, stats_a) = update_run(Some(update_cfg));
        let (enabled_b, stats_b) = update_run(Some(update_cfg));
        assert_eq!(
            enabled_a, enabled_b,
            "update-enabled session must be deterministic"
        );
        assert_eq!(stats_a.updates_published, stats_b.updates_published);
        assert!(
            stats_a.updates_published >= 1,
            "bench cadence must actually refit"
        );
        assert!(enabled_a.updates_applied >= 1);
        update_published = stats_a.updates_published;
    }
    eprintln!(
        "# update self-check passed: starved loop bit-identical to disabled, enabled run deterministic"
    );
    let update_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(update_run(None).0);
            },
            &mut || {
                sink(update_run(Some(update_cfg)).0);
            },
        ],
    );
    let update_loop = UpdateRow {
        images: session_images,
        disabled_fps: fps(session_images, update_times[0]),
        enabled_fps: fps(session_images, update_times[1]),
        updates_published: update_published,
        enabled_over_disabled: update_times[1].as_secs_f64() / update_times[0].as_secs_f64(),
    };
    eprintln!("sessions/update_loop: {update_loop:?}");
    let sessions = Sessions {
        runtime_session,
        update_loop,
    };

    // ---- Transport layer: channel vs in-memory vs loopback TCP ------------
    // One cloud-only session (every frame crosses the wire) end to end on
    // each substrate. The three reports are asserted bit-identical before
    // anything is timed: the transports must change throughput only.
    let transport_images = if quick { 40 } else { 150 };
    let transport_data = Dataset::generate(
        "bench-transport",
        &DatasetProfile::helmet(),
        transport_images,
        23,
    );
    let transport_small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let transport_big = || -> Arc<dyn Detector + Send + Sync> {
        Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2))
    };
    let transport_cfg = || smallbig_core::SessionConfig {
        frame_size: (96, 96),
        ..smallbig_core::SessionConfig::new(2)
    };
    let drive = |sess: &mut smallbig_core::EdgeSession<'_>| {
        for scene in transport_data.iter() {
            let ticket = sess.submit(scene);
            sess.poll(ticket).expect("frame resolves");
        }
        sess.drain()
    };
    let channel_run = || {
        let mut cloud = smallbig_core::CloudServer::spawn(
            smallbig_core::CloudConfig::default(),
            transport_big(),
        );
        let mut sess = cloud.connect(
            transport_cfg(),
            &transport_small,
            Box::new(Policy::CloudOnly),
        );
        let report = drive(&mut sess);
        drop(sess);
        cloud.shutdown();
        report
    };
    let serve_one = |listener: &mut dyn transport::Listener| {
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cfg = smallbig_core::CloudConfig::default();
        let big = transport_big();
        let opts = transport::ServeOptions {
            expect_sessions: Some(1),
            ..transport::ServeOptions::default()
        };
        transport::serve(listener, &cfg, &big, &opts, &stop)
    };
    let memory_run = || {
        let (mut listener, connector) = transport::memory_listener();
        std::thread::scope(|scope| {
            let server = scope.spawn(move || serve_one(&mut listener));
            let remote = transport::RemoteCloud::connect(
                Box::new(connector.connect().expect("listener alive")),
                0,
                transport::ConnectOptions::default(),
            )
            .expect("in-memory handshake");
            let mut sess = remote.attach(
                transport_cfg(),
                &transport_small,
                Box::new(Policy::CloudOnly),
            );
            let report = drive(&mut sess);
            drop(sess);
            remote.close();
            server.join().expect("serve thread");
            report
        })
    };
    let tcp_run_as = |encoding: wire::Encoding| {
        let mut listener = transport::TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = transport::Listener::local_addr(&listener);
        std::thread::scope(|scope| {
            let server = scope.spawn(move || serve_one(&mut listener));
            let remote = transport::RemoteCloud::connect_tcp_with(
                &addr,
                0,
                &simnet::RetryConfig::default(),
                encoding,
                false,
            )
            .expect("loopback handshake");
            let mut sess = remote.attach(
                transport_cfg(),
                &transport_small,
                Box::new(Policy::CloudOnly),
            );
            let report = drive(&mut sess);
            drop(sess);
            remote.close();
            server.join().expect("serve thread");
            report
        })
    };
    {
        let want = channel_run();
        assert_eq!(
            memory_run(),
            want,
            "in-memory transport session drifted from the channel path"
        );
        assert_eq!(
            tcp_run_as(wire::Encoding::Json),
            want,
            "loopback-TCP session drifted from the channel path"
        );
        assert_eq!(
            tcp_run_as(wire::Encoding::Binary),
            want,
            "binary-codec TCP session drifted from the channel path"
        );
    }
    eprintln!(
        "# transport self-check passed: channel, in-memory and TCP sessions (both codecs) are bit-identical"
    );
    let mut frame_buf = Vec::new();
    let frame_bytes_avg = |encoding: wire::Encoding, frame_buf: &mut Vec<u8>| {
        transport_data
            .iter()
            .map(|s| {
                wire::encode_frame_into_as(frame_buf, s, encoding);
                frame_buf.len()
            })
            .sum::<usize>() as f64
            / transport_images as f64
    };
    let scene_frame_bytes_avg_json = frame_bytes_avg(wire::Encoding::Json, &mut frame_buf);
    let scene_frame_bytes_avg_binary = frame_bytes_avg(wire::Encoding::Binary, &mut frame_buf);
    let transport_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(channel_run());
            },
            &mut || {
                sink(memory_run());
            },
            &mut || {
                sink(tcp_run_as(wire::Encoding::Json));
            },
            &mut || {
                sink(tcp_run_as(wire::Encoding::Binary));
            },
        ],
    );
    let remote_session = TransportRow {
        frames: transport_images,
        scene_frame_bytes_avg_json,
        scene_frame_bytes_avg_binary,
        binary_over_json_bytes: scene_frame_bytes_avg_binary / scene_frame_bytes_avg_json,
        channel_fps: fps(transport_images, transport_times[0]),
        memory_transport_fps: fps(transport_images, transport_times[1]),
        tcp_loopback_fps: fps(transport_images, transport_times[2]),
        tcp_loopback_binary_fps: fps(transport_images, transport_times[3]),
        memory_over_channel: transport_times[0].as_secs_f64() / transport_times[1].as_secs_f64(),
        tcp_over_channel: transport_times[0].as_secs_f64() / transport_times[2].as_secs_f64(),
        tcp_binary_over_channel: transport_times[0].as_secs_f64()
            / transport_times[3].as_secs_f64(),
    };
    eprintln!("transport/remote_session: {remote_session:?}");

    // ---- Session multiplexing: a device fleet over one connection ----------
    // N cloud-only sessions, each with its own deterministic dataset, driven
    // three ways: the in-process channel path, one TCP connection per
    // session, and all sessions multiplexed over a single TCP connection
    // (binary codec, submits interleaved across sessions so their round
    // trips overlap). All three must produce bit-identical report vectors
    // before anything is timed.
    let mux_sessions = if quick { 3 } else { 4 };
    let mux_datasets: Vec<Dataset> = (0..mux_sessions)
        .map(|s| {
            Dataset::generate(
                "bench-mux",
                &DatasetProfile::helmet(),
                transport_images,
                29 + s as u64,
            )
        })
        .collect();
    let drive_data = |data: &Dataset, sess: &mut smallbig_core::EdgeSession<'_>| {
        for scene in data.iter() {
            let ticket = sess.submit(scene);
            sess.poll(ticket).expect("frame resolves");
        }
        sess.drain()
    };
    let serve_fleet = |listener: &mut dyn transport::Listener, expect: usize| {
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cfg = smallbig_core::CloudConfig::default();
        let big = transport_big();
        let opts = transport::ServeOptions {
            expect_sessions: Some(expect),
            ..transport::ServeOptions::default()
        };
        transport::serve(listener, &cfg, &big, &opts, &stop)
    };
    // One fresh server per session: the transport paths give every session
    // its own cloud worker (fresh sim clock), so the channel reference must
    // too — a shared server would carry queue state across sessions.
    let mux_channel_run = || {
        mux_datasets
            .iter()
            .enumerate()
            .map(|(s, data)| {
                let mut cloud = smallbig_core::CloudServer::spawn(
                    smallbig_core::CloudConfig::default(),
                    transport_big(),
                );
                let mut sess = cloud.connect_as(
                    s as u64,
                    transport_cfg(),
                    &transport_small,
                    Box::new(Policy::CloudOnly),
                );
                let report = drive_data(data, &mut sess);
                drop(sess);
                cloud.shutdown();
                report
            })
            .collect::<Vec<_>>()
    };
    let mux_per_connection_run = || {
        let mut listener = transport::TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = transport::Listener::local_addr(&listener);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_fleet(&mut listener, mux_sessions));
            let reports: Vec<_> = mux_datasets
                .iter()
                .enumerate()
                .map(|(s, data)| {
                    let remote = transport::RemoteCloud::connect_tcp_with(
                        &addr,
                        s as u64,
                        &simnet::RetryConfig::default(),
                        wire::Encoding::Binary,
                        false,
                    )
                    .expect("loopback handshake");
                    let mut sess = remote.attach(
                        transport_cfg(),
                        &transport_small,
                        Box::new(Policy::CloudOnly),
                    );
                    let report = drive_data(data, &mut sess);
                    drop(sess);
                    remote.close();
                    report
                })
                .collect();
            server.join().expect("serve thread");
            reports
        })
    };
    let mux_run = || {
        let mut listener = transport::TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = transport::Listener::local_addr(&listener);
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_fleet(&mut listener, mux_sessions));
            let remote = transport::RemoteCloud::connect_tcp_with(
                &addr,
                0,
                &simnet::RetryConfig::default(),
                wire::Encoding::Binary,
                true,
            )
            .expect("mux handshake");
            let mut sessions: Vec<_> = (0..mux_sessions as u64)
                .map(|s| {
                    remote.attach_as(
                        s,
                        transport_cfg(),
                        &transport_small,
                        Box::new(Policy::CloudOnly),
                    )
                })
                .collect();
            // One frame in flight per session, submits batched before the
            // polls — the deepest pipelining that stays bit-identical to
            // the sequential paths: a session's virtual clock models an
            // edge that waits for each answer, so per-session lockstep is
            // part of the simulated semantics, not a driver choice.
            for f in 0..transport_images {
                let tickets: Vec<_> = sessions
                    .iter_mut()
                    .zip(&mux_datasets)
                    .map(|(sess, data)| sess.submit(&data.scenes()[f]))
                    .collect();
                for (sess, ticket) in sessions.iter_mut().zip(tickets) {
                    sess.poll(ticket).expect("frame resolves over mux");
                }
            }
            let reports: Vec<_> = sessions.iter_mut().map(|s| s.drain()).collect();
            drop(sessions);
            remote.close();
            server.join().expect("serve thread");
            reports
        })
    };
    {
        let want = mux_channel_run();
        assert_eq!(
            mux_per_connection_run(),
            want,
            "per-connection TCP fleet drifted from the channel path"
        );
        assert_eq!(
            mux_run(),
            want,
            "multiplexed fleet drifted from the channel path"
        );
    }
    eprintln!(
        "# mux self-check passed: channel, per-connection and multiplexed fleets are bit-identical"
    );
    let mux_frames_total = mux_sessions * transport_images;
    let mux_times = best_of_each(
        repeats,
        &mut [
            &mut || {
                sink(mux_channel_run());
            },
            &mut || {
                sink(mux_per_connection_run());
            },
            &mut || {
                sink(mux_run());
            },
        ],
    );
    let mux_fleet = MuxRow {
        sessions: mux_sessions,
        frames_per_session: transport_images,
        channel_fps: fps(mux_frames_total, mux_times[0]),
        tcp_per_connection_fps: fps(mux_frames_total, mux_times[1]),
        tcp_mux_fps: fps(mux_frames_total, mux_times[2]),
        mux_over_channel: mux_times[0].as_secs_f64() / mux_times[2].as_secs_f64(),
        mux_over_per_connection: mux_times[1].as_secs_f64() / mux_times[2].as_secs_f64(),
    };
    eprintln!("transport/mux_fleet: {mux_fleet:?}");
    let transport_bench = TransportBench {
        remote_session,
        mux_fleet,
    };

    // ---- Fleet engine: population scale ------------------------------------
    // Conformance before speed: the event-driven virtual-time core must
    // reproduce the thread-per-session reference deployment bit for bit on
    // a heterogeneous population (traced links, all three policy
    // archetypes, mixed deadlines, admission control, sharded cloud) —
    // only then are its throughput numbers meaningful.
    let conformance_sessions = 1_000;
    {
        let spec = smallbig_core::fleet::FleetSpec::new(conformance_sessions);
        let (core_reports, core_stats) =
            smallbig_core::fleet::run_fleet_sessions(&spec).expect("healthy drive");
        let (ref_reports, ref_stats) = smallbig_core::fleet::run_fleet_reference(&spec);
        assert_eq!(
            core_reports, ref_reports,
            "fleet event core drifted from the thread-per-session reference"
        );
        assert_eq!(
            core_stats, ref_stats,
            "fleet event core cloud stats drifted from the reference"
        );
        assert_eq!(core_reports.len(), conformance_sessions);
    }
    eprintln!(
        "# fleet self-check passed: event core is bit-identical to the thread-per-session reference ({conformance_sessions} sessions)"
    );
    let fleet_scales: &[usize] = if quick {
        &[1_000]
    } else {
        &[10_000, 100_000, 1_000_000]
    };
    let fleet_rows: Vec<FleetRow> = fleet_scales
        .iter()
        .map(|&n| {
            let spec = smallbig_core::fleet::FleetSpec::new(n);
            // Small fleets get min-over-repeats like every other section;
            // the big ones are single-pass (a 10⁶-session run is minutes
            // of wall-clock — the smoke bar is that it completes in one
            // process, not nanosecond-stable timing).
            let passes = if n <= 10_000 { repeats.min(3) } else { 1 };
            let mut best = Duration::MAX;
            let mut report = None;
            for _ in 0..passes {
                let t = Instant::now();
                let r = smallbig_core::fleet::run_fleet(&spec).expect("healthy drive");
                best = best.min(t.elapsed());
                report = Some(r);
            }
            let r = report.expect("at least one pass");
            let miss_at_500ms = r
                .miss_curve
                .iter()
                .find(|p| (p.deadline_s - 0.5).abs() < 1e-9)
                .map(|p| p.miss_fraction)
                .unwrap_or(f64::NAN);
            let row = FleetRow {
                sessions: n,
                shards: spec.shards,
                frames: r.frames,
                upload_ratio: r.upload_ratio,
                wall_s: best.as_secs_f64(),
                sessions_per_sec: n as f64 / best.as_secs_f64(),
                frames_per_sec: r.frames as f64 / best.as_secs_f64(),
                bytes_per_session: r.uplink_bytes as f64 / n as f64,
                p50_ms: r.latency.p50_s * 1e3,
                p99_ms: r.latency.p99_s * 1e3,
                p999_ms: r.latency.p999_s * 1e3,
                miss_at_500ms,
                admission_fallbacks: r.admission_fallbacks,
            };
            eprintln!("fleet/scale[{n}]: {row:?}");
            row
        })
        .collect();
    // ---- Fleet engine: shard-parallel drive --------------------------------
    // Bit-identity before speed: the FleetReport must not change by a byte
    // across thread counts — only then is the fps column a pure wall-clock
    // comparison.
    let sweep_sessions = if quick { 2_000 } else { 100_000 };
    let sweep_threads = vec![1usize, 2, 4];
    let sweep_spec = |threads: usize| smallbig_core::fleet::FleetSpec {
        threads,
        ..smallbig_core::fleet::FleetSpec::new(sweep_sessions)
    };
    let baseline_report = smallbig_core::fleet::run_fleet(&sweep_spec(1)).expect("healthy drive");
    let mut sweep_walls = Vec::with_capacity(sweep_threads.len());
    let mut sweep_fps = Vec::with_capacity(sweep_threads.len());
    for &threads in &sweep_threads {
        let spec = sweep_spec(threads);
        let passes = if sweep_sessions <= 10_000 {
            repeats.min(3)
        } else {
            1
        };
        let mut best = Duration::MAX;
        for _ in 0..passes {
            let t = Instant::now();
            let r = smallbig_core::fleet::run_fleet(&spec).expect("healthy drive");
            best = best.min(t.elapsed());
            assert_eq!(
                r, baseline_report,
                "parallel drive drifted from the single-thread report on {threads} thread(s)"
            );
        }
        sweep_walls.push(best.as_secs_f64());
        sweep_fps.push(baseline_report.frames as f64 / best.as_secs_f64());
    }
    eprintln!(
        "# fleet thread-sweep self-check passed: FleetReport bit-identical on {sweep_threads:?} thread(s)"
    );
    let threads_sweep = FleetThreadsRow {
        sessions: sweep_sessions,
        shards: sweep_spec(1).shards,
        speedup_vs_single: sweep_walls.iter().map(|&w| sweep_walls[0] / w).collect(),
        threads: sweep_threads,
        fps: sweep_fps,
    };
    eprintln!("fleet/threads_sweep: {threads_sweep:?}");

    // ---- Fleet engine: compact-metrics memory ------------------------------
    // Each (scale, mode) pair runs in its own subprocess so VmHWM — a
    // process-lifetime high-water mark — measures exactly one fleet.
    let rss_scales: &[usize] = if quick { &[50_000] } else { &[1_000_000] };
    let rss_rows: Vec<FleetRssRow> = rss_scales
        .iter()
        .map(|&n| {
            let (frames_full, full_kb, full_wall) = fleet_rss_probe(n, "full");
            let (frames_compact, compact_kb, compact_wall) = fleet_rss_probe(n, "compact");
            assert_eq!(
                frames_full, frames_compact,
                "metrics mode must not change the frame count"
            );
            let row = FleetRssRow {
                sessions: n,
                frames: frames_full,
                full_peak_rss_mb: full_kb as f64 / 1024.0,
                compact_peak_rss_mb: compact_kb as f64 / 1024.0,
                reduction_x: full_kb as f64 / compact_kb as f64,
                full_wall_s: full_wall,
                compact_wall_s: compact_wall,
            };
            eprintln!("fleet/rss[{n}]: {row:?}");
            row
        })
        .collect();

    let fleet_bench = FleetBench {
        conformance_sessions,
        scale: fleet_rows,
        threads_sweep,
        rss: rss_rows,
    };

    let report = Report {
        pr: 9,
        title:
            "Shard-parallel fleet drive and compact metrics accumulator for million-session runs"
                .to_string(),
        command: "cargo run --release -p bench --bin throughput -- --json-out BENCH_PR9.json"
            .to_string(),
        quick,
        host_parallelism,
        kernels: Kernels {
            nms_200_boxes: nms_row,
            soft_nms_200_boxes: soft_row,
            match_greedy_40x10: match_row,
            map_accumulate_per_image: map_row,
            count_detected_per_image: count_row,
            detect_per_image: detect_row,
        },
        serializer: Serializer {
            encode_frame: encode_row,
        },
        scheduler,
        harness,
        sessions,
        transport: transport_bench,
        fleet: fleet_bench,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    // The default path nests under target/, which may not exist relative to
    // the cwd (e.g. when the binary runs outside the workspace root) — a
    // missing parent must not discard a minute of measurements.
    if let Some(parent) = std::path::Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create bench report directory");
        }
    }
    std::fs::write(&out_path, json + "\n").expect("write bench report");
    eprintln!("# wrote {out_path}");
}
