//! `paper_tables`: the paper's batch protocol over all five splits at
//! their published sizes and four small/big model pairs.
//!
//! The researcher's workload: calibrate on the training set, detect the
//! test set once, evaluate it under three policies. `core::calibrate`,
//! `detcore`, `modelzoo` and the `core::par` fan-out do all the work; no
//! session, wire or render code runs in the timed part.

use std::time::Instant;

use smallbig::core::{
    calibrate, detect_all, evaluate_detections, DifficultCaseDiscriminator, EvalConfig,
    EvalOutcome, Policy,
};
use smallbig::datagen::{Dataset, DatasetProfile, SplitId};
use smallbig::modelzoo::{ModelKind, SimDetector};

use crate::deploy;
use crate::harness::{self, Ctx, Ops, Outcome, Rep, Sim, Stopwatch, SETUPS};
use crate::layers::{self, Layers, Replay, Step};
use crate::procfs;
use crate::spans::Tracer;

/// The four small/big pairs of the paper's tables.
pub const PAIRS: [(ModelKind, ModelKind); 4] = [
    (ModelKind::VggLiteSsd, ModelKind::SsdVgg16),
    (ModelKind::MobileNetV1Ssd, ModelKind::SsdVgg16),
    (ModelKind::MobileNetV2Ssd, ModelKind::SsdVgg16),
    (ModelKind::YoloMobileNetV1, ModelKind::YoloV4),
];

/// One split's data, regenerated from the benchmark seed.
pub struct SplitData {
    pub id: SplitId,
    pub train: Dataset,
    pub test: Dataset,
}

/// Generates the five splits at `scale` of their published sizes (the
/// component sizes and how they compose are `datagen::Split`'s; only the
/// seeds differ, so every benchmark seed sees fresh scenes).
pub fn splits(seed: u64, scale: f64) -> Vec<SplitData> {
    let (voc, coco, helmet) = (
        DatasetProfile::voc(),
        DatasetProfile::coco18(),
        DatasetProfile::helmet(),
    );
    let mut component = 0u64;
    let mut generate = |name: &str, profile: &DatasetProfile, published: usize| {
        component += 1;
        let n = ((published as f64 * scale).round() as usize).max(30);
        let seed = seed ^ component.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Dataset::generate(name, profile, n, seed)
    };
    let voc07_trainval = generate("voc07-trainval", &voc, 5011);
    let voc07_test = generate("voc07-test", &voc, 4952);
    let voc12_trainval = generate("voc12-trainval", &voc, 11540);
    let voc12pp_train = generate("voc12pp-train", &voc, 6588);
    let voc12pp_test = generate("voc12-test", &voc, 4952);
    vec![
        SplitData {
            id: SplitId::Voc07,
            train: voc07_trainval.clone(),
            test: voc07_test.clone(),
        },
        SplitData {
            id: SplitId::Voc0712,
            train: voc07_trainval.concat(&voc12_trainval, "voc0712-trainval"),
            test: voc07_test.clone(),
        },
        SplitData {
            id: SplitId::Voc0712pp,
            train: voc07_trainval
                .concat(&voc07_test, "voc07-all")
                .concat(&voc12pp_train, "voc0712pp-train"),
            test: voc12pp_test,
        },
        SplitData {
            id: SplitId::Coco18,
            train: generate("coco18-train", &coco, 93353),
            test: generate("coco18-test", &coco, 4914),
        },
        SplitData {
            id: SplitId::Helmet,
            train: generate("helmet-train", &helmet, 2500),
            test: generate("helmet-test", &helmet, 480),
        },
    ]
}

/// The outcomes of one split × pair cell under our policy, cloud-only and
/// edge-only.
pub type Cell = [EvalOutcome; 3];

/// Runs one cell: calibrate → detect → evaluate ×3. Returns the outcomes
/// and the wall of each stage in seconds.
pub fn cell(
    split: &SplitData,
    pair: (ModelKind, ModelKind),
    tracer: &Tracer,
    parent: Option<u32>,
    cell_id: u64,
) -> (Cell, [f64; 3]) {
    let classes = split.test.taxonomy().len();
    let small = SimDetector::new(pair.0, split.id, classes);
    let big = SimDetector::new(pair.1, split.id, classes);
    let id = Some(cell_id);
    let t0 = Instant::now();
    let (calibration, _) = tracer.span("core.calibrate", parent, id, || {
        calibrate(&split.train, &small, &big)
    });
    let t1 = Instant::now();
    let detections = tracer.span("core.pipeline.detect_all", parent, id, || {
        detect_all(&split.test, &small, &big)
    });
    let t2 = Instant::now();
    let ours = Policy::DifficultCase(DifficultCaseDiscriminator::new(calibration.thresholds));
    let outcomes = tracer.span("core.pipeline.evaluate", parent, id, || {
        [ours, Policy::CloudOnly, Policy::EdgeOnly]
            .map(|p| evaluate_detections(&split.test, &detections, &p, &EvalConfig::default()))
    });
    let t3 = Instant::now();
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (outcomes, [s(t0, t1), s(t1, t2), s(t2, t3)])
}

/// One pass over every cell. Returns the outcomes (split-major), the timed
/// repetition and the summed stage walls.
pub fn pass(data: &[SplitData], tracer: &Tracer) -> Result<(Vec<Cell>, Rep, [f64; 3]), String> {
    let images: usize = data.iter().map(|s| s.train.len() + s.test.len()).sum();
    let root = tracer.begin("pass", None, None);
    let watch = Stopwatch::start(None)?;
    let mut cells = Vec::new();
    let mut stages = [0.0; 3];
    for split in data {
        for pair in PAIRS {
            let (outcomes, walls) = cell(split, pair, tracer, root, cells.len() as u64);
            cells.push(outcomes);
            for (total, wall) in stages.iter_mut().zip(walls) {
                *total += wall;
            }
        }
    }
    let rep = watch.stop(Instant::now(), (images * PAIRS.len()) as u64, Vec::new())?;
    tracer.end(root);
    Ok((cells, rep, stages))
}

fn simulated(seed: u64, data: &[SplitData], cells: &[Cell]) -> Result<Sim, String> {
    let ours = || cells.iter().map(|c| &c[0]);
    let mean = |f: &dyn Fn(&EvalOutcome) -> f64| ours().map(f).sum::<f64>() / cells.len() as f64;
    let total = |f: &dyn Fn(&EvalOutcome) -> usize| ours().map(f).sum::<usize>() as f64;
    let helmet = data.last().expect("helmet is the last split");
    let (latency_p50_ms, latency_p99_ms, fallback_ratio) =
        deploy::table_xi(seed, helmet.test.scenes())?;
    Ok(Sim {
        upload_ratio: mean(&|o| o.upload_ratio),
        detected_ratio: total(&|o| o.e2e_detected) / total(&|o| o.total_gt),
        e2e_map_pct: mean(&|o| o.e2e_map_pct),
        map_vs_big_pct: mean(&|o| o.e2e_map_vs_big_pct()),
        detected_vs_big_pct: mean(&|o| o.e2e_detected_vs_big_pct()),
        latency_p50_ms,
        latency_p99_ms,
        fallback_ratio,
    })
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut setups_s = Vec::new();
    let mut data = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        data = splits(ctx.seed, 1.0);
        // Warm-up: the smallest split through every pair.
        let helmet = &data[data.len() - 1..];
        let (_, warm, _) = pass(helmet, &Tracer::off())?;
        ops.ok(warm.frames);
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    println!("set-ups: {setups_s:.3?} s");

    let mut passes = Vec::new();
    let reps = harness::measure(ctx.seconds, |_| {
        let (cells, rep, _) = pass(&data, &Tracer::off())?;
        ops.ok(rep.frames);
        passes.push(cells);
        Ok(rep)
    })?;
    let peak_rss_mb = procfs::peak_rss_mb(std::process::id())?;

    ops.check(
        "every pass produces identical outcomes",
        passes.iter().all(|p| p == &passes[0]),
    );
    ops.check(
        "cloud-only uploads everything at the big model's mAP; edge-only uploads nothing",
        passes[0].iter().all(|[_, cloud, edge]| {
            cloud.upload_ratio == 1.0
                && cloud.e2e_map_pct == cloud.big_map_pct
                && edge.upload_ratio == 0.0
                && edge.e2e_map_pct == edge.small_map_pct
        }),
    );
    ops.check(
        "every cell evaluated its whole test set",
        passes[0]
            .iter()
            .zip(data.iter().flat_map(|s| [s; PAIRS.len()]))
            .all(|(cell, split)| cell.iter().all(|o| o.num_images == split.test.len())),
    );
    let sim = simulated(ctx.seed, &data, &passes[0])?;
    Ok(Outcome {
        e2e: harness::end_to_end(setups_s, &reps, peak_rss_mb, &sim),
        layers: Layers::new(),
        ops,
    })
}

/// What the traced run of the batch protocol measured.
pub struct Probe {
    /// `core.calibrate.*`, `core.pipeline.*` and `core.par.speedup`.
    pub layers: Layers,
    /// Traced pass wall ÷ untraced pass wall.
    pub overhead_ratio: f64,
}

/// The traced run at `scale` of the published sizes: one untraced pass,
/// one traced pass (a span per stage per cell), one single-worker pass,
/// and the per-image budget.
pub fn probe(
    seed: u64,
    scale: f64,
    replay: &Replay,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<Probe, String> {
    let data = splits(seed, scale);
    let (cells, plain, stages) = pass(&data, &Tracer::off())?;
    let (traced_cells, traced, _) = pass(&data, tracer)?;
    // `core::par` reads its worker override on every fan-out; nothing else
    // in this process is running while it is set.
    std::env::set_var("SMALLBIG_HARNESS_WORKERS", "1");
    let single = pass(&data, &Tracer::off());
    std::env::remove_var("SMALLBIG_HARNESS_WORKERS");
    let (single_cells, single, _) = single?;
    ops.ok(plain.frames * 3);
    ops.check(
        "outcomes are identical traced, untraced and on a single worker",
        cells == traced_cells && cells == single_cells,
    );

    let per_cell_ms = |wall_s: f64| wall_s * 1e3 / cells.len() as f64;
    let mut layers = Layers::new();
    layers.insert("core.calibrate.ms_per_cell", per_cell_ms(stages[0]));
    layers.insert("core.calibrate.share_of_pass", stages[0] / plain.wall_s);
    layers.insert("core.pipeline.detect_all_ms", per_cell_ms(stages[1]));
    layers.insert("core.pipeline.evaluate_ms", per_cell_ms(stages[2]));
    layers.insert("core.par.speedup", single.wall_s / plain.wall_s);

    // The per-image budget: the stages as measured, then what the replay
    // says their kernels cost per image (test images are a share of all).
    let image_ns = plain.wall_s * 1e9 / plain.frames as f64;
    let images = plain.frames as f64;
    let test_share =
        data.iter().map(|s| s.test.len()).sum::<usize>() as f64 * PAIRS.len() as f64 / images;
    let measured = |stage: usize| stages[stage] * 1e9 / images;
    // The replayed kernels run inside the measured stages: listed, not
    // subtracted again.
    let row = |layer, step, metric, per_frame| {
        Step::new(layer, step, replay.cost_ns(metric), per_frame).on_path(false)
    };
    let scored = 6.0 * test_share; // two models × three policies per test image
    layers::budget(
        "the batch protocol (per image)",
        image_ns,
        &[
            Step::new("core.calibrate", "calibrate (measured)", measured(0), 1.0),
            Step::new("core.pipeline", "detect_all (measured)", measured(1), 1.0),
            Step::new("core.pipeline", "evaluate x3 (measured)", measured(2), 1.0),
            row(
                "modelzoo",
                "detect (small)",
                "modelzoo.detect_small_ns",
                1.0,
            ),
            row("modelzoo", "detect (big)", "modelzoo.detect_big_ns", 1.0),
            row(
                "detcore",
                "mAP add image",
                "detcore.map_add_image_ns",
                scored,
            ),
            row("detcore", "count detected", "detcore.count_ns", scored),
            row("core.policy", "decide", "core.policy.decide_ns", test_share),
        ],
    );
    Ok(Probe {
        layers,
        overhead_ratio: traced.wall_s / plain.wall_s,
    })
}
