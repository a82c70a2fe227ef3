//! Layer replay: each layer's public function, timed in isolation on the
//! workload's own scenes, and the per-frame budget table built from it.
//!
//! Nothing inside the program is instrumented, so a frame's wall cannot be
//! split by looking inside it. Instead every layer a frame crosses is
//! replayed from outside — detect, decide, render, encoded size, wire
//! encode/decode in both codecs, `FrameReader`, scheduler push/take, link
//! sampling — and its replayed cost is multiplied by how often the
//! workload takes that step. What the replay does not explain (hand-offs,
//! syscalls, the process boundary, the event queue) is the residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smallbig::core::wire::{decode_frame_as, encode_frame_into_as, Encoding, FrameReader};
use smallbig::core::{
    DeadlineAware, DifficultCaseDiscriminator, FifoBatcher, OffloadPolicy, PolicyInput,
    QueuedFrame, Scheduler,
};
use smallbig::datagen::{DatasetProfile, Scene};
use smallbig::detcore::{
    count_detected_with, match_greedy_into, nms_into, ApProtocol, CountScratch, CountingConfig,
    GroundTruth, ImageDetections, ImageMatch, MapEvaluator, MatchScratch, NmsConfig, NmsScratch,
};
use smallbig::imaging::{encoded_size_bytes, render};
use smallbig::modelzoo::{Detector, SimDetector};
use smallbig::simnet::{LinkModel, LinkTrace};

/// Per-layer metrics by name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Mean nanoseconds per call of `f` over `calls` calls, best of three
/// batches (the minimum is the batch least disturbed by the host).
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for i in 0..calls {
            f(i);
        }
        best = best.min(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    best
}

/// What the replay measured, beyond the exported metrics: costs the
/// budget table needs that no named metric carries.
pub struct Replay {
    /// The exported per-layer metrics of the pure layers.
    pub layers: Layers,
    /// JSON encode + decode of one answer (`ImageDetections`), ns.
    pub answer_codec_ns: f64,
}

impl Replay {
    /// A replayed cost in nanoseconds, by the name of its `_ns` or `_us`
    /// metric.
    pub fn cost_ns(&self, metric: &str) -> f64 {
        let scale = if metric.ends_with("_us") { 1e3 } else { 1.0 };
        self.layers[metric] * scale
    }
}

/// Runs [`replay`] on `threads` threads at once — as many as drive the
/// workload — and averages what they measured. A kernel costs more when
/// its neighbours are busy (the two vCPUs this was sized on are at times
/// siblings of one core, where a render takes half as long again), and a
/// frame's wall is only comparable to costs replayed under the same load.
#[allow(clippy::too_many_arguments)]
pub fn replay_on(
    threads: usize,
    scenes: &[Scene],
    rendered: &[Scene],
    frame_px: usize,
    small: &SimDetector,
    big: &SimDetector,
    profile: &DatasetProfile,
    seed: u64,
) -> Replay {
    let replays: Vec<Replay> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| scope.spawn(|| replay(scenes, rendered, frame_px, small, big, profile, seed)))
            .collect();
        let joined = handles.into_iter().map(|h| h.join());
        joined
            .map(|r| r.expect("a replay thread panicked"))
            .collect()
    });
    let n = replays.len() as f64;
    let mean = |f: &dyn Fn(&Replay) -> f64| replays.iter().map(f).sum::<f64>() / n;
    Replay {
        layers: replays[0]
            .layers
            .keys()
            .map(|&name| (name, mean(&|r| r.layers[name])))
            .collect(),
        answer_codec_ns: mean(&|r| r.answer_codec_ns),
    }
}

/// Replays the pure layers over `scenes`; `profile` is the one they were
/// drawn from. `rendered` are the scenes the workload renders (the ones it
/// uploads — what a render costs follows the objects in the scene), at
/// `frame_px` square.
fn replay(
    scenes: &[Scene],
    rendered: &[Scene],
    frame_px: usize,
    small: &SimDetector,
    big: &SimDetector,
    profile: &DatasetProfile,
    seed: u64,
) -> Replay {
    let n = scenes.len();
    let num_classes = profile.taxonomy.len();
    let mut layers = Layers::new();
    let scene = |i: usize| &scenes[i % n];

    // datagen
    layers.insert(
        "datagen.scene_gen_ns",
        ns_per_call(20_000, |i| {
            black_box(Scene::sample(profile, seed, i as u64));
        }),
    );

    // imaging: a few dozen frames are enough at 300×300 (≈8 ms each).
    let renders = (4_000_000 / (frame_px * frame_px)).clamp(24, 2_000);
    let specs: Vec<_> = (0..renders)
        .map(|i| rendered[i % rendered.len()].render_spec(frame_px, frame_px))
        .collect();
    let render_ns = ns_per_call(renders, |i| {
        black_box(render(&specs[i]));
    });
    let images: Vec<_> = specs.iter().map(render).collect();
    let size_ns = ns_per_call(renders, |i| {
        black_box(encoded_size_bytes(&images[i]));
    });
    let bytes: usize = images.iter().map(encoded_size_bytes).sum();
    layers.insert("imaging.render_us", render_ns / 1e3);
    layers.insert("imaging.encoded_size_us", size_ns / 1e3);
    layers.insert("imaging.frame_kb", bytes as f64 / renders as f64 / 1e3);

    // modelzoo
    let mut out = ImageDetections::new();
    layers.insert(
        "modelzoo.detect_small_ns",
        ns_per_call(50_000, |i| small.detect_into(black_box(scene(i)), &mut out)),
    );
    layers.insert(
        "modelzoo.detect_big_ns",
        ns_per_call(50_000, |i| big.detect_into(black_box(scene(i)), &mut out)),
    );
    let small_dets: Vec<ImageDetections> = scenes.iter().map(|s| small.detect(s)).collect();
    let big_dets: Vec<ImageDetections> = scenes.iter().map(|s| big.detect(s)).collect();
    let gts: Vec<Vec<GroundTruth>> = scenes.iter().map(Scene::ground_truths).collect();
    let total_dets: usize = small_dets.iter().map(ImageDetections::len).sum();
    layers.insert("modelzoo.dets_per_image", total_dets as f64 / n as f64);

    // detcore
    let (mut nms_scratch, mut kept) = (NmsScratch::new(), ImageDetections::new());
    layers.insert(
        "detcore.nms_ns",
        ns_per_call(50_000, |i| {
            nms_into(
                &big_dets[i % n],
                &NmsConfig::default(),
                &mut nms_scratch,
                &mut kept,
            );
            black_box(kept.len());
        }),
    );
    let (mut match_scratch, mut matched) = (MatchScratch::new(), ImageMatch::default());
    layers.insert(
        "detcore.match_ns",
        ns_per_call(50_000, |i| {
            let dets = big_dets[i % n].as_slice();
            match_greedy_into(dets, &gts[i % n], 0.5, &mut match_scratch, &mut matched);
            black_box(&matched);
        }),
    );
    let mut count_scratch = CountScratch::new();
    layers.insert(
        "detcore.count_ns",
        ns_per_call(50_000, |i| {
            black_box(count_detected_with(
                &big_dets[i % n],
                &gts[i % n],
                &CountingConfig::default(),
                &mut count_scratch,
            ));
        }),
    );
    let mut evaluator = MapEvaluator::new(num_classes, ApProtocol::Voc07ElevenPoint);
    layers.insert(
        "detcore.map_add_image_ns",
        ns_per_call(20_000, |i| {
            evaluator.add_image(&big_dets[i % n], &gts[i % n])
        }),
    );
    // 60 000 images accumulated above: a published test set's worth.
    layers.insert(
        "detcore.map_finalize_ms",
        ns_per_call(3, |_| {
            black_box(evaluator.evaluate());
        }) / 1e6,
    );

    // core.policy
    let mut policy = DifficultCaseDiscriminator::default();
    let input = |i: usize| PolicyInput {
        scene: scene(i),
        small_dets: &small_dets[i % n],
        label: None,
        num_classes,
        link: None,
        cloud_queue: None,
    };
    let uploads = (0..n)
        .filter(|&i| policy.decide(&input(i)).is_upload())
        .count();
    layers.insert("core.policy.upload_share", uploads as f64 / n as f64);
    layers.insert(
        "core.policy.decide_ns",
        ns_per_call(200_000, |i| {
            black_box(policy.decide(&input(i)));
        }),
    );

    // core.wire: the uplink message is the scene; answers are detections.
    let mut buf = Vec::new();
    for (encoding, encode, decode, size) in [
        (
            Encoding::Json,
            "core.wire.encode_ns.json",
            "core.wire.decode_ns.json",
            "core.wire.frame_bytes.json",
        ),
        (
            Encoding::Binary,
            "core.wire.encode_ns.binary",
            "core.wire.decode_ns.binary",
            "core.wire.frame_bytes.binary",
        ),
    ] {
        let frames: Vec<Bytes> = scenes
            .iter()
            .map(|s| {
                encode_frame_into_as(&mut buf, s, encoding);
                Bytes::copy_from_slice(&buf)
            })
            .collect();
        layers.insert(
            encode,
            ns_per_call(20_000, |i| {
                encode_frame_into_as(&mut buf, scene(i), encoding);
                black_box(buf.len());
            }),
        );
        layers.insert(
            decode,
            ns_per_call(20_000, |i| {
                let decoded: Scene = decode_frame_as(&frames[i % n], encoding).expect("own frame");
                black_box(decoded);
            }),
        );
        let total: usize = frames.iter().map(Bytes::len).sum();
        layers.insert(size, total as f64 / n as f64);
    }
    let stream: Vec<u8> = scenes
        .iter()
        .flat_map(|s| {
            encode_frame_into_as(&mut buf, s, Encoding::Json);
            buf.clone()
        })
        .collect();
    let mut reader = FrameReader::new();
    layers.insert(
        "core.wire.reader_ns",
        ns_per_call(8, |_| {
            for chunk in stream.chunks(1024) {
                reader.feed(chunk);
                while let Some(frame) = reader.next_frame().expect("own stream") {
                    black_box(frame);
                }
            }
        }) / n as f64,
    );
    let answers: Vec<Bytes> = big_dets
        .iter()
        .map(|d| {
            encode_frame_into_as(&mut buf, d, Encoding::Json);
            Bytes::copy_from_slice(&buf)
        })
        .collect();
    let answer_codec_ns = ns_per_call(20_000, |i| {
        encode_frame_into_as(&mut buf, &big_dets[i % n], Encoding::Json);
        let decoded: ImageDetections =
            decode_frame_as(&answers[i % n], Encoding::Json).expect("own frame");
        black_box(decoded);
    });

    // core.scheduler: push + take_batch per frame at max_batch 1.
    let queued: Vec<QueuedFrame> = (0..256)
        .map(|i| {
            QueuedFrame::synthetic(i % 8, i, i as f64 * 1e-3, 0.5, Some(i as f64 * 1e-3 + 0.5))
        })
        .collect();
    let mut batch = Vec::new();
    let mut time_scheduler = |scheduler: &mut dyn Scheduler| {
        ns_per_call(200_000, |i| {
            scheduler.push(queued[i % queued.len()].clone());
            scheduler.take_batch(1, &mut batch);
            black_box(batch.len());
        })
    };
    layers.insert(
        "core.scheduler.fifo_ns",
        time_scheduler(&mut FifoBatcher::new()),
    );
    layers.insert(
        "core.scheduler.deadline_ns",
        time_scheduler(&mut DeadlineAware::new(8)),
    );

    // simnet
    let frame_bytes = bytes / renders;
    let (wlan, cellular) = (LinkModel::wlan(), LinkModel::cellular());
    let trace = LinkTrace::diurnal_ramp(30.0, 0.4, 12, 8);
    let mut rng = StdRng::seed_from_u64(seed);
    layers.insert(
        "simnet.transfer_ns",
        ns_per_call(200_000, |_| {
            black_box(wlan.transfer_time(frame_bytes, &mut rng));
        }),
    );
    layers.insert(
        "simnet.trace_state_ns",
        ns_per_call(200_000, |i| {
            black_box(trace.state_of(&cellular, (i % 240) as f64));
        }),
    );
    layers.insert(
        "simnet.attempt_ns",
        ns_per_call(200_000, |i| {
            black_box(trace.attempt_at(&cellular, frame_bytes, (i % 240) as f64, &mut rng));
        }),
    );

    Replay {
        layers,
        answer_codec_ns,
    }
}

/// One row of a budget table: a step a frame takes, what one execution
/// costs, and how many times per frame the workload executes it.
pub struct Step {
    pub layer: &'static str,
    pub step: &'static str,
    pub cost_ns: f64,
    pub per_frame: f64,
    /// Whether the step runs on the driving thread's critical path. Steps
    /// that overlap with it (cloud-side work behind a pipelined
    /// connection) are listed but not subtracted from the frame.
    pub on_path: bool,
}

impl Step {
    /// A step on the driving thread's path.
    pub fn new(layer: &'static str, step: &'static str, cost_ns: f64, per_frame: f64) -> Step {
        Step {
            layer,
            step,
            cost_ns,
            per_frame,
            on_path: true,
        }
    }

    /// Marks whether the step is on the driving thread's path.
    pub fn on_path(self, on_path: bool) -> Step {
        Step { on_path, ..self }
    }
}

/// A printed budget: what is left of the frame after the on-path steps,
/// and the share of the frame each layer's steps add up to.
pub struct Budget {
    pub residual_ns: f64,
    pub share: BTreeMap<&'static str, f64>,
}

/// Prints the per-frame budget table of `workload` and returns its sums.
/// `frame_ns` is the driving threads' time per frame.
pub fn budget(workload: &str, frame_ns: f64, steps: &[Step]) -> Budget {
    println!("\nper-frame budget of {workload}: {frame_ns:.0} ns of driver time per frame");
    println!(
        "  {:<16} {:<28} {:>12} {:>10} {:>12} {:>7}",
        "layer", "step", "cost ns", "per frame", "ns/frame", "share"
    );
    let mut share: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut explained = 0.0;
    for s in steps {
        let ns = s.cost_ns * s.per_frame;
        *share.entry(s.layer).or_default() += ns / frame_ns;
        if s.on_path {
            explained += ns;
        }
        println!(
            "  {:<16} {:<28} {:>12.0} {:>10.4} {:>12.0} {:>6.1}%{}",
            s.layer,
            s.step,
            s.cost_ns,
            s.per_frame,
            ns,
            ns / frame_ns * 100.0,
            if s.on_path { "" } else { "  (overlapped)" }
        );
    }
    let residual_ns = frame_ns - explained;
    println!(
        "  {:<16} {:<28} {:>12} {:>10} {:>12.0} {:>6.1}%",
        "residual",
        "hand-offs, syscalls, queues",
        "",
        "",
        residual_ns,
        residual_ns / frame_ns * 100.0
    );
    for (layer, s) in &share {
        println!("  layer {layer:<16} {:>6.1}% of the frame", s * 100.0);
    }
    Budget { residual_ns, share }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_sums_shares_and_leaves_the_residual() {
        let steps = [
            Step::new("imaging", "render", 600.0, 0.5),
            Step::new("imaging", "encoded size", 200.0, 0.5),
            Step::new("modelzoo", "detect big", 100.0, 1.0).on_path(false),
        ];
        let b = budget("test", 1000.0, &steps);
        assert_eq!(b.residual_ns, 600.0);
        assert_eq!(b.share["imaging"], 0.4);
        assert_eq!(b.share["modelzoo"], 0.1);
    }

    #[test]
    fn best_batch_is_positive_and_counts_calls() {
        let mut calls = 0;
        let ns = ns_per_call(10, |_| calls += 1);
        assert_eq!(calls, 30);
        assert!(ns >= 0.0);
    }
}
