//! `fleet_100k`: 100 000 heterogeneous sessions (800 000 frames) through
//! the virtual-time event core in this process.
//!
//! The same edge and cloud state machines as the deployments, hosted
//! inline: no thread per session, no socket, and an upload-size memo that
//! turns rendering into a hash lookup — event queue, scheduler, metrics
//! accumulator and `simnet` do the work. Arrivals are open-loop (diurnal,
//! in virtual time), so overload shows as queueing, deadline misses and
//! admission refusals in the simulated statistics.

use std::time::Instant;

use smallbig::core::fleet::{
    run_fleet, run_fleet_sessions, run_fleet_with, DeadlineChoice, FleetPolicy, FleetReport,
    FleetSpec, LinkChoice, MetricsMode, PolicyChoice, Population,
};
use smallbig::core::{SessionReport, UpdateConfig};
use smallbig::simnet::LinkModel;

use crate::harness::{self, Ctx, Ops, Outcome, Rep, Sim, Stopwatch, SETUPS};
use crate::layers::{self, Layers, Replay, Step};
use crate::procfs;
use crate::spans::Tracer;

/// Sessions in the measured fleet.
pub const SESSIONS: usize = 100_000;
/// Distinct scenes the measured fleet cycles through.
pub const SCENE_POOL: usize = 256;
/// Sessions in the warm-up fleet of a set-up.
const WARMUP_SESSIONS: usize = 4_000;
/// Sessions in the slice whose per-session reports supply the mAP figures
/// (the aggregate path keeps no mAP state).
const SLICE_SESSIONS: usize = 2_000;

/// `FleetSpec::new`'s default population on all cores, with two changes
/// that keep the simulated statistics steady from seed to seed:
///
/// * three times the default cloud shards. At the default the fleet sits
///   on the admission knee, where `sim_fallback_ratio` swings by ±40 %
///   with the seed and fewer than half the frames upload, which pins
///   `sim_latency_p50_ms` to the constant local inference time. At three
///   times, the median frame is an upload and the fallbacks that remain
///   are deadline misses from link jitter;
/// * a 256-scene pool instead of 32. What a frame costs the host follows
///   the pool's make-up (objects per scene set the size of every answer,
///   the share of difficult scenes sets `upload_ratio`): with 32 scenes
///   both swing ±15 % between seeds, with 128 the frame rate still
///   spreads by 19 %, with 256 by about 10 % — the host's own noise. The
///   working set stays far below the upload-size memo: all but 256 of the
///   ~520 000 uploads are hits (cold renders are under 3 % of a frame).
pub fn spec(seed: u64, sessions: usize) -> FleetSpec {
    let default = FleetSpec::new(sessions);
    FleetSpec {
        seed,
        threads: 0,
        shards: default.shards * 3,
        scene_pool: SCENE_POOL,
        ..default
    }
}

/// One `run_fleet` call, timed.
pub fn rep(spec: &FleetSpec) -> Result<(FleetReport, Rep), String> {
    let watch = Stopwatch::start(None)?;
    let report = run_fleet(spec).map_err(|e| e.to_string())?;
    let rep = watch.stop(Instant::now(), report.frames, Vec::new())?;
    Ok((report, rep))
}

/// The same population with every frame served by the big model alone:
/// cloud-only policies, no deadlines, no admission limit, a static link.
/// Each draw of the population still consumes one random number, so the
/// sessions, their arrival times and their scenes are unchanged.
fn big_alone(spec: &FleetSpec) -> FleetSpec {
    let mut big = spec.clone();
    big.policy_mix = vec![PolicyChoice {
        weight: 1.0,
        policy: FleetPolicy::CloudOnly,
    }];
    big.deadline_mix = vec![DeadlineChoice {
        weight: 1.0,
        deadline_s: None,
    }];
    big.link_mix = vec![LinkChoice {
        weight: 1.0,
        link: LinkModel::wlan(),
        trace: None,
    }];
    big.cloud.queue_limit = None;
    big
}

/// Checks that a report's counters agree with each other.
fn accounting_closes(spec: &FleetSpec, r: &FleetReport) -> bool {
    let fallbacks = r.link_fallbacks + r.admission_fallbacks;
    let local = r.frames - r.uploads - fallbacks;
    let served = r.uploads - r.deadline_misses;
    let cloud_served: usize = r.cloud.iter().map(|c| c.served).sum();
    r.sessions == spec.sessions
        && r.frames == spec.sessions as u64 * u64::from(spec.frames_per_session)
        && r.tenants.iter().map(|t| t.frames).sum::<u64>() == r.frames
        && r.tenants.iter().map(|t| t.uploads).sum::<u64>() == r.uploads
        && cloud_served as u64 == r.uploads
        && served + local + r.deadline_misses + fallbacks == r.frames
}

/// The simulated statistics: latency, fallbacks and counts from the
/// measured fleet's report, mAP from per-session reports of a slice.
fn simulated(seed: u64, report: &FleetReport) -> Result<Sim, String> {
    let slice = spec(seed, SLICE_SESSIONS);
    let (ours, _) = run_fleet_sessions(&slice).map_err(|e| e.to_string())?;
    let (big, _) = run_fleet_sessions(&big_alone(&slice)).map_err(|e| e.to_string())?;
    let mean_map = |s: &[SessionReport]| s.iter().map(|r| r.map_pct).sum::<f64>() / s.len() as f64;
    let detected = |s: &[SessionReport]| s.iter().map(|r| r.detected).sum::<usize>() as f64;
    let sum = |f: &dyn Fn(&smallbig::core::fleet::TenantReport) -> u64| {
        report.tenants.iter().map(f).sum::<u64>() as f64
    };
    let fallbacks = report.deadline_misses + report.link_fallbacks + report.admission_fallbacks;
    Ok(Sim {
        upload_ratio: report.upload_ratio,
        detected_ratio: sum(&|t| t.detected) / sum(&|t| t.total_gt),
        e2e_map_pct: mean_map(&ours),
        map_vs_big_pct: mean_map(&ours) / mean_map(&big) * 100.0,
        detected_vs_big_pct: detected(&ours) / detected(&big) * 100.0,
        latency_p50_ms: report.latency.p50_s * 1e3,
        latency_p99_ms: report.latency.p99_s * 1e3,
        fallback_ratio: fallbacks as f64 / report.frames as f64,
    })
}

/// The end-to-end run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let mut setups_s = Vec::new();
    let mut measured = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (warm, _) = rep(&spec(ctx.seed, WARMUP_SESSIONS))?;
        ops.ok(warm.frames);
        measured = Some(spec(ctx.seed, SESSIONS));
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let measured = measured.expect("SETUPS is at least one");
    println!("set-ups: {setups_s:.3?} s");

    let mut reports = Vec::new();
    let reps = harness::measure(ctx.seconds, |_| {
        let (report, rep) = rep(&measured)?;
        ops.ok(report.frames);
        reports.push(report);
        Ok(rep)
    })?;
    let peak_rss_mb = procfs::peak_rss_mb(std::process::id())?;

    ops.check(
        "every repetition's FleetReport is identical",
        reports.iter().all(|r| r == &reports[0]),
    );
    ops.check(
        "frames = served + local + deadline misses + link fallbacks + admission fallbacks",
        accounting_closes(&measured, &reports[0]),
    );
    let sim = simulated(ctx.seed, &reports[0])?;
    Ok(Outcome {
        e2e: harness::end_to_end(setups_s, &reps, peak_rss_mb, &sim),
        layers: Layers::new(),
        ops,
    })
}

/// What the traced run of a fleet measured.
pub struct Probe {
    /// `core.fleet.*` and `core.update.*`.
    pub layers: Layers,
    /// Traced repetition wall ÷ untraced repetition wall.
    pub overhead_ratio: f64,
}

/// The traced run: the fleet of `sessions` sessions once plain and once
/// inside a `core.fleet.run` span, then the engine's other modes — one
/// thread, per-session reports, full metrics, the update loop — on a
/// quarter of the sessions, and the per-frame budget. Frames are `frame_px` square and come
/// from a pool of `scene_pool` scenes, so that the replayed imaging cost
/// applies and a small probe is not swamped by cold renders.
pub fn probe(
    seed: u64,
    sessions: usize,
    frame_px: usize,
    scene_pool: usize,
    replay: &Replay,
    tracer: &Tracer,
    ops: &mut Ops,
) -> Result<Probe, String> {
    let mut base = spec(seed, sessions);
    base.frame_size = (frame_px, frame_px);
    base.scene_pool = scene_pool;
    let ns_per_frame = |rep: &Rep| rep.wall_s * 1e9 / rep.frames as f64;
    let timed = |f: &dyn Fn() -> Result<u64, String>| -> Result<Rep, String> {
        let watch = Stopwatch::start(None)?;
        let frames = f()?;
        watch.stop(Instant::now(), frames, Vec::new())
    };
    let mut layers = Layers::new();

    let t0 = Instant::now();
    let population = Population::generate(&base);
    layers.insert("core.fleet.population_ms", t0.elapsed().as_secs_f64() * 1e3);
    drop(population);

    let rss_before_mb = procfs::rss_mb(std::process::id())?;
    let (report, plain) = rep(&base)?;
    let grown_mb = procfs::peak_rss_mb(std::process::id())? - rss_before_mb;
    let (traced_report, traced) = tracer.span("core.fleet.run", None, None, || rep(&base))?;
    ops.ok(report.frames * 2);

    // The engine's other modes, each against the default mode on the same
    // quarter-size fleet (six full-size runs would not fit a traced run).
    let quarter = FleetSpec {
        sessions: sessions / 4,
        ..base.clone()
    };
    let (quarter_report, auto) = rep(&quarter)?;
    let (single_report, single) = rep(&FleetSpec {
        threads: 1,
        ..quarter.clone()
    })?;
    let by_session = timed(&|| {
        let (reports, _) = run_fleet_sessions(&quarter).map_err(|e| e.to_string())?;
        Ok(reports.iter().map(|r| r.frames as u64).sum())
    })?;
    let full = timed(&|| {
        let report = run_fleet_with(&quarter, MetricsMode::Full).map_err(|e| e.to_string())?;
        Ok(report.frames)
    })?;
    let mut updating = quarter.clone();
    updating.cloud.updates = Some(UpdateConfig {
        epoch_s: 30.0,
        ..UpdateConfig::default()
    });
    let (updated_report, updated) = rep(&updating)?;
    ops.ok(auto.frames * 5);
    ops.check(
        "FleetReport is identical traced or not, and for one thread and one per core",
        report == traced_report && quarter_report == single_report,
    );
    ops.check(
        "frames = served + local + deadline misses + link fallbacks + admission fallbacks",
        accounting_closes(&base, &report),
    );

    let published = updated_report.cloud.iter().map(|c| c.updates_published);
    let update_delta_ns = ns_per_frame(&updated) - ns_per_frame(&auto);
    let rss_per_session = grown_mb.max(0.0) * 1e6 / sessions as f64;
    layers.insert("core.fleet.ns_per_frame", ns_per_frame(&plain));
    layers.insert("core.fleet.ns_per_frame_1thread", ns_per_frame(&single));
    layers.insert("core.fleet.thread_speedup", single.wall_s / auto.wall_s);
    layers.insert(
        "core.fleet.sessions_mode_ns_per_frame",
        ns_per_frame(&by_session),
    );
    layers.insert("core.fleet.full_metrics_ns_per_frame", ns_per_frame(&full));
    layers.insert("core.fleet.rss_bytes_per_session", rss_per_session);
    layers.insert("core.update.ns_per_frame_delta", update_delta_ns);
    layers.insert(
        "core.update.versions_published",
        published.sum::<u64>() as f64,
    );

    // The per-frame budget, in worker time: shard groups run on
    // `min(cores, shards)` workers.
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(base.shards) as f64;
    let frame_ns = ns_per_frame(&plain) * workers;
    let uploads = report.uploads as f64 / report.frames as f64;
    let probes = uploads + report.admission_fallbacks as f64 / report.frames as f64;
    let weight = |policy: FleetPolicy| {
        let total: f64 = base.policy_mix.iter().map(|c| c.weight).sum();
        let ours = base.policy_mix.iter().filter(|c| c.policy == policy);
        ours.map(|c| c.weight).sum::<f64>() / total
    };
    let traced_links = {
        let total: f64 = base.link_mix.iter().map(|c| c.weight).sum();
        let traced = base.link_mix.iter().filter(|c| c.trace.is_some());
        traced.map(|c| c.weight).sum::<f64>() / total
    };
    let cold = base.scene_pool as f64 / report.frames as f64;
    let row =
        |layer, step, metric, per_frame| Step::new(layer, step, replay.cost_ns(metric), per_frame);
    let deciding = weight(FleetPolicy::Discriminator);
    let budget = layers::budget(
        "the fleet",
        frame_ns,
        &[
            row(
                "modelzoo",
                "detect (small)",
                "modelzoo.detect_small_ns",
                1.0,
            ),
            row("core.policy", "decide", "core.policy.decide_ns", deciding),
            row("imaging", "render (memo miss)", "imaging.render_us", cold),
            row(
                "imaging",
                "encoded size (miss)",
                "imaging.encoded_size_us",
                cold,
            ),
            row(
                "simnet",
                "link state",
                "simnet.trace_state_ns",
                traced_links,
            ),
            row(
                "simnet",
                "traced attempt",
                "simnet.attempt_ns",
                traced_links * probes,
            ),
            row(
                "simnet",
                "uplink + downlink draw",
                "simnet.transfer_ns",
                2.0 * uploads,
            ),
            row(
                "core.scheduler",
                "push + take",
                "core.scheduler.fifo_ns",
                uploads,
            ),
            row(
                "modelzoo",
                "detect (big)",
                "modelzoo.detect_big_ns",
                uploads,
            ),
            Step::new(
                "core.wire",
                "answer encode + decode",
                replay.answer_codec_ns,
                uploads,
            ),
            row("detcore", "count detected", "detcore.count_ns", 1.0),
        ],
    );
    layers.insert(
        "core.fleet.residual_ns_per_frame",
        budget.residual_ns / workers,
    );
    println!(
        "  imaging is {:.2}% of the fleet frame",
        budget.share["imaging"] * 100.0
    );
    Ok(Probe {
        layers,
        overhead_ratio: traced.wall_s / plain.wall_s,
    })
}
