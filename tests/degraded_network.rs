//! Scenario conformance suite for the degraded-network simulation.
//!
//! Every scenario here is a pure function of its seeds: traces are
//! piecewise schedules over virtual time, stochastic constructors expand at
//! construction from their own RNG streams, and the session layer drives
//! retransmissions against per-session virtual clocks. The golden tests pin
//! fixed-seed [`RuntimeReport`]s — integer fields exactly, float aggregates
//! to a 1e-9 relative tolerance (libm last-bit portability) — so any drift
//! in trace semantics, retry accounting or scheduler behaviour
//! fails loudly; the determinism tests re-run each scenario and require
//! bit-identical reports; the total-outage test asserts the advertised
//! fallback contract (every frame served edge-only, zero cloud latency);
//! and the shutdown soak drains in-flight retransmitting sessions across
//! worker-pool sizes under a wall-clock bound.

use smallbig::core::{
    run_system, CloudConfig, CloudServer, DifficultCaseDiscriminator, Policy, RuntimeConfig,
    RuntimeMode, RuntimeReport, SessionConfig, Thresholds,
};
use smallbig::prelude::*;
use smallbig::simnet::{FaultPlan, LinkTrace};
use std::sync::Arc;
use std::time::Duration;

mod common;
use common::bounded;

fn fixture() -> (Dataset, SimDetector, SimDetector) {
    let test = Dataset::generate("degraded", &DatasetProfile::helmet(), 40, 9);
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let big = SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2);
    (test, small, big)
}

fn disc() -> DifficultCaseDiscriminator {
    DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.21,
        count: 4,
        area: 0.03,
    })
}

fn traced_cfg(trace: LinkTrace) -> RuntimeConfig {
    RuntimeConfig {
        frame_size: (96, 96),
        link_trace: Some(trace),
        ..Default::default()
    }
}

/// The three pinned scenarios: a mid-run outage, Gilbert–Elliott bursty
/// loss, and a diurnal capacity ramp — all over the paper's WLAN.
fn scenarios() -> [(&'static str, LinkTrace); 3] {
    [
        ("outage", LinkTrace::step_outage(2.0, 2.5)),
        ("bursty", LinkTrace::bursty(11, 120.0, 3.0, 1.5, 0.9)),
        ("ramp", LinkTrace::diurnal_ramp(10.0, 0.15, 8, 4)),
    ]
}

fn run_scenario(trace: LinkTrace) -> RuntimeReport {
    let (test, small, big) = fixture();
    run_system(
        &test,
        &small,
        &big,
        &disc(),
        RuntimeMode::SmallBig,
        &traced_cfg(trace),
    )
}

/// Fixed-seed golden reports for the three pinned trace scenarios. The
/// expectations are exact: virtual time and seeded RNG streams make every
/// field reproducible to the bit, so these constants are the conformance
/// contract for the trace/retry/fault semantics.
#[test]
fn golden_reports_for_pinned_scenarios() {
    struct Golden {
        name: &'static str,
        map_pct: f64,
        detected: usize,
        total_gt: usize,
        total_time_s: f64,
        upload_ratio: f64,
        uplink_bytes: u64,
        deadline_misses: usize,
        link_fallbacks: usize,
        retransmit_s: f64,
    }
    // Regenerate by printing each scenario's report with `{:?}` formatting
    // (f64 `{:?}` round-trips exactly). Integer fields and `upload_ratio`
    // (an exact rational) are pinned exactly; the float aggregates flow
    // through `ln`/`exp`/`cos` (jitter sampling, trace constructors),
    // whose last bits Rust does not guarantee across libm versions, so
    // they are pinned to a 1e-9 relative tolerance — tight enough that
    // any semantic drift (a changed draw, a different retry, a shifted
    // segment) still fails by orders of magnitude.
    let goldens = [
        Golden {
            name: "outage",
            map_pct: 84.6256343337683,
            detected: 77,
            total_gt: 105,
            total_time_s: 9.078215158516038,
            upload_ratio: 0.45,
            uplink_bytes: 117137,
            deadline_misses: 0,
            link_fallbacks: 0,
            retransmit_s: 3.25,
        },
        Golden {
            name: "bursty",
            map_pct: 84.6256343337683,
            detected: 77,
            total_gt: 105,
            total_time_s: 10.714851916951243,
            upload_ratio: 0.45,
            uplink_bytes: 117137,
            deadline_misses: 0,
            link_fallbacks: 0,
            retransmit_s: 4.85,
        },
        Golden {
            name: "ramp",
            map_pct: 84.6256343337683,
            detected: 77,
            total_gt: 105,
            total_time_s: 7.102751959767199,
            upload_ratio: 0.45,
            uplink_bytes: 117137,
            deadline_misses: 0,
            link_fallbacks: 0,
            retransmit_s: 0.09999999999999981,
        },
    ];
    let by_name: std::collections::HashMap<&str, LinkTrace> = scenarios().into_iter().collect();
    let close = |got: f64, want: f64| (got - want).abs() <= want.abs() * 1e-9;
    for g in goldens {
        let r = run_scenario(by_name[g.name].clone());
        assert!(
            close(r.map_pct, g.map_pct),
            "{} map_pct: got {:?}, want {:?}",
            g.name,
            r.map_pct,
            g.map_pct
        );
        assert_eq!(r.detected, g.detected, "{} detected", g.name);
        assert_eq!(r.total_gt, g.total_gt, "{} total_gt", g.name);
        assert!(
            close(r.total_time_s, g.total_time_s),
            "{} total_time_s: got {:?}, want {:?}",
            g.name,
            r.total_time_s,
            g.total_time_s
        );
        assert_eq!(r.upload_ratio, g.upload_ratio, "{} upload_ratio", g.name);
        assert_eq!(r.uplink_bytes, g.uplink_bytes, "{} uplink_bytes", g.name);
        assert_eq!(
            r.deadline_misses, g.deadline_misses,
            "{} deadline_misses",
            g.name
        );
        assert_eq!(
            r.link_fallbacks, g.link_fallbacks,
            "{} link_fallbacks",
            g.name
        );
        assert!(
            close(r.latency.total.retransmit_s, g.retransmit_s),
            "{} retransmit_s: got {:?}, want {:?}",
            g.name,
            r.latency.total.retransmit_s,
            g.retransmit_s
        );
    }
}

/// Each pinned scenario replays bit-identically: two full runs produce
/// equal reports, field for field.
#[test]
fn scenarios_replay_deterministically() {
    for (name, trace) in scenarios() {
        let a = run_scenario(trace.clone());
        let b = run_scenario(trace);
        assert_eq!(a, b, "{name} must replay bit-identically");
    }
}

/// A constant identity trace changes *how* transfer times are drawn (the
/// edge drives them) but not what the system computes: routing decisions,
/// shipped bytes and served detections match the static link exactly.
#[test]
fn constant_trace_matches_static_link_semantics() {
    let (test, small, big) = fixture();
    let run = |trace: Option<LinkTrace>| {
        run_system(
            &test,
            &small,
            &big,
            &disc(),
            RuntimeMode::SmallBig,
            &RuntimeConfig {
                frame_size: (96, 96),
                link_trace: trace,
                ..Default::default()
            },
        )
    };
    let statically = run(None);
    let traced = run(Some(LinkTrace::constant()));
    assert_eq!(statically.upload_ratio, traced.upload_ratio);
    assert_eq!(statically.uplink_bytes, traced.uplink_bytes);
    assert_eq!(statically.detected, traced.detected);
    assert_eq!(statically.map_pct, traced.map_pct);
    assert_eq!(traced.link_fallbacks, 0);
    assert_eq!(traced.deadline_misses, 0);
    // Note: `retransmit_s` may be positive even at identity — the WLAN's
    // own 2 % loss shows up as explicit session-level retransmissions on a
    // traced link (the static path folds it into the transfer time
    // instead). Only a truly loss-free link makes it exactly zero:
    let lossless = RuntimeConfig {
        frame_size: (96, 96),
        link: LinkModel::new("clean", 1.3e6, 0.030, 0.25, 0.0),
        link_trace: Some(LinkTrace::constant()),
        ..Default::default()
    };
    let clean = run_system(
        &test,
        &small,
        &big,
        &disc(),
        RuntimeMode::SmallBig,
        &lossless,
    );
    assert_eq!(clean.latency.total.retransmit_s, 0.0);
    assert_eq!(clean.link_fallbacks, 0);
}

/// The advertised total-outage contract: with the link dark for the whole
/// run, every would-be upload falls back to the edge-only answer, nothing
/// is shipped, and the cloud contributes zero latency.
#[test]
fn total_outage_falls_back_to_edge_everywhere() {
    let (test, small, big) = fixture();
    let r = run_system(
        &test,
        &small,
        &big,
        &disc(),
        RuntimeMode::CloudOnly,
        &traced_cfg(LinkTrace::total_outage()),
    );
    assert_eq!(r.link_fallbacks, test.len(), "every frame gave up");
    assert_eq!(r.upload_ratio, 0.0, "nothing actually uploaded");
    assert_eq!(r.uplink_bytes, 0);
    assert_eq!(r.latency.total.uplink_s, 0.0, "zero cloud latency (uplink)");
    assert_eq!(
        r.latency.total.cloud_infer_s, 0.0,
        "zero cloud latency (infer)"
    );
    assert_eq!(
        r.latency.total.downlink_s, 0.0,
        "zero cloud latency (downlink)"
    );
    assert_eq!(r.latency.cloud_images, 0);
    assert!(
        r.latency.total.retransmit_s > 0.0,
        "the retries cost virtual time"
    );
    assert_eq!(r.deadline_misses, 0, "no deadline was configured");

    // The served results are exactly the edge-only pipeline's detections.
    let edge = run_system(
        &test,
        &small,
        &big,
        &disc(),
        RuntimeMode::EdgeOnly,
        &RuntimeConfig {
            frame_size: (96, 96),
            ..Default::default()
        },
    );
    assert_eq!(r.detected, edge.detected);
    assert_eq!(r.map_pct, edge.map_pct);
}

/// A short outage is *survivable*: exponential backoff carries the
/// retransmissions past the window, so every upload still completes and
/// quality matches the healthy link — only time is lost.
#[test]
fn short_outage_recovers_via_retransmission() {
    let healthy = run_scenario(LinkTrace::constant());
    let outage = run_scenario(LinkTrace::step_outage(2.0, 2.5));
    assert_eq!(outage.link_fallbacks, 0, "backoff outlasts the outage");
    assert_eq!(outage.upload_ratio, healthy.upload_ratio);
    assert_eq!(outage.uplink_bytes, healthy.uplink_bytes);
    assert_eq!(outage.detected, healthy.detected);
    assert_eq!(outage.map_pct, healthy.map_pct);
    assert!(
        outage.latency.total.retransmit_s > 0.0,
        "the outage cost retransmission time"
    );
    assert!(outage.total_time_s > healthy.total_time_s);
}

/// Under a deadline, an outage turns into bounded-latency fallbacks: the
/// edge gives up at the deadline instead of retrying past it, and those
/// frames are recorded as both deadline misses and link fallbacks.
#[test]
fn outage_with_deadline_bounds_latency() {
    let (test, small, big) = fixture();
    let r = run_system(
        &test,
        &small,
        &big,
        &disc(),
        RuntimeMode::CloudOnly,
        &RuntimeConfig {
            frame_size: (96, 96),
            link_trace: Some(LinkTrace::total_outage()),
            deadline_s: Some(0.5),
            ..Default::default()
        },
    );
    assert_eq!(r.link_fallbacks, test.len());
    assert_eq!(r.deadline_misses, test.len());
    assert!(
        r.latency.max_image_s <= 0.5 + 1e-9,
        "every frame resolved within its deadline: {}",
        r.latency.max_image_s
    );
}

/// Scheduled cloud stalls defer batches without changing what is computed:
/// same uploads, same detections, strictly more virtual time.
#[test]
fn cloud_stall_defers_but_preserves_results() {
    let (test, small, big) = fixture();
    let run = |faults: FaultPlan| {
        run_system(
            &test,
            &small,
            &big,
            &disc(),
            RuntimeMode::SmallBig,
            &RuntimeConfig {
                frame_size: (96, 96),
                faults,
                ..Default::default()
            },
        )
    };
    let clean = run(FaultPlan::new());
    let stalled = run(FaultPlan::new().with_stall(0.5, 30.0));
    assert_eq!(clean.upload_ratio, stalled.upload_ratio);
    assert_eq!(clean.detected, stalled.detected);
    assert!(
        stalled.total_time_s > clean.total_time_s,
        "a 30 s stall must cost virtual time: {} vs {}",
        stalled.total_time_s,
        clean.total_time_s
    );
    // Deterministic replay with faults in play.
    assert_eq!(stalled, run(FaultPlan::new().with_stall(0.5, 30.0)));
}

/// A per-session drop window blackholes transmissions deterministically:
/// the session retransmits (or falls back) and the run still replays
/// bit-identically.
#[test]
fn session_drop_windows_force_retransmission() {
    let (test, small, big) = fixture();
    let run = || {
        run_system(
            &test,
            &small,
            &big,
            &disc(),
            RuntimeMode::CloudOnly,
            &RuntimeConfig {
                frame_size: (96, 96),
                link_trace: Some(LinkTrace::constant()),
                faults: FaultPlan::new().with_session_drop(0, 0.0, 1.0),
                ..Default::default()
            },
        )
    };
    let r = run();
    assert!(
        r.latency.total.retransmit_s > 0.0 || r.link_fallbacks > 0,
        "the drop window must have been felt"
    );
    assert_eq!(r, run());
}

/// Shutdown soak: `CloudServer::shutdown` while sessions still have
/// in-flight frames on an outage-ridden traced link must drain without
/// panic or deadlock inside a wall-clock bound. The worker flushes every
/// queued frame before exiting and the sessions absorb the buffered
/// answers (with traced downlinks that themselves retransmit) afterwards.
#[test]
fn shutdown_mid_outage_drains_buffered_answers() {
    let report = bounded("the shutdown soak", Duration::from_secs(60), || {
        let (test, small, big) = fixture();
        let big: Arc<dyn Detector + Send + Sync> = Arc::new(big);
        let mut cloud = CloudServer::spawn(
            CloudConfig {
                max_batch: 3,
                ..CloudConfig::default()
            },
            big,
        );
        let mut session = cloud.connect(
            SessionConfig {
                frame_size: (96, 96),
                link_trace: Some(LinkTrace::step_outage(0.5, 2.0)),
                ..SessionConfig::new(2)
            },
            &small,
            Box::new(Policy::CloudOnly),
        );
        // Pile up in-flight frames (some retransmitted through the
        // outage) without polling any of them.
        for scene in test.iter() {
            session.submit(scene);
        }
        assert!(session.outstanding() > 0, "frames are in flight");
        // Shut the cloud down mid-stream: it must flush every queued
        // frame, and the session must drain from the buffered answers.
        let stats = cloud.shutdown();
        let report = session.drain();
        assert_eq!(session.outstanding(), 0);
        assert_eq!(stats.served, report.uploads);
        assert_eq!(report.frames, test.len());
        report
    });
    assert!(report.uploads > 0, "the outage ended; uploads flowed");
}
