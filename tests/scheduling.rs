//! Conformance suite for the cloud scheduling control plane.
//!
//! Three contracts are pinned here:
//!
//! 1. **FIFO bit-identity.** The default [`FifoBatcher`] must reproduce the
//!    pre-refactor inline batching loop exactly: a proptest drives the
//!    trait implementation, boxed and monomorphized, and a verbatim
//!    transcription of the old logic through the same arrival/flush event
//!    sequences and requires the same batch partition, and an end-to-end
//!    run compares `spawn` (default config) against
//!    `spawn_with(FifoBatcher)` report-for-report.
//!    (`tests/api_equivalence.rs` separately pins the whole stack against
//!    the seed implementation.)
//! 2. **Determinism.** Every scheduler and the admission-control path
//!    replay bit-identically across runs — service orders are pure
//!    functions of virtual-time state.
//! 3. **Admission contract.** A frame refused at the queue limit never
//!    touches the cloud: zero uplink bytes, zero served frames, the local
//!    answer served immediately. A limit that never binds changes nothing
//!    at all — not even RNG draws.

use proptest::prelude::*;
use smallbig::core::transport::{memory_listener, serve, ServeOptions};
use smallbig::core::{
    CloudConfig, CloudServer, CloudStats, DifficultCaseDiscriminator, FifoBatcher, Policy,
    QueuedFrame, Scheduler, SchedulerConfig, SessionConfig, SessionReport, Thresholds,
};
use smallbig::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// 1. FifoBatcher vs the transcribed inline loop
// ---------------------------------------------------------------------------

/// The pre-refactor cloud-side batching logic, transcribed from the inline
/// loop the `Scheduler` trait replaced: arrivals append to a `Vec`; as
/// soon as `queue.len() >= max_batch` the **whole queue** drains as one
/// batch (it can never exceed `max_batch`, because this check runs after
/// every arrival); a flush/deregister/shutdown drains whatever is queued
/// as one batch.
#[derive(Default)]
struct InlineLoopOracle {
    queue: Vec<u64>,
}

impl InlineLoopOracle {
    fn frame(&mut self, ticket: u64, max_batch: usize, batches: &mut Vec<Vec<u64>>) {
        self.queue.push(ticket);
        if self.queue.len() >= max_batch {
            batches.push(std::mem::take(&mut self.queue));
        }
    }

    fn flush(&mut self, batches: &mut Vec<Vec<u64>>) {
        if !self.queue.is_empty() {
            batches.push(std::mem::take(&mut self.queue));
        }
    }
}

/// Drives a [`Scheduler`] exactly as the cloud worker does: push, then
/// dispatch while `ready`; flush drains batch by batch. Generic so one body
/// covers both dispatch forms the cloud contains: `S = dyn Scheduler` is the
/// boxed custom-scheduler path, `S = FifoBatcher` the monomorphized path the
/// default configuration takes.
fn drive_scheduler<S: Scheduler + ?Sized>(
    sched: &mut S,
    max_batch: usize,
    events: &[Option<u64>],
) -> Vec<Vec<u64>> {
    fn drain<S: Scheduler + ?Sized>(
        sched: &mut S,
        max_batch: usize,
        ready_only: bool,
        out: &mut Vec<QueuedFrame>,
        batches: &mut Vec<Vec<u64>>,
    ) {
        while (!ready_only || sched.ready(max_batch)) && !sched.is_empty() {
            sched.take_batch(max_batch, out);
            if out.is_empty() {
                break;
            }
            batches.push(out.iter().map(|f| f.ticket()).collect());
        }
    }
    let mut batches = Vec::new();
    let mut out = Vec::new();
    for event in events {
        if let Some(ticket) = event {
            sched.push(QueuedFrame::synthetic(
                0,
                *ticket,
                *ticket as f64 * 0.01,
                0.0,
                None,
            ));
        }
        drain(sched, max_batch, event.is_some(), &mut out, &mut batches);
    }
    drain(sched, max_batch, false, &mut out, &mut batches);
    batches
}

proptest! {
    /// The trait-based FIFO batcher partitions any arrival/flush sequence
    /// into exactly the batches the pre-refactor inline loop formed.
    #[test]
    fn fifo_batcher_matches_inline_loop_oracle(
        max_batch in 1usize..6,
        // `Some(i)` is the i-th frame arriving, `None` a flush.
        flushes in prop::collection::vec(any::<bool>(), 1..80),
    ) {
        let mut next_ticket = 0u64;
        let events: Vec<Option<u64>> = flushes
            .iter()
            .map(|flush| {
                if *flush {
                    None
                } else {
                    next_ticket += 1;
                    Some(next_ticket - 1)
                }
            })
            .collect();

        let mut oracle = InlineLoopOracle::default();
        let mut expected = Vec::new();
        for event in &events {
            match event {
                Some(ticket) => oracle.frame(*ticket, max_batch, &mut expected),
                None => oracle.flush(&mut expected),
            }
        }
        oracle.flush(&mut expected);

        let boxed = drive_scheduler(
            &mut FifoBatcher::new() as &mut dyn Scheduler,
            max_batch,
            &events,
        );
        prop_assert_eq!(&boxed, &expected);
        let monomorphized = drive_scheduler(&mut FifoBatcher::new(), max_batch, &events);
        prop_assert_eq!(&monomorphized, &expected);
    }
}

// ---------------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------------

fn fixture() -> (Dataset, SimDetector, Arc<dyn Detector + Send + Sync>) {
    let data = Dataset::generate("sched", &DatasetProfile::helmet(), 60, 9);
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let big: Arc<dyn Detector + Send + Sync> =
        Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
    (data, small, big)
}

fn disc() -> DifficultCaseDiscriminator {
    DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.21,
        count: 4,
        area: 0.03,
    })
}

/// Burst-drives one discriminator session (plus a deadline-less cloud-only
/// co-tenant, so the queue has cross-session frames to order) and returns
/// both reports and the cloud stats.
fn burst_run(config: CloudConfig) -> (SessionReport, SessionReport, CloudStats) {
    let (data, small, big) = fixture();
    let mut cloud = CloudServer::spawn(config, big);
    let mut background = cloud.connect(
        SessionConfig {
            frame_size: (96, 96),
            seed: 0x7e57,
            ..SessionConfig::new(2)
        },
        &small,
        Box::new(Policy::CloudOnly),
    );
    let mut session = cloud.connect(
        SessionConfig {
            frame_size: (96, 96),
            deadline_s: Some(0.4),
            ..SessionConfig::new(2)
        },
        &small,
        Box::new(disc()),
    );
    for round in data.scenes().chunks(10) {
        let (ours, burst) = round.split_at(round.len().min(4));
        for scene in burst {
            background.submit(scene);
        }
        let tickets: Vec<_> = ours.iter().map(|s| session.submit(s)).collect();
        for t in tickets {
            let _ = session.poll(t);
        }
    }
    let (ra, rb) = (session.drain(), background.drain());
    drop((session, background));
    (ra, rb, cloud.shutdown())
}

// ---------------------------------------------------------------------------
// 1b. End-to-end FIFO identity
// ---------------------------------------------------------------------------

/// `spawn` with the default config and `spawn_with(FifoBatcher)` are the
/// same server: reports and stats match bit for bit.
#[test]
fn explicit_fifo_batcher_is_bit_identical_to_default() {
    let run = |explicit: bool| {
        let (data, small, big) = fixture();
        let config = CloudConfig {
            max_batch: 3,
            ..CloudConfig::default()
        };
        let mut cloud = if explicit {
            CloudServer::spawn_with(config, big, Box::new(FifoBatcher::new()))
        } else {
            CloudServer::spawn(config, big)
        };
        let mut session = cloud.connect(
            SessionConfig {
                frame_size: (96, 96),
                ..SessionConfig::new(2)
            },
            &small,
            Box::new(disc()),
        );
        for scene in data.iter() {
            session.submit(scene);
        }
        let report = session.drain();
        drop(session);
        (report, cloud.shutdown())
    };
    assert_eq!(run(false), run(true));
}

// ---------------------------------------------------------------------------
// 2. Deterministic replay across runs
// ---------------------------------------------------------------------------

/// Every scheduler replays bit-identically.
#[test]
fn scheduler_replay_is_bit_identical() {
    let configs = [
        SchedulerConfig::Fifo,
        SchedulerConfig::DeadlineAware { lookahead: 2 },
        SchedulerConfig::DifficultyPriority { lookahead: 2 },
    ];
    for scheduler in configs {
        let run = || {
            burst_run(CloudConfig {
                max_batch: 4,
                scheduler,
                ..CloudConfig::default()
            })
        };
        assert_eq!(run(), run(), "{scheduler:?} replay must be deterministic");
    }
}

// ---------------------------------------------------------------------------
// 3. Priority schedulers actually reorder service
// ---------------------------------------------------------------------------

/// Under burst load with a deadline-less co-tenant, serving our deadlined
/// (and difficulty-scored) frames first must not be worse — and for this
/// pinned workload is strictly better — on deadline misses.
#[test]
fn priority_schedulers_cut_deadline_misses_under_bursts() {
    let run = |scheduler| {
        burst_run(CloudConfig {
            max_batch: 4,
            scheduler,
            ..CloudConfig::default()
        })
        .0
    };
    let fifo = run(SchedulerConfig::Fifo);
    let edf = run(SchedulerConfig::DeadlineAware { lookahead: 2 });
    let hard = run(SchedulerConfig::DifficultyPriority { lookahead: 2 });
    // Routing is scheduler-independent: the policy decides before the
    // cloud ever sees a frame.
    assert_eq!(fifo.uploads, edf.uploads);
    assert_eq!(fifo.uploads, hard.uploads);
    assert_eq!(fifo.uplink_bytes, edf.uplink_bytes);
    assert!(fifo.deadline_misses > 0, "the workload must be contended");
    assert!(
        edf.deadline_misses < fifo.deadline_misses,
        "EDF {} vs FIFO {}",
        edf.deadline_misses,
        fifo.deadline_misses
    );
    assert!(
        hard.deadline_misses < fifo.deadline_misses,
        "difficulty-priority {} vs FIFO {}",
        hard.deadline_misses,
        fifo.deadline_misses
    );
}

// ---------------------------------------------------------------------------
// 4. Admission control contract
// ---------------------------------------------------------------------------

/// Over-limit frames never touch the cloud: no uplink bytes, no served
/// frames, local answers, and the refusals are all accounted.
#[test]
fn admission_rejected_frames_never_touch_the_cloud() {
    let (data, small, big) = fixture();
    let mut cloud = CloudServer::spawn(
        CloudConfig {
            queue_limit: Some(0),
            ..CloudConfig::default()
        },
        big,
    );
    let mut session = cloud.connect(
        SessionConfig {
            frame_size: (96, 96),
            ..SessionConfig::new(2)
        },
        &small,
        Box::new(Policy::CloudOnly),
    );
    let mut results = Vec::new();
    for scene in data.iter() {
        let t = session.submit(scene);
        results.push(session.poll(t).expect("admission fallback resolves"));
    }
    let report = session.drain();
    drop(session);
    let stats = cloud.shutdown();

    assert_eq!(report.frames, 60);
    assert_eq!(report.uploads, 0, "refused frames are not uploads");
    assert_eq!(report.uplink_bytes, 0, "no uplink is ever spent");
    assert_eq!(report.admission_fallbacks, 60);
    assert_eq!(report.link_fallbacks, 0);
    assert_eq!(stats.served, 0, "the big model never runs");
    assert_eq!(stats.admission_rejects, 60);
    for r in &results {
        assert!(r.admission_fallback);
        assert!(r.decision.is_upload(), "the policy did want the cloud");
        assert!(!r.link_fallback);
        assert_eq!(r.breakdown.uplink_s, 0.0);
        assert_eq!(r.breakdown.cloud_infer_s, 0.0);
    }
}

/// A queue limit that never binds is free: reports are bit-identical to
/// running with no limit at all (the probes draw no randomness and cost
/// no virtual time).
#[test]
fn generous_queue_limit_changes_nothing() {
    let run = |queue_limit| {
        burst_run(CloudConfig {
            max_batch: 4,
            queue_limit,
            ..CloudConfig::default()
        })
    };
    let unlimited = run(None);
    let generous = run(Some(10_000));
    assert_eq!(unlimited.0, generous.0);
    assert_eq!(unlimited.1, generous.1);
    assert_eq!(unlimited.2.served, generous.2.served);
    assert_eq!(generous.2.admission_rejects, 0);
}

/// An invalid cloud configuration fails on the caller's thread, naming
/// its field, wherever a cloud is built: at `CloudServer::spawn` (not on
/// the worker thread) and at `serve` (before any edge completes a
/// handshake it could never use).
#[test]
fn invalid_cloud_configs_fail_at_spawn_and_serve() {
    let (_, _, big) = fixture();
    let bad = [
        (
            "max_batch",
            CloudConfig {
                max_batch: 0,
                ..CloudConfig::default()
            },
        ),
        (
            "scheduler",
            CloudConfig {
                scheduler: SchedulerConfig::DeadlineAware { lookahead: 0 },
                ..CloudConfig::default()
            },
        ),
        (
            "updates",
            CloudConfig {
                updates: Some(UpdateConfig {
                    epoch_s: 0.0,
                    ..UpdateConfig::default()
                }),
                ..CloudConfig::default()
            },
        ),
    ];
    let panic_message = |host: &str, field: &str, run: &dyn Fn()| {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
            .expect_err(&format!("{host} must refuse a bad {field}"));
        let message = (payload.downcast_ref::<String>().cloned())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            message.contains("invalid cloud config") && message.contains(field),
            "{host}: `{message}` must name {field}"
        );
    };
    for (field, config) in bad {
        panic_message("spawn", field, &|| {
            drop(CloudServer::spawn(config.clone(), Arc::clone(&big)));
        });
        panic_message("serve", field, &|| {
            let (mut listener, _connector) = memory_listener();
            // Already stopped: a valid config would return at once.
            let stop = std::sync::atomic::AtomicBool::new(true);
            serve(
                &mut listener,
                &config,
                &big,
                &ServeOptions::default(),
                &stop,
            );
        });
    }
}

/// A binding limit sheds load deterministically and the shed frames keep
/// their quality floor (the local answer is a real detection result).
#[test]
fn binding_queue_limit_sheds_deterministically() {
    let run = || {
        burst_run(CloudConfig {
            max_batch: 4,
            queue_limit: Some(3),
            ..CloudConfig::default()
        })
    };
    let (a, ab, astats) = run();
    let (b, bb, bstats) = run();
    assert_eq!(a, b);
    assert_eq!(ab, bb);
    assert_eq!(astats, bstats);
    let total_refused = a.admission_fallbacks + ab.admission_fallbacks;
    assert!(total_refused > 0, "the limit must bind under bursts");
    assert_eq!(astats.admission_rejects, total_refused);
    assert!(a.map_pct > 0.0, "shed frames still serve local detections");
}
