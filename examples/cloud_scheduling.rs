//! The cloud scheduling control plane: pluggable batch schedulers and
//! admission control.
//!
//! One cloud serves two edges: a deadline-less cloud-only camera that
//! floods the uplink in bursts, and a monitored session whose difficult
//! cases carry a deadline and a discriminator difficulty score. The
//! scheduler decides who waits: FIFO interleaves the monitored frames
//! behind the flood, while the deadline-aware and difficulty-priority
//! schedulers pull them forward. Admission control
//! (`CloudConfig::queue_limit`) sheds load before any uplink is spent.
//!
//! Everything is deterministic: virtual clocks, seeded RNG streams, and
//! schedulers that never draw randomness.
//!
//! ```bash
//! cargo run --release --example cloud_scheduling
//! ```

use smallbig::core::{
    CloudConfig, CloudServer, CloudStats, Policy, SchedulerConfig, SessionConfig, SessionReport,
    Thresholds,
};
use smallbig::prelude::*;
use std::sync::Arc;

/// Drives the two-tenant burst workload against one cloud configuration
/// and returns the monitored session's report plus the cloud's stats.
///
/// `interleave` alternates the two tenants' submissions within a round
/// (so the monitored session probes the queue at varying depths — the
/// admission-control story); sequential rounds (flood first) maximise the
/// backlog the scheduler gets to reorder at each flush.
fn drive(data: &Dataset, interleave: bool, config: CloudConfig) -> (SessionReport, CloudStats) {
    let small = SimDetector::new(ModelKind::VggLiteSsd, SplitId::Helmet, 2);
    let big: Arc<dyn Detector + Send + Sync> =
        Arc::new(SimDetector::new(ModelKind::SsdVgg16, SplitId::Helmet, 2));
    let disc = DifficultCaseDiscriminator::new(Thresholds {
        conf: 0.21,
        count: 4,
        area: 0.03,
    });

    let mut cloud = CloudServer::spawn(config, big);
    let mut flood = cloud.connect(
        SessionConfig {
            frame_size: (96, 96),
            seed: 0x7e57,
            ..SessionConfig::new(2)
        },
        &small,
        Box::new(Policy::CloudOnly),
    );
    let mut monitored = cloud.connect(
        SessionConfig {
            frame_size: (96, 96),
            deadline_s: Some(0.4),
            ..SessionConfig::new(2)
        },
        &small,
        Box::new(disc),
    );

    // Per round: six unpolled flood frames and four monitored frames go
    // up before the first poll. The poll flushes the whole backlog
    // through the batch pipeline, so whoever the scheduler serves last
    // pays the queueing delay.
    for round in data.scenes().chunks(10) {
        let (ours, burst) = round.split_at(round.len().min(4));
        let mut tickets = Vec::new();
        if interleave {
            // Alternate flood/monitored (flood first), then drain whichever
            // stream is longer — every scene submits even in a short final
            // round.
            let mut flood_scenes = burst.iter();
            let mut our_scenes = ours.iter();
            loop {
                match (flood_scenes.next(), our_scenes.next()) {
                    (None, None) => break,
                    (f, o) => {
                        if let Some(scene) = f {
                            flood.submit(scene);
                        }
                        if let Some(scene) = o {
                            tickets.push(monitored.submit(scene));
                        }
                    }
                }
            }
        } else {
            for scene in burst {
                flood.submit(scene);
            }
            tickets.extend(ours.iter().map(|s| monitored.submit(s)));
        }
        for t in tickets {
            let _ = monitored.poll(t);
        }
    }
    let report = monitored.drain();
    flood.drain();
    drop((monitored, flood));
    (report, cloud.shutdown())
}

fn main() {
    let data = Dataset::generate("scheduling", &DatasetProfile::helmet(), 300, 42);

    // ---- 1. Who waits? Scheduler comparison under the same burst load ----
    println!("schedulers under burst load (6 flood + 4 monitored frames per round, max_batch 4):");
    println!(
        "  {:<22} {:>7} {:>9} {:>7} {:>13} {:>17}",
        "scheduler", "mAP%", "upload%", "misses", "fallbacks", "mean latency(ms)"
    );
    let schedulers = [
        SchedulerConfig::Fifo,
        SchedulerConfig::DeadlineAware { lookahead: 2 },
        SchedulerConfig::DifficultyPriority { lookahead: 2 },
    ];
    for sched in schedulers {
        let (r, _) = drive(
            &data,
            false,
            CloudConfig {
                max_batch: 4,
                scheduler: sched,
                ..CloudConfig::default()
            },
        );
        println!(
            "  {:<22} {:>7.2} {:>8.1}% {:>7} {:>13} {:>17.1}",
            sched.name(),
            r.map_pct,
            r.upload_ratio * 100.0,
            r.deadline_misses,
            r.link_fallbacks + r.admission_fallbacks,
            r.latency.mean_s() * 1000.0,
        );
    }

    // ---- 2. Admission control: shed load before spending the uplink ----
    println!("\nadmission control (fifo; frames over the queue limit are served edge-only):");
    for queue_limit in [None, Some(4), Some(3), Some(2)] {
        let (r, stats) = drive(
            &data,
            true,
            CloudConfig {
                max_batch: 4,
                queue_limit,
                ..CloudConfig::default()
            },
        );
        println!(
            "  limit {:<7} upload {:>5.1}%  admission fallbacks {:>3}  uplink {:>7} B  \
             mean latency {:>6.1}ms  cloud served {:>3}",
            queue_limit
                .map(|n| n.to_string())
                .unwrap_or_else(|| "none".into()),
            r.upload_ratio * 100.0,
            r.admission_fallbacks,
            r.uplink_bytes,
            r.latency.mean_s() * 1000.0,
            stats.served,
        );
    }
}
