//! Frozen fleet goldens: the event core's reports must not drift.
//!
//! `tests/fleet.rs` pins the event core to the thread-per-session reference
//! deployment, but both sides of that comparison run the live machines. These
//! checksums were captured at the commit before the seam between
//! `CloudMachine` and `EdgeMachine` stopped carrying encoded answers (PR 22),
//! when every cloud answer and every pushed calibration artifact crossed it
//! as a JSON frame and was parsed back on the other side. `CloudStats` has
//! since lost two counters that were always zero in these runs; the
//! constants were re-derived by deleting those two keys from the captured
//! reports' JSON, and the result matched the live reports, so no other
//! field moved.

use smallbig::core::fleet::{
    run_fleet_sessions, run_fleet_with, FleetReport, FleetSpec, MetricsMode,
};
use smallbig::core::{CloudStats, SessionReport, UpdateConfig};
use smallbig::datagen::{DatasetProfile, DriftSchedule};

const SESSIONS: usize = 2_000;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Checksum of a value's JSON form (floats print shortest-round-trip, so two
/// values share a form only when every field is bit-equal).
fn checksum<T: serde::Serialize>(value: &T) -> u64 {
    fnv1a(
        serde_json::to_string(value)
            .expect("reports serialise")
            .as_bytes(),
    )
}

/// The default population, the same with the update loop refitting every
/// five virtual seconds, and a day/night drift swapping profiles mid-run.
fn specs() -> [(&'static str, FleetSpec); 3] {
    let base = FleetSpec::new(SESSIONS);
    let mut updating = base.clone();
    updating.cloud.updates = Some(UpdateConfig {
        epoch_s: 5.0,
        min_examples: 8,
        ..UpdateConfig::default()
    });
    let drifting = FleetSpec {
        drift: Some(DriftSchedule::day_night(DatasetProfile::helmet(), 90.0)),
        ..base.clone()
    };
    [
        ("default", base),
        ("updates", updating),
        ("drift", drifting),
    ]
}

#[test]
fn fleet_reports_match_the_frozen_checksums() {
    // per spec: (FleetReport, per-session reports + per-shard CloudStats)
    let golden: [(u64, u64); 3] = [
        (0x51dc_9214_dafc_dd4b, 0xfe55_9ea4_3bed_c508),
        (0xeb5b_01bb_d192_fc55, 0x7e1f_04a4_7baa_8e51),
        (0x9133_9070_76d3_7796, 0xbdf0_1ad9_44bf_005c),
    ];
    // Every cell is computed before any is judged, so one failing run
    // prints the whole table.
    let mut drifted = Vec::new();
    for ((name, spec), expected) in specs().into_iter().zip(golden) {
        for threads in [1, 2] {
            let spec = FleetSpec {
                threads,
                ..spec.clone()
            };
            for mode in [MetricsMode::Full, MetricsMode::Compact] {
                let report: FleetReport = run_fleet_with(&spec, mode).expect("healthy drive");
                assert_eq!(report.frames, (SESSIONS * 8) as u64);
                let got = checksum(&report);
                if got != expected.0 {
                    drifted.push(format!(
                        "{name} report, threads {threads}, {mode:?}: got {got:#018x}"
                    ));
                }
            }
            let sessions: (Vec<SessionReport>, Vec<CloudStats>) =
                run_fleet_sessions(&spec).expect("healthy drive");
            if name == "updates" {
                // The loop really ran: several versions per shard, applied
                // by sessions on every shard.
                assert!(sessions.1.iter().all(|s| s.updates_published >= 4));
                assert!(sessions.0.iter().filter(|r| r.updates_applied > 0).count() > 100);
            }
            let got = checksum(&sessions);
            if got != expected.1 {
                drifted.push(format!(
                    "{name} sessions + stats, threads {threads}: got {got:#018x}"
                ));
            }
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}
