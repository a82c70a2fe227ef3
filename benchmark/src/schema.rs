//! The benchmark's contract in one place: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` is this table rendered as JSON
//! (`benchmark schema` prints it; a test holds the committed file to it).

use serde::Value;
use std::collections::BTreeMap;

/// Seconds one run measures for (`run_seconds`).
pub const RUN_SECONDS: u64 = 18;

/// The workloads, with why each was chosen.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "deploy_render",
        "what an operator runs: 2 lockstep devices, JSON connection each, real cloud-node; \
         300x300 render of the 60% uploads is ~90% of a frame, wire <2% - imaging gains show, wire gains must not",
    ),
    (
        "deploy_wire",
        "smallest message: 4 devices on one binary mux connection, cloud-only, 8x8 frames; \
         every frame crosses the socket - wire/transport/server gains show, imaging gains must not",
    ),
    (
        "fleet_100k",
        "100k sessions, 800k frames inline in the event core, open-loop diurnal arrivals; \
         no socket, render memoised - event core, scheduler, metrics, simnet do the work",
    ),
    (
        "paper_tables",
        "the paper's batch protocol: 5 splits at published size x 4 model pairs, calibrate-detect-evaluate; \
         calibrate, detcore, modelzoo, par fan-out only - no session, wire or render code",
    ),
];

/// Whether a larger or a smaller value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// Simulated statistic: a pure function of the seed, compared bit for
    /// bit by `benchmark compare`.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        exact: true,
    }
}

/// The fourteen end-to-end metrics.
///
/// A bound has to clear two bars at once: a later change is rejected when
/// it worsens the metric by more than the bound, and the driver refuses
/// the benchmark itself when the metric's quartile spread over ten seeds
/// exceeds it. On the 2-vCPU shared host this was sized on, back-to-back
/// runs of unchanged code spread by 5–9 % on the short-repetition
/// workloads and 11–17 % on the multi-second ones (CPU time inflates along
/// with wall time, so it is the host, not scheduling), which leaves the
/// contract's ceiling of 25 % as the only bound the host-time metrics can
/// carry. Tighter claims need the paired protocol (alternate parent and
/// change, ten pairs). Simulated metrics must not move at all for a fixed
/// seed — that is `compare`'s job — so their bound only has to cover how
/// much they vary *between* seeds (0–9 % measured, most on the fleet, whose
/// upload ratio and median latency follow its pool's make-up).
pub const END_TO_END: [EndToEnd; 14] = [
    host("setup_s", "s", Better::Lower, 0.25),
    host("frames_per_s", "1/s", Better::Higher, 0.25),
    host("frame_p50_us", "us", Better::Lower, 0.25),
    host("frame_p99_us", "us", Better::Lower, 0.25),
    host("cpu_ms_per_kframe", "ms", Better::Lower, 0.25),
    host("peak_rss_mb", "MB", Better::Lower, 0.10),
    sim("upload_ratio", "ratio", Better::Lower, 0.25),
    sim("detected_ratio", "ratio", Better::Higher, 0.12),
    sim("e2e_map_pct", "%", Better::Higher, 0.15),
    sim("map_vs_big_pct", "%", Better::Higher, 0.10),
    sim("detected_vs_big_pct", "%", Better::Higher, 0.05),
    sim("sim_latency_p50_ms", "ms", Better::Lower, 0.25),
    sim("sim_latency_p99_ms", "ms", Better::Lower, 0.12),
    sim("sim_fallback_ratio", "ratio", Better::Lower, 0.25),
];

/// The per-layer metrics: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 63] = {
    use Better::{Higher, Lower};
    [
        ("datagen.scene_gen_ns", "ns", Lower),
        ("datagen.pool_build_ms", "ms", Lower),
        ("imaging.render_us", "us", Lower),
        ("imaging.encoded_size_us", "us", Lower),
        ("imaging.frame_kb", "kB", Lower),
        ("imaging.share_of_frame", "ratio", Lower),
        ("modelzoo.detect_small_ns", "ns", Lower),
        ("modelzoo.detect_big_ns", "ns", Lower),
        ("modelzoo.dets_per_image", "count", Lower),
        ("detcore.nms_ns", "ns", Lower),
        ("detcore.match_ns", "ns", Lower),
        ("detcore.map_add_image_ns", "ns", Lower),
        ("detcore.count_ns", "ns", Lower),
        ("detcore.map_finalize_ms", "ms", Lower),
        ("core.policy.decide_ns", "ns", Lower),
        ("core.policy.upload_share", "ratio", Lower),
        ("core.calibrate.ms_per_cell", "ms", Lower),
        ("core.calibrate.share_of_pass", "ratio", Lower),
        ("core.pipeline.detect_all_ms", "ms", Lower),
        ("core.pipeline.evaluate_ms", "ms", Lower),
        ("core.par.speedup", "ratio", Higher),
        ("core.wire.encode_ns.json", "ns", Lower),
        ("core.wire.encode_ns.binary", "ns", Lower),
        ("core.wire.decode_ns.json", "ns", Lower),
        ("core.wire.decode_ns.binary", "ns", Lower),
        ("core.wire.frame_bytes.json", "B", Lower),
        ("core.wire.frame_bytes.binary", "B", Lower),
        ("core.wire.reader_ns", "ns", Lower),
        ("core.scheduler.fifo_ns", "ns", Lower),
        ("core.scheduler.deadline_ns", "ns", Lower),
        ("core.scheduler.mean_batch", "count", Higher),
        ("core.server.submit_us_p50", "us", Lower),
        ("core.server.submit_us_p99", "us", Lower),
        ("core.server.submit_local_us_p50", "us", Lower),
        ("core.server.poll_us_p50", "us", Lower),
        ("core.server.poll_us_p99", "us", Lower),
        ("core.server.channel_us_per_frame", "us", Lower),
        ("core.transport.connect_ms", "ms", Lower),
        ("core.transport.tx_bytes_per_frame", "B", Lower),
        ("core.transport.rx_bytes_per_frame", "B", Lower),
        ("core.transport.send_calls_per_frame", "count", Lower),
        ("core.transport.recv_wait_share", "ratio", Lower),
        ("core.transport.memory_us_per_frame", "us", Lower),
        ("core.transport.tcp_us_per_frame", "us", Lower),
        ("core.transport.residual_us_per_frame", "us", Lower),
        ("core.fleet.population_ms", "ms", Lower),
        ("core.fleet.ns_per_frame", "ns", Lower),
        ("core.fleet.ns_per_frame_1thread", "ns", Lower),
        ("core.fleet.thread_speedup", "ratio", Higher),
        ("core.fleet.sessions_mode_ns_per_frame", "ns", Lower),
        ("core.fleet.full_metrics_ns_per_frame", "ns", Lower),
        ("core.fleet.residual_ns_per_frame", "ns", Lower),
        ("core.fleet.rss_bytes_per_session", "B", Lower),
        ("core.update.ns_per_frame_delta", "ns", Lower),
        ("core.update.versions_published", "count", Higher),
        ("simnet.transfer_ns", "ns", Lower),
        ("simnet.trace_state_ns", "ns", Lower),
        ("simnet.attempt_ns", "ns", Lower),
        ("distributed.cloud_spawn_ms", "ms", Lower),
        ("distributed.orchestrate_wall_s", "s", Lower),
        ("distributed.orchestrate_over_driver", "ratio", Lower),
        ("distributed.in_memory_wall_s", "s", Lower),
        ("trace.overhead_ratio", "ratio", Lower),
    ]
};

/// A JSON object from `(key, value)` pairs.
pub fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(
        pairs
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect::<BTreeMap<_, _>>(),
    )
}

fn text(s: &str) -> Value {
    Value::String(s.to_string())
}

/// `BENCHMARK.json` as a value: exactly the keys the driver's contract
/// names.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| Value::Array(items.iter().map(|s| text(s)).collect());
    object(vec![
        ("command", strings(&["bash", "benchmark/run.sh"])),
        ("paths", strings(&["benchmark"])),
        ("run_seconds", Value::U64(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|(name, why)| object(vec![("name", text(name)), ("why", text(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        object(vec![
                            ("name", text(name)),
                            ("unit", text(unit)),
                            ("better", text(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn committed() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024, "BENCHMARK.json over 64 KiB");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    #[test]
    fn committed_file_round_trips_and_equals_the_schema() {
        let file = committed();
        assert_eq!(file, benchmark_json());
        let again: Value = serde_json::from_str(&serde_json::to_string(&file).unwrap()).unwrap();
        assert_eq!(again, file);
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = BTreeSet::new();
        for (name, why) in WORKLOADS {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && names.insert(name), "{name}");
            assert!(unit_ok(unit), "{unit}");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn the_lists_are_the_ones_the_issue_names() {
        let workloads: Vec<_> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(
            workloads,
            ["deploy_render", "deploy_wire", "fleet_100k", "paper_tables"]
        );
        assert_eq!(END_TO_END.len(), 14);
        let exact: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.exact)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            exact,
            [
                "upload_ratio",
                "detected_ratio",
                "e2e_map_pct",
                "map_vs_big_pct",
                "detected_vs_big_pct",
                "sim_latency_p50_ms",
                "sim_latency_p99_ms",
                "sim_fallback_ratio"
            ]
        );
        let higher: Vec<_> = END_TO_END
            .iter()
            .filter(|m| m.better == Better::Higher)
            .map(|m| m.name)
            .collect();
        assert_eq!(
            higher,
            [
                "frames_per_s",
                "detected_ratio",
                "e2e_map_pct",
                "map_vs_big_pct",
                "detected_vs_big_pct"
            ]
        );
        let layers: BTreeSet<_> = PER_LAYER
            .iter()
            .map(|(n, _, _)| n.rsplit_once('.').unwrap().0)
            .map(|l| {
                l.trim_end_matches(".encode_ns")
                    .trim_end_matches(".decode_ns")
            })
            .map(|l| l.trim_end_matches(".frame_bytes"))
            .collect();
        let expected = [
            "core.calibrate",
            "core.fleet",
            "core.par",
            "core.pipeline",
            "core.policy",
            "core.scheduler",
            "core.server",
            "core.transport",
            "core.update",
            "core.wire",
            "datagen",
            "detcore",
            "distributed",
            "imaging",
            "modelzoo",
            "simnet",
            "trace",
        ];
        assert_eq!(layers.into_iter().collect::<Vec<_>>(), expected);
    }
}
