//! What every workload shares: the run context, operation accounting, the
//! repetition loop, and folding repetitions into the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::procfs;
use crate::spans::Tracer;
use crate::stats::{self, Summary};

/// Fewest measured repetitions a run reports, however short `--seconds`.
pub const MIN_REPS: usize = 3;
/// How often a run sets up from scratch; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// One invocation's parameters.
pub struct Ctx {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured repetitions run for.
    pub seconds: f64,
    /// Directory holding the freshly built `cloud-node` / `edge-node`.
    pub bin_dir: PathBuf,
    /// Where traces are written (`<target-dir>/benchmark`).
    pub out_dir: PathBuf,
    /// Recording in the traced run, off in the end-to-end run.
    pub tracer: Tracer,
}

/// Operations attempted and failed. An operation is a frame submitted, a
/// handshake, a child exit or an output check.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the report.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one output check.
    pub fn check(&mut self, what: &str, pass: bool) {
        self.attempted += 1;
        if pass {
            println!("check  ok    {what}");
        } else {
            println!("check  FAIL  {what}");
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }

    /// Counts the outcome of a fallible operation and passes it on.
    pub fn tried<T>(&mut self, what: &str, outcome: Result<T, String>) -> Result<T, String> {
        self.attempted += 1;
        if let Err(e) = &outcome {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
        outcome
    }
}

/// One measured repetition: a fixed number of operations, timed.
pub struct Rep {
    /// Frames resolved.
    pub frames: u64,
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// CPU seconds (this process plus its node) over the timed region.
    pub cpu_s: f64,
    /// Per-frame submit→poll wall in µs, where the workload has a
    /// per-frame round trip; empty otherwise.
    pub frame_us: Vec<f64>,
}

/// Reads the CPU clocks of this process and, if present, its node.
pub fn cpu_now(node_pid: Option<u32>) -> Result<f64, String> {
    let own = procfs::cpu_seconds(std::process::id())?;
    let node = node_pid.map_or(Ok(0.0), procfs::cpu_seconds)?;
    Ok(own + node)
}

/// Brackets the timed region of one repetition with wall and CPU clocks.
pub struct Stopwatch {
    t0: Instant,
    cpu0: f64,
    node_pid: Option<u32>,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start(node_pid: Option<u32>) -> Result<Stopwatch, String> {
        Ok(Stopwatch {
            cpu0: cpu_now(node_pid)?,
            t0: Instant::now(),
            node_pid,
        })
    }

    /// Stops timing: the region's wall ends at `end`, its CPU now.
    pub fn stop(self, end: Instant, frames: u64, frame_us: Vec<f64>) -> Result<Rep, String> {
        Ok(Rep {
            frames,
            wall_s: end.duration_since(self.t0).as_secs_f64(),
            cpu_s: cpu_now(self.node_pid)? - self.cpu0,
            frame_us,
        })
    }
}

/// Repeats `rep` until `seconds` of wall time have passed (counting the
/// untimed work between repetitions), at least [`MIN_REPS`] times.
pub fn measure(
    seconds: f64,
    mut rep: impl FnMut(usize) -> Result<Rep, String>,
) -> Result<Vec<Rep>, String> {
    let t0 = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < seconds {
        let r = rep(reps.len())?;
        println!(
            "rep {:2}  {:>9} frames  {:8.3} s  {:>10.0} frames/s",
            reps.len(),
            r.frames,
            r.wall_s,
            r.frames as f64 / r.wall_s
        );
        reps.push(r);
    }
    Ok(reps)
}

/// Simulated statistics of a workload: exact per seed, identical on every
/// repetition (the output checks assert that).
#[derive(Debug, Clone, PartialEq)]
pub struct Sim {
    pub upload_ratio: f64,
    pub detected_ratio: f64,
    pub e2e_map_pct: f64,
    pub map_vs_big_pct: f64,
    pub detected_vs_big_pct: f64,
    pub latency_p50_ms: f64,
    pub latency_p99_ms: f64,
    pub fallback_ratio: f64,
}

/// Nearest-rank p50/p99 in ms over per-frame virtual latencies in seconds.
pub fn sim_latency_ms(mut latencies_s: Vec<f64>) -> (f64, f64) {
    latencies_s.sort_unstable_by(f64::total_cmp);
    (
        stats::nearest_rank(&latencies_s, 0.50) * 1e3,
        stats::nearest_rank(&latencies_s, 0.99) * 1e3,
    )
}

/// Folds set-ups, repetitions and simulated statistics into the fourteen
/// end-to-end metrics.
///
/// The frame percentiles are taken within each repetition, then the
/// median over repetitions. A repetition without a per-frame round trip
/// (`frame_us` empty) completes all its frames together, so each carries
/// the repetition's amortised wall and p50 and p99 coincide.
pub fn end_to_end(
    setups_s: Vec<f64>,
    reps: &[Rep],
    peak_rss_mb: f64,
    sim: &Sim,
) -> BTreeMap<&'static str, Summary> {
    let per_rep = |f: &dyn Fn(&Rep) -> f64| Summary::of(reps.iter().map(f).collect());
    let frame_pct = |q: f64| {
        per_rep(&|r| match r.frame_us.is_empty() {
            true => r.wall_s * 1e6 / r.frames as f64,
            false => stats::nearest_rank(&stats::sorted(&r.frame_us), q),
        })
    };
    BTreeMap::from([
        ("setup_s", Summary::of(setups_s)),
        ("frames_per_s", per_rep(&|r| r.frames as f64 / r.wall_s)),
        ("frame_p50_us", frame_pct(0.50)),
        ("frame_p99_us", frame_pct(0.99)),
        // Over all repetitions together: the CPU clocks tick at 10 ms,
        // too coarse for a single short repetition.
        (
            "cpu_ms_per_kframe",
            Summary::exact(
                reps.iter().map(|r| r.cpu_s).sum::<f64>() * 1e3
                    / (reps.iter().map(|r| r.frames).sum::<u64>() as f64 / 1e3),
            ),
        ),
        ("peak_rss_mb", Summary::exact(peak_rss_mb)),
        ("upload_ratio", Summary::exact(sim.upload_ratio)),
        ("detected_ratio", Summary::exact(sim.detected_ratio)),
        ("e2e_map_pct", Summary::exact(sim.e2e_map_pct)),
        ("map_vs_big_pct", Summary::exact(sim.map_vs_big_pct)),
        (
            "detected_vs_big_pct",
            Summary::exact(sim.detected_vs_big_pct),
        ),
        ("sim_latency_p50_ms", Summary::exact(sim.latency_p50_ms)),
        ("sim_latency_p99_ms", Summary::exact(sim.latency_p99_ms)),
        ("sim_fallback_ratio", Summary::exact(sim.fallback_ratio)),
    ])
}

/// What a workload hands back.
pub struct Outcome {
    /// The end-to-end metrics (always measured; reported with `--trace 0`).
    pub e2e: BTreeMap<&'static str, Summary>,
    /// The per-layer metrics (traced run only; empty otherwise).
    pub layers: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed.
    pub ops: Ops,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rep(frames: u64, wall_s: f64, frame_us: Vec<f64>) -> Rep {
        Rep {
            frames,
            wall_s,
            cpu_s: wall_s * 2.0,
            frame_us,
        }
    }

    fn sim() -> Sim {
        Sim {
            upload_ratio: 0.5,
            detected_ratio: 0.9,
            e2e_map_pct: 80.0,
            map_vs_big_pct: 92.0,
            detected_vs_big_pct: 95.0,
            latency_p50_ms: 40.0,
            latency_p99_ms: 400.0,
            fallback_ratio: 0.01,
        }
    }

    #[test]
    fn per_frame_latencies_give_per_rep_percentiles() {
        let lat: Vec<f64> = (1..=100).map(f64::from).collect();
        let reps = [
            rep(100, 1.0, lat.clone()),
            rep(100, 2.0, lat.iter().map(|l| l * 2.0).collect()),
            rep(100, 4.0, lat.iter().map(|l| l * 4.0).collect()),
        ];
        let m = end_to_end(vec![0.3, 0.1, 0.2], &reps, 12.5, &sim());
        assert_eq!(m.len(), 14);
        assert_eq!(m["setup_s"].median, 0.2);
        // 14 CPU seconds over 300 frames.
        assert_eq!(m["cpu_ms_per_kframe"].median, 14_000.0 / 0.3);
        assert_eq!(m["frames_per_s"].median, 50.0);
        assert_eq!(m["frame_p50_us"].median, 100.0);
        assert_eq!(m["frame_p99_us"].median, 198.0);
        assert_eq!(m["peak_rss_mb"].median, 12.5);
        assert_eq!(m["sim_fallback_ratio"].median, 0.01);
    }

    #[test]
    fn batch_workloads_amortise_over_repetitions() {
        let reps = [
            rep(1000, 1.0, vec![]),
            rep(1000, 3.0, vec![]),
            rep(1000, 2.0, vec![]),
        ];
        let m = end_to_end(vec![1.0], &reps, 1.0, &sim());
        assert_eq!(m["frame_p50_us"].median, 2000.0);
        assert_eq!(m["frame_p99_us"].median, 2000.0);
    }

    #[test]
    fn sim_latency_is_nearest_rank_in_ms() {
        let (p50, p99) = sim_latency_ms((1..=200).map(|i| f64::from(i) / 1e3).collect());
        assert_eq!((p50, p99), (100.0, 198.0));
    }

    #[test]
    fn ops_count_failures() {
        let mut ops = Ops::default();
        ops.ok(10);
        ops.check("holds", true);
        ops.check("breaks", false);
        assert!(ops
            .tried("dial", Err::<(), _>("refused".to_string()))
            .is_err());
        assert_eq!((ops.attempted, ops.failed), (13, 2));
        assert_eq!(ops.failures, vec!["breaks", "dial: refused"]);
    }
}
