//! The repo's benchmark harness; `benchmark/README.md` documents it.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! benchmark [--seed N] [--seconds S] [--traced] [--out PATH]    every workload, one child process each
//! benchmark --twice [...]                                       the whole set twice, then compare
//! benchmark compare A.json B.json                               hold B against A by the bounds
//! benchmark schema                                              print BENCHMARK.json
//! ```

mod compare;
mod counting;
mod deploy;
mod fleet;
mod harness;
mod layers;
mod paper;
mod procfs;
mod schema;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use serde::Value;
use smallbig::datagen::{Dataset, DatasetProfile, SplitId};
use smallbig::distributed::SplitName;
use smallbig::modelzoo::{ModelKind, SimDetector};

use harness::{Ctx, Ops, Outcome};
use layers::Layers;
use schema::object;
use spans::Tracer;

/// Wall-clock limit of one workload run; the driver allows 180 s.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(170);

/// `--key value` and bare `--flag` arguments.
struct Args(Vec<String>);

impl Args {
    fn value(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    /// Where cargo put the binaries (`run.sh` passes `$CARGO_TARGET_DIR`).
    fn target_dir(&self) -> PathBuf {
        PathBuf::from(self.value("--target-dir").unwrap_or("target"))
    }

    fn flag(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.value(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {key}: `{v}`")),
        }
    }
}

/// The end-to-end run of one workload.
fn end_to_end(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match workload {
        "deploy_render" => deploy::run(ctx, &deploy::RENDER),
        "deploy_wire" => deploy::run(ctx, &deploy::WIRE),
        "fleet_100k" => fleet::run(ctx),
        "paper_tables" => paper::run(ctx),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// The traced run of one workload: the layer replay on the workload's own
/// scenes, then every family of hosts probed — the workload's own at full
/// size, the others small, at the workload's frame size — so that every
/// per-layer metric has a value, and the one trace file.
fn traced(workload: &str, ctx: &Ctx) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let helmet = DatasetProfile::helmet();
    let helmet_models = || {
        (
            SplitName::Helmet.small_model(),
            SplitName::Helmet.big_model(),
        )
    };
    let t0 = Instant::now();
    // (scenes, rendered scenes, frame size, detectors, profile) the replay
    // runs on; then the size of each family's probe.
    let (scenes, rendered, frame_px, (small, big), profile) = match workload {
        "deploy_render" | "deploy_wire" => {
            let shape = if workload == "deploy_render" {
                &deploy::RENDER
            } else {
                &deploy::WIRE
            };
            let models = helmet_models();
            let pool = deploy::pool(ctx.seed, &models.0);
            let rendered = deploy::rendered(shape, &pool);
            (pool, Some(rendered), shape.frame_px, models, helmet)
        }
        "fleet_100k" => {
            let spec = fleet::spec(ctx.seed, fleet::SESSIONS);
            // The pool `core::fleet` builds for this spec.
            let pool = Dataset::generate("fleet", &helmet, spec.scene_pool, spec.seed ^ 0x5ce9e5);
            let px = spec.frame_size.0;
            (pool.scenes().to_vec(), None, px, helmet_models(), helmet)
        }
        "paper_tables" => {
            let voc = DatasetProfile::voc();
            let classes = voc.taxonomy.len();
            let models = (
                SimDetector::new(ModelKind::VggLiteSsd, SplitId::Voc07, classes),
                SimDetector::new(ModelKind::SsdVgg16, SplitId::Voc07, classes),
            );
            let test = Dataset::generate("voc07-test", &voc, 4952, ctx.seed);
            (test.scenes().to_vec(), None, 96, models, voc)
        }
        other => return Err(format!("unknown workload `{other}`")),
    };
    let pool_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    // Cloud-only sessions upload every scene of a pool; only the
    // discriminator-only deployment renders a subset.
    let rendered = rendered.as_deref().unwrap_or(&scenes);
    // As many threads as drive the workload: one per lockstep device, one
    // for the mux connection, one per core for the fleet and the tables.
    let threads = match workload {
        "deploy_render" => deploy::RENDER.devices,
        "deploy_wire" => 1,
        _ => std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let replay = layers::replay_on(
        threads, &scenes, rendered, frame_px, &small, &big, &profile, ctx.seed,
    );

    let small_deploy = deploy::Shape {
        frame_px,
        frames_per_device: 160,
        ..deploy::RENDER
    };
    let (shape, (sessions, scene_pool), scale) = match workload {
        "deploy_render" => (deploy::RENDER, (4_000, 32), 0.02),
        "deploy_wire" => (deploy::WIRE, (4_000, 32), 0.02),
        "fleet_100k" => (small_deploy, (fleet::SESSIONS, fleet::SCENE_POOL), 0.02),
        _ => (small_deploy, (4_000, 32), 1.0),
    };
    let deployed = deploy::probe(ctx, &shape, &replay, &mut ops)?;
    let fleet = fleet::probe(
        ctx.seed,
        sessions,
        frame_px,
        scene_pool,
        &replay,
        &ctx.tracer,
        &mut ops,
    )?;
    let paper = paper::probe(ctx.seed, scale, &replay, &ctx.tracer, &mut ops)?;

    let mut layers: Layers = replay.layers.clone();
    layers.insert("datagen.pool_build_ms", pool_build_ms);
    layers.insert(
        "trace.overhead_ratio",
        match workload {
            "fleet_100k" => fleet.overhead_ratio,
            "paper_tables" => paper.overhead_ratio,
            _ => deployed.overhead_ratio,
        },
    );
    layers.extend(deployed.layers);
    layers.extend(fleet.layers);
    layers.extend(paper.layers);

    let all = ctx.tracer.snapshot();
    let path = ctx.out_dir.join(format!("trace-{workload}.jsonl"));
    spans::write_jsonl(&path, &all).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\n{} spans written to {}", all.len(), path.display());
    println!(
        "  {:<28} {:>9} {:>14} {:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, t) in spans::totals_by_name(&all) {
        println!(
            "  {name:<28} {:>9} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    Ok(Outcome {
        e2e: BTreeMap::new(),
        layers,
        ops,
    })
}

/// Runs one workload in this process and prints its result. The last line
/// of standard output is the driver's JSON object.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let target = args.target_dir();
    let trace = args.parsed("--trace", u8::from(args.flag("--traced")))? != 0;
    let ctx = Ctx {
        seed: args.parsed("--seed", 1)?,
        seconds: args.parsed("--seconds", schema::RUN_SECONDS as f64)?,
        bin_dir: target.join("release"),
        out_dir: target.join("benchmark"),
        tracer: if trace { Tracer::on() } else { Tracer::off() },
    };
    // The wall-clock limit: past it, no node may outlive the run.
    std::thread::spawn(|| {
        std::thread::sleep(WORKLOAD_TIMEOUT);
        eprintln!("benchmark: workload exceeded {WORKLOAD_TIMEOUT:?}");
        procfs::kill_nodes();
        std::process::exit(124);
    });
    println!(
        "== {workload}  seed {}  {} s  {}  ({} cores)",
        ctx.seed,
        ctx.seconds,
        if trace { "traced" } else { "end to end" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let out = if trace {
        traced(workload, &ctx)
    } else {
        end_to_end(workload, &ctx)
    }?;

    let mut metrics = BTreeMap::new();
    let mut rich = BTreeMap::new();
    println!(
        "\n{:<40} {:>16} {:<6} {:>16} {:>16} {:>3}",
        "metric", "median", "unit", "q1", "q3", "n"
    );
    for m in &schema::END_TO_END {
        let Some(s) = out.e2e.get(m.name) else {
            continue;
        };
        println!(
            "{:<40} {:>16.6} {:<6} {:>16.6} {:>16.6} {:>3}",
            m.name,
            s.median,
            m.unit,
            s.q1,
            s.q3,
            s.samples.len()
        );
        let value = object(vec![
            ("value", Value::F64(s.median)),
            ("unit", Value::String(m.unit.into())),
        ]);
        metrics.insert(m.name.to_string(), value);
        let samples = s.samples.iter().map(|&v| Value::F64(v)).collect();
        rich.insert(
            m.name.to_string(),
            object(vec![
                ("unit", Value::String(m.unit.into())),
                ("median", Value::F64(s.median)),
                ("q1", Value::F64(s.q1)),
                ("q3", Value::F64(s.q3)),
                ("samples", Value::Array(samples)),
            ]),
        );
    }
    let mut per_layer = BTreeMap::new();
    for (name, unit, _) in schema::PER_LAYER {
        let Some(&v) = out.layers.get(name) else {
            continue;
        };
        println!("{name:<40} {v:>16.6} {unit:<6}");
        let value = object(vec![
            ("value", Value::F64(v)),
            ("unit", Value::String(unit.into())),
        ]);
        metrics.insert(name.to_string(), value.clone());
        per_layer.insert(name.to_string(), value);
    }
    let expected = if trace {
        schema::PER_LAYER.len()
    } else {
        schema::END_TO_END.len()
    };
    if metrics.len() != expected {
        return Err(format!(
            "measured {} metrics, the schema lists {expected}",
            metrics.len()
        ));
    }
    for failure in &out.ops.failures {
        println!("FAILED: {failure}");
    }
    let correct = out.ops.failed == 0;
    let counts = |m: BTreeMap<String, Value>, key: &'static str| {
        object(vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::U64(out.ops.attempted)),
            ("failed", Value::U64(out.ops.failed)),
            (key, Value::Object(m)),
        ])
    };
    if let Some(path) = args.value("--out") {
        let mut result = counts(rich, "end_to_end");
        if let Value::Object(map) = &mut result {
            map.insert("per_layer".to_string(), Value::Object(per_layer));
        }
        let text = serde_json::to_string(&result).map_err(|e| e.to_string())?;
        std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
    }
    let line = serde_json::to_string(&counts(metrics, "metrics")).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(correct)
}

/// Runs every workload, each in a child process of its own (so that
/// `peak_rss_mb` is per workload), and merges the children's results.
fn run_all(args: &Args, tag: &str) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = args.target_dir();
    let dir = target.join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let mut workloads = BTreeMap::new();
    let mut ok = true;
    for (name, _) in schema::WORKLOADS {
        let part = dir.join(format!("result-{tag}-{name}.json"));
        let mut child = Command::new(&exe);
        child.args(["--workload", name, "--seed", &seed.to_string()]);
        child.args(["--target-dir", &target.to_string_lossy()]);
        child.args(["--out", &part.to_string_lossy()]);
        for key in ["--seconds", "--trace"] {
            if let Some(v) = args.value(key) {
                child.args([key, v]);
            }
        }
        if args.flag("--traced") {
            child.arg("--traced");
        }
        let status = child.status().map_err(|e| format!("{name}: {e}"))?;
        ok &= status.success();
        if !status.success() {
            println!("{name}: exited with {status}");
            continue;
        }
        let text =
            std::fs::read_to_string(&part).map_err(|e| format!("{}: {e}", part.display()))?;
        workloads.insert(
            name.to_string(),
            serde_json::from_str(&text).map_err(|e| e.to_string())?,
        );
    }
    let merged = object(vec![
        ("seed", Value::U64(seed)),
        ("workloads", Value::Object(workloads)),
    ]);
    Ok((merged, ok))
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn dispatch(args: &Args) -> Result<bool, String> {
    match args.0.first().map(String::as_str) {
        Some("schema") => {
            let text = serde_json::to_string_pretty(&schema::benchmark_json());
            println!("{}", text.map_err(|e| e.to_string())?);
            Ok(true)
        }
        Some("compare") => match &args.0[1..] {
            [a, b, ..] => compare::compare(&read_json(a)?, &read_json(b)?),
            _ => Err("usage: benchmark compare A.json B.json".to_string()),
        },
        _ => {
            if let Some(workload) = args.value("--workload") {
                return run_one(workload, args);
            }
            let out = args.value("--out").map_or_else(
                || args.target_dir().join("benchmark").join("result.json"),
                PathBuf::from,
            );
            if args.flag("--twice") {
                let (a, ok_a) = run_all(args, "a")?;
                let (b, ok_b) = run_all(args, "b")?;
                write_json(&out.with_extension("a.json"), &a)?;
                write_json(&out.with_extension("b.json"), &b)?;
                println!("\n== the second set against the first");
                return Ok(compare::compare(&a, &b)? && ok_a && ok_b);
            }
            let (all, ok) = run_all(args, "a")?;
            write_json(&out, &all)?;
            println!("\nresults written to {}", out.display());
            Ok(ok)
        }
    }
}

fn main() -> ExitCode {
    match dispatch(&Args(std::env::args().skip(1).collect())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
