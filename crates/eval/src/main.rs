//! CLI for the experiment harness.
//!
//! ```bash
//! eval [--scale S] [--render WxH] [--csv DIR] [ids...]
//! ```
//!
//! With no ids, runs everything. `--scale` multiplies the published dataset
//! sizes (default 1.0 = full scale); `--csv DIR` additionally writes each
//! table as `DIR/<id>.csv`.

use eval::{run_experiment, ExpConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                let Some(v) = args.next().and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--scale needs a number in (0, 1]");
                    return ExitCode::FAILURE;
                };
                if !(v > 0.0 && v <= 1.0) {
                    eprintln!("--scale must be in (0, 1]");
                    return ExitCode::FAILURE;
                }
                cfg.scale = v;
            }
            "--render" => {
                let Some(v) = args.next() else {
                    eprintln!("--render needs WxH (e.g. 128x96)");
                    return ExitCode::FAILURE;
                };
                let size = v
                    .split_once('x')
                    .and_then(|(w, h)| Some((w.parse::<usize>().ok()?, h.parse::<usize>().ok()?)));
                match size {
                    Some((w, h)) if w > 0 && h > 0 => cfg.render_size = (w, h),
                    _ => {
                        eprintln!("--render needs positive WxH (e.g. 128x96)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--csv" => {
                csv_dir = args.next();
                if csv_dir.is_none() {
                    eprintln!("--csv needs a directory");
                    return ExitCode::FAILURE;
                }
            }
            "--help" | "-h" => {
                println!("usage: eval [--scale S] [--render WxH] [--csv DIR] [ids...]");
                let ids: Vec<&str> = eval::EXPERIMENTS.iter().map(|(id, _)| *id).collect();
                println!("ids: {} or 'all'", ids.join(", "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }

    eprintln!(
        "# smallbig experiment harness — scale {:.3}, render {}x{}",
        cfg.scale, cfg.render_size.0, cfg.render_size.1
    );
    for id in &ids {
        match run_experiment(id, &cfg) {
            Ok(reports) => {
                for report in reports {
                    println!("{report}");
                    if let Some(dir) = &csv_dir {
                        let path = format!("{dir}/{}.csv", report.id);
                        if let Err(e) = std::fs::create_dir_all(dir)
                            .and_then(|_| std::fs::write(&path, report.table.to_csv()))
                        {
                            eprintln!("warning: could not write {path}: {e}");
                        }
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
