//! `smallbig-orchestrate` — launch a whole fleet and merge its results.
//!
//! Three modes (`--mode`, default `process`):
//!
//! * `process` — spawn `cloud-node` plus one `edge-node` per edge as real
//!   OS processes over loopback TCP, scrape their stdout line protocol,
//!   and print the merged fleet report as JSON.
//! * `memory`  — run the identical fleet in this process over the
//!   in-memory transport.
//! * `check`   — run both and assert every per-session report is
//!   bit-identical between them, then print the process-path report.
//!
//! Binary paths default to `cloud-node` / `edge-node` next to this
//! executable (override with `--cloud-bin` / `--edge-bin`). Fleet shape
//! comes from `--spec JSON` / `--spec-file PATH` or individual flags (see
//! `smallbig::distributed::deployment_spec_from_args`).
//!
//! With `--assert-converged true` the orchestrator additionally checks
//! that every session ended the run on the newest calibration version the
//! cloud published (see `--update-epoch-s`), exiting 1 with the laggard
//! sessions otherwise.

use std::path::PathBuf;
use std::time::Duration;

use smallbig::distributed::{
    deployment_spec_from_args, run_fleet_in_memory, run_fleet_processes, CliArgs, DeploymentReport,
};

fn die(msg: &str) -> ! {
    eprintln!("smallbig-orchestrate: {msg}");
    eprintln!(
        "usage: smallbig-orchestrate [--mode process|memory|check] \
         [--cloud-bin PATH] [--edge-bin PATH] [--timeout-s N] \
         [--assert-converged true] \
         [--spec JSON | --spec-file PATH | fleet flags]"
    );
    std::process::exit(2);
}

fn sibling_bin(name: &str) -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join(name)))
        .unwrap_or_else(|| PathBuf::from(name))
}

fn print_report(report: &DeploymentReport) {
    match serde_json::to_string(report) {
        Ok(json) => println!("{json}"),
        Err(e) => die(&format!("report: {e}")),
    }
}

/// `--assert-converged`: every session must end on the newest calibration
/// version the cloud published (exit 1 otherwise, listing the laggards).
fn assert_converged(report: &DeploymentReport) {
    match report.calibration_converged() {
        Ok(version) => eprintln!(
            "converged: {} sessions on calibration version {version}",
            report.sessions.len()
        ),
        Err(laggards) => {
            eprintln!(
                "smallbig-orchestrate: calibration did not converge (newest version {}):",
                report.cloud.cloud.calibration_version
            );
            for (session, version) in laggards {
                eprintln!("  session {session} ended on version {version}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = CliArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    let spec = deployment_spec_from_args(&args).unwrap_or_else(|e| die(&e));
    let mode = args.get("mode").unwrap_or("process");
    let check_converged = args
        .get_with("assert-converged", false, |v| v.parse().ok())
        .unwrap_or_else(|e| die(&e));
    let timeout_s = args
        .get_with("timeout-s", 120u64, |v| v.parse().ok())
        .unwrap_or_else(|e| die(&e));
    let timeout = Duration::from_secs(timeout_s);
    let cloud_bin = args
        .get("cloud-bin")
        .map(PathBuf::from)
        .unwrap_or_else(|| sibling_bin("cloud-node"));
    let edge_bin = args
        .get("edge-bin")
        .map(PathBuf::from)
        .unwrap_or_else(|| sibling_bin("edge-node"));
    args.reject_unread().unwrap_or_else(|e| die(&e));

    let report = match mode {
        "memory" => run_fleet_in_memory(&spec),
        "process" => run_fleet_processes(&spec, &cloud_bin, &edge_bin, timeout)
            .unwrap_or_else(|e| die(&format!("process fleet: {e}"))),
        "check" => {
            let reference = run_fleet_in_memory(&spec);
            let processes = run_fleet_processes(&spec, &cloud_bin, &edge_bin, timeout)
                .unwrap_or_else(|e| die(&format!("process fleet: {e}")));
            if processes.sessions != reference.sessions {
                die("process-path session reports differ from the in-memory reference");
            }
            eprintln!(
                "check ok: {} sessions bit-identical between process and in-memory fleets",
                reference.sessions.len()
            );
            processes
        }
        other => die(&format!("unknown --mode `{other}`")),
    };
    if check_converged {
        assert_converged(&report);
    }
    print_report(&report);
}
