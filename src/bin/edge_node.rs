//! `edge-node` — one edge node (a batch of devices) as a real OS process.
//!
//! Dials the cloud node at `--cloud ADDR` (retrying with the spec's
//! backoff schedule, so it may be launched before the cloud finishes
//! binding), then drives its devices: device `d` of edge `--edge-index e`
//! runs session `e * devices_per_edge + d`, streaming the same
//! deterministic workload the in-memory runner would, and prints
//! `REPORT <json SessionReport>` per finished session.
//!
//! With `--mux true` the edge dials **one** connection and interleaves all
//! of its devices' sessions over it; otherwise each device gets its own
//! connection and runs to completion before the next starts. Either way
//! the per-session reports are bit-identical. `--encoding binary` asks the
//! cloud for the compact binary frame codec in the handshake.
//!
//! Configure with `--spec JSON` / `--spec-file PATH` or individual fleet
//! flags (see `smallbig::distributed::deployment_spec_from_args`).

use smallbig::core::transport::RemoteCloud;
use smallbig::distributed::{
    deployment_spec_from_args, run_device_session, run_edge_sessions_mux, CliArgs, LINE_CONNECTED,
    LINE_REPORT,
};

fn die(msg: &str) -> ! {
    eprintln!("edge-node: {msg}");
    eprintln!(
        "usage: edge-node --cloud ADDR [--edge-index N] \
         [--spec JSON | --spec-file PATH | fleet flags]"
    );
    std::process::exit(2);
}

fn main() {
    let args = CliArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    let spec = deployment_spec_from_args(&args).unwrap_or_else(|e| die(&e));
    let Some(cloud) = args.get("cloud") else {
        die("--cloud ADDR is required");
    };
    let edge_index = args
        .get_with("edge-index", 0usize, |v| v.parse().ok())
        .unwrap_or_else(|e| die(&e));
    args.reject_unread().unwrap_or_else(|e| die(&e));
    if edge_index >= spec.edges {
        die(&format!(
            "--edge-index {edge_index} out of range for a {}-edge fleet",
            spec.edges
        ));
    }

    let encoding = spec.edge.wire_encoding();
    if spec.edge.mux_enabled() {
        // One connection for the whole edge; the handshake session id is
        // the edge's first device (it only names the connection — every
        // device's session is registered explicitly over the mux layer).
        let session = spec.session_id(edge_index, 0);
        let remote =
            RemoteCloud::connect_tcp_with(cloud, session, &spec.edge.retry, encoding, true)
                .unwrap_or_else(|e| die(&format!("edge {edge_index}: connect {cloud}: {e}")));
        for d in 0..spec.devices_per_edge {
            println!("{LINE_CONNECTED}{}", spec.session_id(edge_index, d));
        }
        let reports = run_edge_sessions_mux(&remote, &spec, edge_index);
        remote.close();
        for report in reports {
            let json = serde_json::to_string(&report)
                .unwrap_or_else(|e| die(&format!("session {}: report: {e}", report.session)));
            println!("{LINE_REPORT}{json}");
        }
    } else {
        for d in 0..spec.devices_per_edge {
            let session = spec.session_id(edge_index, d);
            let remote =
                RemoteCloud::connect_tcp_with(cloud, session, &spec.edge.retry, encoding, false)
                    .unwrap_or_else(|e| die(&format!("session {session}: connect {cloud}: {e}")));
            println!("{LINE_CONNECTED}{session}");
            let report = run_device_session(&remote, &spec, session);
            remote.close();
            let json = serde_json::to_string(&report)
                .unwrap_or_else(|e| die(&format!("session {session}: report: {e}")));
            println!("{LINE_REPORT}{json}");
        }
    }
}
