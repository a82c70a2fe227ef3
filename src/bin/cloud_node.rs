//! `cloud-node` — one cloud server as a real OS process.
//!
//! Binds a TCP listener (`--listen`, default an ephemeral loopback port),
//! prints `LISTENING <addr>` on stdout, then serves edge-node connections
//! until `--expect-sessions` connections completed (default: the fleet
//! spec's total; `0` = serve until a `shutdown` line arrives on stdin) and
//! finally prints `STATS <json NodeStats>`.
//!
//! Configure with `--spec JSON` / `--spec-file PATH` or individual fleet
//! flags (see `smallbig::distributed::deployment_spec_from_args`).

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use smallbig::core::transport::{serve, Listener, ServeOptions, TcpWireListener};
use smallbig::distributed::{deployment_spec_from_args, CliArgs, LINE_LISTENING, LINE_STATS};
use smallbig::modelzoo::Detector;

fn die(msg: &str) -> ! {
    eprintln!("cloud-node: {msg}");
    eprintln!(
        "usage: cloud-node [--listen ADDR] [--spec JSON | --spec-file PATH | fleet flags] \
         [--expect-sessions N (0 = serve until `shutdown` on stdin)] [--hello-timeout-ms N]"
    );
    std::process::exit(2);
}

fn main() {
    let args = CliArgs::parse(std::env::args().skip(1)).unwrap_or_else(|e| die(&e));
    let spec = deployment_spec_from_args(&args).unwrap_or_else(|e| die(&e));
    let listen = args.get("listen").unwrap_or("127.0.0.1:0").to_string();
    let expect = args
        .get_with("expect-sessions", Some(spec.total_sessions()), |v| {
            v.parse::<usize>().ok().map(|n| (n > 0).then_some(n))
        })
        .unwrap_or_else(|e| die(&e));
    let hello_ms = args
        .get_with("hello-timeout-ms", 5000u64, |v| v.parse().ok())
        .unwrap_or_else(|e| die(&e));
    args.reject_unread().unwrap_or_else(|e| die(&e));

    let mut listener =
        TcpWireListener::bind(&listen).unwrap_or_else(|e| die(&format!("bind {listen}: {e}")));
    println!("{LINE_LISTENING}{}", listener.local_addr());

    let stop = Arc::new(AtomicBool::new(false));
    let waker = listener.waker();
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            for line in std::io::stdin().lock().lines().map_while(Result::ok) {
                if line.trim() == "shutdown" {
                    stop.store(true, Ordering::SeqCst);
                    waker();
                    break;
                }
            }
        });
    }

    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        hello_timeout: Duration::from_millis(hello_ms),
        expect_sessions: expect,
    };
    let stats = serve(&mut listener, &spec.cloud.build(), &big, &opts, &stop);
    let json = serde_json::to_string(&stats).unwrap_or_else(|e| die(&format!("stats: {e}")));
    println!("{LINE_STATS}{json}");
}
