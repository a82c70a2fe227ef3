//! Distributed-deployment conformance: real OS processes over loopback TCP
//! must produce the same per-session reports as the in-memory transport
//! and the historical in-process channel path, and the failure machinery
//! (half-open connections, version skew, kills, reconnects) must degrade
//! loudly and boundedly instead of hanging.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smallbig::core::transport::{
    client_handshake, memory_listener, memory_pair, serve, serve_connection, ConnectOptions,
    HandshakeError, Hello, Listener, MemoryConnector, NodeStats, RemoteCloud, ServeOptions,
    TcpTransport, TcpWireListener, Transport, Welcome, FRAME_QUEUE_CAP, HELLO_MAGIC,
    PROTOCOL_VERSION,
};
use smallbig::core::wire::{encode_frame, Encoding};
use smallbig::core::{
    CloudConfig, CloudServer, CloudStats, SessionConfig, SessionReport, UpdateConfig,
};
use smallbig::datagen::{Dataset, DatasetProfile};
use smallbig::distributed::{
    run_device_session, run_fleet_in_memory, run_fleet_processes, CloudSpec, DeploymentSpec,
    EdgeSpec, LinkSpec, PolicySpec, SplitName, TraceSpec, LINE_CONNECTED, LINE_REPORT, LINE_STATS,
};
use smallbig::modelzoo::Detector;
use smallbig::simnet::RetryConfig;
use smallbig_core::SchedulerConfig;

mod common;
use common::bounded;

const CLOUD_BIN: &str = env!("CARGO_BIN_EXE_cloud-node");
const EDGE_BIN: &str = env!("CARGO_BIN_EXE_edge-node");

fn quick_retry() -> RetryConfig {
    RetryConfig {
        base_s: 0.05,
        multiplier: 1.5,
        max_retries: 8,
    }
}

fn small_fleet(edges: usize, frames: usize) -> DeploymentSpec {
    DeploymentSpec {
        edges,
        devices_per_edge: 1,
        frames_per_device: frames,
        edge: EdgeSpec {
            retry: quick_retry(),
            ..EdgeSpec::default()
        },
        ..DeploymentSpec::default()
    }
}

/// The acceptance bar: one cloud-node and three edge-node OS processes
/// over loopback TCP produce merged per-session results bit-identical to
/// the same workload over the in-memory transport in this process.
#[test]
fn process_fleet_matches_in_memory_fleet_bit_for_bit() {
    let spec = small_fleet(3, 6);
    let reference = run_fleet_in_memory(&spec);
    let processes = run_fleet_processes(
        &spec,
        Path::new(CLOUD_BIN),
        Path::new(EDGE_BIN),
        Duration::from_secs(120),
    )
    .expect("process fleet completes");

    assert_eq!(processes.sessions, reference.sessions);
    assert_eq!(processes.frames, reference.frames);
    assert_eq!(processes.uploads, reference.uploads);
    assert_eq!(processes.uplink_bytes, reference.uplink_bytes);
    assert_eq!(processes.cloud.connections, 3);
    assert_eq!(processes.cloud.aborted, 0);
    assert_eq!(processes.cloud.refused, 0);
    assert_eq!(processes.cloud.cloud.sessions, 3);
    let ids: Vec<u64> = processes.sessions.iter().map(|s| s.session).collect();
    assert_eq!(ids, vec![0, 1, 2]);
}

/// Runs the single session of `spec` over real loopback TCP against a
/// `serve` loop in this process, requesting `encoding` in the handshake
/// (and asserting the cloud granted exactly that).
fn run_tcp_single_as(spec: &DeploymentSpec, encoding: Encoding) -> (SessionReport, CloudStats) {
    assert_eq!(spec.total_sessions(), 1);
    let mut listener = TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr();
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        expect_sessions: Some(1),
        ..ServeOptions::default()
    };
    std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let stop = AtomicBool::new(false);
            serve(&mut listener, &cloud_cfg, &big, &opts, &stop)
        });
        let remote = RemoteCloud::connect_tcp_with(&addr, 0, &spec.edge.retry, encoding, false)
            .expect("loopback handshake");
        assert_eq!(
            remote.encoding(),
            encoding,
            "cloud must grant the encoding this edge offered"
        );
        let report = run_device_session(&remote, spec, 0);
        remote.close();
        let stats = server.join().expect("serve thread");
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.aborted, 0);
        (report, stats.cloud)
    })
}

/// [`run_tcp_single_as`] with the default JSON codec.
fn run_tcp_single(spec: &DeploymentSpec) -> (SessionReport, CloudStats) {
    run_tcp_single_as(spec, Encoding::Json)
}

/// The same session driven through the historical in-process channel path
/// (`CloudServer::spawn` + `connect`) — the reference the transports must
/// reproduce bit for bit.
fn run_channel_single(spec: &DeploymentSpec) -> (SessionReport, CloudStats) {
    assert_eq!(spec.total_sessions(), 1);
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let mut cloud = CloudServer::spawn(spec.cloud.build(), big);
    let small = spec.split.small_model();
    let (_, policy) = spec.edge.policy.build();
    let mut sess = cloud.connect(spec.session_config(0), &small, policy);
    let data = spec.dataset(0);
    for scene in data.iter() {
        let ticket = sess.submit(scene);
        sess.poll(ticket).expect("frame resolves");
    }
    let report = sess.drain();
    drop(sess);
    (report, cloud.shutdown())
}

/// Loopback TCP must match the channel path across the configuration
/// surface: policies, deadlines, traced links, admission control and
/// non-FIFO scheduling.
#[test]
fn tcp_sessions_match_channel_path_across_configs() {
    let base = small_fleet(1, 10);
    let variants: Vec<(&str, DeploymentSpec)> = vec![
        ("discriminator", base.clone()),
        (
            "cloud-only",
            DeploymentSpec {
                edge: EdgeSpec {
                    policy: PolicySpec::CloudOnly,
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
        (
            "edge-only",
            DeploymentSpec {
                edge: EdgeSpec {
                    policy: PolicySpec::EdgeOnly,
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
        (
            "deadline",
            DeploymentSpec {
                edge: EdgeSpec {
                    deadline_s: Some(0.12),
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
        (
            "bursty-trace",
            DeploymentSpec {
                edge: EdgeSpec {
                    policy: PolicySpec::CloudOnly,
                    link: LinkSpec::Cellular,
                    trace: TraceSpec::Bursty { seed: 7 },
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
        (
            "admission",
            DeploymentSpec {
                cloud: CloudSpec {
                    queue_limit: Some(2),
                    ..base.cloud.clone()
                },
                edge: EdgeSpec {
                    policy: PolicySpec::CloudOnly,
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
        (
            "deadline-scheduler",
            DeploymentSpec {
                cloud: CloudSpec {
                    max_batch: 3,
                    scheduler: SchedulerConfig::DeadlineAware { lookahead: 4 },
                    ..base.cloud.clone()
                },
                edge: EdgeSpec {
                    deadline_s: Some(0.2),
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
    ];
    let test = "tcp_sessions_match_channel_path_across_configs";
    bounded(test, Duration::from_secs(120), move || {
        for (name, spec) in variants {
            let (want, want_stats) = run_channel_single(&spec);
            let (got, got_stats) = run_tcp_single(&spec);
            assert_eq!(got, want, "variant `{name}` diverged from channel path");
            assert_eq!(
                got_stats.served, want_stats.served,
                "variant `{name}` served a different frame count"
            );
        }
    });
}

/// A memory listener's `accept` fails with `BrokenPipe` once every
/// connector is dropped, though a waker for it is still alive: the waker
/// does not hold the listener's channel open.
#[test]
fn memory_accept_fails_once_every_connector_is_dropped_while_a_waker_lives() {
    let test = "memory_accept_fails_once_every_connector_is_dropped_while_a_waker_lives";
    let kind = bounded(test, Duration::from_secs(10), || {
        let (mut listener, connector) = memory_listener();
        let waker = listener.waker();
        drop((connector.clone(), connector));
        let kind = listener.accept().err().map(|e| e.kind());
        // and a waker that outlives every connector wakes nothing
        waker();
        kind
    });
    assert_eq!(kind, Some(std::io::ErrorKind::BrokenPipe));
}

/// An edge that panics (here at attach: a zero frame size) ends the
/// in-memory fleet with its panic, instead of leaving the serving thread
/// waiting in `accept` for sessions that never come.
#[test]
#[should_panic(expected = "frame_size must be positive")]
fn a_panicking_edge_ends_the_in_memory_fleet_with_its_panic() {
    let base = small_fleet(2, 3);
    let spec = DeploymentSpec {
        edge: EdgeSpec {
            frame_px: 0,
            ..base.edge.clone()
        },
        ..base
    };
    let test = "a_panicking_edge_ends_the_in_memory_fleet_with_its_panic";
    bounded(test, Duration::from_secs(30), move || {
        run_fleet_in_memory(&spec)
    });
}

// ---------------------------------------------------------------------------
// Model-update loop over the wire
// ---------------------------------------------------------------------------

/// A fleet with the cloud's calibration-update loop switched on, paced so
/// the 30-frame sessions cross a couple of refit epochs mid-run.
fn update_fleet(edges: usize, frames: usize) -> DeploymentSpec {
    DeploymentSpec {
        cloud: CloudSpec {
            updates: Some(UpdateConfig {
                epoch_s: 0.1,
                min_examples: 6,
                ..UpdateConfig::default()
            }),
            ..CloudSpec::default()
        },
        ..small_fleet(edges, frames)
    }
}

/// Calibration updates ride the wire: a session over loopback TCP must
/// stash and apply the same artifacts at the same frames as the
/// historical channel path — the pushed `tag::UPDATE` frames are part of
/// the conformance surface, not an out-of-band extra.
#[test]
fn calibration_updates_over_tcp_match_channel_path() {
    let spec = update_fleet(1, 30);
    let (want, want_stats) = run_channel_single(&spec);
    let (got, got_stats) = run_tcp_single(&spec);
    assert!(
        want.updates_applied >= 1,
        "workload must actually exercise the update loop"
    );
    assert!(want.calibration_version >= 1);
    assert_eq!(got, want, "update-enabled TCP session diverged");
    assert_eq!(got_stats.updates_published, want_stats.updates_published);
    assert_eq!(
        got_stats.calibration_version,
        want_stats.calibration_version
    );
}

/// Fleet-wide rollout convergence: the serve path runs one cloud worker
/// (and hence one update publisher) per connection, so convergence means
/// every session ended on the newest version any publisher reached —
/// exactly what `DeploymentReport::calibration_converged` (and the
/// orchestrator's `--assert-converged`) checks across the merged report.
#[test]
fn fleet_calibration_rollout_converges_in_memory() {
    let spec = update_fleet(3, 30);
    let report = run_fleet_in_memory(&spec);
    let newest = report
        .calibration_converged()
        .unwrap_or_else(|laggards| panic!("sessions lagged the newest calibration: {laggards:?}"));
    assert!(newest >= 1, "at least one refit must have rolled out");
    // Per-connection publishers: each of the three sessions' clouds walks
    // the same deterministic epoch cadence, and the merged node stats sum
    // their publish counts.
    assert_eq!(
        report.cloud.cloud.updates_published,
        newest * report.sessions.len() as u64
    );
    for s in &report.sessions {
        assert!(
            s.updates_applied >= 1,
            "session {} never applied",
            s.session
        );
        assert_eq!(s.calibration_version, newest);
        assert_eq!(s.rollbacks, 0);
    }
}

// ---------------------------------------------------------------------------
// Process soak: kill an edge mid-run, restart it, account for everything
// ---------------------------------------------------------------------------

struct LineChild {
    child: Child,
    lines: std::sync::mpsc::Receiver<String>,
}

fn spawn_lines(mut cmd: Command) -> LineChild {
    let mut child = cmd
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn node binary");
    let out = child.stdout.take().expect("stdout piped");
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for line in BufReader::new(out).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    LineChild { child, lines: rx }
}

impl LineChild {
    fn expect_line_with(&self, prefix: &str, deadline: Instant) -> String {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.lines.recv_timeout(left) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix(prefix) {
                        return rest.to_string();
                    }
                }
                Err(e) => panic!("no `{prefix}` line before deadline: {e}"),
            }
        }
    }

    fn wait_success(&mut self, deadline: Instant, name: &str) {
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                assert!(status.success(), "{name} exited with {status}");
                return;
            }
            assert!(Instant::now() < deadline, "{name} hung past the deadline");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for LineChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Kill an edge-node mid-session and restart it: the cloud must record
/// exactly one aborted connection, accept the replacement, and the
/// surviving reports must be bit-identical to an undisturbed in-memory
/// fleet — all inside a bounded deadline.
#[test]
fn killed_edge_restarts_and_fleet_accounts_for_every_frame() {
    let deadline = Instant::now() + Duration::from_secs(120);
    let spec = small_fleet(2, 30);
    let reference = run_fleet_in_memory(&spec);
    let spec_json = serde_json::to_string(&spec).expect("spec serializes");

    // The cloud expects three registered connections: the doomed edge 0,
    // edge 1, and the restarted edge 0.
    let mut cloud = spawn_lines({
        let mut c = Command::new(CLOUD_BIN);
        c.args([
            "--listen",
            "127.0.0.1:0",
            "--spec",
            &spec_json,
            "--expect-sessions",
            "3",
        ])
        .stdin(Stdio::piped());
        c
    });
    let addr = cloud.expect_line_with("LISTENING ", deadline);

    let edge_cmd = |edge_index: &str| {
        let mut c = Command::new(EDGE_BIN);
        c.args([
            "--cloud",
            &addr,
            "--edge-index",
            edge_index,
            "--spec",
            &spec_json,
        ]);
        c
    };

    // Edge 0 gets a workload far too long to finish: we kill it mid-run.
    // Only flags (no --spec) so --frames takes effect; everything else
    // matches the spec's defaults.
    let mut doomed = spawn_lines({
        let mut c = Command::new(EDGE_BIN);
        c.args([
            "--cloud",
            &addr,
            "--edge-index",
            "0",
            "--edges",
            "2",
            "--frames",
            "20000",
        ]);
        c
    });
    doomed.expect_line_with(LINE_CONNECTED, deadline);
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        doomed.child.try_wait().expect("try_wait").is_none(),
        "doomed edge finished 20000 frames before the kill; raise the workload"
    );
    doomed.child.kill().expect("kill edge 0");
    let _ = doomed.child.wait();

    // Edge 1 runs the real workload to completion alongside the carnage.
    let mut survivor = spawn_lines(edge_cmd("1"));
    survivor.wait_success(deadline, "edge-node 1");
    let survivor_report: SessionReport =
        serde_json::from_str(&survivor.expect_line_with(LINE_REPORT, deadline))
            .expect("survivor report parses");

    // Restart edge 0 from scratch; the cloud must accept the reconnect.
    let mut restarted = spawn_lines(edge_cmd("0"));
    restarted.wait_success(deadline, "restarted edge-node 0");
    let restarted_report: SessionReport =
        serde_json::from_str(&restarted.expect_line_with(LINE_REPORT, deadline))
            .expect("restarted report parses");

    // The cloud stops on its own after the third registered connection.
    cloud.wait_success(deadline, "cloud-node");
    let stats: smallbig::core::transport::NodeStats =
        serde_json::from_str(&cloud.expect_line_with(LINE_STATS, deadline))
            .expect("cloud stats parse");

    assert_eq!(stats.connections, 3);
    assert_eq!(stats.aborted, 1, "exactly the killed edge must abort");
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.hello_timeouts, 0);
    assert_eq!(restarted_report, reference.sessions[0]);
    assert_eq!(survivor_report, reference.sessions[1]);
    assert_eq!(
        restarted_report.frames + survivor_report.frames,
        reference.frames,
        "every frame of the undisturbed fleet is accounted for"
    );
}

// ---------------------------------------------------------------------------
// Mid-run reconnect through a cutting proxy
// ---------------------------------------------------------------------------

/// Forwards framed bytes client→server, severing both directions after
/// `cut_after` transport frames; later connections pass untouched.
fn cutting_proxy(backend: String, cut_after: usize) -> String {
    let front = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let addr = front.local_addr().expect("proxy addr").to_string();
    std::thread::spawn(move || {
        let mut first = true;
        for conn in front.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(&backend) else {
                break;
            };
            let budget = if first { Some(cut_after) } else { None };
            first = false;
            let (c2s_c, c2s_s) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            std::thread::spawn(move || copy_frames(c2s_c, c2s_s, budget));
            std::thread::spawn(move || copy_frames(server, client, None));
        }
    });
    addr
}

/// Copies length-prefixed transport frames from `from` to `to`; with a
/// budget, severs both sockets once it is spent.
fn copy_frames(mut from: TcpStream, mut to: TcpStream, mut budget: Option<usize>) {
    loop {
        let mut prefix = [0u8; 4];
        if from.read_exact(&mut prefix).is_err() {
            break;
        }
        let len = u32::from_le_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        if from.read_exact(&mut payload).is_err() {
            break;
        }
        if to
            .write_all(&prefix)
            .and_then(|()| to.write_all(&payload))
            .is_err()
        {
            break;
        }
        if let Some(left) = budget.as_mut() {
            *left -= 1;
            if *left == 0 {
                let _ = from.shutdown(std::net::Shutdown::Both);
                let _ = to.shutdown(std::net::Shutdown::Both);
                break;
            }
        }
    }
}

/// A connection cut mid-session must reconnect with the configured
/// backoff, replay its registration and pending frames, and finish every
/// frame — while the cloud books one aborted and one clean connection.
#[test]
fn mid_run_cut_reconnects_and_completes_every_frame() {
    let spec = DeploymentSpec {
        edge: EdgeSpec {
            policy: PolicySpec::CloudOnly,
            retry: quick_retry(),
            ..EdgeSpec::default()
        },
        ..small_fleet(1, 12)
    };
    let mut listener = TcpWireListener::bind("127.0.0.1:0").expect("bind backend");
    let backend = listener.local_addr();
    // Frame 5 client→server is mid-stream: HELLO, REGISTER and the first
    // SUBMITs pass, then the line goes dark.
    let proxy = cutting_proxy(backend, 5);
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        expect_sessions: Some(2),
        ..ServeOptions::default()
    };
    let (report, stats) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let stop = AtomicBool::new(false);
            serve(&mut listener, &cloud_cfg, &big, &opts, &stop)
        });
        let remote =
            RemoteCloud::connect_tcp(&proxy, 0, &spec.edge.retry).expect("proxy handshake");
        let report = run_device_session(&remote, &spec, 0);
        remote.close();
        (report, server.join().expect("serve thread"))
    });
    assert_eq!(report.frames, 12);
    assert_eq!(report.uploads, 12, "cloud-only: every frame upstreams");
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.aborted, 1);
    assert!(
        stats.cloud.served >= 12,
        "replays may re-serve, but never under-serve"
    );
}

// ---------------------------------------------------------------------------
// Handshake failure modes over real TCP
// ---------------------------------------------------------------------------

/// A half-open connection (TCP established, no Hello) must time out on its
/// handler without stalling real sessions, and be booked as a hello
/// timeout.
#[test]
fn half_open_connection_times_out_without_blocking_serving() {
    let spec = small_fleet(1, 4);
    let mut listener = TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr();
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        hello_timeout: Duration::from_millis(100),
        expect_sessions: Some(1),
    };
    let stats = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let stop = AtomicBool::new(false);
            serve(&mut listener, &cloud_cfg, &big, &opts, &stop)
        });
        // Establish TCP and go silent; hold the socket open throughout.
        let half_open = TcpStream::connect(&addr).expect("raw connect");
        let remote = RemoteCloud::connect_tcp(&addr, 0, &spec.edge.retry)
            .expect("real session connects past the half-open peer");
        let report = run_device_session(&remote, &spec, 0);
        remote.close();
        assert_eq!(report.frames, 4);
        let stats = server.join().expect("serve thread");
        drop(half_open);
        stats
    });
    assert_eq!(stats.hello_timeouts, 1);
    // Only registered connections count; the half-open one never was.
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.cloud.sessions, 1);
}

/// A protocol-version mismatch must surface as the typed
/// [`HandshakeError::VersionMismatch`] carrying both versions, and be
/// booked as refused on the serving side.
#[test]
fn version_mismatch_over_tcp_is_a_typed_error() {
    let spec = small_fleet(1, 1);
    let mut listener = TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr();
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let server = std::thread::spawn(move || {
        let conn = listener.accept().expect("accept");
        serve_connection(conn, &cloud_cfg, &big, &ServeOptions::default())
    });
    let transport = TcpTransport::dial(&addr).expect("dial");
    let (mut tx, mut rx) = (Box::new(transport) as Box<dyn Transport>).split();
    let hello = Hello {
        magic: HELLO_MAGIC,
        protocol: 999,
        session: 0,
        encoding: Encoding::Json.name().to_string(),
        mux: false,
    };
    let err = client_handshake(&mut *tx, &mut *rx, &hello, Duration::from_secs(5))
        .expect_err("future protocol must be refused");
    match err {
        HandshakeError::VersionMismatch { server, client } => {
            assert_eq!(server, PROTOCOL_VERSION);
            assert_eq!(client, 999);
        }
        other => panic!("expected VersionMismatch, got {other}"),
    }
    let outcome = server.join().expect("handler thread");
    assert!(outcome.refused);
    assert!(!outcome.registered);
}

/// A silent server (TCP accepts, never answers the Hello) must produce a
/// bounded [`HandshakeError::Timeout`] on the client, not a hang.
#[test]
fn silent_server_times_out_the_client_handshake() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind silent server");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || listener.accept().map(|(s, _)| s));
    let transport = TcpTransport::dial(&addr).expect("dial");
    let (mut tx, mut rx) = (Box::new(transport) as Box<dyn Transport>).split();
    let hello = Hello {
        magic: HELLO_MAGIC,
        protocol: PROTOCOL_VERSION,
        session: 0,
        encoding: Encoding::Json.name().to_string(),
        mux: false,
    };
    let started = Instant::now();
    let err = client_handshake(&mut *tx, &mut *rx, &hello, Duration::from_millis(200))
        .expect_err("silence must time out");
    assert!(matches!(err, HandshakeError::Timeout));
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must be bounded"
    );
    drop(hold.join());
}

// ---------------------------------------------------------------------------
// Encoding negotiation and the binary frame codec
// ---------------------------------------------------------------------------

/// The binary frame codec must be a pure wire optimization: sessions
/// negotiated to binary produce reports bit-identical to the in-process
/// channel path, across the policy surface.
#[test]
fn binary_codec_sessions_match_channel_path_bit_for_bit() {
    let base = small_fleet(1, 10);
    let variants: Vec<(&str, DeploymentSpec)> = vec![
        ("discriminator", base.clone()),
        (
            "cloud-only",
            DeploymentSpec {
                edge: EdgeSpec {
                    policy: PolicySpec::CloudOnly,
                    ..base.edge.clone()
                },
                ..base.clone()
            },
        ),
    ];
    for (name, spec) in variants {
        let (want, want_stats) = run_channel_single(&spec);
        let (got, got_stats) = run_tcp_single_as(&spec, Encoding::Binary);
        assert_eq!(got, want, "binary codec diverged on `{name}`");
        assert_eq!(
            got_stats.served, want_stats.served,
            "binary codec served a different frame count on `{name}`"
        );
    }
}

/// A welcome naming an encoding the edge never offered (corrupted or
/// hostile negotiation field) must surface as the typed
/// [`HandshakeError::Encoding`] — never be guessed around.
#[test]
fn corrupted_encoding_in_welcome_is_a_typed_error() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind hostile cloud");
    let addr = listener.local_addr().expect("addr").to_string();
    let hostile = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        // Swallow the HELLO: one outer length prefix plus payload.
        let mut prefix = [0u8; 4];
        sock.read_exact(&mut prefix).expect("hello prefix");
        let mut hello = vec![0u8; u32::from_le_bytes(prefix) as usize];
        sock.read_exact(&mut hello).expect("hello payload");
        // Reply WELCOME (tag 2) naming an encoding nobody offered.
        let welcome = Welcome {
            protocol: PROTOCOL_VERSION,
            session: 0,
            admission: false,
            encoding: "zstd".to_string(),
            mux: false,
        };
        let mut payload = vec![2u8];
        payload.extend_from_slice(&encode_frame(&welcome));
        let len = u32::try_from(payload.len()).expect("small frame");
        sock.write_all(&len.to_le_bytes()).expect("welcome prefix");
        sock.write_all(&payload).expect("welcome payload");
        sock
    });
    let Err(err) = RemoteCloud::connect_tcp_with(&addr, 0, &quick_retry(), Encoding::Binary, false)
    else {
        panic!("hostile negotiation must fail typed");
    };
    match err {
        HandshakeError::Encoding { detail } => assert!(
            detail.contains("zstd"),
            "detail must name the bogus encoding: {detail}"
        ),
        other => panic!("expected HandshakeError::Encoding, got {other}"),
    }
    drop(hostile.join());
}

/// A mixed fleet — one edge on JSON, one on the binary codec, same cloud —
/// must produce per-session reports bit-identical to the in-memory
/// reference: the codec is invisible above the wire.
#[test]
fn mixed_encoding_fleet_matches_in_memory_reference() {
    let deadline = Instant::now() + Duration::from_secs(120);
    let spec = small_fleet(2, 6);
    let reference = run_fleet_in_memory(&spec);
    let spec_for = |encoding: Encoding| {
        serde_json::to_string(&DeploymentSpec {
            edge: EdgeSpec {
                encoding: Some(encoding),
                ..spec.edge.clone()
            },
            ..spec.clone()
        })
        .expect("spec serializes")
    };

    let mut cloud = spawn_lines({
        let mut c = Command::new(CLOUD_BIN);
        c.args([
            "--listen",
            "127.0.0.1:0",
            "--spec",
            &spec_for(Encoding::Json),
            "--expect-sessions",
            "2",
        ])
        .stdin(Stdio::piped());
        c
    });
    let addr = cloud.expect_line_with("LISTENING ", deadline);

    let mut edges = Vec::new();
    for (edge_index, encoding) in [(0usize, Encoding::Json), (1, Encoding::Binary)] {
        edges.push(spawn_lines({
            let mut c = Command::new(EDGE_BIN);
            c.args([
                "--cloud",
                &addr,
                "--edge-index",
                &edge_index.to_string(),
                "--spec",
                &spec_for(encoding),
            ]);
            c
        }));
    }
    for (i, edge) in edges.iter_mut().enumerate() {
        edge.wait_success(deadline, &format!("edge-node {i}"));
        let report: SessionReport =
            serde_json::from_str(&edge.expect_line_with(LINE_REPORT, deadline))
                .expect("edge report parses");
        assert_eq!(
            report, reference.sessions[i],
            "edge {i} diverged from the in-memory reference"
        );
    }
    cloud.wait_success(deadline, "cloud-node");
    let stats: smallbig::core::transport::NodeStats =
        serde_json::from_str(&cloud.expect_line_with(LINE_STATS, deadline))
            .expect("cloud stats parse");
    assert_eq!(stats.connections, 2);
    assert_eq!(stats.refused, 0);
    assert_eq!(stats.aborted, 0);
    assert_eq!(stats.cloud.sessions, 2);
}

// ---------------------------------------------------------------------------
// Session multiplexing
// ---------------------------------------------------------------------------

/// Multiplexed edges (every device's session interleaved over one
/// connection, here also on the binary codec) must produce a fleet report
/// bit-identical to the in-memory reference, which always dials one
/// connection per device.
#[test]
fn mux_process_fleet_matches_in_memory_fleet_bit_for_bit() {
    let spec = DeploymentSpec {
        edges: 2,
        devices_per_edge: 3,
        frames_per_device: 4,
        edge: EdgeSpec {
            retry: quick_retry(),
            encoding: Some(Encoding::Binary),
            mux: Some(true),
            ..EdgeSpec::default()
        },
        ..DeploymentSpec::default()
    };
    let reference = run_fleet_in_memory(&spec);
    let processes = run_fleet_processes(
        &spec,
        Path::new(CLOUD_BIN),
        Path::new(EDGE_BIN),
        Duration::from_secs(120),
    )
    .expect("mux process fleet completes");

    assert_eq!(processes.sessions, reference.sessions);
    assert_eq!(processes.frames, reference.frames);
    assert_eq!(processes.uploads, reference.uploads);
    assert_eq!(processes.uplink_bytes, reference.uplink_bytes);
    assert_eq!(
        processes.cloud.connections, 2,
        "one connection per edge, not per device"
    );
    assert_eq!(processes.cloud.aborted, 0);
    assert_eq!(processes.cloud.refused, 0);
    assert_eq!(processes.cloud.cloud.sessions, 6);
    let ids: Vec<u64> = processes.sessions.iter().map(|s| s.session).collect();
    assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
}

// ---------------------------------------------------------------------------
// Bounded backpressure
// ---------------------------------------------------------------------------

/// With its peer stalled, a transport sender must wedge at the bounded
/// frame queue ([`FRAME_QUEUE_CAP`]) instead of buffering without limit —
/// and once the reader resumes, every frame arrives in order.
#[test]
fn stalled_reader_bounds_in_flight_frames_then_drains() {
    let (a, b) = memory_pair();
    let (mut tx, _a_rx) = (Box::new(a) as Box<dyn Transport>).split();
    let (_b_tx, mut rx) = (Box::new(b) as Box<dyn Transport>).split();
    const TOTAL: usize = 10 * FRAME_QUEUE_CAP;
    let sent = Arc::new(AtomicUsize::new(0));
    let progress = Arc::clone(&sent);
    let flooder = std::thread::spawn(move || {
        for i in 0..TOTAL {
            let frame = u32::try_from(i).expect("small index").to_le_bytes();
            tx.send(&frame).expect("receiver stays alive");
            progress.fetch_add(1, Ordering::SeqCst);
        }
    });
    // Nobody reads: the flood must stall at the queue bound.
    std::thread::sleep(Duration::from_millis(300));
    let in_flight = sent.load(Ordering::SeqCst);
    assert!(
        in_flight <= FRAME_QUEUE_CAP + 1,
        "sender ran {in_flight} frames ahead of a stalled reader (cap {FRAME_QUEUE_CAP})"
    );
    assert!(
        in_flight >= FRAME_QUEUE_CAP / 2,
        "sender should at least make progress up to the bound, sent {in_flight}"
    );
    // Resume reading: the sender unblocks and nothing is lost or reordered.
    for i in 0..TOTAL {
        let frame = rx.recv().expect("recv").expect("stream open");
        let want = u32::try_from(i).expect("small index").to_le_bytes();
        assert_eq!(&frame[..], &want[..], "frame {i} out of order");
    }
    flooder.join().expect("flooder thread");
}

/// Sessions and submits per session of the burst tests.
const BURST_SESSIONS: u64 = 8;
const BURST_SUBMITS: usize = 10 * FRAME_QUEUE_CAP;

/// A burst's bound: past it, the burst hangs rather than runs slow.
const BURST_LIMIT: Duration = Duration::from_secs(60);

/// Serves `listener` with `cloud` until the burst's sessions completed,
/// connects through `connect`, and has [`BURST_SESSIONS`] mux sessions
/// submit [`BURST_SUBMITS`] cloud-only frames each, round-robin, before
/// polling any. Asserts every ticket resolves; returns the sessions'
/// summed uploads and the node's stats.
fn burst(
    mut listener: Box<dyn Listener>,
    cloud: CloudConfig,
    connect: impl FnOnce(&str) -> RemoteCloud,
) -> (usize, NodeStats) {
    let addr = listener.local_addr();
    let node = std::thread::spawn(move || {
        let big: Arc<dyn Detector + Send + Sync> = Arc::new(SplitName::Helmet.big_model());
        let opts = ServeOptions {
            expect_sessions: Some(BURST_SESSIONS as usize),
            ..ServeOptions::default()
        };
        serve(&mut *listener, &cloud, &big, &opts, &AtomicBool::new(false))
    });
    let remote = connect(&addr);
    assert!(remote.mux());
    let small = SplitName::Helmet.small_model();
    let data = Dataset::generate("burst", &DatasetProfile::helmet(), BURST_SUBMITS, 7);
    let mut sessions: Vec<_> = (0..BURST_SESSIONS)
        .map(|session| {
            let (pipeline, policy) = PolicySpec::CloudOnly.build();
            let config = SessionConfig {
                frame_size: (8, 8),
                pipeline,
                ..SessionConfig::new(2)
            };
            remote.attach_as(session, config, &small, policy)
        })
        .collect();
    let mut tickets = Vec::new();
    for scene in data.iter() {
        for sess in sessions.iter_mut() {
            tickets.push(sess.submit(scene));
        }
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let sess = &mut sessions[i % BURST_SESSIONS as usize];
        assert!(sess.poll(ticket).is_some(), "ticket {i} resolves");
    }
    let uploads = sessions.iter_mut().map(|s| s.drain().uploads).sum();
    drop(sessions);
    remote.close();
    (uploads, node.join().expect("serve thread"))
}

/// A mux fleet that submits ten queues' worth of frames before its first
/// poll must get every one answered: the edge's one thread reads the
/// cloud's answers while it writes, so neither side ends up blocked on a
/// full queue the other will never drain. Over both transports, each
/// within a 60 s bound.
#[test]
fn a_burst_of_submits_before_any_poll_resolves_every_frame() {
    let connect_memory = |connector: MemoryConnector| {
        move |_: &str| {
            let transport = connector.connect().expect("listener alive");
            let opts = ConnectOptions {
                encoding: Encoding::Binary,
                mux: true,
                ..ConnectOptions::default()
            };
            RemoteCloud::connect(Box::new(transport), 0, opts).expect("handshake")
        }
    };
    let connect_tcp = |addr: &str| {
        RemoteCloud::connect_tcp_with(addr, 0, &quick_retry(), Encoding::Binary, true)
            .expect("loopback handshake")
    };
    let runs = [
        bounded("the burst over memory", BURST_LIMIT, move || {
            let (listener, connector) = memory_listener();
            let cloud = CloudConfig::default();
            burst(Box::new(listener), cloud, connect_memory(connector))
        }),
        bounded("the burst over tcp", BURST_LIMIT, move || {
            let listener = TcpWireListener::bind("127.0.0.1:0").expect("bind loopback");
            burst(Box::new(listener), CloudConfig::default(), connect_tcp)
        }),
    ];
    for (uploads, stats) in runs {
        assert_eq!(uploads, BURST_SESSIONS as usize * BURST_SUBMITS);
        assert_eq!(stats.cloud.served, uploads);
        assert_eq!((stats.connections, stats.aborted), (1, 0));
    }
}

/// The burst against a cloud that batches far more frames than a queue
/// holds, so it answers nothing before each session's first flush: the
/// edge's read window must give up on answers that are not coming and
/// keep writing, or the flush that releases them is never sent.
#[test]
fn a_burst_held_by_a_batching_cloud_resolves_every_frame() {
    let cloud = CloudConfig {
        max_batch: 4 * BURST_SUBMITS,
        ..CloudConfig::default()
    };
    let (uploads, stats) = bounded("the batching burst over memory", BURST_LIMIT, move || {
        let (listener, connector) = memory_listener();
        burst(Box::new(listener), cloud, move |_| {
            let transport = connector.connect().expect("listener alive");
            let opts = ConnectOptions {
                mux: true,
                ..ConnectOptions::default()
            };
            RemoteCloud::connect(Box::new(transport), 0, opts).expect("handshake")
        })
    });
    assert_eq!(stats.cloud.served, uploads);
    assert_eq!(stats.cloud.batches, BURST_SESSIONS as usize);
}

/// Forwards framed bytes `from` → `to`, freezing once for `stall` after
/// `stall_after` frames — a slow consumer, not a cut.
fn copy_frames_stalling(
    mut from: TcpStream,
    mut to: TcpStream,
    stall_after: usize,
    stall: Duration,
) {
    let mut forwarded = 0usize;
    loop {
        let mut prefix = [0u8; 4];
        if from.read_exact(&mut prefix).is_err() {
            break;
        }
        let len = u32::from_le_bytes(prefix) as usize;
        let mut payload = vec![0u8; len];
        if from.read_exact(&mut payload).is_err() {
            break;
        }
        if to
            .write_all(&prefix)
            .and_then(|()| to.write_all(&payload))
            .is_err()
        {
            break;
        }
        forwarded += 1;
        if forwarded == stall_after {
            std::thread::sleep(stall);
        }
    }
}

/// A slow consumer mid-session (the proxy freezes the client→server
/// direction for 400 ms) must backpressure the edge — bounded buffering,
/// no reconnect, no loss — and the final report stays bit-identical to
/// the channel path.
#[test]
fn slow_consumer_stall_backpressures_without_losing_frames() {
    let spec = DeploymentSpec {
        edge: EdgeSpec {
            policy: PolicySpec::CloudOnly,
            retry: quick_retry(),
            ..EdgeSpec::default()
        },
        ..small_fleet(1, 12)
    };
    let (want, _) = run_channel_single(&spec);
    let mut listener = TcpWireListener::bind("127.0.0.1:0").expect("bind backend");
    let backend = listener.local_addr();
    let front = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let proxy = front.local_addr().expect("proxy addr").to_string();
    std::thread::spawn(move || {
        for conn in front.incoming() {
            let Ok(client) = conn else { break };
            let Ok(server) = TcpStream::connect(&backend) else {
                break;
            };
            let (c2s_c, c2s_s) = (
                client.try_clone().expect("clone"),
                server.try_clone().expect("clone"),
            );
            std::thread::spawn(move || {
                copy_frames_stalling(c2s_c, c2s_s, 5, Duration::from_millis(400))
            });
            std::thread::spawn(move || copy_frames(server, client, None));
        }
    });
    let cloud_cfg = spec.cloud.build();
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(spec.split.big_model());
    let opts = ServeOptions {
        expect_sessions: Some(1),
        ..ServeOptions::default()
    };
    let (report, stats) = std::thread::scope(|scope| {
        let server = scope.spawn(|| {
            let stop = AtomicBool::new(false);
            serve(&mut listener, &cloud_cfg, &big, &opts, &stop)
        });
        let remote =
            RemoteCloud::connect_tcp_with(&proxy, 0, &spec.edge.retry, Encoding::Binary, false)
                .expect("proxy handshake");
        let report = run_device_session(&remote, &spec, 0);
        remote.close();
        (report, server.join().expect("serve thread"))
    });
    assert_eq!(report, want, "stalled wire must not change the report");
    assert_eq!(stats.connections, 1, "a stall is not a cut: no reconnect");
    assert_eq!(stats.aborted, 0);
}

/// `dial_with_backoff` must keep retrying while the listener is still
/// coming up, and fail loudly (not hang) when nothing ever binds.
#[test]
fn dial_with_backoff_rides_out_a_late_listener() {
    // Reserve a port, free it, and bind it again only after a delay.
    let placeholder = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let addr = placeholder.local_addr().expect("addr").to_string();
    drop(placeholder);
    let late_addr = addr.clone();
    let late = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let listener = TcpListener::bind(&late_addr).expect("late bind");
        listener.accept().map(|(s, _)| s)
    });
    let transport = TcpTransport::dial_with_backoff(&addr, &quick_retry())
        .expect("backoff outlasts the late bind");
    drop(transport);
    drop(late.join());

    // And with nothing listening, retries exhaust into an error.
    let empty = TcpListener::bind("127.0.0.1:0").expect("reserve port");
    let dead_addr = empty.local_addr().expect("addr").to_string();
    drop(empty);
    let result = TcpTransport::dial_with_backoff(
        &dead_addr,
        &RetryConfig {
            base_s: 0.02,
            multiplier: 1.5,
            max_retries: 2,
        },
    );
    assert!(result.is_err(), "nothing ever binds, so dialing must fail");
}
