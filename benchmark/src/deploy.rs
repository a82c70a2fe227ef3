//! `deploy_render` and `deploy_wire`: edge sessions in this process
//! against a real `cloud-node` process over loopback TCP.
//!
//! Both drive the public session API exactly as `edge-node` does
//! (`run_device_session` / `run_edge_sessions_mux`), but from here, so
//! every frame's submit→poll wall is observable. They differ in which
//! layer does the work: `deploy_render` renders 300×300 frames for the
//! discriminator's uploads over one JSON connection per device, while
//! `deploy_wire` pushes 8×8 frames from four devices through one
//! multiplexed binary connection, every frame crossing the socket.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use smallbig::core::transport::{
    memory_listener, serve, ConnectOptions, Listener, NodeStats, RemoteCloud, ServeOptions,
    TcpTransport, TcpWireListener, Transport,
};
use smallbig::core::wire::Encoding;
use smallbig::core::{
    evaluate, CloudConfig, CloudServer, DifficultCaseDiscriminator, EdgeSession, EvalConfig,
    FrameResult, Policy, SessionConfig, SessionReport,
};
use smallbig::datagen::{Dataset, DatasetProfile, Scene};
use smallbig::distributed::{
    run_fleet_in_memory, run_fleet_processes, DeploymentSpec, EdgeSpec, PolicySpec, SplitName,
};
use smallbig::modelzoo::{Detector, SimDetector};
use smallbig::simnet::RetryConfig;

use crate::counting::{CountingTransport, WireCounters};
use crate::harness::{self, Ctx, Ops, Outcome, Rep, Sim, Stopwatch, SETUPS};
use crate::layers::{self, Layers, Replay, Step};
use crate::procfs::{self, CloudNode};
use crate::spans::Tracer;
use crate::stats;

/// Scenes in the seeded pool every device cycles through.
const POOL: usize = 1000;
/// Distinct stretches of the devices' streams the repetitions rotate
/// through; the simulated statistics are taken over all of them.
const SLICES: usize = 3;
/// Untraced/traced repetition pairs of a traced run.
const TRACED_PAIRS: usize = 3;
/// How long any single wait on the node may take.
const NODE_TIMEOUT: Duration = Duration::from_secs(20);

/// What distinguishes the two deployments.
#[derive(Clone)]
pub struct Shape {
    pub name: &'static str,
    pub devices: usize,
    /// Frames each device streams per repetition. Repetitions are kept to
    /// about a second or less: interference on a shared host comes in
    /// bursts of that length, and the median over many short repetitions
    /// steps over the disturbed ones where a few long ones would each
    /// absorb their share.
    pub frames_per_device: usize,
    pub warmup_frames: usize,
    pub frame_px: usize,
    pub policy: PolicySpec,
    pub encoding: Encoding,
    /// One multiplexed connection and one driver thread for all devices
    /// (submits first, then polls), instead of a connection and a thread
    /// per device in lockstep.
    pub mux: bool,
    /// Per-frame deadline (virtual seconds) of the even-numbered devices;
    /// the odd ones are best-effort, as half of `FleetSpec::new`'s fleet
    /// is. It sits inside the spread of the uploads' virtual latency, so
    /// the deadline path runs and `sim_fallback_ratio` is never zero, while
    /// the best-effort devices keep `sim_latency_p99_ms` unclamped.
    pub deadline_s: f64,
}

/// The paper's testbed as an operator runs it.
pub const RENDER: Shape = Shape {
    name: "deploy_render",
    devices: 2,
    frames_per_device: 200,
    warmup_frames: 40,
    frame_px: 300,
    policy: PolicySpec::Discriminator,
    encoding: Encoding::Json,
    mux: false,
    deadline_s: 0.5,
};

/// The fast wire at its smallest message.
pub const WIRE: Shape = Shape {
    name: "deploy_wire",
    devices: 4,
    frames_per_device: 1250,
    warmup_frames: 400,
    frame_px: 8,
    policy: PolicySpec::CloudOnly,
    encoding: Encoding::Binary,
    mux: true,
    deadline_s: 0.1,
};

/// The paper's Table XI protocol as two streamed sessions (one under a
/// deadline) at the fleet's frame size; `paper_tables` takes its virtual
/// latency from it.
const TABLE_XI: Shape = Shape {
    name: "table_xi",
    devices: 2,
    frames_per_device: 0, // the whole test set, see `table_xi`
    warmup_frames: 0,
    frame_px: 96,
    policy: PolicySpec::Discriminator,
    encoding: Encoding::Json,
    mux: false,
    deadline_s: 0.2,
};

impl Shape {
    fn session_config(&self, seed: u64, device: usize) -> SessionConfig {
        let (pipeline, _) = self.policy.build();
        SessionConfig {
            frame_size: (self.frame_px, self.frame_px),
            seed: seed ^ (device as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            deadline_s: device.is_multiple_of(2).then_some(self.deadline_s),
            pipeline,
            ..SessionConfig::new(2)
        }
    }

    fn connections(&self) -> usize {
        if self.mux {
            1
        } else {
            self.devices
        }
    }
}

/// Which slots of every block of ten pool scenes hold a difficult case.
const DIFFICULT_SLOTS: [bool; 10] = [
    true, false, true, true, false, true, true, false, false, true,
];

/// The seeded scene pool: helmet scenes drawn from `seed`, kept in blocks
/// of ten that each hold six scenes the default discriminator uploads and
/// four it keeps (the helmet profile's natural mix is 63 %). Every device
/// streams whole blocks, so the upload share is the same for every seed:
/// the seed varies *which* scenes are rendered, not how many. Six in ten
/// also keeps both medians — host and virtual — inside the uploads, away
/// from the step between a local frame and an uploaded one.
pub fn pool(seed: u64, small: &SimDetector) -> Vec<Scene> {
    let profile = DatasetProfile::helmet();
    let discriminator = DifficultCaseDiscriminator::default();
    let mut spare: [VecDeque<Scene>; 2] = [VecDeque::new(), VecDeque::new()];
    let mut pool = Vec::with_capacity(POOL);
    let mut next_id = 0;
    while pool.len() < POOL {
        let want = DIFFICULT_SLOTS[pool.len() % DIFFICULT_SLOTS.len()];
        if let Some(scene) = spare[usize::from(want)].pop_front() {
            pool.push(scene);
            continue;
        }
        let scene = Scene::sample(&profile, seed, next_id);
        next_id += 1;
        let difficult = discriminator.classify(&small.detect(&scene)).is_difficult();
        if difficult == want {
            pool.push(scene);
        } else {
            spare[usize::from(difficult)].push_back(scene);
        }
    }
    pool
}

/// The pool scenes `shape`'s policy uploads, and so renders.
pub fn rendered(shape: &Shape, pool: &[Scene]) -> Vec<Scene> {
    let slots = DIFFICULT_SLOTS.iter().cycle();
    let uploads_all = shape.policy == PolicySpec::CloudOnly;
    let uploaded = pool.iter().zip(slots).filter(|(_, &d)| d || uploads_all);
    uploaded.map(|(scene, _)| scene.clone()).collect()
}

/// What the devices stream in one repetition: `frames` frames each, from
/// frame `first_frame` of their cycle through the pool.
#[derive(Clone, Copy)]
struct Stream<'a> {
    shape: &'a Shape,
    seed: u64,
    pool: &'a [Scene],
    small: &'a SimDetector,
    first_frame: usize,
    frames: usize,
}

impl<'a> Stream<'a> {
    /// The scene `device` streams as its `frame`-th frame of this
    /// repetition: devices start evenly spaced around the pool.
    fn scene(&self, device: usize, frame: usize) -> &'a Scene {
        let start = device * self.pool.len() / self.shape.devices;
        &self.pool[(start + self.first_frame + frame) % self.pool.len()]
    }

    /// The `k`-th stretch of the same streams.
    fn slice(&self, k: usize) -> Stream<'a> {
        Stream {
            first_frame: k * self.frames,
            ..*self
        }
    }

    fn total_frames(&self) -> usize {
        self.frames * self.shape.devices
    }

    fn attach(&self, remote: &RemoteCloud, session: u64, device: usize) -> EdgeSession<'a> {
        let (_, policy) = self.shape.policy.build();
        let config = self.shape.session_config(self.seed, device);
        remote.attach_as(session, config, self.small, policy)
    }
}

/// How a frame was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Served,
    Local,
    Missed,
    LinkFallback,
    AdmissionFallback,
}

/// What the benchmark keeps of one frame's result.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Obs {
    sim_latency_s: f64,
    class: Class,
}

impl Obs {
    fn of(r: &FrameResult) -> Obs {
        let class = if r.admission_fallback {
            Class::AdmissionFallback
        } else if r.link_fallback {
            Class::LinkFallback
        } else if r.missed_deadline {
            Class::Missed
        } else if r.decision.is_upload() {
            Class::Served
        } else {
            Class::Local
        };
        Obs {
            sim_latency_s: r.breakdown.total(),
            class,
        }
    }
}

/// Per-frame observations of one session over one repetition.
struct FrameLog {
    obs: Vec<Obs>,
    /// Submit call → poll return, µs.
    frame_us: Vec<f64>,
    /// `(submit µs, poll µs, uploaded)` per frame; traced run only.
    calls: Option<Vec<(f64, f64, bool)>>,
}

impl FrameLog {
    fn new(frames: usize, traced: bool) -> FrameLog {
        FrameLog {
            obs: Vec::with_capacity(frames),
            frame_us: Vec::with_capacity(frames),
            calls: traced.then(|| Vec::with_capacity(frames)),
        }
    }

    /// Logs one frame: submit ran over `[t0, t1]`, poll over `[tp, t2]`.
    fn push(&mut self, t0: Instant, t1: Instant, tp: Instant, t2: Instant, r: &FrameResult) {
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        self.frame_us.push(us(t0, t2));
        if let Some(calls) = &mut self.calls {
            calls.push((us(t0, t1), us(tp, t2), r.decision.is_upload()));
        }
        self.obs.push(Obs::of(r));
    }
}

/// One device's share of a repetition.
struct DeviceRun {
    report: SessionReport,
    log: FrameLog,
    end: Instant,
}

/// A transport factory (the counting wrapper, in-process listeners).
type Dial<'a> = &'a (dyn Fn() -> std::io::Result<Box<dyn Transport>> + Sync);

/// Where the sessions dial.
enum Link<'a> {
    /// The `cloud-node` at this address, the way `edge-node` dials it.
    Node(&'a str),
    /// Any other transport.
    Via(Dial<'a>),
}

fn connect(link: &Link<'_>, session: u64, shape: &Shape) -> Result<RemoteCloud, String> {
    match link {
        Link::Node(addr) => RemoteCloud::connect_tcp_with(
            addr,
            session,
            &RetryConfig::default(),
            shape.encoding,
            shape.mux,
        ),
        Link::Via(dial) => {
            let transport = dial().map_err(|e| format!("session {session}: dial: {e}"))?;
            let opts = ConnectOptions {
                encoding: shape.encoding,
                mux: shape.mux,
                ..ConnectOptions::default()
            };
            RemoteCloud::connect(transport, session, opts)
        }
    }
    .map_err(|e| format!("session {session}: handshake: {e}"))
}

fn frame_id(device: usize, frame: usize) -> Option<u64> {
    Some(((device as u64) << 32) | frame as u64)
}

/// One repetition of a stream over a link.
struct Drive<'a> {
    stream: Stream<'a>,
    link: Link<'a>,
    first_session: u64,
    node_pid: Option<u32>,
    tracer: &'a Tracer,
}

impl Drive<'_> {
    /// Connects (untimed, each dial+handshake appended to `connect_s`),
    /// then drives the stream and returns each device's outcome plus the
    /// timed repetition.
    fn run(&self, connect_s: &mut Vec<f64>) -> Result<(Vec<DeviceRun>, Rep), String> {
        let shape = self.stream.shape;
        let mut remotes = Vec::new();
        for c in 0..shape.connections() {
            let t0 = Instant::now();
            remotes.push(connect(&self.link, self.first_session + c as u64, shape)?);
            connect_s.push(t0.elapsed().as_secs_f64());
        }
        let (runs, watch) = if shape.mux {
            self.run_mux(remotes.pop().expect("one connection"))?
        } else {
            self.run_lockstep(remotes)?
        };
        let end = runs.iter().map(|r| r.end).max().expect("a device ran");
        let frame_us = runs.iter().flat_map(|r| r.log.frame_us.iter().copied());
        let rep = watch.stop(end, self.stream.total_frames() as u64, frame_us.collect())?;
        Ok((runs, rep))
    }

    fn attach(&self, remote: &RemoteCloud, device: usize) -> EdgeSession<'_> {
        self.stream
            .attach(remote, self.first_session + device as u64, device)
    }

    /// `run_device_session`'s loop, one thread and one connection per
    /// device: submit, poll, next frame.
    fn run_lockstep(
        &self,
        remotes: Vec<RemoteCloud>,
    ) -> Result<(Vec<DeviceRun>, Stopwatch), String> {
        let start = Barrier::new(remotes.len() + 1);
        let (stream, tracer) = (&self.stream, self.tracer);
        std::thread::scope(|scope| {
            let handles: Vec<_> = remotes
                .into_iter()
                .enumerate()
                .map(|(d, remote)| {
                    let start = &start;
                    scope.spawn(move || {
                        let mut sess = self.attach(&remote, d);
                        let mut log = FrameLog::new(stream.frames, tracer.is_on());
                        start.wait();
                        for f in 0..stream.frames {
                            let (scene, id) = (stream.scene(d, f), frame_id(d, f));
                            let root = tracer.begin("frame", None, id);
                            let t0 = Instant::now();
                            let ticket =
                                tracer.span("core.server.submit", root, id, || sess.submit(scene));
                            let t1 = Instant::now();
                            let result = tracer
                                .span("core.server.poll", root, id, || sess.poll(ticket))
                                .expect("a submitted frame resolves");
                            let t2 = Instant::now();
                            tracer.end(root);
                            log.push(t0, t1, t1, t2, &result);
                        }
                        let end = Instant::now();
                        let report = sess.drain();
                        drop(sess);
                        remote.close();
                        DeviceRun { report, log, end }
                    })
                })
                .collect();
            start.wait();
            let watch = Stopwatch::start(self.node_pid);
            let runs: Result<Vec<DeviceRun>, String> = handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "a device thread panicked".to_string()))
                .collect();
            Ok((runs?, watch?))
        })
    }

    /// `run_edge_sessions_mux`'s loop, all devices on one connection from
    /// this thread: every device submits its frame, then every device polls.
    fn run_mux(&self, remote: RemoteCloud) -> Result<(Vec<DeviceRun>, Stopwatch), String> {
        let (stream, tracer) = (&self.stream, self.tracer);
        let devices = stream.shape.devices;
        let mut sessions: Vec<_> = (0..devices).map(|d| self.attach(&remote, d)).collect();
        let mut logs: Vec<_> = (0..devices)
            .map(|_| FrameLog::new(stream.frames, tracer.is_on()))
            .collect();
        let mut open = Vec::with_capacity(devices);
        let watch = Stopwatch::start(self.node_pid)?;
        for f in 0..stream.frames {
            for (d, sess) in sessions.iter_mut().enumerate() {
                let (scene, id) = (stream.scene(d, f), frame_id(d, f));
                let root = tracer.begin("frame", None, id);
                let t0 = Instant::now();
                let ticket = tracer.span("core.server.submit", root, id, || sess.submit(scene));
                open.push((root, t0, Instant::now(), ticket));
            }
            for (d, (root, t0, t1, ticket)) in open.drain(..).enumerate() {
                let tp = Instant::now();
                let result = tracer
                    .span("core.server.poll", root, frame_id(d, f), || {
                        sessions[d].poll(ticket)
                    })
                    .expect("a submitted frame resolves");
                let t2 = Instant::now();
                tracer.end(root);
                logs[d].push(t0, t1, tp, t2, &result);
            }
        }
        let end = Instant::now();
        let runs = sessions
            .iter_mut()
            .zip(logs)
            .map(|(sess, log)| DeviceRun {
                report: sess.drain(),
                log,
                end,
            })
            .collect();
        drop(sessions);
        remote.close();
        Ok((runs, watch))
    }
}

/// The seeded inputs of one set-up.
struct Inputs {
    pool: Vec<Scene>,
    small: SimDetector,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let small = SplitName::Helmet.small_model();
        Inputs {
            pool: pool(seed, &small),
            small,
        }
    }

    fn stream<'a>(&'a self, shape: &'a Shape, seed: u64, frames: usize) -> Stream<'a> {
        Stream {
            shape,
            seed,
            pool: &self.pool,
            small: &self.small,
            first_frame: 0,
            frames,
        }
    }
}

/// The node of one set-up and what the sessions have asked of it.
struct Stage {
    node: CloudNode,
    next_session: u64,
    /// Uploads over this node's lifetime, for the `STATS.served` check.
    uploads: usize,
    connect_s: Vec<f64>,
}

impl Stage {
    /// Generates the inputs, starts a node and runs the warm-up repetition.
    fn setup(ctx: &Ctx, shape: &Shape, ops: &mut Ops) -> Result<(Inputs, Stage), String> {
        let inputs = Inputs::generate(ctx.seed);
        let bin = ctx.bin_dir.join("cloud-node");
        procfs::require_fresh(&bin)?;
        let node = ops.tried("cloud-node start", CloudNode::spawn(&bin, NODE_TIMEOUT))?;
        let mut stage = Stage {
            node,
            next_session: 0,
            uploads: 0,
            connect_s: Vec::new(),
        };
        let warm_up = inputs.stream(shape, ctx.seed, shape.warmup_frames);
        stage.rep(warm_up, None, &Tracer::off(), ops)?;
        Ok((inputs, stage))
    }

    /// One repetition against the node on fresh session ids. With
    /// `counters`, every connection goes through the counting wrapper.
    fn rep(
        &mut self,
        stream: Stream<'_>,
        counters: Option<&Arc<WireCounters>>,
        tracer: &Tracer,
        ops: &mut Ops,
    ) -> Result<(Vec<DeviceRun>, Rep), String> {
        let first_session = self.next_session;
        self.next_session += stream.shape.devices as u64;
        let addr = self.node.addr.as_str();
        let counted = |counters: &Arc<WireCounters>| {
            let counters = Arc::clone(counters);
            move || -> std::io::Result<Box<dyn Transport>> {
                let tcp = Box::new(TcpTransport::dial(addr)?);
                let wrapped = CountingTransport::wrap(tcp, Arc::clone(&counters), tracer.clone());
                Ok(Box::new(wrapped))
            }
        };
        let dial = counters.map(counted);
        let drive = Drive {
            stream,
            link: match &dial {
                Some(dial) => Link::Via(dial),
                None => Link::Node(addr),
            },
            first_session,
            node_pid: Some(self.node.pid()),
            tracer,
        };
        let attempted = (stream.shape.connections() + stream.total_frames()) as u64;
        match drive.run(&mut self.connect_s) {
            Ok((runs, rep)) => {
                ops.ok(attempted);
                self.uploads += runs.iter().map(|r| r.report.uploads).sum::<usize>();
                Ok((runs, rep))
            }
            Err(e) => {
                // The repetition is abandoned whole: none of its frames
                // counts as resolved.
                ops.attempted += attempted;
                ops.failed += attempted;
                ops.failures.push(e.clone());
                Err(e)
            }
        }
    }

    /// Stops the node and holds its `STATS` against what the sessions saw.
    fn teardown(self, ops: &mut Ops) -> Result<NodeStats, String> {
        let stats = ops.tried("cloud-node exit", self.node.shutdown(NODE_TIMEOUT))?;
        ops.check(
            "cloud-node STATS.served equals the sessions' summed uploads",
            stats.cloud.served == self.uploads && stats.aborted == 0 && stats.refused == 0,
        );
        Ok(stats)
    }
}

/// Sets up [`SETUPS`] times (tearing each earlier node down), keeping the
/// last. Returns it with every set-up's wall and node start time.
#[allow(clippy::type_complexity)]
fn set_up(
    ctx: &Ctx,
    shape: &Shape,
    ops: &mut Ops,
) -> Result<(Inputs, Stage, Vec<f64>, Vec<f64>), String> {
    let (mut setups_s, mut spawns_s) = (Vec::new(), Vec::new());
    let mut kept: Option<(Inputs, Stage)> = None;
    for _ in 0..SETUPS {
        if let Some((_, old)) = kept.take() {
            old.teardown(ops)?;
        }
        let t0 = Instant::now();
        let fresh = Stage::setup(ctx, shape, ops)?;
        setups_s.push(t0.elapsed().as_secs_f64());
        spawns_s.push(fresh.1.node.spawn_s);
        kept = Some(fresh);
    }
    println!("set-ups: {setups_s:.3?} s");
    let (inputs, stage) = kept.expect("SETUPS is at least one");
    Ok((inputs, stage, setups_s, spawns_s))
}

/// A report with its session id blanked: repetitions use fresh ids, and
/// nothing else in a report may depend on them.
fn anonymous(report: &SessionReport) -> SessionReport {
    let mut r = report.clone();
    r.session = 0;
    r
}

/// One session run alone in this process.
struct Alone {
    report: SessionReport,
    obs: Vec<Obs>,
    served: usize,
}

/// Runs every device's session of `stream` alone against an in-process
/// [`CloudServer`] — the channel path the TCP path must equal bit for bit.
/// Returns each session's report, frame outcomes and server `served`
/// count, and the wall it all took.
fn reference(stream: Stream<'_>) -> Result<(Vec<Alone>, f64), String> {
    let t0 = Instant::now();
    let shape = stream.shape;
    let out = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shape.devices)
            .map(|d| {
                scope.spawn(move || {
                    let big: Arc<dyn Detector + Send + Sync> =
                        Arc::new(SplitName::Helmet.big_model());
                    let mut cloud = CloudServer::spawn(CloudConfig::default(), big);
                    let (_, policy) = shape.policy.build();
                    let config = shape.session_config(stream.seed, d);
                    let mut sess = cloud.connect_as(d as u64, config, stream.small, policy);
                    let mut obs = Vec::with_capacity(stream.frames);
                    for f in 0..stream.frames {
                        let ticket = sess.submit(stream.scene(d, f));
                        let result = sess.poll(ticket).expect("a submitted frame resolves");
                        obs.push(Obs::of(&result));
                    }
                    let report = sess.drain();
                    drop(sess);
                    Alone {
                        report,
                        obs,
                        served: cloud.shutdown().served,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "a reference thread panicked".to_string())
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// Checks that the frames' observed outcomes close the accounting
/// identity and agree with the session's own report.
fn accounting_closes(run: &DeviceRun) -> bool {
    let count = |c: Class| run.log.obs.iter().filter(|o| o.class == c).count();
    let (served, local, missed) = (
        count(Class::Served),
        count(Class::Local),
        count(Class::Missed),
    );
    let (link, admission) = (count(Class::LinkFallback), count(Class::AdmissionFallback));
    let r = &run.report;
    served + local + missed + link + admission == r.frames
        && served + missed == r.uploads
        && missed == r.deadline_misses
        && link == r.link_fallbacks
        && admission == r.admission_fallbacks
}

/// The output checks every deployment run ends with. Repetition `i`
/// streamed slice `i % alone.len()`; `alone[k]` holds slice `k`'s sessions
/// on the channel path.
fn check_outputs(runs: &[Vec<DeviceRun>], alone: &[Vec<Alone>], ops: &mut Ops) {
    ops.check(
        "reports, frame outcomes and virtual latencies over TCP equal the same sessions alone \
         on an in-process CloudServer, on every repetition",
        runs.iter().enumerate().all(|(i, rep)| {
            let slice = &alone[i % alone.len()];
            rep.iter().zip(slice).all(|(tcp, channel)| {
                anonymous(&tcp.report) == anonymous(&channel.report) && tcp.log.obs == channel.obs
            })
        }),
    );
    ops.check(
        "each in-process CloudServer served exactly its session's uploads",
        alone.iter().flatten().all(|a| a.report.uploads == a.served),
    );
    ops.check(
        "frames = served + local + deadline misses + link fallbacks + admission fallbacks",
        runs.iter().flatten().all(accounting_closes),
    );
}

/// The simulated statistics over `slices` (each a stream and the devices
/// that ran it).
fn simulated(slices: &[(Stream<'_>, &[DeviceRun])]) -> Sim {
    let runs = || slices.iter().flat_map(|(_, devices)| devices.iter());
    let sum = |f: &dyn Fn(&SessionReport) -> usize| runs().map(|r| f(&r.report)).sum::<usize>();
    let sessions = runs().count() as f64;
    let total_frames = sum(&|r| r.frames) as f64;
    // The big model alone on each session's frames: what the paper's two
    // headline ratios are relative to.
    let big = SplitName::Helmet.big_model();
    let taxonomy = DatasetProfile::helmet().taxonomy;
    let alone: Vec<_> = slices
        .iter()
        .flat_map(|(stream, devices)| (0..devices.len()).map(move |d| (stream, d)))
        .map(|(stream, d)| {
            let scenes = (0..stream.frames).map(|f| stream.scene(d, f).clone());
            let data = Dataset::from_scenes("device", taxonomy.clone(), scenes.collect());
            let config = EvalConfig::default();
            evaluate(&data, stream.small, &big, &Policy::CloudOnly, &config)
        })
        .collect();
    let latencies = runs().flat_map(|r| r.log.obs.iter().map(|o| o.sim_latency_s));
    let (latency_p50_ms, latency_p99_ms) = harness::sim_latency_ms(latencies.collect());
    let vs_big = runs()
        .zip(&alone)
        .map(|(r, a)| r.report.map_pct / a.big_map_pct * 100.0);
    Sim {
        upload_ratio: sum(&|r| r.uploads) as f64 / total_frames,
        detected_ratio: sum(&|r| r.detected) as f64 / sum(&|r| r.total_gt) as f64,
        e2e_map_pct: runs().map(|r| r.report.map_pct).sum::<f64>() / sessions,
        map_vs_big_pct: vs_big.sum::<f64>() / sessions,
        detected_vs_big_pct: sum(&|r| r.detected) as f64
            / alone.iter().map(|a| a.big_detected).sum::<usize>() as f64
            * 100.0,
        latency_p50_ms,
        latency_p99_ms,
        fallback_ratio: sum(&|r| r.deadline_misses + r.link_fallbacks + r.admission_fallbacks)
            as f64
            / total_frames,
    }
}

/// Streams `scenes` through [`TABLE_XI`]'s two in-process sessions and
/// returns the frames' virtual latency p50 and p99 (ms) and the share of
/// frames that fell back.
pub fn table_xi(seed: u64, scenes: &[Scene]) -> Result<(f64, f64, f64), String> {
    let small = SplitName::Helmet.small_model();
    let stream = Stream {
        shape: &TABLE_XI,
        seed,
        pool: scenes,
        small: &small,
        first_frame: 0,
        frames: scenes.len(),
    };
    let (alone, _) = reference(stream)?;
    let obs = || alone.iter().flat_map(|a| &a.obs);
    let (p50, p99) = harness::sim_latency_ms(obs().map(|o| o.sim_latency_s).collect());
    let fell_back = obs()
        .filter(|o| !matches!(o.class, Class::Served | Class::Local))
        .count();
    Ok((p50, p99, fell_back as f64 / obs().count() as f64))
}

/// The end-to-end run: [`SETUPS`] set-ups, then repetitions for
/// `ctx.seconds` rotating through [`SLICES`] stretches of the streams,
/// then the output checks.
pub fn run(ctx: &Ctx, shape: &Shape) -> Result<Outcome, String> {
    let mut ops = Ops::default();
    let (inputs, mut stage, setups_s, _) = set_up(ctx, shape, &mut ops)?;
    let stream = inputs.stream(shape, ctx.seed, shape.frames_per_device);
    let mut runs: Vec<Vec<DeviceRun>> = Vec::new();
    let reps = harness::measure(ctx.seconds, |i| {
        let (devices, rep) = stage.rep(stream.slice(i % SLICES), None, &Tracer::off(), &mut ops)?;
        runs.push(devices);
        Ok(rep)
    })?;
    let peak_rss_mb =
        procfs::peak_rss_mb(std::process::id())? + procfs::peak_rss_mb(stage.node.pid())?;

    let alone: Vec<Vec<Alone>> = (0..SLICES)
        .map(|k| reference(stream.slice(k)).map(|(sessions, _)| sessions))
        .collect::<Result<_, _>>()?;
    check_outputs(&runs, &alone, &mut ops);
    let slices: Vec<_> = (0..SLICES)
        .map(|k| (stream.slice(k), runs[k].as_slice()))
        .collect();
    let sim = simulated(&slices);
    stage.teardown(&mut ops)?;
    Ok(Outcome {
        e2e: harness::end_to_end(setups_s, &reps, peak_rss_mb, &sim),
        layers: Layers::new(),
        ops,
    })
}

/// Drives `stream` against `transport::serve` hosted in this process
/// behind `listener`, and returns the repetition.
fn served_in_process(
    listener: &mut dyn Listener,
    dial: Dial<'_>,
    stream: Stream<'_>,
) -> Result<Rep, String> {
    let big: Arc<dyn Detector + Send + Sync> = Arc::new(SplitName::Helmet.big_model());
    let config = CloudConfig::default();
    let opts = ServeOptions {
        expect_sessions: Some(stream.shape.devices),
        ..ServeOptions::default()
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let server = scope.spawn(|| serve(listener, &config, &big, &opts, &stop));
        let drive = Drive {
            stream,
            link: Link::Via(dial),
            first_session: 0,
            node_pid: None,
            tracer: &Tracer::off(),
        };
        let driven = drive.run(&mut Vec::new());
        if driven.is_err() {
            // No session will complete: stop the accept loop by hand.
            stop.store(true, Ordering::SeqCst);
            let _ = dial();
        }
        let stats = server
            .join()
            .map_err(|_| "serve thread panicked".to_string())?;
        let (runs, rep) = driven?;
        let uploads: usize = runs.iter().map(|r| r.report.uploads).sum();
        if stats.cloud.served != uploads {
            return Err("in-process serve: served differs from uploads".to_string());
        }
        Ok(rep)
    })
}

/// What the traced run of a deployment measured.
pub struct Probe {
    /// `core.server.*`, `core.transport.*`, `distributed.*`,
    /// `imaging.share_of_frame` and `core.scheduler.mean_batch`.
    pub layers: Layers,
    /// Traced repetition wall ÷ untraced repetition wall.
    pub overhead_ratio: f64,
}

/// The traced run: alternating untraced and traced repetitions against the
/// node (the traced ones through the counting transport), the same sessions over
/// every other host of the session layer at a quarter of the frames, and
/// the per-frame budget.
pub fn probe(ctx: &Ctx, shape: &Shape, replay: &Replay, ops: &mut Ops) -> Result<Probe, String> {
    let (inputs, mut stage, _, spawns_s) = set_up(ctx, shape, ops)?;
    let stream = inputs.stream(shape, ctx.seed, shape.frames_per_device);
    // Untraced and traced repetitions alternate; each side is judged by
    // its fastest repetition, like the replayed costs it is held against.
    let counters = Arc::new(WireCounters::default());
    let before = stage.connect_s.len();
    let (mut plain_s, mut traced_s, mut traced_total_s) = (f64::INFINITY, f64::INFINITY, 0.0);
    let mut runs = Vec::new();
    for _ in 0..TRACED_PAIRS {
        let (devices, rep) = stage.rep(stream, None, &Tracer::off(), ops)?;
        plain_s = plain_s.min(rep.wall_s);
        runs.push(devices);
        let (devices, rep) = stage.rep(stream, Some(&counters), &ctx.tracer, ops)?;
        traced_s = traced_s.min(rep.wall_s);
        traced_total_s += rep.wall_s;
        runs.push(devices);
    }
    let connects_s = stage.connect_s[before..].to_vec();
    let (alone, alone_s) = reference(stream)?;
    check_outputs(&runs, &[alone], ops);
    let total_frames = stream.total_frames() as f64;
    let traced_frames = total_frames * TRACED_PAIRS as f64;
    let per_frame_us = |wall_s: f64, frames: f64| wall_s * 1e6 / frames;
    let mut layers = Layers::new();

    // core.server: the calls into the session layer, from the traced reps
    // (only they log calls).
    let calls = || {
        runs.iter()
            .flatten()
            .flat_map(|r| r.log.calls.iter().flatten().copied())
    };
    let pct = |values: Vec<f64>, q: f64| match values.is_empty() {
        true => 0.0, // no frame resolves locally under a cloud-only policy
        false => stats::nearest_rank(&stats::sorted(&values), q),
    };
    let submits: Vec<f64> = calls().map(|(submit, _, _)| submit).collect();
    let polls: Vec<f64> = calls().map(|(_, poll, _)| poll).collect();
    let local: Vec<f64> = calls().filter(|c| !c.2).map(|c| c.0).collect();
    let upload_share = calls().filter(|c| c.2).count() as f64 / traced_frames;
    layers.insert("core.server.submit_us_p50", pct(submits.clone(), 0.50));
    layers.insert("core.server.submit_us_p99", pct(submits, 0.99));
    layers.insert("core.server.submit_local_us_p50", pct(local, 0.50));
    layers.insert("core.server.poll_us_p50", pct(polls.clone(), 0.50));
    layers.insert("core.server.poll_us_p99", pct(polls, 0.99));
    let channel_us = per_frame_us(alone_s, total_frames);
    layers.insert("core.server.channel_us_per_frame", channel_us);

    // core.transport: the counting wrapper's view of the traced reps, then
    // the same sessions over the in-process hosts of the same transport.
    let per_frame = |counter| WireCounters::get(counter) as f64 / traced_frames;
    let connect_ms = stats::median(&connects_s) * 1e3;
    let waited_s = WireCounters::get(&counters.recv_wait_ns) as f64 / 1e9;
    let wait_share = waited_s / (traced_total_s * shape.connections() as f64);
    layers.insert("core.transport.connect_ms", connect_ms);
    layers.insert(
        "core.transport.tx_bytes_per_frame",
        per_frame(&counters.tx_bytes),
    );
    layers.insert(
        "core.transport.rx_bytes_per_frame",
        per_frame(&counters.rx_bytes),
    );
    layers.insert(
        "core.transport.send_calls_per_frame",
        per_frame(&counters.send_calls),
    );
    layers.insert("core.transport.recv_wait_share", wait_share);
    let quarter = Stream {
        frames: (stream.frames / 4).max(1),
        ..stream
    };
    let (mut memory, connector) = memory_listener();
    let dial_memory = || Ok(Box::new(connector.connect()?) as Box<dyn Transport>);
    let over_memory = served_in_process(&mut memory, &dial_memory, quarter)?;
    let mut loopback = TcpWireListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = loopback.local_addr();
    let dial_tcp = || Ok(Box::new(TcpTransport::dial(&addr)?) as Box<dyn Transport>);
    let over_tcp = served_in_process(&mut loopback, &dial_tcp, quarter)?;
    let memory_us = per_frame_us(over_memory.wall_s, over_memory.frames as f64);
    let tcp_us = per_frame_us(over_tcp.wall_s, over_tcp.frames as f64);
    layers.insert("core.transport.memory_us_per_frame", memory_us);
    layers.insert("core.transport.tcp_us_per_frame", tcp_us);

    // distributed: the same deployment as real edge-node processes, and
    // over the in-memory runner.
    let spec = DeploymentSpec {
        edges: shape.connections(),
        devices_per_edge: shape.devices / shape.connections(),
        frames_per_device: quarter.frames,
        split: SplitName::Helmet,
        dataset_seed: ctx.seed,
        edge: EdgeSpec {
            policy: shape.policy,
            frame_px: shape.frame_px,
            deadline_s: Some(shape.deadline_s),
            encoding: Some(shape.encoding),
            mux: Some(shape.mux),
            ..EdgeSpec::default()
        },
        ..DeploymentSpec::default()
    };
    let (cloud_bin, edge_bin) = (
        ctx.bin_dir.join("cloud-node"),
        ctx.bin_dir.join("edge-node"),
    );
    let t0 = Instant::now();
    let processes = ops.tried(
        "orchestrated process fleet",
        run_fleet_processes(&spec, &cloud_bin, &edge_bin, NODE_TIMEOUT).map_err(|e| e.to_string()),
    )?;
    let orchestrate_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let in_memory = run_fleet_in_memory(&spec);
    let in_memory_s = t0.elapsed().as_secs_f64();
    ops.check(
        "the process fleet's session reports equal the in-memory fleet's",
        processes.sessions == in_memory.sessions,
    );
    let driver_s = plain_s * quarter.frames as f64 / stream.frames as f64;
    let spawn_ms = stats::median(&spawns_s) * 1e3;
    layers.insert("distributed.cloud_spawn_ms", spawn_ms);
    layers.insert("distributed.orchestrate_wall_s", orchestrate_s);
    layers.insert(
        "distributed.orchestrate_over_driver",
        orchestrate_s / driver_s,
    );
    layers.insert("distributed.in_memory_wall_s", in_memory_s);

    let node = stage.teardown(ops)?.cloud;
    let mean_batch = node.served as f64 / node.batches as f64;
    layers.insert("core.scheduler.mean_batch", mean_batch);

    // The per-frame budget. Lockstep devices each own a driving thread;
    // the mux connection has one for all devices, and the node's work
    // overlaps with it.
    let frame_ns = plain_s * 1e9 * shape.connections() as f64 / total_frames;
    let (encode, decode) = match shape.encoding {
        Encoding::Json => ("core.wire.encode_ns.json", "core.wire.decode_ns.json"),
        Encoding::Binary => ("core.wire.encode_ns.binary", "core.wire.decode_ns.binary"),
    };
    let row =
        |layer, step, metric, per_frame| Step::new(layer, step, replay.cost_ns(metric), per_frame);
    let decides = f64::from(u8::from(shape.policy == PolicySpec::Discriminator));
    let node_side = !shape.mux;
    let up = upload_share;
    let budget = layers::budget(
        shape.name,
        frame_ns,
        &[
            row(
                "modelzoo",
                "detect (small)",
                "modelzoo.detect_small_ns",
                1.0,
            ),
            row("core.policy", "decide", "core.policy.decide_ns", decides),
            row("imaging", "render", "imaging.render_us", up),
            row("imaging", "encoded size", "imaging.encoded_size_us", up),
            row("core.wire", "encode scene", encode, up),
            row("core.wire", "decode scene (node)", decode, up).on_path(node_side),
            row(
                "modelzoo",
                "detect (big, node)",
                "modelzoo.detect_big_ns",
                up,
            )
            .on_path(node_side),
            row(
                "core.scheduler",
                "push + take (node)",
                "core.scheduler.fifo_ns",
                up,
            )
            .on_path(node_side),
            row(
                "simnet",
                "uplink + downlink draw",
                "simnet.transfer_ns",
                2.0 * up,
            ),
            Step::new(
                "core.wire",
                "answer encode + decode",
                replay.answer_codec_ns,
                up,
            ),
            row("core.wire", "frame reader", "core.wire.reader_ns", up),
            row("detcore", "count detected", "detcore.count_ns", 1.0),
            row("detcore", "mAP add image", "detcore.map_add_image_ns", 1.0),
        ],
    );
    layers.insert("imaging.share_of_frame", budget.share["imaging"]);
    layers.insert(
        "core.transport.residual_us_per_frame",
        budget.residual_ns / 1e3,
    );
    Ok(Probe {
        layers,
        overhead_ratio: traced_s / plain_s,
    })
}
