//! The cloud-side scheduling control plane.
//!
//! PR 1 made the *data plane* pluggable: any [`crate::OffloadPolicy`] can
//! decide, frame by frame, what reaches the cloud. This module does the
//! same for the *control plane*: a [`Scheduler`] decides in what order —
//! and grouped into which batches — the frames that did reach the cloud
//! are served by the big model. The cloud worker
//! ([`crate::CloudServer`]) drives whichever scheduler its
//! [`crate::CloudConfig::scheduler`] names (or a custom boxed
//! implementation via [`crate::CloudServer::spawn_with`]).
//!
//! Three schedulers ship:
//!
//! * [`FifoBatcher`] — the default: serve in arrival order, dispatching as
//!   soon as `max_batch` frames wait. **Bit-identical** to the historical
//!   inline batching loop (pinned by `tests/api_equivalence.rs` and the
//!   conformance proptest in `tests/scheduling.rs`).
//! * [`DeadlineAware`] — earliest-deadline-first: frames carry their
//!   session's absolute deadline on the wire header, and each batch serves
//!   the tightest deadlines first. With `lookahead > 1` the scheduler
//!   holds back until several batches' worth of frames wait, so the
//!   ordering has something to choose from.
//! * [`DifficultyPriority`] — hardest cases first, ordered by the
//!   discriminator score the offload policy stamped on the frame header
//!   ([`crate::OffloadPolicy::difficulty`]); ties fall back to arrival
//!   order.
//!
//! Scheduling never draws randomness and observes only virtual time, so
//! any scheduler keeps runs deterministic; only [`FifoBatcher`] (with an
//! empty fault plan and no queue limit) is additionally *bit-identical* to
//! the seed behaviour.
//!
//! The rest of the control plane is admission control
//! ([`crate::CloudConfig::queue_limit`]). Capacity is fixed: every cloud is
//! one machine serving one batch at a time.

use datagen::Scene;
use std::borrow::Cow;
use std::sync::Arc;

use crate::server::SubmitRequest;
use crate::ConfigError;

/// A frame waiting cloud-side for its batch: what a [`Scheduler`] orders.
///
/// Frames enter via [`Scheduler::push`] and leave via
/// [`Scheduler::take_batch`]; a scheduler reorders them but must neither
/// drop nor duplicate them. The accessors expose everything a scheduling
/// decision may use — arrival time, the policy's difficulty score, the
/// session deadline — all in *virtual* time. Cloning is cheap (the scene
/// payload is shared behind an [`Arc`]).
#[derive(Clone)]
pub struct QueuedFrame {
    pub(crate) req: SubmitRequest,
    pub(crate) scene: Arc<Scene>,
    pub(crate) uplink_s: f64,
    pub(crate) arrival: f64,
    pub(crate) seq: u64,
}

impl QueuedFrame {
    /// Id of the session that uploaded the frame.
    pub fn session(&self) -> u64 {
        self.req.session
    }

    /// The session-local ticket of the frame.
    pub fn ticket(&self) -> u64 {
        self.req.ticket
    }

    /// Virtual time at which the frame finished arriving at the cloud.
    pub fn arrival_s(&self) -> f64 {
        self.arrival
    }

    /// Difficulty score the offload policy stamped on the wire header
    /// (higher = harder; `0` when the policy does not score frames).
    pub fn difficulty(&self) -> f64 {
        self.req.difficulty
    }

    /// Absolute virtual deadline of the frame (`entered_at + deadline_s`),
    /// when its session has one.
    pub fn deadline_at(&self) -> Option<f64> {
        self.req.deadline_at
    }

    /// Cloud-side admission order: strictly increasing per server, the
    /// stable tie-breaker for priority schedulers.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Objects the uploading edge's small model predicted (score ≥ 0.5) —
    /// the edge half of the model-update loop's pseudo-label, also usable
    /// by custom schedulers as a crowding hint.
    pub fn small_count(&self) -> usize {
        self.req.small_count
    }

    /// A stand-alone frame for unit-testing custom [`Scheduler`]
    /// implementations outside a running [`crate::CloudServer`] (the
    /// payload is a placeholder scene; only the header fields matter to a
    /// scheduler).
    pub fn synthetic(
        session: u64,
        ticket: u64,
        arrival_s: f64,
        difficulty: f64,
        deadline_at: Option<f64>,
    ) -> QueuedFrame {
        QueuedFrame {
            req: SubmitRequest {
                session,
                ticket,
                frame_bytes: 0,
                sent_at: arrival_s,
                uplink_s: Some(0.0),
                difficulty,
                deadline_at,
                small_count: 0,
            },
            scene: Arc::new(Scene::sample(&datagen::DatasetProfile::helmet(), 0, ticket)),
            uplink_s: 0.0,
            arrival: arrival_s,
            seq: ticket,
        }
    }
}

impl std::fmt::Debug for QueuedFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueuedFrame")
            .field("session", &self.req.session)
            .field("ticket", &self.req.ticket)
            .field("arrival_s", &self.arrival)
            .field("difficulty", &self.req.difficulty)
            .field("deadline_at", &self.req.deadline_at)
            .field("seq", &self.seq)
            .finish_non_exhaustive()
    }
}

/// A cloud-side batch scheduler: the object-safe control-plane extension
/// point, mirroring what [`crate::OffloadPolicy`] is for the data plane.
///
/// The cloud worker calls [`push`](Self::push) for every arriving frame,
/// then forms a batch whenever [`ready`](Self::ready) says so — and keeps
/// forming batches on flushes and shutdown until the queue is empty. A
/// scheduler therefore controls two things: *when* a batch forms (via
/// `ready`) and *which frames, in which order*, it contains (via
/// [`take_batch`](Self::take_batch)).
///
/// Implementations must be deterministic — order only by frame fields and
/// insertion order, never by wall-clock or randomness — or runs stop being
/// reproducible. They must also neither drop nor invent frames: every
/// pushed frame must eventually leave through `take_batch`.
///
/// # Examples
///
/// ```
/// use smallbig_core::{QueuedFrame, Scheduler};
/// use std::borrow::Cow;
///
/// /// Serve the *largest* tickets first (a toy LIFO-ish policy).
/// #[derive(Default)]
/// struct YoungestFirst(Vec<QueuedFrame>);
///
/// impl Scheduler for YoungestFirst {
///     fn name(&self) -> Cow<'static, str> {
///         Cow::Borrowed("youngest-first")
///     }
///     fn push(&mut self, frame: QueuedFrame) {
///         self.0.push(frame);
///     }
///     fn len(&self) -> usize {
///         self.0.len()
///     }
///     fn ready(&self, max_batch: usize) -> bool {
///         self.0.len() >= max_batch
///     }
///     fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>) {
///         out.clear();
///         self.0.sort_by_key(|f| std::cmp::Reverse(f.seq()));
///         out.extend(self.0.drain(..max_batch.min(self.0.len())));
///     }
/// }
///
/// let mut s = YoungestFirst::default();
/// s.push(QueuedFrame::synthetic(0, 1, 0.0, 0.0, None));
/// s.push(QueuedFrame::synthetic(0, 2, 0.1, 0.0, None));
/// let mut batch = Vec::new();
/// s.take_batch(1, &mut batch);
/// assert_eq!(batch[0].ticket(), 2);
/// ```
pub trait Scheduler: Send {
    /// Human-readable scheduler name for reports.
    fn name(&self) -> Cow<'static, str>;

    /// Admits one frame into the queue.
    fn push(&mut self, frame: QueuedFrame);

    /// Frames currently queued.
    fn len(&self) -> usize;

    /// `true` when nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a batch should be dispatched now (asked after every
    /// admission). Flushes and shutdown dispatch regardless, so a
    /// scheduler that holds back — for a fuller queue to order — never
    /// strands frames.
    fn ready(&self, max_batch: usize) -> bool;

    /// Moves the next batch — at most `max_batch` frames, in service
    /// order — into `out` (cleared first). Called whenever `ready` fired
    /// or the worker is flushing; taking nothing while non-empty stops
    /// the current dispatch round (the worker never spins).
    fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>);
}

/// The default scheduler: first-in-first-out, dispatching as soon as
/// `max_batch` frames wait.
///
/// This is the historical inline batching loop behind an object-safe
/// seam: with the default [`crate::CloudConfig`] it reproduces the seed's
/// reports **bit for bit** (`tests/api_equivalence.rs` passes unchanged,
/// and the conformance proptest in `tests/scheduling.rs` pins the batch
/// partition against a transcription of the pre-refactor logic).
#[derive(Debug, Default)]
pub struct FifoBatcher {
    // A plain Vec: dispatch fires as soon as `max_batch` frames wait, so
    // the queue never grows past `max_batch` and `drain(..n)` never has a
    // tail to shift.
    queue: Vec<QueuedFrame>,
}

impl FifoBatcher {
    /// Creates an empty FIFO batcher.
    pub fn new() -> Self {
        FifoBatcher::default()
    }
}

impl Scheduler for FifoBatcher {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("fifo")
    }

    #[inline]
    fn push(&mut self, frame: QueuedFrame) {
        self.queue.push(frame);
    }

    #[inline]
    fn len(&self) -> usize {
        self.queue.len()
    }

    #[inline]
    fn ready(&self, max_batch: usize) -> bool {
        self.queue.len() >= max_batch
    }

    #[inline]
    fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>) {
        out.clear();
        let n = max_batch.min(self.queue.len());
        out.extend(self.queue.drain(..n));
    }
}

/// Shared core of the two priority schedulers: a queue that holds back
/// until `lookahead` batches' worth of frames wait, then serves the
/// `max_batch` best under `key` (ties broken by admission order).
#[derive(Debug)]
struct PriorityQueue {
    queue: Vec<QueuedFrame>,
    lookahead: usize,
}

impl PriorityQueue {
    fn new(lookahead: usize) -> Self {
        assert!(lookahead >= 1, "lookahead must be at least 1");
        PriorityQueue {
            queue: Vec::new(),
            lookahead,
        }
    }

    fn ready(&self, max_batch: usize) -> bool {
        self.queue.len() >= self.lookahead.saturating_mul(max_batch)
    }

    /// Takes the `max_batch` frames minimizing `key`, in key order.
    fn take_by<K: Fn(&QueuedFrame) -> f64>(
        &mut self,
        max_batch: usize,
        key: K,
        out: &mut Vec<QueuedFrame>,
    ) {
        out.clear();
        // Full sort per dispatch: the queue is bounded by
        // lookahead × max_batch, far below where a heap would matter, and
        // a total order keyed (key, seq) keeps the service order — and
        // therefore the whole run — deterministic.
        self.queue.sort_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .expect("scheduling keys are finite")
                .then(a.seq.cmp(&b.seq))
        });
        let n = max_batch.min(self.queue.len());
        out.extend(self.queue.drain(..n));
    }
}

/// Earliest-deadline-first batch formation.
///
/// Frames are ordered by the absolute deadline their session stamped on
/// the wire header ([`QueuedFrame::deadline_at`]); frames without a
/// deadline sort last, in arrival order. `lookahead` controls how many
/// batches' worth of frames the scheduler accumulates before dispatching:
/// `1` dispatches as eagerly as FIFO (the ordering then only matters on
/// flushes), larger values trade queueing delay for better ordering.
#[derive(Debug)]
pub struct DeadlineAware {
    inner: PriorityQueue,
}

impl DeadlineAware {
    /// Creates an EDF scheduler holding back `lookahead` batches.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn new(lookahead: usize) -> Self {
        DeadlineAware {
            inner: PriorityQueue::new(lookahead),
        }
    }
}

impl Scheduler for DeadlineAware {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("deadline-aware")
    }

    fn push(&mut self, frame: QueuedFrame) {
        self.inner.queue.push(frame);
    }

    fn len(&self) -> usize {
        self.inner.queue.len()
    }

    fn ready(&self, max_batch: usize) -> bool {
        self.inner.ready(max_batch)
    }

    fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>) {
        self.inner
            .take_by(max_batch, |f| f.deadline_at().unwrap_or(f64::INFINITY), out);
    }
}

/// Hardest-cases-first batch formation.
///
/// Frames are ordered by the difficulty score the offload policy stamped
/// on the wire header ([`QueuedFrame::difficulty`], higher first) — the
/// AppealNet-style knob: *which* difficult cases reach the big model
/// first is itself policy. Ties (and unscored frames, which carry `0`)
/// fall back to arrival order. `lookahead` as in [`DeadlineAware`].
#[derive(Debug)]
pub struct DifficultyPriority {
    inner: PriorityQueue,
}

impl DifficultyPriority {
    /// Creates a difficulty-priority scheduler holding back `lookahead`
    /// batches.
    ///
    /// # Panics
    ///
    /// Panics if `lookahead` is zero.
    pub fn new(lookahead: usize) -> Self {
        DifficultyPriority {
            inner: PriorityQueue::new(lookahead),
        }
    }
}

impl Scheduler for DifficultyPriority {
    fn name(&self) -> Cow<'static, str> {
        Cow::Borrowed("difficulty-priority")
    }

    fn push(&mut self, frame: QueuedFrame) {
        self.inner.queue.push(frame);
    }

    fn len(&self) -> usize {
        self.inner.queue.len()
    }

    fn ready(&self, max_batch: usize) -> bool {
        self.inner.ready(max_batch)
    }

    fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>) {
        self.inner.take_by(max_batch, |f| -f.difficulty(), out);
    }
}

/// Declarative scheduler choice for [`crate::CloudConfig`] (the
/// `Clone`-able configuration form; [`CloudServer::spawn_with`] accepts a
/// custom boxed [`Scheduler`] instead).
///
/// [`CloudServer::spawn_with`]: crate::CloudServer::spawn_with
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum SchedulerConfig {
    /// Arrival order, dispatch at `max_batch` ([`FifoBatcher`]) — the
    /// bit-identical default.
    #[default]
    Fifo,
    /// Earliest-deadline-first ([`DeadlineAware`]).
    DeadlineAware {
        /// Batches' worth of frames to accumulate before dispatching.
        lookahead: usize,
    },
    /// Hardest cases first ([`DifficultyPriority`]).
    DifficultyPriority {
        /// Batches' worth of frames to accumulate before dispatching.
        lookahead: usize,
    },
}

impl SchedulerConfig {
    /// Builds the configured scheduler.
    pub fn build(&self) -> Box<dyn Scheduler> {
        match *self {
            SchedulerConfig::Fifo => Box::new(FifoBatcher::new()),
            SchedulerConfig::DeadlineAware { lookahead } => Box::new(DeadlineAware::new(lookahead)),
            SchedulerConfig::DifficultyPriority { lookahead } => {
                Box::new(DifficultyPriority::new(lookahead))
            }
        }
    }

    /// The configured scheduler's name (for reports).
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerConfig::Fifo => "fifo",
            SchedulerConfig::DeadlineAware { .. } => "deadline-aware",
            SchedulerConfig::DifficultyPriority { .. } => "difficulty-priority",
        }
    }

    /// Checks the config [`SchedulerConfig::build`] would otherwise panic
    /// on: a priority scheduler's `lookahead` must be at least 1.
    ///
    /// # Errors
    ///
    /// Names the field out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        match *self {
            SchedulerConfig::DeadlineAware { lookahead: 0 }
            | SchedulerConfig::DifficultyPriority { lookahead: 0 } => {
                Err(ConfigError::new("lookahead", "must be at least 1"))
            }
            _ => Ok(()),
        }
    }
}

/// The cloud worker's scheduler seam, with a monomorphized fast path.
///
/// The default [`FifoBatcher`] is held *concretely*: every `push`/`ready`/
/// `take_batch` on the default path is a statically dispatched (and
/// inlinable) call into the plain `Vec` FIFO, so the control-plane seam
/// costs nothing unless a deployment actually plugs in a custom scheduler —
/// those keep the object-safe boxed form. The boxed seam measured ~10
/// ns/frame over the historical inline loop (PERFORMANCE.md, the note on
/// the scheduling control plane); this enum closes that gap for the
/// configuration every test and deployment defaults to.
pub(crate) enum SchedulerSlot {
    /// The default FIFO, statically dispatched.
    Fifo(FifoBatcher),
    /// Any other scheduler, behind the object-safe seam.
    Custom(Box<dyn Scheduler>),
}

impl SchedulerSlot {
    /// Builds the slot for a declarative config: the default FIFO gets the
    /// monomorphized fast path, everything else the boxed seam.
    pub(crate) fn from_config(config: &SchedulerConfig) -> SchedulerSlot {
        match config {
            SchedulerConfig::Fifo => SchedulerSlot::Fifo(FifoBatcher::new()),
            other => SchedulerSlot::Custom(other.build()),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, frame: QueuedFrame) {
        match self {
            SchedulerSlot::Fifo(f) => f.push(frame),
            SchedulerSlot::Custom(s) => s.push(frame),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        match self {
            SchedulerSlot::Fifo(f) => Scheduler::len(f),
            SchedulerSlot::Custom(s) => s.len(),
        }
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        match self {
            SchedulerSlot::Fifo(f) => Scheduler::is_empty(f),
            SchedulerSlot::Custom(s) => s.is_empty(),
        }
    }

    #[inline]
    pub(crate) fn ready(&self, max_batch: usize) -> bool {
        match self {
            SchedulerSlot::Fifo(f) => f.ready(max_batch),
            SchedulerSlot::Custom(s) => s.ready(max_batch),
        }
    }

    #[inline]
    pub(crate) fn take_batch(&mut self, max_batch: usize, out: &mut Vec<QueuedFrame>) {
        match self {
            SchedulerSlot::Fifo(f) => f.take_batch(max_batch, out),
            SchedulerSlot::Custom(s) => s.take_batch(max_batch, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(specs: &[(u64, f64, f64, Option<f64>)]) -> Vec<QueuedFrame> {
        specs
            .iter()
            .enumerate()
            .map(|(i, &(ticket, arrival, difficulty, deadline))| {
                let mut f = QueuedFrame::synthetic(0, ticket, arrival, difficulty, deadline);
                f.seq = i as u64;
                f
            })
            .collect()
    }

    #[test]
    fn fifo_serves_in_arrival_order() {
        let mut s = FifoBatcher::new();
        for f in frames(&[
            (3, 0.0, 9.0, None),
            (1, 0.1, 0.0, None),
            (2, 0.2, 5.0, None),
        ]) {
            s.push(f);
        }
        assert!(s.ready(3));
        assert!(!s.ready(4));
        let mut out = Vec::new();
        s.take_batch(2, &mut out);
        let tickets: Vec<u64> = out.iter().map(|f| f.ticket()).collect();
        assert_eq!(tickets, vec![3, 1]);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn deadline_aware_serves_tightest_deadline_first() {
        let mut s = DeadlineAware::new(2);
        for f in frames(&[
            (0, 0.0, 0.0, Some(9.0)),
            (1, 0.1, 0.0, None),
            (2, 0.2, 0.0, Some(1.5)),
            (3, 0.3, 0.0, Some(4.0)),
        ]) {
            s.push(f);
        }
        // Holds back until lookahead × max_batch frames wait.
        assert!(!s.ready(3));
        assert!(s.ready(2));
        let mut out = Vec::new();
        s.take_batch(3, &mut out);
        let tickets: Vec<u64> = out.iter().map(|f| f.ticket()).collect();
        assert_eq!(tickets, vec![2, 3, 0], "EDF order, deadline-less last");
        s.take_batch(3, &mut out);
        assert_eq!(out[0].ticket(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn difficulty_priority_serves_hardest_first_with_fifo_ties() {
        let mut s = DifficultyPriority::new(1);
        for f in frames(&[
            (0, 0.0, 1.0, None),
            (1, 0.1, 7.0, None),
            (2, 0.2, 1.0, None),
            (3, 0.3, 3.0, None),
        ]) {
            s.push(f);
        }
        let mut out = Vec::new();
        s.take_batch(4, &mut out);
        let tickets: Vec<u64> = out.iter().map(|f| f.ticket()).collect();
        assert_eq!(tickets, vec![1, 3, 0, 2], "score desc, ties in seq order");
    }

    #[test]
    fn scheduler_config_builds_the_named_scheduler() {
        for cfg in [
            SchedulerConfig::Fifo,
            SchedulerConfig::DeadlineAware { lookahead: 2 },
            SchedulerConfig::DifficultyPriority { lookahead: 3 },
        ] {
            assert_eq!(cfg.build().name(), cfg.name());
            assert_eq!(cfg.validate(), Ok(()));
        }
        assert_eq!(SchedulerConfig::default(), SchedulerConfig::Fifo);
        for cfg in [
            SchedulerConfig::DeadlineAware { lookahead: 0 },
            SchedulerConfig::DifficultyPriority { lookahead: 0 },
        ] {
            let refused = ConfigError::new("lookahead", "must be at least 1");
            assert_eq!(cfg.validate(), Err(refused));
        }
    }

    #[test]
    #[should_panic(expected = "lookahead")]
    fn zero_lookahead_rejected() {
        let _ = DeadlineAware::new(0);
    }
}
