//! Dynamic network schedules and fault plans.
//!
//! A static [`LinkModel`] answers "how long does this payload take *now*";
//! this module makes "now" matter. A [`LinkTrace`] is a piecewise schedule
//! over **virtual time** that scales a base link's bandwidth/RTT and
//! overrides its loss probability — outages, diurnal ramps, Gilbert–Elliott
//! bursty loss, seeded random walks. A [`FaultPlan`] schedules cloud-server
//! stalls and per-session drop windows. [`RetryConfig`] is the exponential
//! backoff the session layer uses when a traced attempt fails.
//!
//! # Determinism contract
//!
//! Everything here is a pure function of `(constructor arguments, virtual
//! time, RNG state)`:
//!
//! * Stochastic constructors ([`LinkTrace::bursty`],
//!   [`LinkTrace::random_walk`]) expand their schedule **at construction
//!   time** from their own seeded [`StdRng`] stream — two traces built with
//!   the same arguments are equal segment-for-segment.
//! * Lookups ([`LinkTrace::segment_at`], [`FaultPlan::next_available`])
//!   never draw randomness.
//! * Per-transfer draws ([`LinkTrace::transfer_time_at`],
//!   [`LinkTrace::attempt_at`]) consume the caller's RNG in a documented
//!   order (loss check first, jitter only on success for `attempt_at`), so
//!   a run replays bit-identically under a fixed seed.
//! * A constant identity trace is bit-identical to the static link:
//!   `LinkTrace::constant().transfer_time_at(&link, bytes, t, rng)` equals
//!   `link.transfer_time(bytes, rng)` for every `t` (pinned by the simnet
//!   property suite).

use crate::link::LinkModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, Normal};
use serde::{Deserialize, Serialize};

/// The observable state of a (possibly traced) link at one virtual instant:
/// what an adaptive offload policy gets to see before deciding a frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkState {
    /// Effective usable bandwidth, bits per second (0 during an outage).
    pub bandwidth_bps: f64,
    /// Effective round-trip time in seconds.
    pub rtt_s: f64,
    /// Effective loss probability in `[0, 1]` (1 during an outage).
    pub loss_prob: f64,
}

impl LinkState {
    /// `true` when no transfer can succeed at this state.
    pub fn is_outage(&self) -> bool {
        self.bandwidth_bps <= 0.0 || self.loss_prob >= 1.0
    }

    /// Jitter-free transfer estimate for a payload at this state
    /// (`f64::INFINITY` during an outage) — the number an adaptive policy
    /// compares against its latency budget.
    pub fn nominal_transfer_time(&self, bytes: usize) -> f64 {
        if self.is_outage() {
            return f64::INFINITY;
        }
        self.rtt_s + bytes as f64 * 8.0 / self.bandwidth_bps
    }
}

/// One piece of a [`LinkTrace`]: the link's condition from `start_s` until
/// the next segment begins (the last segment extends forever).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Virtual time at which this segment takes effect, seconds.
    pub start_s: f64,
    /// Multiplier on the base link's bandwidth (`0` = outage).
    pub bandwidth_scale: f64,
    /// Multiplier on the base link's RTT.
    pub rtt_scale: f64,
    /// Loss probability override in `[0, 1]`; `None` inherits the base
    /// link's loss. `1.0` means a total outage (no transfer succeeds).
    pub loss_prob: Option<f64>,
}

impl TraceSegment {
    /// An identity segment starting at `start_s` (base link unchanged).
    pub fn identity(start_s: f64) -> Self {
        TraceSegment {
            start_s,
            bandwidth_scale: 1.0,
            rtt_scale: 1.0,
            loss_prob: None,
        }
    }

    /// A total-outage segment starting at `start_s`.
    pub fn outage(start_s: f64) -> Self {
        TraceSegment {
            start_s,
            bandwidth_scale: 0.0,
            rtt_scale: 1.0,
            loss_prob: Some(1.0),
        }
    }
}

/// A piecewise bandwidth/RTT/loss schedule over virtual time, applied on
/// top of a base [`LinkModel`].
///
/// Traces are *relative* (scales plus a loss override), so one scenario —
/// "a 30 s outage two minutes in", "tidal bandwidth", "bursty cellular
/// loss" — composes with any base link. Segment starts are strictly
/// increasing and the first segment starts at `0.0`, so every virtual
/// instant maps to exactly one segment.
///
/// # Examples
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use simnet::{LinkModel, LinkTrace};
///
/// let wlan = LinkModel::wlan();
/// let trace = LinkTrace::step_outage(10.0, 5.0);
/// let mut rng = StdRng::seed_from_u64(1);
/// assert!(trace.transfer_time_at(&wlan, 60_000, 2.0, &mut rng).is_some());
/// assert!(trace.transfer_time_at(&wlan, 60_000, 12.0, &mut rng).is_none());
/// assert!(trace.transfer_time_at(&wlan, 60_000, 15.0, &mut rng).is_some());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinkTrace {
    name: String,
    segments: Vec<TraceSegment>,
}

impl LinkTrace {
    /// Creates a trace from explicit segments.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is empty, the first segment does not start at
    /// `0.0`, starts are not strictly increasing, a scale is negative or
    /// non-finite, or a loss override is outside `[0, 1]`.
    pub fn new(name: &str, segments: Vec<TraceSegment>) -> Self {
        assert!(!segments.is_empty(), "a trace needs at least one segment");
        assert!(
            segments[0].start_s == 0.0,
            "the first segment must start at virtual time 0"
        );
        for pair in segments.windows(2) {
            assert!(
                pair[0].start_s < pair[1].start_s,
                "segment starts must be strictly increasing"
            );
        }
        for seg in &segments {
            assert!(
                seg.bandwidth_scale.is_finite() && seg.bandwidth_scale >= 0.0,
                "bandwidth scale must be finite and non-negative"
            );
            assert!(
                seg.rtt_scale.is_finite() && seg.rtt_scale >= 0.0,
                "rtt scale must be finite and non-negative"
            );
            if let Some(loss) = seg.loss_prob {
                assert!((0.0..=1.0).contains(&loss), "loss override in [0, 1]");
            }
        }
        LinkTrace {
            name: name.to_string(),
            segments,
        }
    }

    /// The identity trace: the base link, unchanged, forever. Bit-identical
    /// to the static link (the zero-trace fast path's semantic anchor).
    pub fn constant() -> Self {
        LinkTrace::new("constant", vec![TraceSegment::identity(0.0)])
    }

    /// A single total outage: the link is healthy, goes completely dark at
    /// `start_s` for `duration_s` seconds, then recovers.
    ///
    /// # Panics
    ///
    /// Panics if `start_s` is negative or `duration_s` is non-positive.
    pub fn step_outage(start_s: f64, duration_s: f64) -> Self {
        assert!(start_s >= 0.0, "outage start must be non-negative");
        assert!(duration_s > 0.0, "outage duration must be positive");
        let mut segments = Vec::new();
        if start_s > 0.0 {
            segments.push(TraceSegment::identity(0.0));
        }
        segments.push(TraceSegment::outage(start_s));
        segments.push(TraceSegment::identity(start_s + duration_s));
        LinkTrace::new("step-outage", segments)
    }

    /// A total outage covering all of virtual time (the "cable cut"
    /// scenario: every upload must fall back to the edge).
    pub fn total_outage() -> Self {
        LinkTrace::new("total-outage", vec![TraceSegment::outage(0.0)])
    }

    /// A diurnal-style bandwidth ramp: capacity swings between
    /// `floor_scale` and `1.0` on a raised cosine of period `period_s`,
    /// sampled into `steps_per_period` piecewise-constant segments,
    /// repeated for `periods` cycles (full capacity afterwards).
    ///
    /// # Panics
    ///
    /// Panics if the period is non-positive, the floor is outside `(0, 1]`,
    /// or a count is zero.
    pub fn diurnal_ramp(
        period_s: f64,
        floor_scale: f64,
        steps_per_period: usize,
        periods: usize,
    ) -> Self {
        assert!(period_s > 0.0, "period must be positive");
        assert!(
            floor_scale > 0.0 && floor_scale <= 1.0,
            "floor scale in (0, 1]"
        );
        assert!(
            steps_per_period > 0 && periods > 0,
            "counts must be positive"
        );
        let mut segments = Vec::new();
        for cycle in 0..periods {
            for step in 0..steps_per_period {
                let start_s =
                    (cycle * steps_per_period + step) as f64 * period_s / steps_per_period as f64;
                // Raised cosine: full capacity at the period boundaries,
                // `floor_scale` mid-period.
                let phase = step as f64 / steps_per_period as f64;
                let depth = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
                let scale = 1.0 - (1.0 - floor_scale) * depth;
                segments.push(TraceSegment {
                    start_s,
                    bandwidth_scale: scale,
                    rtt_scale: 1.0,
                    loss_prob: None,
                });
            }
        }
        segments.push(TraceSegment::identity(periods as f64 * period_s));
        LinkTrace::new("diurnal-ramp", segments)
    }

    /// Gilbert–Elliott-style bursty loss: the link alternates between a
    /// *good* state (base link unchanged) and a *bad* state (loss forced to
    /// `bad_loss`), with exponentially distributed sojourn times of mean
    /// `mean_good_s` / `mean_bad_s`, expanded from `seed` until
    /// `horizon_s` (good forever afterwards).
    ///
    /// # Panics
    ///
    /// Panics if a mean or the horizon is non-positive, or `bad_loss` is
    /// outside `[0, 1]`.
    pub fn bursty(
        seed: u64,
        horizon_s: f64,
        mean_good_s: f64,
        mean_bad_s: f64,
        bad_loss: f64,
    ) -> Self {
        assert!(horizon_s > 0.0, "horizon must be positive");
        assert!(
            mean_good_s > 0.0 && mean_bad_s > 0.0,
            "state sojourn means must be positive"
        );
        assert!((0.0..=1.0).contains(&bad_loss), "bad-state loss in [0, 1]");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6e57_b1a5);
        let mut segments = Vec::new();
        let mut t = 0.0f64;
        let mut good = true;
        while t < horizon_s {
            segments.push(if good {
                TraceSegment::identity(t)
            } else {
                TraceSegment {
                    start_s: t,
                    bandwidth_scale: 1.0,
                    rtt_scale: 1.0,
                    loss_prob: Some(bad_loss),
                }
            });
            // Inverse-CDF exponential sojourn; the epsilon keeps starts
            // strictly increasing even for extreme draws.
            let mean = if good { mean_good_s } else { mean_bad_s };
            let sojourn = (-mean * (1.0 - rng.gen::<f64>()).ln()).max(1e-6);
            t += sojourn;
            good = !good;
        }
        segments.push(TraceSegment::identity(t.max(horizon_s)));
        LinkTrace::new("bursty", segments)
    }

    /// A seeded geometric random walk on bandwidth: every `step_s` the
    /// capacity scale is multiplied by `exp(sigma · z)` (`z` standard
    /// normal) and clamped to `[floor_scale, ceil_scale]`, until
    /// `horizon_s` (last value holds afterwards).
    ///
    /// # Panics
    ///
    /// Panics if a duration is non-positive, `sigma` is negative, or the
    /// clamp range is empty or non-positive.
    pub fn random_walk(
        seed: u64,
        horizon_s: f64,
        step_s: f64,
        sigma: f64,
        floor_scale: f64,
        ceil_scale: f64,
    ) -> Self {
        assert!(
            horizon_s > 0.0 && step_s > 0.0,
            "durations must be positive"
        );
        assert!(sigma >= 0.0, "sigma must be non-negative");
        assert!(
            floor_scale > 0.0 && floor_scale <= ceil_scale,
            "need 0 < floor_scale <= ceil_scale"
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7a1c_0de5);
        let normal = Normal::new(0.0, 1.0).expect("unit normal");
        let mut segments = Vec::new();
        let mut scale = 1.0f64.clamp(floor_scale, ceil_scale);
        let mut t = 0.0f64;
        while t < horizon_s {
            segments.push(TraceSegment {
                start_s: t,
                bandwidth_scale: scale,
                rtt_scale: 1.0,
                loss_prob: None,
            });
            scale =
                (scale * (sigma * normal.sample(&mut rng)).exp()).clamp(floor_scale, ceil_scale);
            t += step_s;
        }
        LinkTrace::new("random-walk", segments)
    }

    /// Trace name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace's segments, sorted by start time.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// The segment in effect at virtual time `t` (times before the first
    /// segment use the first; times past the last use the last).
    pub fn segment_at(&self, t: f64) -> &TraceSegment {
        let idx = self.segments.partition_point(|s| s.start_s <= t);
        &self.segments[idx.saturating_sub(1)]
    }

    /// The bandwidth scale in effect at virtual time `t` (piecewise
    /// constant; clamps like [`segment_at`](Self::segment_at)).
    pub fn scale_at(&self, t: f64) -> f64 {
        self.segment_at(t).bandwidth_scale
    }

    /// The integral of the bandwidth scale over `[0, t]`.
    ///
    /// Monotone non-decreasing in `t` (strictly increasing wherever the
    /// scale is positive), so it doubles as an *unnormalised arrival CDF*
    /// when a population layer uses "capacity over the day" as its arrival
    /// intensity. Negative `t` integrates to `0`.
    pub fn cumulative_scale(&self, t: f64) -> f64 {
        if t <= 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            if seg.start_s >= t {
                break;
            }
            let end = match self.segments.get(i + 1) {
                Some(next) => next.start_s.min(t),
                None => t,
            };
            acc += (end - seg.start_s.max(0.0)).max(0.0) * seg.bandwidth_scale;
        }
        acc
    }

    /// The inverse of [`cumulative_scale`](Self::cumulative_scale): the
    /// earliest time `t` with `cumulative_scale(t) >= target`.
    ///
    /// Zero-scale segments contribute no mass, so no inverse value lands
    /// strictly inside an outage — arrivals scheduled through this function
    /// skip dark windows entirely. Targets past the trace's total mass
    /// extrapolate through the final (infinite) segment; if that segment
    /// has zero scale the result is `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `target` is negative or non-finite.
    pub fn time_at_cumulative_scale(&self, target: f64) -> f64 {
        assert!(
            target.is_finite() && target >= 0.0,
            "target mass must be finite and non-negative"
        );
        if target == 0.0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for (i, seg) in self.segments.iter().enumerate() {
            let end = self.segments.get(i + 1).map(|next| next.start_s);
            let width = match end {
                Some(end) => end - seg.start_s,
                None => f64::INFINITY,
            };
            let mass = width * seg.bandwidth_scale;
            if acc + mass >= target || end.is_none() {
                if seg.bandwidth_scale <= 0.0 {
                    // Final segment is an outage: the target is unreachable.
                    return f64::INFINITY;
                }
                return seg.start_s + (target - acc) / seg.bandwidth_scale;
            }
            acc += mass;
        }
        unreachable!("the last segment extends to infinity");
    }

    /// The effective [`LinkState`] of `base` under this trace at time `t`.
    pub fn state_of(&self, base: &LinkModel, t: f64) -> LinkState {
        let seg = self.segment_at(t);
        LinkState {
            bandwidth_bps: base.bandwidth_bps() * seg.bandwidth_scale,
            rtt_s: base.rtt_s() * seg.rtt_scale,
            loss_prob: seg.loss_prob.unwrap_or(base.loss_prob()),
        }
    }

    /// `true` when no transfer can succeed at time `t` (zero bandwidth or
    /// certain loss).
    pub fn is_outage_at(&self, base: &LinkModel, t: f64) -> bool {
        self.state_of(base, t).is_outage()
    }

    /// Closed-form transfer time through the trace at time `t` (the
    /// single-call analogue of [`LinkModel::transfer_time`], including the
    /// static model's jitter and geometric retransmissions), or `None` if
    /// the link is in outage at `t`.
    ///
    /// For a constant identity trace this is **bit-identical** to
    /// `base.transfer_time(bytes, rng)` — the property the zero-trace fast
    /// path is pinned against.
    pub fn transfer_time_at<R: Rng + ?Sized>(
        &self,
        base: &LinkModel,
        bytes: usize,
        t: f64,
        rng: &mut R,
    ) -> Option<f64> {
        let seg = self.segment_at(t);
        let loss = seg.loss_prob.unwrap_or(base.loss_prob());
        if seg.bandwidth_scale <= 0.0 || loss >= 1.0 {
            return None;
        }
        Some(base.transfer_time_scaled(bytes, seg.bandwidth_scale, seg.rtt_scale, loss, rng))
    }

    /// One event-level transmission attempt at time `t` — the primitive the
    /// session layer retries with backoff against its virtual clock.
    ///
    /// Unlike [`transfer_time_at`](Self::transfer_time_at) (which folds
    /// loss into the closed-form geometric model), an attempt can *fail*:
    /// in an outage no randomness is drawn and the attempt is
    /// [`LinkAttempt::Outage`]; otherwise one loss draw decides
    /// [`LinkAttempt::Lost`], and only a successful attempt draws jitter
    /// and yields [`LinkAttempt::Sent`] with the transfer duration.
    pub fn attempt_at<R: Rng + ?Sized>(
        &self,
        base: &LinkModel,
        bytes: usize,
        t: f64,
        rng: &mut R,
    ) -> LinkAttempt {
        let seg = self.segment_at(t);
        let loss = seg.loss_prob.unwrap_or(base.loss_prob());
        if seg.bandwidth_scale <= 0.0 || loss >= 1.0 {
            return LinkAttempt::Outage;
        }
        if loss > 0.0 && rng.gen::<f64>() < loss {
            return LinkAttempt::Lost;
        }
        let rtt = base.rtt_s() * seg.rtt_scale;
        let nominal = rtt + bytes as f64 * 8.0 / (base.bandwidth_bps() * seg.bandwidth_scale);
        LinkAttempt::Sent(nominal * base.jitter_draw(rng))
    }
}

/// Outcome of one [`LinkTrace::attempt_at`] transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAttempt {
    /// The link is in total outage; nothing was transmitted (no RNG drawn).
    Outage,
    /// The attempt was lost in flight (one loss draw).
    Lost,
    /// The attempt succeeded; the payload takes this many seconds.
    Sent(f64),
}

/// Exponential-backoff schedule for traced retransmissions.
///
/// After failed attempt `k` (1-based) the session waits
/// `base_s · multiplier^(k-1)` of virtual time and retransmits — up to
/// `max_retries` retransmissions, so up to `max_retries + 1` transmission
/// attempts in total. When the last retransmission also fails, the frame
/// falls back to the edge-only answer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// First backoff interval, seconds.
    pub base_s: f64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
    /// Retransmissions (backoff waits) taken before giving up; the initial
    /// attempt is not counted, so the link is tried `max_retries + 1` times.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> Self {
        RetryConfig {
            base_s: 0.05,
            multiplier: 2.0,
            max_retries: 6,
        }
    }
}

impl RetryConfig {
    /// The wait before retry `attempt` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is zero.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        assert!(attempt >= 1, "attempts are 1-based");
        self.base_s * self.multiplier.powi(attempt as i32 - 1)
    }

    /// Total virtual time spent backing off before giving up.
    pub fn total_backoff_s(&self) -> f64 {
        (1..=self.max_retries).map(|a| self.backoff_s(a)).sum()
    }
}

/// A half-open window `[start_s, end_s)` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWindow {
    /// Window start, seconds.
    pub start_s: f64,
    /// Window end (exclusive), seconds.
    pub end_s: f64,
}

impl TimeWindow {
    /// Creates a window from a start and a duration.
    ///
    /// # Panics
    ///
    /// Panics if the start is negative or the duration non-positive.
    pub fn new(start_s: f64, duration_s: f64) -> Self {
        assert!(start_s >= 0.0, "window start must be non-negative");
        assert!(duration_s > 0.0, "window duration must be positive");
        TimeWindow {
            start_s,
            end_s: start_s + duration_s,
        }
    }

    /// `true` when `t` falls inside the window.
    pub fn contains(&self, t: f64) -> bool {
        self.start_s <= t && t < self.end_s
    }
}

/// Scheduled infrastructure faults: cloud-server stalls and per-session
/// drop windows, all in virtual time.
///
/// * A **stall** makes the cloud scheduler unavailable for a window — a
///   batch that would start inside it is deferred to the window's end
///   (modelling GC pauses, preemption, failover).
/// * A **drop window** blackholes one session's transmissions: any traced
///   attempt the session makes inside the window is lost deterministically
///   (no RNG drawn) and retransmits with backoff like an outage.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    stalls: Vec<TimeWindow>,
    drops: Vec<(u64, TimeWindow)>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.drops.is_empty()
    }

    /// Adds a cloud-server stall window.
    pub fn with_stall(mut self, start_s: f64, duration_s: f64) -> Self {
        self.stalls.push(TimeWindow::new(start_s, duration_s));
        self
    }

    /// Adds a drop window for one session id.
    pub fn with_session_drop(mut self, session: u64, start_s: f64, duration_s: f64) -> Self {
        self.drops
            .push((session, TimeWindow::new(start_s, duration_s)));
        self
    }

    /// The scheduled cloud stalls.
    pub fn stalls(&self) -> &[TimeWindow] {
        &self.stalls
    }

    /// The drop windows scheduled for one session.
    pub fn drops_for(&self, session: u64) -> Vec<TimeWindow> {
        self.drops
            .iter()
            .filter(|(s, _)| *s == session)
            .map(|(_, w)| *w)
            .collect()
    }

    /// The earliest time `>= t` at which the cloud server is not stalled.
    /// Windows may overlap and be unsorted; the fixpoint loop handles both.
    pub fn next_available(&self, t: f64) -> f64 {
        let mut t = t;
        loop {
            let mut moved = false;
            for w in &self.stalls {
                if w.contains(t) {
                    t = w.end_s;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn segment_lookup_is_piecewise() {
        let trace = LinkTrace::step_outage(10.0, 5.0);
        assert_eq!(trace.segment_at(0.0).bandwidth_scale, 1.0);
        assert_eq!(trace.segment_at(9.999).bandwidth_scale, 1.0);
        assert_eq!(trace.segment_at(10.0).bandwidth_scale, 0.0);
        assert_eq!(trace.segment_at(14.999).bandwidth_scale, 0.0);
        assert_eq!(trace.segment_at(15.0).bandwidth_scale, 1.0);
        assert_eq!(trace.segment_at(-1.0).bandwidth_scale, 1.0);
        assert_eq!(trace.segment_at(1e9).bandwidth_scale, 1.0);
    }

    #[test]
    fn outage_attempts_draw_no_randomness() {
        let wlan = LinkModel::wlan();
        let trace = LinkTrace::total_outage();
        let mut a = StdRng::seed_from_u64(3);
        let b = StdRng::seed_from_u64(3);
        assert_eq!(
            trace.attempt_at(&wlan, 60_000, 1.0, &mut a),
            LinkAttempt::Outage
        );
        // RNG untouched: both streams still produce the same next draw.
        let mut b = b;
        assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn bursty_bad_state_raises_loss() {
        let trace = LinkTrace::bursty(7, 120.0, 5.0, 2.0, 0.9);
        assert!(trace.segments().iter().any(|s| s.loss_prob == Some(0.9)));
        assert!(trace.segments().iter().any(|s| s.loss_prob.is_none()));
        // Healthy forever after the horizon.
        assert_eq!(trace.segment_at(1e9).loss_prob, None);
    }

    #[test]
    fn diurnal_ramp_dips_mid_period() {
        let trace = LinkTrace::diurnal_ramp(100.0, 0.2, 10, 2);
        let mid = trace.segment_at(50.0).bandwidth_scale;
        let edge = trace.segment_at(1.0).bandwidth_scale;
        assert!(mid < edge, "mid-period {mid} vs boundary {edge}");
        assert!(mid >= 0.2 - 1e-12);
        assert_eq!(trace.segment_at(250.0).bandwidth_scale, 1.0);
    }

    #[test]
    fn cumulative_scale_integrates_piecewise() {
        // 10 s at full capacity, 5 s dark, then full capacity forever.
        let trace = LinkTrace::step_outage(10.0, 5.0);
        assert_eq!(trace.cumulative_scale(-1.0), 0.0);
        assert!((trace.cumulative_scale(10.0) - 10.0).abs() < 1e-12);
        assert!((trace.cumulative_scale(15.0) - 10.0).abs() < 1e-12);
        assert!((trace.cumulative_scale(18.0) - 13.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_cumulative_scale_skips_outages() {
        let trace = LinkTrace::step_outage(10.0, 5.0);
        assert_eq!(trace.time_at_cumulative_scale(0.0), 0.0);
        assert!((trace.time_at_cumulative_scale(5.0) - 5.0).abs() < 1e-12);
        // Mass just past the outage boundary lands after it, never inside.
        assert!((trace.time_at_cumulative_scale(10.5) - 15.5).abs() < 1e-12);
        // Round trip through a diurnal curve.
        let ramp = LinkTrace::diurnal_ramp(100.0, 0.2, 8, 1);
        for &t in &[3.0, 40.0, 77.0, 150.0] {
            let mass = ramp.cumulative_scale(t);
            assert!((ramp.time_at_cumulative_scale(mass) - t).abs() < 1e-9);
        }
        // Unreachable mass under a permanent outage.
        assert_eq!(
            LinkTrace::total_outage().time_at_cumulative_scale(1.0),
            f64::INFINITY
        );
    }

    #[test]
    fn retry_backoff_grows_geometrically() {
        let retry = RetryConfig::default();
        assert!((retry.backoff_s(1) - 0.05).abs() < 1e-12);
        assert!((retry.backoff_s(3) - 0.2).abs() < 1e-12);
        assert!((retry.total_backoff_s() - 3.15).abs() < 1e-9);
    }

    #[test]
    fn fault_plan_defers_past_overlapping_stalls() {
        let plan = FaultPlan::new().with_stall(10.0, 5.0).with_stall(14.0, 6.0);
        assert_eq!(plan.next_available(9.0), 9.0);
        assert_eq!(plan.next_available(10.0), 20.0);
        assert_eq!(plan.next_available(14.5), 20.0);
        assert_eq!(plan.next_available(20.0), 20.0);
        assert_eq!(plan.drops_for(0), vec![]);
    }

    #[test]
    fn drop_windows_are_per_session() {
        let plan = FaultPlan::new().with_session_drop(3, 1.0, 2.0);
        assert_eq!(plan.drops_for(3).len(), 1);
        assert!(plan.drops_for(3)[0].contains(1.5));
        assert!(plan.drops_for(2).is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_segments() {
        let _ = LinkTrace::new(
            "bad",
            vec![TraceSegment::identity(0.0), TraceSegment::identity(0.0)],
        );
    }

    #[test]
    #[should_panic(expected = "start at virtual time 0")]
    fn rejects_late_first_segment() {
        let _ = LinkTrace::new("bad", vec![TraceSegment::identity(1.0)]);
    }
}
