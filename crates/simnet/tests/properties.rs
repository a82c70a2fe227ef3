//! Property tests for the dynamic-network layer: trace invariants,
//! constructor determinism, and the constant-trace ≡ static-link anchor.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::{FaultPlan, LinkAttempt, LinkModel, LinkTrace, RetryConfig};
use std::time::Duration;

/// Every constructor must satisfy the trace invariants: non-negative
/// scales, loss overrides in `[0, 1]`, strictly monotone virtual time
/// starting at zero.
fn assert_invariants(trace: &LinkTrace) {
    let segments = trace.segments();
    assert!(!segments.is_empty(), "{}: empty trace", trace.name());
    assert_eq!(segments[0].start_s, 0.0, "{}: first start", trace.name());
    for pair in segments.windows(2) {
        assert!(
            pair[0].start_s < pair[1].start_s,
            "{}: starts not strictly increasing",
            trace.name()
        );
    }
    for seg in segments {
        assert!(
            seg.bandwidth_scale.is_finite() && seg.bandwidth_scale >= 0.0,
            "{}: bandwidth scale {}",
            trace.name(),
            seg.bandwidth_scale
        );
        assert!(
            seg.rtt_scale.is_finite() && seg.rtt_scale >= 0.0,
            "{}: rtt scale {}",
            trace.name(),
            seg.rtt_scale
        );
        if let Some(loss) = seg.loss_prob {
            assert!(
                (0.0..=1.0).contains(&loss),
                "{}: loss {}",
                trace.name(),
                loss
            );
        }
    }
}

proptest! {
    /// The stochastic and parameterised constructors all uphold the
    /// segment invariants, whatever their arguments.
    #[test]
    fn constructors_satisfy_invariants(
        seed in any::<u64>(),
        start in 0.0f64..500.0,
        duration in 0.1f64..500.0,
        period in 1.0f64..500.0,
        floor in 0.05f64..1.0,
        steps in 1usize..40,
        periods in 1usize..5,
        horizon in 1.0f64..300.0,
        mean_good in 0.1f64..60.0,
        mean_bad in 0.1f64..60.0,
        bad_loss in 0.0f64..=1.0,
        step_s in 0.1f64..30.0,
        sigma in 0.0f64..1.0,
    ) {
        assert_invariants(&LinkTrace::constant());
        assert_invariants(&LinkTrace::total_outage());
        assert_invariants(&LinkTrace::step_outage(start, duration));
        assert_invariants(&LinkTrace::diurnal_ramp(period, floor, steps, periods));
        assert_invariants(&LinkTrace::bursty(seed, horizon, mean_good, mean_bad, bad_loss));
        assert_invariants(&LinkTrace::random_walk(seed, horizon, step_s, sigma, floor, 2.0));
    }

    /// The constant identity trace reproduces the static link's
    /// `transfer_time` bit-for-bit — same value, same RNG consumption —
    /// at every virtual time, for arbitrary links and payloads. This is
    /// the semantic anchor of the session layer's zero-trace fast path.
    #[test]
    fn constant_trace_is_bit_identical_to_static_link(
        bandwidth in 1e4f64..1e9,
        rtt in 0.0f64..0.5,
        jitter in 0.0f64..1.0,
        loss in 0.0f64..0.99,
        bytes in 1usize..5_000_000,
        rng_seed in any::<u64>(),
        t in -10.0f64..1e6,
    ) {
        let link = LinkModel::new("p", bandwidth, rtt, jitter, loss);
        let trace = LinkTrace::constant();
        let mut static_rng = StdRng::seed_from_u64(rng_seed);
        let mut traced_rng = StdRng::seed_from_u64(rng_seed);
        let expect = link.transfer_time(bytes, &mut static_rng);
        let got = trace
            .transfer_time_at(&link, bytes, t, &mut traced_rng)
            .expect("identity trace is never in outage");
        prop_assert_eq!(expect.to_bits(), got.to_bits());
        // Both paths consumed the same number of draws.
        prop_assert_eq!(static_rng.gen::<u64>(), traced_rng.gen::<u64>());
    }

    /// Seeded constructors are deterministic: the same arguments expand to
    /// the same segment schedule.
    #[test]
    fn seeded_constructors_are_deterministic(seed in any::<u64>()) {
        prop_assert_eq!(
            LinkTrace::bursty(seed, 100.0, 5.0, 2.0, 0.8),
            LinkTrace::bursty(seed, 100.0, 5.0, 2.0, 0.8)
        );
        prop_assert_eq!(
            LinkTrace::random_walk(seed, 100.0, 1.0, 0.2, 0.1, 3.0),
            LinkTrace::random_walk(seed, 100.0, 1.0, 0.2, 0.1, 3.0)
        );
    }

    /// `segment_at` returns the segment with the greatest start not past
    /// `t`, and `state_of` scales the base link by exactly that segment.
    #[test]
    fn segment_lookup_matches_linear_scan(
        seed in any::<u64>(),
        t in -5.0f64..400.0,
    ) {
        let link = LinkModel::wlan();
        let trace = LinkTrace::random_walk(seed, 300.0, 7.0, 0.3, 0.1, 2.0);
        let by_scan = trace
            .segments()
            .iter()
            .rev()
            .find(|s| s.start_s <= t)
            .unwrap_or(&trace.segments()[0]);
        let seg = trace.segment_at(t);
        prop_assert_eq!(seg, by_scan);
        let state = trace.state_of(&link, t);
        prop_assert_eq!(state.bandwidth_bps, link.bandwidth_bps() * seg.bandwidth_scale);
        prop_assert_eq!(state.rtt_s, link.rtt_s() * seg.rtt_scale);
        prop_assert_eq!(state.loss_prob, seg.loss_prob.unwrap_or(link.loss_prob()));
    }

    /// During an outage window every attempt fails without consuming
    /// randomness; outside it, attempts on a loss-free link always send.
    #[test]
    fn outage_attempts_fail_deterministically(
        start in 0.0f64..100.0,
        duration in 0.5f64..100.0,
        bytes in 1usize..1_000_000,
        rng_seed in any::<u64>(),
    ) {
        let link = LinkModel::new("clean", 8e6, 0.02, 0.0, 0.0);
        let trace = LinkTrace::step_outage(start, duration);
        let mut rng = StdRng::seed_from_u64(rng_seed);
        let inside = start + duration * 0.5;
        prop_assert_eq!(
            trace.attempt_at(&link, bytes, inside, &mut rng),
            LinkAttempt::Outage
        );
        prop_assert!(trace.is_outage_at(&link, inside));
        let after = start + duration + 1.0;
        match trace.attempt_at(&link, bytes, after, &mut rng) {
            LinkAttempt::Sent(d) => prop_assert!(d > 0.0),
            other => prop_assert!(false, "expected Sent, got {other:?}"),
        }
        prop_assert!(!trace.is_outage_at(&link, after));
    }

    /// `next_available` lands outside every stall window and never moves
    /// time backwards; the retry schedule is positive and monotone, and
    /// any schedule its check passes, hostile draws included, waits only
    /// for what a `Duration` holds.
    #[test]
    fn fault_plan_and_retry_invariants(
        starts in prop::collection::vec((0.0f64..200.0, 0.1f64..30.0), 0..6),
        t in 0.0f64..300.0,
        base in 0.001f64..1.0,
        multiplier in 1.0f64..4.0,
        max_retries in 1u32..10,
        wild_base in (-1.0f64..1.0, 0i32..40),
        wild_multiplier in (-1.0f64..8.0, 0i32..12),
        special_base in prop::option::of(prop::sample::select(vec![
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, f64::MAX,
        ])),
        wild_retries in 0u32..64,
    ) {
        let mut plan = FaultPlan::new();
        for (s, d) in &starts {
            plan = plan.with_stall(*s, *d);
        }
        let avail = plan.next_available(t);
        prop_assert!(avail >= t);
        prop_assert!(plan.stalls().iter().all(|w| !w.contains(avail)));

        let retry = RetryConfig { base_s: base, multiplier, max_retries };
        let mut prev = 0.0;
        for attempt in 1..=max_retries {
            let b = retry.backoff_s(attempt);
            prop_assert!(b > 0.0);
            prop_assert!(b >= prev);
            prev = b;
        }
        prop_assert!(retry.total_backoff_s() >= retry.backoff_s(max_retries));
        prop_assert!(retry.validate().is_ok());

        let wild = RetryConfig {
            base_s: special_base.unwrap_or(wild_base.0 * 10f64.powi(wild_base.1)),
            multiplier: wild_multiplier.0 * 10f64.powi(wild_multiplier.1),
            max_retries: wild_retries,
        };
        if wild.validate().is_ok() {
            for attempt in 1..=wild.max_retries {
                let wait = Duration::try_from_secs_f64(wild.backoff_s(attempt));
                prop_assert!(wait.is_ok(), "{wild:?} passed, attempt {attempt}");
            }
        }
    }
}
