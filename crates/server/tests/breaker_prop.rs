//! Property tests for the [`CircuitBreaker`] state machine under random
//! outcome/clock schedules. The invariants the gateway (and the artifact
//! tier's put breakers) lean on:
//!
//! 1. while `Open`, `allow` never grants before the base quiet period
//!    has elapsed since the trip (jitter only ever *delays* the probe,
//!    and by at most base/2);
//! 2. `HalfOpen` holds exactly one probe — every further `allow` is
//!    refused until an outcome call resolves the probe;
//! 3. the transition counters are monotone and increment exactly when
//!    the corresponding transition is observed, never otherwise;
//! 4. the whole schedule is deterministic under a fixed jitter seed.

use fpga_server::{BreakerState, CircuitBreaker};
use proptest::prelude::*;

/// One scripted step against the breaker.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Allow,
    Success,
    Failure,
    Saturated,
}

/// Decode a step from one generated word: low bits pick the call
/// (`allow` twice as likely, so schedules actually probe), the rest is
/// the fake-clock advance. The vendored proptest has no tuple
/// strategies, so steps ride in a single `u64`.
fn decode(word: u64) -> (Op, u64) {
    let op = match word % 5 {
        0 | 1 => Op::Allow,
        2 => Op::Success,
        3 => Op::Failure,
        _ => Op::Saturated,
    };
    (op, (word / 5) % 700)
}

/// Replay a script and return the grant sequence (for the determinism
/// property).
fn grants(threshold: u32, base: u64, seed: u64, script: &[u64]) -> Vec<bool> {
    let mut b = CircuitBreaker::new(threshold, base, seed);
    let mut now = 0u64;
    let mut out = Vec::new();
    for &word in script {
        let (op, dt) = decode(word);
        now += dt;
        match op {
            Op::Allow => out.push(b.allow(now)),
            Op::Success => b.on_success(),
            Op::Failure => b.on_failure(now),
            Op::Saturated => b.on_saturated(),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Random schedules uphold invariants 1–3 above at every step.
    #[test]
    fn random_schedules_uphold_the_breaker_invariants(
        threshold in 1u32..6,
        base in 1u64..2_000,
        seed in 0u64..1_000,
        script in proptest::collection::vec(0u64..4_000_000, 1..120),
    ) {
        let mut b = CircuitBreaker::new(threshold, base, seed);
        prop_assert_eq!(b.state(), BreakerState::Closed);
        let mut now = 0u64;
        // Time of the most recent trip / Open-deadline refresh; the
        // reopen deadline always lies in [trip + base, trip + base +
        // base/2].
        let mut last_trip: Option<u64> = None;
        let mut prev = b.counters();

        for word in script {
            let (op, dt) = decode(word);
            now += dt;
            let before = b.state();
            let mut granted = None;
            match op {
                Op::Allow => granted = Some(b.allow(now)),
                Op::Success => b.on_success(),
                Op::Failure => b.on_failure(now),
                Op::Saturated => b.on_saturated(),
            }
            let after = b.state();

            // Invariants 1 and 2: what `allow` may answer per state.
            if let Some(granted) = granted {
                match before {
                    BreakerState::Closed => {
                        prop_assert!(granted, "Closed always routes");
                        prop_assert_eq!(after, BreakerState::Closed);
                    }
                    BreakerState::Open => {
                        let trip = match last_trip {
                            Some(t) => t,
                            None => return Err(TestCaseError::fail(
                                "reached Open without an observed trip",
                            )),
                        };
                        if granted {
                            prop_assert!(
                                now >= trip + base,
                                "granted inside the base quiet period: \
                                 now={now} trip={trip} base={base}"
                            );
                            prop_assert_eq!(
                                after,
                                BreakerState::HalfOpen,
                                "the granted caller is the probe"
                            );
                        } else {
                            // Jitter is capped at base/2, so refusals
                            // past trip + 1.5*base would camp forever.
                            prop_assert!(
                                now < trip + base + base / 2,
                                "refused past the max jittered deadline: \
                                 now={now} trip={trip} base={base}"
                            );
                            prop_assert_eq!(after, BreakerState::Open);
                        }
                    }
                    BreakerState::HalfOpen => {
                        prop_assert!(
                            !granted,
                            "a second probe was granted while one is out"
                        );
                        prop_assert_eq!(after, BreakerState::HalfOpen);
                    }
                }
            }

            // Invariant 3: counters move exactly with observed
            // transitions (which also makes them monotone).
            let c = b.counters();
            let expect_opened = u64::from(before != BreakerState::Open && after == BreakerState::Open);
            let expect_half = u64::from(before == BreakerState::Open && after == BreakerState::HalfOpen);
            let expect_closed = u64::from(before != BreakerState::Closed && after == BreakerState::Closed);
            prop_assert_eq!(c.opened, prev.opened + expect_opened);
            prop_assert_eq!(c.half_opened, prev.half_opened + expect_half);
            prop_assert_eq!(c.closed, prev.closed + expect_closed);
            prev = c;

            // Track the reopen window: a fresh trip starts one, and a
            // failure while already Open refreshes the deadline.
            if after == BreakerState::Open && (before != BreakerState::Open || op == Op::Failure) {
                last_trip = Some(now);
            }
        }
    }

    /// Invariant 4: the same seed and script always produce the same
    /// grant sequence — no hidden global state, no wall clock.
    #[test]
    fn schedules_are_deterministic_under_a_fixed_seed(
        threshold in 1u32..6,
        base in 1u64..2_000,
        seed in 0u64..1_000,
        script in proptest::collection::vec(0u64..4_000_000, 1..80),
    ) {
        prop_assert_eq!(
            grants(threshold, base, seed, &script),
            grants(threshold, base, seed, &script)
        );
    }
}
