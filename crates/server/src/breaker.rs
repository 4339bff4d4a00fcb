//! Per-backend circuit breaker for the gateway.
//!
//! Classic three-state machine, kept *pure*: every transition takes the
//! caller's clock (`now_ms`) instead of reading one, so tests drive it
//! with a fake clock and the schedule is fully deterministic under a
//! fixed jitter seed.
//!
//! ```text
//!            failures >= threshold
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ now >= reopen_at
//!     │ probe succeeds                  ▼ (jittered)
//!     └────────────────────────── HalfOpen ── probe fails ──▶ Open
//! ```
//!
//! While `Open`, every request is refused until the jittered reopen
//! deadline passes; the first `allow` after that *is* the half-open
//! probe (exactly one in flight — further `allow`s refuse until the
//! probe reports back). A failed probe re-opens with a fresh jittered
//! deadline; a success snaps the breaker closed and clears the failure
//! count.

/// Milliseconds since construction: the real clock breakers and the tenant governor read.
pub struct MsClock(std::time::Instant);

impl MsClock {
    pub fn start() -> Self {
        MsClock(std::time::Instant::now())
    }
    pub fn now_ms(&self) -> u64 {
        self.0.elapsed().as_millis() as u64
    }
}

/// Where the breaker is in its cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow, consecutive failures are counted.
    #[default]
    Closed,
    /// Tripped: requests are refused until the reopen deadline.
    Open,
    /// One probe is in flight; its outcome decides the next state.
    HalfOpen,
}

impl BreakerState {
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// The `*_breaker_state` gauge value: 0=closed 1=half-open 2=open.
    pub fn code(self) -> u64 {
        match self {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        }
    }
}

/// Lifetime transition counters — the metrics family's
/// `breaker_transitions_total{to=...}` series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BreakerCounters {
    pub opened: u64,
    pub half_opened: u64,
    pub closed: u64,
}

/// The state machine. One per backend, behind the gateway's lock.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    /// Consecutive failures while `Closed`; trips at `threshold`.
    consecutive_failures: u32,
    threshold: u32,
    /// Base quiet period after tripping; the actual deadline adds up to
    /// 50% jitter so a fleet of breakers doesn't reprobe in lockstep.
    reopen_after_ms: u64,
    /// Absolute (caller-clock) time the next probe may go out.
    reopen_at_ms: u64,
    rng: u64,
    counters: BreakerCounters,
}

impl CircuitBreaker {
    /// `threshold` consecutive failures trip the breaker;
    /// `reopen_after_ms` is the base quiet period before a probe.
    pub fn new(threshold: u32, reopen_after_ms: u64, jitter_seed: u64) -> Self {
        CircuitBreaker {
            state: BreakerState::Closed,
            consecutive_failures: 0,
            threshold: threshold.max(1),
            reopen_after_ms,
            reopen_at_ms: 0,
            // Seed 0 would lock xorshift at 0; the |1 below also guards.
            rng: jitter_seed,
            counters: BreakerCounters::default(),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.state
    }

    pub fn counters(&self) -> BreakerCounters {
        self.counters
    }

    /// May a request go to this backend right now? Crossing the reopen
    /// deadline flips `Open` to `HalfOpen` and grants the caller the
    /// single probe slot.
    pub fn allow(&mut self, now_ms: u64) -> bool {
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if now_ms >= self.reopen_at_ms {
                    self.state = BreakerState::HalfOpen;
                    self.counters.half_opened += 1;
                    true // the caller is the probe
                } else {
                    false
                }
            }
            // The probe is already out; hold everything else back.
            BreakerState::HalfOpen => false,
        }
    }

    /// A request (or health probe) against this backend succeeded.
    pub fn on_success(&mut self) {
        if self.state != BreakerState::Closed {
            self.counters.closed += 1;
        }
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// The backend answered, but with backpressure (a queue-full
    /// `rejected` or an `overloaded` error). It is alive, so a
    /// half-open probe closes the breaker — otherwise the probe slot
    /// would be held forever and the backend never retried. In any
    /// other state this is a no-op: saturation neither counts toward
    /// the trip threshold nor clears failures already accumulated.
    pub fn on_saturated(&mut self) {
        if self.state == BreakerState::HalfOpen {
            self.counters.closed += 1;
            self.state = BreakerState::Closed;
            self.consecutive_failures = 0;
        }
    }

    /// A request (or health probe) against this backend failed.
    pub fn on_failure(&mut self, now_ms: u64) {
        match self.state {
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.trip(now_ms);
                }
            }
            // A failed probe goes straight back to Open with a fresh
            // jittered deadline; extra failures while Open (stragglers
            // from already-in-flight jobs) just refresh it.
            BreakerState::HalfOpen | BreakerState::Open => self.trip(now_ms),
        }
    }

    fn trip(&mut self, now_ms: u64) {
        if self.state != BreakerState::Open {
            self.counters.opened += 1;
        }
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        // Full deadline = base + jitter in [0, base/2]: deterministic
        // under a fixed seed, desynchronized across distinct seeds.
        let jitter = xorshift64(&mut self.rng) % (self.reopen_after_ms / 2 + 1);
        self.reopen_at_ms = now_ms + self.reopen_after_ms + jitter;
    }
}

/// The server crate's one jitter PRNG (breaker reopen, client retry
/// backoff): xorshift64 — enough randomness to
/// de-synchronize retrying peers, dependency-free, and fully
/// deterministic under a fixed seed.
pub(crate) fn xorshift64(state: &mut u64) -> u64 {
    *state |= 1;
    fpga_netlist::mix::xorshift64(state)
}

/// One step of the crate's jittered exponential backoff (client
/// retries): a draw over `[window/2, window]` from `rng`, after which
/// `window` doubles up to `cap_ms`.
pub(crate) fn backoff_step(window_ms: &mut u64, cap_ms: u64, rng: &mut u64) -> u64 {
    let window = *window_ms;
    *window_ms = (window * 2).min(cap_ms);
    window / 2 + xorshift64(rng) % (window / 2 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gauge encoding the three hand-written matches used at commit
    /// 17b1350 (`"closed" => 0, "half-open" => 1, _ => 2`), now total
    /// over the enum.
    #[test]
    fn state_codes_match_the_recorded_gauge_values() {
        for state in [
            BreakerState::Closed,
            BreakerState::HalfOpen,
            BreakerState::Open,
        ] {
            let recorded = match state.name() {
                "closed" => 0,
                "half-open" => 1,
                "open" => 2,
                other => panic!("unnamed state {other}"),
            };
            assert_eq!(state.code(), recorded);
        }
    }

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, 1_000, 42);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(0);
        b.on_failure(1);
        assert!(b.allow(2), "two failures stay under a threshold of 3");
        b.on_failure(2);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.allow(3));
        assert_eq!(b.counters().opened, 1);
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = CircuitBreaker::new(3, 1_000, 42);
        b.on_failure(0);
        b.on_failure(1);
        b.on_success();
        b.on_failure(2);
        b.on_failure(3);
        assert_eq!(b.state(), BreakerState::Closed, "counter was reset");
    }

    #[test]
    fn half_open_grants_exactly_one_probe() {
        let mut b = CircuitBreaker::new(1, 100, 42);
        b.on_failure(0);
        assert_eq!(b.state(), BreakerState::Open);
        // Jitter is bounded by base/2, so base*2 is always past it.
        assert!(!b.allow(50), "still inside the quiet period");
        assert!(b.allow(200), "first caller past the deadline is the probe");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.allow(201), "only one probe at a time");
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(202));
        let c = b.counters();
        assert_eq!((c.opened, c.half_opened, c.closed), (1, 1, 1));
    }

    #[test]
    fn saturated_probe_releases_the_half_open_slot() {
        let mut b = CircuitBreaker::new(1, 100, 42);
        b.on_failure(0);
        assert!(b.allow(200), "caller takes the probe slot");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // The backend answered `rejected`/overloaded: alive, so the
        // breaker must close rather than camp in HalfOpen forever.
        b.on_saturated();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.allow(201), "backend is routable again");
        assert_eq!(b.counters().closed, 1);
    }

    #[test]
    fn saturation_is_neutral_outside_half_open() {
        let mut b = CircuitBreaker::new(2, 100, 42);
        b.on_failure(0);
        b.on_saturated();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure(1);
        assert_eq!(
            b.state(),
            BreakerState::Open,
            "saturation must not reset the failure count"
        );
        b.on_saturated();
        assert_eq!(b.state(), BreakerState::Open, "no-op while Open");
        assert!(!b.allow(50), "quiet period still holds");
    }

    #[test]
    fn failed_probe_reopens_with_a_fresh_deadline() {
        let mut b = CircuitBreaker::new(1, 100, 42);
        b.on_failure(0);
        assert!(b.allow(200));
        b.on_failure(200);
        assert_eq!(b.state(), BreakerState::Open);
        assert!(
            !b.allow(250),
            "new quiet period runs from the probe failure"
        );
        assert!(b.allow(400));
        assert_eq!(b.counters().opened, 2);
    }

    #[test]
    fn reopen_jitter_is_deterministic_and_bounded() {
        let deadline = |seed: u64| {
            let mut b = CircuitBreaker::new(1, 1_000, seed);
            b.on_failure(0);
            // The deadline is observable through allow(): binary-search
            // the first now_ms that flips the probe open.
            (0..=1_501).find(|&t| b.allow(t)).unwrap_or(u64::MAX)
        };
        let a = deadline(7);
        assert_eq!(a, deadline(7), "same seed, same schedule");
        for seed in [1, 2, 3, 99] {
            let d = deadline(seed);
            assert!((1_000..=1_500).contains(&d), "jitter out of range: {d}");
        }
    }

    /// Recorded at eb39634, before the step moved to
    /// `fpga_netlist::mix`: the jitter stream, zero guard included.
    #[test]
    fn xorshift64_keeps_its_recorded_stream_and_zero_guard() {
        let mut state = 0x5eed_f10d;
        let got: Vec<u64> = (0..4).map(|_| xorshift64(&mut state)).collect();
        assert_eq!(
            got,
            [
                0x1794bdd1c853c9af,
                0x328ad5dbcdfce5fc,
                0xf698fcff1f0dc376,
                0xca94257b504fe531
            ]
        );
        let (mut zero, mut one) = (0, 1);
        assert_eq!(xorshift64(&mut one), 0x0000000040822041);
        assert_eq!(xorshift64(&mut zero), 0x0000000040822041, "0 seeds as 1");
    }
}
