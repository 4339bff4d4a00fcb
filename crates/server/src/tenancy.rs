//! Per-tenant admission control for the gateway: token-bucket quotas
//! plus round-robin fair queuing over a bounded wait queue.
//!
//! Split in two layers, like the breaker:
//!
//! * [`GovernorCore`] is *pure* — every operation takes the caller's
//!   clock (`now_ms`), so unit tests drive the bucket refill and the
//!   scheduler with a fake clock and stay fully deterministic.
//! * [`TenantGovernor`] wraps the core in a mutex + condvar and turns
//!   "queued" into a blocking wait with a deadline, handing back an RAII
//!   [`Permit`] whose drop releases the concurrency slot and pumps the
//!   next waiter.
//!
//! A submission is **admitted** when a global concurrency slot is free
//! and the tenant's bucket holds a whole token; **queued** (up to the
//! bound) otherwise; **shed** with a `retry_after_ms` hint when the wait
//! queue is full — the bounded-admission backstop that keeps overload
//! from turning into unbounded memory and unbounded latency.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use fpga_flow::sync::{lock, wait_timeout};

use crate::breaker::MsClock;
use crate::queue::FairQueue;

/// One job's worth of tokens, in milli-tokens (the bucket's unit, so
/// fractional refill rates stay in integer math).
const TOKEN_MILLI: u64 = 1_000;

/// Shed hints are capped: past this there is no point telling a client
/// to come back, the number would just be noise.
const MAX_RETRY_AFTER_MS: u64 = 60_000;

/// A `tenant` is a client-chosen string that becomes a map key and a
/// metric label: a longer one is refused where requests are parsed.
pub const MAX_TENANT_BYTES: usize = 64;

/// Distinct tenant names the governor tracks. `anon` always gets its
/// place; a job under a name beyond the bound is admitted, queued, shed
/// and counted as tenant `other` — one shared bucket, one fair-queue
/// class — so neither the table nor the metrics grow with what clients
/// send.
const MAX_TENANTS: usize = 1024;

/// Admission policy knobs.
#[derive(Clone, Debug)]
pub struct GovernorConfig {
    /// Jobs in flight across all tenants (gateway-wide concurrency).
    pub max_inflight: usize,
    /// Waiters across all tenants; beyond this, submissions shed.
    pub queue_bound: usize,
    /// Bucket capacity per tenant, in whole jobs (the burst allowance).
    pub tenant_burst: u64,
    /// Refill rate in milli-tokens per second (2_000 = 2 jobs/s). Zero
    /// means no refill: tenants get their burst and nothing more.
    pub tenant_refill_milli_per_s: u64,
    /// Baseline backoff hint attached to sheds.
    pub retry_after_ms: u64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            max_inflight: 64,
            queue_bound: 128,
            tenant_burst: 8,
            tenant_refill_milli_per_s: 4_000,
            retry_after_ms: 200,
        }
    }
}

/// Lifetime per-tenant counters — the metrics family's
/// `tenant_jobs_total{state=...}` series.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    pub admitted: u64,
    pub queued: u64,
    pub shed: u64,
}

struct TenantState {
    tokens_milli: u64,
    last_refill_ms: u64,
    counters: TenantCounters,
}

/// What [`GovernorCore::submit`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// A slot and a token were available; the caller holds both.
    Admitted,
    /// Queued behind the fair scheduler; poll the ticket.
    Queued(u64),
    /// The wait queue is full — come back in `retry_after_ms`.
    Shed { retry_after_ms: u64 },
}

/// The pure admission core. All clocks are the caller's.
pub struct GovernorCore {
    config: GovernorConfig,
    tenants: HashMap<String, TenantState>,
    /// Waiting tickets, fair-queued per tenant.
    waiters: FairQueue<u64>,
    /// Tickets the pump admitted that their waiter has not observed yet.
    /// They already hold their concurrency slot.
    ready: HashSet<u64>,
    inflight: usize,
    next_ticket: u64,
}

impl GovernorCore {
    pub fn new(config: GovernorConfig) -> Self {
        GovernorCore {
            waiters: FairQueue::new(config.queue_bound),
            config,
            tenants: HashMap::new(),
            ready: HashSet::new(),
            inflight: 0,
            next_ticket: 0,
        }
    }

    /// Ask to run one job for `tenant`.
    pub fn submit(&mut self, tenant: &str, now_ms: u64) -> Admission {
        let tenant = self.tracked(tenant);
        let state = self.tenant_mut(tenant, now_ms);
        let has_token = state.tokens_milli >= TOKEN_MILLI;
        if has_token && self.inflight < self.config.max_inflight && self.waiters.is_empty() {
            // Fast path: nothing ahead of us, slot and token in hand.
            let state = self.tenant_mut(tenant, now_ms);
            state.tokens_milli -= TOKEN_MILLI;
            state.counters.admitted += 1;
            self.inflight += 1;
            return Admission::Admitted;
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        match self.waiters.push(tenant, ticket) {
            Ok(()) => {
                // The freed slot may already be ours.
                self.pump(now_ms);
                if self.ready.remove(&ticket) {
                    Admission::Admitted
                } else {
                    // Count only jobs that actually wait — a ticket the
                    // pump admitted in the same call never queued from
                    // the caller's point of view.
                    self.tenant_mut(tenant, now_ms).counters.queued += 1;
                    Admission::Queued(ticket)
                }
            }
            Err(_) => {
                let retry_after_ms = self.shed_hint(tenant, now_ms);
                let state = self.tenant_mut(tenant, now_ms);
                state.counters.shed += 1;
                Admission::Shed { retry_after_ms }
            }
        }
    }

    /// Has the scheduler admitted this queued ticket yet? A `true` hands
    /// the caller its concurrency slot.
    pub fn poll(&mut self, ticket: u64, now_ms: u64) -> bool {
        self.pump(now_ms);
        self.ready.remove(&ticket)
    }

    /// Abandon a queued ticket (deadline expired while waiting). If the
    /// pump admitted it in the meantime, the slot is released again.
    pub fn cancel(&mut self, tenant: &str, ticket: u64, now_ms: u64) {
        if self.ready.remove(&ticket) {
            self.release(now_ms);
        } else {
            let tenant = self.tracked(tenant);
            self.waiters.remove_where(tenant, |t| *t == ticket);
        }
    }

    /// A permit was dropped: free its slot and admit the next waiter.
    pub fn release(&mut self, now_ms: u64) {
        self.inflight = self.inflight.saturating_sub(1);
        self.pump(now_ms);
    }

    /// Move waiters into `ready` while slots and tokens allow, in
    /// round-robin order.
    fn pump(&mut self, now_ms: u64) {
        while self.inflight < self.config.max_inflight {
            let config = &self.config;
            let tenants = &mut self.tenants;
            // Every waiting class is a tenant `submit` already tracks.
            let popped = self.waiters.pop_where(|tenant| {
                tenants.get_mut(tenant).is_some_and(|state| {
                    refill_state(state, config, now_ms);
                    state.tokens_milli >= TOKEN_MILLI
                })
            });
            let Some((tenant, ticket)) = popped else {
                break; // nobody eligible (token drought) or queue empty
            };
            let state = self.tenant_mut(&tenant, now_ms);
            state.tokens_milli -= TOKEN_MILLI;
            state.counters.admitted += 1;
            self.inflight += 1;
            self.ready.insert(ticket);
        }
    }

    /// How long until `tenant` plausibly gets a token, floored by the
    /// configured baseline and capped at [`MAX_RETRY_AFTER_MS`].
    fn shed_hint(&mut self, tenant: &str, now_ms: u64) -> u64 {
        let config_retry = self.config.retry_after_ms;
        let refill = self.config.tenant_refill_milli_per_s;
        let state = self.tenant_mut(tenant, now_ms);
        let hint = if state.tokens_milli >= TOKEN_MILLI || refill == 0 {
            // Not token-starved (or never refilling): the queue is the
            // bottleneck, the baseline hint is all we know.
            config_retry
        } else {
            let missing = TOKEN_MILLI - state.tokens_milli;
            // ceil(missing / refill-per-ms), in integer math.
            let ms = missing.saturating_mul(1_000).div_ceil(refill);
            ms.max(config_retry)
        };
        hint.clamp(1, MAX_RETRY_AFTER_MS)
    }

    /// Tenants seen so far with their counters, sorted by name (stable
    /// metrics output).
    pub fn tenant_snapshots(&self) -> Vec<(String, TenantCounters)> {
        let mut rows: Vec<(String, TenantCounters)> = self
            .tenants
            .iter()
            .map(|(name, s)| (name.clone(), s.counters))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }

    pub fn inflight(&self) -> usize {
        self.inflight
    }

    pub fn queued(&self) -> usize {
        self.waiters.len()
    }

    pub fn config(&self) -> &GovernorConfig {
        &self.config
    }

    /// The name `tenant`'s jobs run under: its own while it has a place
    /// in the table (see [`MAX_TENANTS`]), `other` beyond. Stable for a
    /// name once answered — the table never shrinks.
    fn tracked<'a>(&self, tenant: &'a str) -> &'a str {
        // Until `anon` claims its place, one is kept free for it.
        let held = usize::from(!self.tenants.contains_key("anon"));
        if tenant == "anon"
            || self.tenants.contains_key(tenant)
            || self.tenants.len() + held < MAX_TENANTS
        {
            tenant
        } else {
            "other"
        }
    }

    /// `tenant`'s state, refilled to `now_ms`; a fresh tenant starts
    /// with a full bucket.
    fn tenant_mut(&mut self, tenant: &str, now_ms: u64) -> &mut TenantState {
        let config = &self.config;
        let state = self
            .tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                tokens_milli: config.tenant_burst.saturating_mul(TOKEN_MILLI),
                last_refill_ms: now_ms,
                counters: TenantCounters::default(),
            });
        refill_state(state, config, now_ms);
        state
    }
}

fn refill_state(state: &mut TenantState, config: &GovernorConfig, now_ms: u64) {
    let elapsed = now_ms.saturating_sub(state.last_refill_ms);
    if elapsed == 0 {
        return;
    }
    let gained = elapsed.saturating_mul(config.tenant_refill_milli_per_s) / 1_000;
    if gained > 0 || config.tenant_refill_milli_per_s == 0 {
        state.tokens_milli = (state.tokens_milli.saturating_add(gained))
            .min(config.tenant_burst.saturating_mul(TOKEN_MILLI));
        state.last_refill_ms = now_ms;
    }
    // else: under a millisecond's worth of refill — keep last_refill_ms
    // so sub-token trickles accumulate instead of rounding to zero.
}

/// What a blocking [`TenantGovernor::admit`] resolved to.
pub enum AdmitOutcome {
    /// Run the job; drop the permit when done.
    Admitted(Permit),
    /// Queue full: tell the client to come back.
    Shed { retry_after_ms: u64 },
    /// The caller's deadline elapsed while waiting for a slot.
    Expired,
}

/// Blocking front of the governor: mutex + condvar around
/// [`GovernorCore`], real clock anchored at construction.
pub struct TenantGovernor {
    core: Mutex<GovernorCore>,
    wake: Condvar,
    clock: MsClock,
}

impl TenantGovernor {
    pub fn new(config: GovernorConfig) -> Arc<Self> {
        Arc::new(TenantGovernor {
            core: Mutex::new(GovernorCore::new(config)),
            wake: Condvar::new(),
            clock: MsClock::start(),
        })
    }

    /// Admit one job for `tenant`, blocking in fair-queue order until a
    /// slot frees, the queue sheds us, or `deadline` passes.
    pub fn admit(self: &Arc<Self>, tenant: &str, deadline: Option<Instant>) -> AdmitOutcome {
        let mut core = lock(&self.core);
        let ticket = match core.submit(tenant, self.clock.now_ms()) {
            Admission::Admitted => {
                return AdmitOutcome::Admitted(Permit {
                    governor: Arc::clone(self),
                })
            }
            Admission::Shed { retry_after_ms } => return AdmitOutcome::Shed { retry_after_ms },
            Admission::Queued(ticket) => ticket,
        };
        loop {
            let wait = match deadline {
                Some(d) => match d.checked_duration_since(Instant::now()) {
                    Some(left) => left.min(Duration::from_millis(50)),
                    None => {
                        core.cancel(tenant, ticket, self.clock.now_ms());
                        return AdmitOutcome::Expired;
                    }
                },
                // No deadline: wake periodically anyway so token refills
                // are noticed without a release event.
                None => Duration::from_millis(50),
            };
            core = wait_timeout(&self.wake, core, wait);
            if core.poll(ticket, self.clock.now_ms()) {
                return AdmitOutcome::Admitted(Permit {
                    governor: Arc::clone(self),
                });
            }
        }
    }

    /// Current per-tenant counters.
    pub fn tenant_snapshots(&self) -> Vec<(String, TenantCounters)> {
        lock(&self.core).tenant_snapshots()
    }

    /// (in-flight, queued) right now.
    pub fn depths(&self) -> (usize, usize) {
        let core = lock(&self.core);
        (core.inflight(), core.queued())
    }

    /// The policy this governor runs.
    pub fn config(&self) -> GovernorConfig {
        lock(&self.core).config().clone()
    }
}

/// RAII concurrency slot: dropping it releases the slot and pumps the
/// fair queue.
pub struct Permit {
    governor: Arc<TenantGovernor>,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let now = self.governor.clock.now_ms();
        lock(&self.governor.core).release(now);
        self.governor.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(max_inflight: usize, queue_bound: usize, burst: u64, refill: u64) -> GovernorConfig {
        GovernorConfig {
            max_inflight,
            queue_bound,
            tenant_burst: burst,
            tenant_refill_milli_per_s: refill,
            retry_after_ms: 100,
        }
    }

    #[test]
    fn burst_then_queue_then_shed() {
        let mut g = GovernorCore::new(config(1, 1, 8, 0));
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        // Slot taken: the next lands in the queue, the one after sheds.
        assert!(matches!(g.submit("a", 1), Admission::Queued(_)));
        let Admission::Shed { retry_after_ms } = g.submit("a", 2) else {
            panic!("expected shed");
        };
        assert!(retry_after_ms >= 100);
        let rows = g.tenant_snapshots();
        assert_eq!(
            rows[0].1,
            TenantCounters {
                admitted: 1,
                queued: 1,
                shed: 1
            }
        );
    }

    #[test]
    fn queue_transit_admission_does_not_count_as_queued() {
        // "a" drains its bucket and parks a waiter; "b" then submits
        // with a full bucket and free slots. The fair queue isn't
        // empty, so "b" transits it, but the same call's pump admits
        // the ticket — it never waited, so it must not count as queued.
        let mut g = GovernorCore::new(config(8, 8, 1, 0));
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        assert!(matches!(g.submit("a", 0), Admission::Queued(_)));
        assert_eq!(g.submit("b", 0), Admission::Admitted);
        let rows = g.tenant_snapshots();
        let b = rows.iter().find(|(name, _)| name == "b").unwrap();
        assert_eq!(
            b.1,
            TenantCounters {
                admitted: 1,
                queued: 0,
                shed: 0
            }
        );
    }

    #[test]
    fn token_bucket_gates_admission_and_refills_over_time() {
        // Burst 2, refill 1 token/s, plenty of slots.
        let mut g = GovernorCore::new(config(8, 8, 2, 1_000));
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        // Bucket empty: queued even though slots are free.
        let Admission::Queued(ticket) = g.submit("a", 0) else {
            panic!("expected queued");
        };
        assert!(!g.poll(ticket, 10), "no token 10ms in");
        assert!(g.poll(ticket, 1_100), "one token after a second");
        // A different tenant has its own full bucket.
        assert_eq!(g.submit("b", 1_100), Admission::Admitted);
    }

    #[test]
    fn release_pumps_the_next_waiter_in_fair_order() {
        let mut g = GovernorCore::new(config(1, 8, 8, 0));
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        let Admission::Queued(ta) = g.submit("a", 0) else {
            panic!()
        };
        let Admission::Queued(tb) = g.submit("b", 0) else {
            panic!()
        };
        g.release(1);
        // "a" queued first, so its ticket wins the freed slot.
        assert!(g.poll(ta, 1));
        assert!(!g.poll(tb, 1));
        g.release(2);
        assert!(g.poll(tb, 2));
    }

    #[test]
    fn cancelled_tickets_release_their_slot_if_already_admitted() {
        let mut g = GovernorCore::new(config(1, 8, 8, 0));
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        let Admission::Queued(ticket) = g.submit("b", 0) else {
            panic!()
        };
        g.release(1); // pump admits the ticket into `ready`
        g.cancel("b", ticket, 2); // waiter gave up before observing it
                                  // The slot is free again for a fresh submission.
        assert_eq!(g.submit("c", 3), Admission::Admitted);
    }

    #[test]
    fn shed_hint_reflects_token_drought() {
        let mut g = GovernorCore::new(config(8, 0, 1, 500)); // 0.5 tokens/s
        assert_eq!(g.submit("a", 0), Admission::Admitted);
        // Queue bound 0: instant shed; empty bucket at 0.5/s means the
        // next token is ~2s away.
        let Admission::Shed { retry_after_ms } = g.submit("a", 0) else {
            panic!("expected shed");
        };
        assert!(
            (1_900..=2_100).contains(&retry_after_ms),
            "hint {retry_after_ms} should be ~2000ms"
        );
    }

    /// `tenant` is whatever string a client sends. 10⁵ distinct names
    /// leave a table of [`MAX_TENANTS`] + `other`: the overflow shares
    /// one bucket (one token here, so one admission and the rest shed),
    /// a queued overflow job cancels out of the class it waits in, and
    /// `anon` still gets its own bucket after the flood.
    #[test]
    fn a_flood_of_tenant_names_folds_into_other() {
        const NAMES: usize = 100_000;
        let mut g = GovernorCore::new(config(usize::MAX, 1, 1, 0));
        let mut shed = 0u64;
        let mut waiting = None;
        for i in 0..NAMES {
            let name = format!("tenant-{i}");
            match g.submit(&name, 0) {
                Admission::Admitted => {}
                Admission::Queued(ticket) => {
                    assert_eq!(waiting.replace((name, ticket)), None, "queue bound is 1");
                }
                Admission::Shed { .. } => shed += 1,
            }
        }
        let (name, ticket) = waiting.expect("one overflow job queued");
        assert_eq!(g.queued(), 1);
        g.cancel(&name, ticket, 0);
        assert_eq!(g.queued(), 0, "cancelled under the name it was folded to");
        assert_eq!(g.submit("anon", 0), Admission::Admitted);

        let rows = g.tenant_snapshots();
        assert_eq!(rows.len(), MAX_TENANTS + 1);
        let row = |name: &str| rows.iter().find(|(n, _)| n == name).map(|(_, c)| *c);
        assert_eq!(row("anon").map(|c| c.admitted), Some(1));
        let other = row("other").expect("the overflow row");
        let overflow = (NAMES - (MAX_TENANTS - 1)) as u64;
        assert_eq!(
            (other.admitted, other.queued, other.shed),
            (1, 1, overflow - 2)
        );
        assert_eq!(other.shed, shed, "only the overflow was ever refused");

        let text = crate::metrics::GatewaySnapshot {
            tenants: rows,
            ..Default::default()
        }
        .to_prometheus_text();
        assert!(
            text.lines().count() < 4_000,
            "{} lines",
            text.lines().count()
        );
    }

    #[test]
    fn blocking_governor_admits_releases_and_expires() {
        let gov = TenantGovernor::new(config(1, 8, 8, 0));
        let AdmitOutcome::Admitted(permit) = gov.admit("a", None) else {
            panic!("first admit should pass");
        };
        // Full slot + short deadline: expires while waiting.
        let deadline = Some(Instant::now() + Duration::from_millis(60));
        assert!(matches!(gov.admit("b", deadline), AdmitOutcome::Expired));
        // Dropping the permit lets the next admit through.
        let waiter = {
            let gov = Arc::clone(&gov);
            std::thread::spawn(move || match gov.admit("c", None) {
                AdmitOutcome::Admitted(p) => {
                    drop(p);
                    true
                }
                _ => false,
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        drop(permit);
        assert!(waiter.join().unwrap_or(false));
        let (inflight, queued) = gov.depths();
        assert_eq!((inflight, queued), (0, 0));
    }
}
