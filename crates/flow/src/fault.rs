//! Fault-tolerance primitives: cooperative cancellation and deterministic
//! fault injection.
//!
//! [`CancelToken`] carries a per-job deadline and an explicit cancel flag;
//! the pipeline checks it between stages (see
//! [`FlowCtx::stage_gate`](crate::FlowCtx::stage_gate)), so a runaway or
//! abandoned job stops burning a worker at the next stage boundary.
//!
//! [`FaultPlan`] is the test harness for every failure path: it makes a
//! *named* stage panic, fail, sleep, or block on its K-th execution —
//! deterministically, because executions are counted per stage name. The
//! plan is injected through [`FlowCtx`](crate::FlowCtx) (and, one level
//! up, through the flow server's `ServerConfig`), and faults fire *before*
//! the stage's cache lookup, so an injected panic can never leave an
//! in-flight cache marker behind.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::sync::{lock, wait_timeout};
use crate::{FlowError, Result};

/// Why a job stopped before finishing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// Explicitly cancelled (e.g. the submitting client hung up).
    Cancelled,
    /// The job's deadline passed.
    DeadlineExceeded,
}

#[derive(Debug, Default)]
struct CancelState {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shareable cancellation handle. Clones observe the same state; the
/// deadline (if any) is fixed at creation.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    inner: Arc<CancelState>,
}

impl CancelToken {
    /// A token with no deadline; only [`CancelToken::cancel`] stops it.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that reports [`CancelReason::DeadlineExceeded`] once
    /// `deadline` has elapsed from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        CancelToken {
            inner: Arc::new(CancelState {
                cancelled: AtomicBool::new(false),
                deadline: Some(Instant::now() + deadline),
            }),
        }
    }

    /// Flag the job as cancelled (idempotent).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::SeqCst);
    }

    /// Was [`CancelToken::cancel`] called?
    pub fn cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::SeqCst)
    }

    /// Has the deadline (if any) passed?
    pub fn timed_out(&self) -> bool {
        matches!(self.inner.deadline, Some(d) if Instant::now() >= d)
    }

    /// The current stop reason, if any. An explicit cancel wins over a
    /// deadline so the owner can tell "client hung up" from "too slow".
    pub fn status(&self) -> Option<CancelReason> {
        if self.cancelled() {
            Some(CancelReason::Cancelled)
        } else if self.timed_out() {
            Some(CancelReason::DeadlineExceeded)
        } else {
            None
        }
    }
}

/// A reusable open/closed latch for deterministic test rendezvous:
/// [`FaultAction::Hold`] blocks a stage on it until the test opens it.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    inner: Arc<(Mutex<bool>, Condvar)>,
}

impl Gate {
    /// A closed gate.
    pub fn new() -> Self {
        Gate::default()
    }

    /// Open the gate, releasing every waiter (idempotent).
    pub fn open(&self) {
        *lock(&self.inner.0) = true;
        self.inner.1.notify_all();
    }

    /// Block until the gate opens or `cancel` fires; polls the token in
    /// short waits so cancellation is observed promptly.
    pub fn wait_open(&self, cancel: Option<&CancelToken>) {
        let mut open = lock(&self.inner.0);
        while !*open {
            if cancel.is_some_and(|c| c.status().is_some()) {
                return;
            }
            open = wait_timeout(&self.inner.1, open, Duration::from_millis(5));
        }
    }
}

/// The panic payload [`FaultAction::KillWorker`] throws. The flow server
/// recognizes it and lets the worker thread die (instead of converting
/// the panic into a structured error event), exercising its supervisor's
/// respawn path.
pub const KILL_WORKER_PANIC: &str = "flowd-fault: kill worker thread";

/// What an injected fault does when it fires.
#[derive(Clone, Debug)]
pub enum FaultAction {
    /// Panic inside the stage gate (a crashing stage).
    Panic,
    /// Panic with [`KILL_WORKER_PANIC`] so a supervised worker dies.
    KillWorker,
    /// Fail the stage with a structured error carrying this message.
    Fail(String),
    /// Sleep this long (a slow stage); wakes early if the job's
    /// [`CancelToken`] fires, so deadline tests don't serve the full nap.
    SleepMs(u64),
    /// Block on the [`Gate`] until the test opens it.
    Hold(Gate),
}

/// One injection rule: fire `action` the `on_execution`-th time (1-based)
/// the stage named `stage` is entered.
#[derive(Clone, Debug)]
pub struct FaultRule {
    /// [`StageId::name`](crate::StageId::name) of the target stage
    /// (`"synthesis"`, `"place"`, ...).
    pub stage: String,
    /// 1-based execution count at which the fault fires.
    pub on_execution: u64,
    pub action: FaultAction,
}

/// A deterministic fault schedule. Execution counts are kept per stage
/// name across the plan's lifetime (a daemon counts across all jobs), so
/// a rule fires exactly once, at a reproducible point.
#[derive(Debug, Default)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
    counts: Mutex<HashMap<String, u64>>,
}

impl FaultPlan {
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Add a rule (builder style).
    pub fn on(mut self, stage: &str, on_execution: u64, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            stage: stage.to_string(),
            on_execution,
            action,
        });
        self
    }

    /// How many times `stage` has been entered so far.
    pub fn executions(&self, stage: &str) -> u64 {
        lock(&self.counts).get(stage).copied().unwrap_or(0)
    }

    /// Record one execution of `stage` and fire any matching rule.
    /// Called by the pipeline's stage gate; panics, errors, and delays
    /// originate here, *outside* the stage cache.
    pub fn before_stage(&self, stage: &str, cancel: Option<&CancelToken>) -> Result<()> {
        let n = {
            let mut counts = lock(&self.counts);
            let entry = counts.entry(stage.to_string()).or_insert(0);
            *entry += 1;
            *entry
        };
        let Some(rule) = self
            .rules
            .iter()
            .find(|r| r.stage == stage && r.on_execution == n)
        else {
            return Ok(());
        };
        match &rule.action {
            FaultAction::Panic => {
                panic!("injected panic at stage '{stage}' (execution {n})");
            }
            FaultAction::KillWorker => {
                std::panic::panic_any(KILL_WORKER_PANIC);
            }
            FaultAction::Fail(message) => Err(FlowError::new(
                "fault",
                format!("injected failure at stage '{stage}': {message}"),
            )),
            FaultAction::SleepMs(ms) => {
                let until = Instant::now() + Duration::from_millis(*ms);
                while Instant::now() < until {
                    if cancel.is_some_and(|c| c.status().is_some()) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(())
            }
            FaultAction::Hold(gate) => {
                gate.wait_open(cancel);
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_flags_and_deadline() {
        let t = CancelToken::new();
        assert_eq!(t.status(), None);
        t.cancel();
        assert_eq!(t.status(), Some(CancelReason::Cancelled));

        let d = CancelToken::with_deadline(Duration::from_millis(0));
        assert!(d.timed_out());
        assert_eq!(d.status(), Some(CancelReason::DeadlineExceeded));
        // Explicit cancel wins over an expired deadline.
        d.cancel();
        assert_eq!(d.status(), Some(CancelReason::Cancelled));

        let far = CancelToken::with_deadline(Duration::from_secs(3600));
        assert_eq!(far.status(), None);
    }

    #[test]
    fn clones_share_cancel_state() {
        let a = CancelToken::new();
        let b = a.clone();
        b.cancel();
        assert!(a.cancelled());
    }

    #[test]
    fn fault_plan_counts_and_fires_on_kth_execution() {
        let plan = FaultPlan::new().on("place", 2, FaultAction::Fail("boom".into()));
        assert!(plan.before_stage("place", None).is_ok());
        assert!(plan.before_stage("route", None).is_ok(), "other stage");
        let err = plan.before_stage("place", None).unwrap_err();
        assert!(err.message.contains("boom"), "{}", err.message);
        assert!(plan.before_stage("place", None).is_ok(), "only fires once");
        assert_eq!(plan.executions("place"), 3);
        assert_eq!(plan.executions("route"), 1);
    }

    #[test]
    fn injected_panic_unwinds() {
        let plan = FaultPlan::new().on("synthesis", 1, FaultAction::Panic);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_stage("synthesis", None)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn sleep_aborts_early_on_cancel() {
        let plan = FaultPlan::new().on("route", 1, FaultAction::SleepMs(60_000));
        let cancel = CancelToken::new();
        cancel.cancel();
        let t = Instant::now();
        plan.before_stage("route", Some(&cancel)).unwrap();
        assert!(t.elapsed() < Duration::from_secs(10), "woke early");
    }

    #[test]
    fn gate_releases_waiters_when_opened() {
        let gate = Gate::new();
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.wait_open(None))
        };
        gate.open();
        waiter.join().unwrap();
        // Already-open gates don't block at all.
        gate.wait_open(None);
    }

    #[test]
    fn held_gate_releases_on_cancel() {
        let gate = Gate::new();
        let cancel = CancelToken::with_deadline(Duration::from_millis(1));
        while !cancel.timed_out() {
            std::thread::yield_now();
        }
        gate.wait_open(Some(&cancel)); // returns despite the closed gate
    }
}
