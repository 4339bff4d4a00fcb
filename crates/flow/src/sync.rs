//! The two primitives every shared struct in `flow` and `server` is
//! built from: a statistics counter whose clone is its snapshot, and
//! the poison-recovering lock and condvar waits.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, LockResult, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A monotonically growing statistic. It publishes no other data, so
/// every access is relaxed. `clone` is one load: cloning a struct of
/// counters *is* taking its snapshot, and the snapshot is the same type —
/// a counter is declared, incremented and read under one name. It
/// compares and prints as the `u64` it holds.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl Clone for Counter {
    fn clone(&self) -> Self {
        Counter::from(self.get())
    }
}

impl From<u64> for Counter {
    fn from(n: u64) -> Self {
        Counter(AtomicU64::new(n))
    }
}

impl PartialEq<u64> for Counter {
    fn eq(&self, n: &u64) -> bool {
        self.get() == *n
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.get(), f)
    }
}

/// Take a guard whether or not a panicking holder poisoned its mutex.
/// Sound for every structure these crates guard (slot map, store index,
/// job queue, breaker, span list, fault counts, governor core): each is
/// valid between statements, so the worst a dead holder leaves behind is
/// a stale entry its own cleanup removes — and one panicking job must
/// not take every later job down with it.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// Lock `m`, recovering from poisoning.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    recover(m.lock())
}

/// Wait on `cv`, recovering from poisoning.
pub fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    recover(cv.wait(guard))
}

/// Wait on `cv` for at most `timeout`, recovering from poisoning.
/// Callers re-check their condition, so whether the wait timed out is
/// not reported.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> MutexGuard<'a, T> {
    recover(cv.wait_timeout(guard, timeout)).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};

    #[test]
    fn concurrent_increments_are_all_counted() {
        let counter = Counter::default();
        let mid_run = std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| (0..10_000).for_each(|_| counter.inc()));
            }
            // Snapshots taken while the writers run: never ahead of the
            // final value, never going backwards.
            let first = counter.clone();
            let second = counter.clone();
            assert!(first.get() <= second.get());
            second
        });
        assert_eq!(counter, 80_000);
        assert!(mid_run.get() <= counter.get());
    }

    #[test]
    fn a_clone_is_a_detached_snapshot_that_reads_as_its_number() {
        let live = Counter::from(4);
        let snapshot = live.clone();
        live.add(3);
        assert_eq!((snapshot.get(), live.get()), (4, 7));
        assert_eq!(format!("{live} {live:?} {snapshot:>3}"), "7 7   4");
    }

    /// Write `value` under `m`'s lock, then die holding it.
    fn poison(m: &Arc<Mutex<u32>>, value: u32, then: impl FnOnce() + Send + 'static) {
        let held = Arc::clone(m);
        let died = std::thread::spawn(move || {
            let mut guard = held.lock().unwrap();
            *guard = value;
            then();
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err() && m.is_poisoned());
    }

    #[test]
    fn lock_takes_a_poisoned_mutex_with_its_last_value() {
        let m = Arc::new(Mutex::new(0));
        poison(&m, 7, || ());
        assert_eq!(*lock(&m), 7);
        // A timed wait nobody notifies hands the guard back the same way.
        let guard = wait_timeout(&Condvar::new(), lock(&m), Duration::from_millis(1));
        assert_eq!(*guard, 7);
    }

    #[test]
    fn wait_returns_the_guard_after_a_poisoned_notify() {
        let m = Arc::new(Mutex::new(0));
        let cv = Arc::new(Condvar::new());
        let waiting = Arc::new(Barrier::new(2));
        let waiter = {
            let (m, cv, waiting) = (Arc::clone(&m), Arc::clone(&cv), Arc::clone(&waiting));
            std::thread::spawn(move || {
                let mut guard = lock(&m);
                waiting.wait();
                while *guard == 0 {
                    guard = wait(&cv, guard);
                }
                *guard
            })
        };
        // The waiter holds the lock from before the barrier until it
        // waits, so the notifier gets it only once the wait has begun.
        waiting.wait();
        poison(&m, 9, move || cv.notify_all());
        assert_eq!(waiter.join().expect("waiter survives the poison"), 9);
    }
}
