//! Bounded, backpressured job queue — and the fair queue the gateway
//! schedules tenants with.
//!
//! Submissions beyond the capacity are *rejected*, not blocked: the
//! daemon tells the client the service is saturated instead of letting
//! connection threads pile up behind a silent queue. Workers block on
//! [`JobQueue::next`]; after [`JobQueue::drain`] the queue refuses new
//! work, lets workers finish what is already queued, and then releases
//! them with `None`.
//!
//! [`FairQueue`] is the multi-class sibling: items are queued per class
//! (tenant) and dequeued round robin, so one greedy class cannot starve
//! the rest. It is pure data — no locks, no clock — and the gateway's
//! admission governor drives it under its own mutex.

use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

use fpga_flow::sync::{lock, wait};

/// Why a submission was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// At capacity — try again later.
    Full,
    /// The daemon is shutting down and takes no new work.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full => write!(f, "queue full"),
            SubmitError::ShuttingDown => write!(f, "shutting down"),
        }
    }
}

struct State<T> {
    items: VecDeque<T>,
    draining: bool,
    /// Deepest the queue has ever been — the saturation high-water mark
    /// the metrics registry reports.
    peak: usize,
}

/// The queue. Shared by reference (the server wraps it in an `Arc`).
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        JobQueue {
            state: Mutex::new(State {
                items: VecDeque::new(),
                draining: false,
                peak: 0,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueue, or reject with the reason.
    pub fn submit(&self, item: T) -> Result<(), SubmitError> {
        let mut s = lock(&self.state);
        if s.draining {
            return Err(SubmitError::ShuttingDown);
        }
        if s.items.len() >= self.capacity {
            return Err(SubmitError::Full);
        }
        s.items.push_back(item);
        s.peak = s.peak.max(s.items.len());
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Block until an item is available. `None` means the queue is
    /// draining and empty — the worker should exit.
    pub fn next(&self) -> Option<T> {
        let mut s = lock(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.draining {
                return None;
            }
            s = wait(&self.available, s);
        }
    }

    /// Stop accepting work; queued items still run, then workers drain
    /// out through `next() == None`.
    pub fn drain(&self) {
        lock(&self.state).draining = true;
        self.available.notify_all();
    }

    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// Deepest the queue has ever been.
    pub fn peak(&self) -> usize {
        lock(&self.state).peak
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A bounded multi-class queue dequeued round robin.
///
/// Classes are created on first push. The scheduler visits the classes
/// that have items in turn and takes one item from each, so one class's
/// backlog never delays another's next item by more than one round,
/// whatever the arrival order.
///
/// The bound is global: a push beyond `bound` total queued items is
/// rejected, which is what turns into a `retry_after_ms` shed at the
/// gateway.
pub struct FairQueue<T> {
    classes: HashMap<String, VecDeque<T>>,
    /// Round-robin order over classes that currently have items.
    rotation: VecDeque<String>,
    len: usize,
    bound: usize,
}

impl<T> FairQueue<T> {
    pub fn new(bound: usize) -> Self {
        FairQueue {
            classes: HashMap::new(),
            rotation: VecDeque::new(),
            len: 0,
            bound,
        }
    }

    /// Queue an item for `class`; `Err` when the global bound is hit
    /// (the item is handed back so the caller can shed it).
    pub fn push(&mut self, class: &str, item: T) -> Result<(), T> {
        if self.len >= self.bound {
            return Err(item);
        }
        let items = self.classes.entry(class.to_string()).or_default();
        if items.is_empty() && !self.rotation.iter().any(|c| c == class) {
            // (Re)joining the rotation. The linear scan guards against a
            // duplicate slot when remove_where emptied the class but its
            // rotation entry is still queued (class counts are small —
            // tenants, not jobs).
            self.rotation.push_back(class.to_string());
        }
        items.push_back(item);
        self.len += 1;
        Ok(())
    }

    /// Dequeue the next item round robin. `None` when empty.
    pub fn pop(&mut self) -> Option<(String, T)> {
        self.pop_where(|_| true)
    }

    /// Dequeue the next item whose class satisfies `eligible` — the
    /// governor's hook for token-bucket gating. Ineligible classes keep
    /// their place in the rotation; `None` when no eligible class has
    /// items.
    pub fn pop_where(&mut self, mut eligible: impl FnMut(&str) -> bool) -> Option<(String, T)> {
        // At most one full lap: if no eligible class was found after
        // visiting every active class once, give up.
        for _ in 0..self.rotation.len() {
            let class = self.rotation.pop_front()?;
            let Some(items) = self.classes.get_mut(&class) else {
                continue; // stale rotation entry
            };
            if items.is_empty() {
                continue; // drained by remove_where; leaves the rotation
            }
            if !eligible(&class) {
                self.rotation.push_back(class);
                continue;
            }
            let item = items.pop_front()?;
            self.len -= 1;
            if !items.is_empty() {
                self.rotation.push_back(class.clone());
            }
            return Some((class, item));
        }
        None
    }

    /// Remove every queued item of `class` that matches `pred`,
    /// returning how many were removed (deadline-expired tickets).
    pub fn remove_where(&mut self, class: &str, pred: impl Fn(&T) -> bool) -> usize {
        let Some(items) = self.classes.get_mut(class) else {
            return 0;
        };
        let before = items.len();
        items.retain(|item| !pred(item));
        let removed = before - items.len();
        self.len -= removed;
        removed
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rejects_when_full_and_when_draining() {
        let q = JobQueue::new(2);
        assert_eq!(q.submit(1), Ok(()));
        assert_eq!(q.submit(2), Ok(()));
        assert_eq!(q.submit(3), Err(SubmitError::Full));
        assert_eq!(q.next(), Some(1));
        assert_eq!(q.submit(3), Ok(()));
        q.drain();
        assert_eq!(q.submit(4), Err(SubmitError::ShuttingDown));
        // Queued work still drains in order, then workers are released.
        assert_eq!(q.next(), Some(2));
        assert_eq!(q.next(), Some(3));
        assert_eq!(q.next(), None);
        assert_eq!(q.peak(), 2, "high-water mark survives the drain");
    }

    #[test]
    fn blocking_consumers_wake_on_submit_and_drain() {
        let q = Arc::new(JobQueue::new(4));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.next() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..10 {
            while q.submit(i) == Err(SubmitError::Full) {
                std::thread::yield_now();
            }
        }
        // Let the consumers empty the queue before draining.
        while !q.is_empty() {
            std::thread::yield_now();
        }
        q.drain();
        let mut all: Vec<i32> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn fair_queue_interleaves_classes_round_robin() {
        let mut q = FairQueue::new(16);
        for i in 0..3 {
            q.push("a", format!("a{i}")).unwrap();
            q.push("b", format!("b{i}")).unwrap();
        }
        let order: Vec<String> = std::iter::from_fn(|| q.pop().map(|(c, _)| c)).collect();
        assert_eq!(order, vec!["a", "b", "a", "b", "a", "b"]);
        assert!(q.is_empty());
    }

    #[test]
    fn fair_queue_one_greedy_class_cannot_starve_the_rest() {
        let mut q = FairQueue::new(64);
        for i in 0..50 {
            q.push("greedy", i).unwrap();
        }
        q.push("meek", 0).unwrap();
        // The meek class's single item is served on the very next round,
        // not after the greedy backlog.
        let classes: Vec<String> = (0..3).filter_map(|_| q.pop().map(|(c, _)| c)).collect();
        assert!(classes.contains(&"meek".to_string()), "served {classes:?}");
    }

    #[test]
    fn fair_queue_bound_rejects_and_hands_the_item_back() {
        let mut q = FairQueue::new(2);
        q.push("a", 1).unwrap();
        q.push("b", 2).unwrap();
        assert_eq!(q.push("a", 3), Err(3));
        assert_eq!(q.len(), 2);
        q.pop().unwrap();
        q.push("a", 3).unwrap();
    }

    #[test]
    fn fair_queue_pop_where_gates_classes_without_losing_their_turn() {
        let mut q = FairQueue::new(8);
        q.push("blocked", 1).unwrap();
        q.push("open", 2).unwrap();
        // Only "open" is eligible; "blocked" keeps its place.
        let (class, item) = q.pop_where(|c| c == "open").unwrap();
        assert_eq!((class.as_str(), item), ("open", 2));
        assert!(q.pop_where(|c| c == "open").is_none());
        assert_eq!(q.len(), 1);
        let (class, item) = q.pop().unwrap();
        assert_eq!((class.as_str(), item), ("blocked", 1));
    }

    #[test]
    fn fair_queue_remove_where_drops_expired_tickets() {
        let mut q = FairQueue::new(8);
        for i in 0..4 {
            q.push("t", i).unwrap();
        }
        assert_eq!(q.remove_where("t", |i| i % 2 == 0), 2);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
        // Emptied via remove_where, then refilled: still exactly one
        // rotation slot (no double turns).
        for i in 0..2 {
            q.push("t", 10 + i).unwrap();
            q.push("u", 20 + i).unwrap();
        }
        assert_eq!(q.remove_where("t", |_| true), 2);
        q.push("t", 30).unwrap();
        let order: Vec<String> = std::iter::from_fn(|| q.pop().map(|(c, _)| c)).collect();
        // "t" kept its single original rotation slot (no double turns
        // from the stale entry), "u" drains round-robin after it.
        assert_eq!(order, vec!["t", "u", "u"]);
    }
}
