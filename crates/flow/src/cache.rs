//! Content-addressed stage cache for the compile flow.
//!
//! Every pipeline stage is keyed by a SHA-256 digest of the
//! [`crate::FLOW_VERSION`] string, the stage name, its own options and —
//! past the entry stage — the key of the stage it consumes. The entry
//! key digests the design exactly as it arrived: VHDL or BLIF text, or
//! an in-memory netlist's codec bytes. Chaining upstream keys keeps each
//! digest cheap while preserving content addressing transitively: if
//! any byte of any input to any ancestor stage changes, every descendant
//! key changes with it, so a key names one artifact.
//!
//! The cache is process-local and in-memory (the daemon owns one for its
//! lifetime), optionally backed by a durable [`DiskStore`]: a memory miss
//! falls through to disk before computing, and every computed artifact is
//! persisted best-effort, so a restarted daemon warms back up from its
//! previous life. Memory is bounded by an optional entry cap with LRU
//! eviction — an evicted entry costs a disk read, not a recompute.
//!
//! Lookups are *single-flight*: when two jobs race on the same key, one
//! computes while the others block on a condition variable and then take
//! the hit path — so N concurrent submissions of the same design cost
//! exactly one computation per stage and count as one miss plus N-1 hits
//! in the metrics.
//!
//! Each stage's counters are one [`StageStats`]: the lookup path
//! increments its [`Counter`]s, and [`StageCache::stats`] hands out a
//! clone — there is no separate snapshot type.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use serde_json::Value;

use crate::artifact::Artifact;
use crate::hash::{to_hex, Sha256};
use crate::store::DiskStore;
use crate::sync::{lock, wait, Counter};
use crate::Result;

/// The cacheable pipeline stages, in flow order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageId {
    Synthesis,
    LutMap,
    Pack,
    Place,
    Route,
    Power,
    Bitstream,
    Verify,
}

/// All stages, in flow order (index matches the metrics table).
pub const STAGES: [StageId; 8] = [
    StageId::Synthesis,
    StageId::LutMap,
    StageId::Pack,
    StageId::Place,
    StageId::Route,
    StageId::Power,
    StageId::Bitstream,
    StageId::Verify,
];

impl StageId {
    /// Short stable name used in cache keys and metrics JSON.
    pub fn name(self) -> &'static str {
        match self {
            StageId::Synthesis => "synthesis",
            StageId::LutMap => "lut_map",
            StageId::Pack => "pack",
            StageId::Place => "place",
            StageId::Route => "route",
            StageId::Power => "power",
            StageId::Bitstream => "bitstream",
            StageId::Verify => "verify",
        }
    }

    /// Position in [`STAGES`]: the variants are declared in flow order.
    fn index(self) -> usize {
        self as usize
    }
}

/// How a cache lookup resolved — the attribution every trace span and
/// metrics counter hangs off.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Miss everywhere; the stage ran its computation.
    Computed,
    /// Served from the in-memory slot map (possibly after waiting out
    /// another job's in-flight computation).
    MemoryHit,
    /// Served from the durable [`DiskStore`] after a memory miss.
    DiskHit,
}

impl CacheOutcome {
    /// Any kind of hit: the job skipped the computation.
    pub fn is_hit(self) -> bool {
        !matches!(self, CacheOutcome::Computed)
    }

    /// Short stable label used in metrics and trace attribution.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Computed => "computed",
            CacheOutcome::MemoryHit => "memory-hit",
            CacheOutcome::DiskHit => "disk-hit",
        }
    }
}

/// Where the cache offers each freshly computed entry: the farm's
/// replication, which copies it into peers' durable stores so that a
/// peer asked for the same stage later finds it on its own disk. The
/// cache never reads from it — a stage is served from memory, from the
/// local [`DiskStore`], or computed. `publish` receives the raw on-disk
/// entry bytes (the self-verifying [`DiskStore`] format) and is
/// fire-and-forget: an implementation must be bounded and must never
/// panic; it owns its own timeouts and breaker.
pub trait RemoteTier: Send + Sync {
    /// Offer a freshly computed entry to the farm (best-effort).
    fn publish(&self, stage: &'static str, key: &str, kind: &'static str, raw: &[u8]);
}

/// Per-stage counters: the cache increments one of these per stage, and
/// a clone of it is that stage's snapshot ([`StageCache::stats`]).
/// Each lookup increments exactly one outcome: `memory_hits` (a ready
/// entry, or waiting out another job's in-flight computation),
/// `disk_hits` (a verified durable-store entry) or `misses` (an actual
/// computation). `wall_nanos` accumulates compute time spent on misses.
#[derive(Clone, Debug, Default)]
pub struct StageStats {
    pub memory_hits: Counter,
    pub disk_hits: Counter,
    pub misses: Counter,
    pub wall_nanos: Counter,
}

impl StageStats {
    /// Lookups served without computing, from either tier.
    pub fn hits(&self) -> u64 {
        self.memory_hits.get() + self.disk_hits.get()
    }
}

struct ReadyEntry {
    value: Arc<dyn Any + Send + Sync>,
    metrics: Value,
    /// Monotonic recency tick; the smallest tick is the LRU victim.
    last_used: u64,
}

enum Slot {
    /// Another thread is computing this key; wait on the condvar.
    InFlight,
    /// Ready: the stage's typed output plus the metrics it reported.
    Ready(ReadyEntry),
}

/// The cache proper. Cheap to share: the daemon wraps it in an [`Arc`]
/// and hands clones to every worker.
#[derive(Default)]
pub struct StageCache {
    slots: Mutex<HashMap<String, Slot>>,
    ready: Condvar,
    counters: [StageStats; STAGES.len()],
    clock: AtomicU64,
    capacity: Option<usize>,
    store: Option<Arc<DiskStore>>,
    remote: Option<Arc<dyn RemoteTier>>,
    memory_evicted: Counter,
}

/// Exclusive right to compute one key, handed out by [`StageCache::claim`].
/// Dropping the guard without fulfilling it (error or panic in the
/// computation) removes the in-flight marker and wakes waiters, so a dead
/// computing thread can never strand a slot.
struct ClaimGuard<'a> {
    cache: &'a StageCache,
    key: String,
    armed: bool,
}

impl ClaimGuard<'_> {
    fn fulfill(mut self, value: Arc<dyn Any + Send + Sync>, metrics: Value) {
        let tick = self.cache.tick();
        {
            let mut slots = lock(&self.cache.slots);
            slots.insert(
                self.key.clone(),
                Slot::Ready(ReadyEntry {
                    value,
                    metrics,
                    last_used: tick,
                }),
            );
            self.cache.evict_over_capacity(&mut slots, &self.key);
        }
        self.cache.ready.notify_all();
        self.armed = false;
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.cache.slots).remove(&self.key);
            self.cache.ready.notify_all();
        }
    }
}

enum Claim<'a> {
    /// Served from memory (possibly after waiting out an in-flight
    /// computation). The stage hit counter has already been bumped.
    Hit(Arc<dyn Any + Send + Sync>, Value),
    /// This thread owns the computation for the key.
    Miss(ClaimGuard<'a>),
}

impl StageCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attach a durable store: memory misses fall through to it, computed
    /// artifacts are persisted to it.
    pub fn with_store(mut self, store: Arc<DiskStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Bound memory to at most `cap` ready entries, evicting the least
    /// recently used beyond that. With a store attached, eviction is
    /// cheap: the entry stays reachable on disk.
    pub fn with_capacity(mut self, cap: usize) -> Self {
        self.capacity = Some(cap.max(1));
        self
    }

    /// Attach the farm's replication: every computed entry is offered
    /// to it once persisted. Requires a store ([`StageCache::with_store`])
    /// — what is offered is the stored entry's bytes.
    pub fn with_remote(mut self, remote: Arc<dyn RemoteTier>) -> Self {
        self.remote = Some(remote);
        self
    }

    /// The attached durable store, if any.
    pub fn store(&self) -> Option<&Arc<DiskStore>> {
        self.store.as_ref()
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Resolve `key` to a ready value or the exclusive right to compute
    /// it, waiting out any in-flight computation by another thread.
    fn claim(&self, stage: StageId, key: &str) -> Claim<'_> {
        let mut slots = lock(&self.slots);
        loop {
            match slots.get_mut(key) {
                Some(Slot::Ready(entry)) => {
                    entry.last_used = self.tick();
                    let out = Arc::clone(&entry.value);
                    let metrics = entry.metrics.clone();
                    self.counters[stage.index()].memory_hits.inc();
                    return Claim::Hit(out, metrics);
                }
                Some(Slot::InFlight) => {
                    slots = wait(&self.ready, slots);
                }
                None => {
                    slots.insert(key.to_string(), Slot::InFlight);
                    return Claim::Miss(ClaimGuard {
                        cache: self,
                        key: key.to_string(),
                        armed: true,
                    });
                }
            }
        }
    }

    /// Evict LRU ready entries until the count is within capacity,
    /// sparing `keep` (the entry just inserted). In-flight markers are
    /// never touched.
    fn evict_over_capacity(&self, slots: &mut HashMap<String, Slot>, keep: &str) {
        let Some(cap) = self.capacity else {
            return;
        };
        loop {
            let ready = slots
                .values()
                .filter(|s| matches!(s, Slot::Ready(..)))
                .count();
            if ready <= cap {
                return;
            }
            let victim = slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready(e) if k != keep => Some((e.last_used, k.clone())),
                    _ => None,
                })
                .min();
            let Some((_, key)) = victim else {
                return;
            };
            slots.remove(&key);
            self.memory_evicted.inc();
        }
    }

    fn downcast<T: Any + Send + Sync>(value: Arc<dyn Any + Send + Sync>) -> Arc<T> {
        value
            .downcast::<T>()
            .expect("stage key maps to one output type")
    }

    /// Look up `key`; on a miss, run `compute` (once, even under
    /// contention) and remember its output. Returns the typed output, the
    /// stage metrics, and the [`CacheOutcome`] attribution of the lookup.
    ///
    /// A memory miss first tries the attached [`DiskStore`]. A verified,
    /// decodable entry counts as a hit (the job skipped the computation —
    /// that is what the counter means); a corrupt or undecodable one is
    /// quarantined and the stage recomputes, so a bad entry can never
    /// fail a job. Computed artifacts are persisted best-effort, and
    /// offered to the farm's replication, before being published to
    /// memory.
    ///
    /// Failed computations are not cached: the in-flight marker is
    /// removed and the error propagates, so a later retry recomputes.
    /// Likewise a *panicking* computation: the marker is removed before
    /// the unwind continues, so waiters on the same key never hang on a
    /// slot whose computing thread died.
    pub fn get_or_compute_artifact<T: Artifact>(
        &self,
        stage: StageId,
        key: &str,
        compute: impl FnOnce() -> Result<(T, Value)>,
    ) -> Result<(Arc<T>, Value, CacheOutcome)> {
        let guard = match self.claim(stage, key) {
            Claim::Hit(value, metrics) => {
                return Ok((Self::downcast(value), metrics, CacheOutcome::MemoryHit))
            }
            Claim::Miss(guard) => guard,
        };

        if let Some(store) = &self.store {
            // Corrupt bytes (`load` quarantines them) and an undecodable
            // payload both fall through to a local recompute.
            if let Ok((payload, metrics_text)) = store.load(stage, key, T::KIND) {
                match T::from_bytes(&payload) {
                    Ok(value) => {
                        let metrics = serde_json::from_str_value(&metrics_text)
                            .unwrap_or_else(|_| serde_json::json!({}));
                        let value = Arc::new(value);
                        guard.fulfill(
                            Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
                            metrics.clone(),
                        );
                        self.counters[stage.index()].disk_hits.inc();
                        return Ok((value, metrics, CacheOutcome::DiskHit));
                    }
                    Err(e) => {
                        // Structurally sound in the store but semantically
                        // rotten; retire it and fall through.
                        store.quarantine(key, &format!("artifact decode failed: {e}"));
                    }
                }
            }
        }

        self.compute_into(stage, guard, || {
            let (value, metrics) = compute()?;
            if let Some(store) = &self.store {
                let metrics_text = metrics.to_string();
                if store
                    .put(stage, key, T::KIND, &metrics_text, &value.to_bytes())
                    .is_ok()
                {
                    // Offer the freshly persisted entry to the farm, so a
                    // peer that inherits this job's keys finds them on its
                    // own disk. Reading the entry back hands the farm the
                    // exact self-verifying bytes a receiver re-checks.
                    if let Some(remote) = &self.remote {
                        if let Some(raw) = store.raw_entry(stage, key, T::KIND) {
                            remote.publish(stage.name(), key, T::KIND, &raw);
                        }
                    }
                }
            }
            Ok((value, metrics))
        })
    }

    fn compute_into<T: Any + Send + Sync>(
        &self,
        stage: StageId,
        guard: ClaimGuard<'_>,
        compute: impl FnOnce() -> Result<(T, Value)>,
    ) -> Result<(Arc<T>, Value, CacheOutcome)> {
        let t = Instant::now();
        // On `Err` (or panic) the guard drops here: marker removed,
        // waiters woken, nothing counted.
        let (value, metrics) = compute()?;
        let elapsed = t.elapsed().as_nanos() as u64;

        let value = Arc::new(value);
        guard.fulfill(
            Arc::clone(&value) as Arc<dyn Any + Send + Sync>,
            metrics.clone(),
        );
        let c = &self.counters[stage.index()];
        c.misses.inc();
        c.wall_nanos.add(elapsed);
        Ok((value, metrics, CacheOutcome::Computed))
    }

    /// Snapshot one stage's counters.
    pub fn stats(&self, stage: StageId) -> StageStats {
        self.counters[stage.index()].clone()
    }

    /// Snapshot every stage, in flow order.
    pub fn all_stats(&self) -> Vec<(&'static str, StageStats)> {
        STAGES.iter().map(|&s| (s.name(), self.stats(s))).collect()
    }

    /// Totals across stages: (hits, misses).
    pub fn totals(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for (_, s) in self.all_stats() {
            hits += s.hits();
            misses += s.misses.get();
        }
        (hits, misses)
    }

    /// Number of ready entries (in-flight markers excluded).
    pub fn len(&self) -> usize {
        lock(&self.slots)
            .values()
            .filter(|s| matches!(s, Slot::Ready(..)))
            .count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries evicted from memory by the capacity bound.
    pub fn memory_evicted(&self) -> u64 {
        self.memory_evicted.get()
    }
}

/// Digest key parts into a stage key, after [`crate::FLOW_VERSION`] and
/// the stage name. Parts are length-prefixed, so no two distinct part
/// lists collide by concatenation.
pub fn stage_key<P: AsRef<[u8]>>(stage: StageId, parts: &[P]) -> String {
    let mut h = Sha256::new();
    h.update_part(crate::FLOW_VERSION.as_bytes());
    h.update_part(stage.name().as_bytes());
    for p in parts {
        h.update_part(p.as_ref());
    }
    to_hex(&h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The smallest artifact with a value: a number as eight bytes.
    #[derive(Debug, PartialEq)]
    struct Num(u64);

    impl Artifact for Num {
        const KIND: &'static str = "num";

        fn to_bytes(&self) -> Vec<u8> {
            self.0.to_le_bytes().to_vec()
        }

        fn from_bytes(bytes: &[u8]) -> std::result::Result<Self, String> {
            let bytes = bytes.try_into().map_err(|_| "not eight bytes")?;
            Ok(Num(u64::from_le_bytes(bytes)))
        }
    }

    #[test]
    fn stage_index_is_its_position_in_stages() {
        for (i, stage) in STAGES.into_iter().enumerate() {
            assert_eq!(stage as usize, i, "{}", stage.name());
        }
    }

    #[test]
    fn hit_after_miss_returns_same_value_and_metrics() {
        let cache = StageCache::new();
        let key = stage_key(StageId::Pack, &["k"]);
        let computed = AtomicUsize::new(0);
        for round in 0..3 {
            let (v, m, outcome) = cache
                .get_or_compute_artifact(StageId::Pack, &key, || {
                    computed.fetch_add(1, Ordering::SeqCst);
                    Ok((Num(41 + 1), serde_json::json!({"n": 7})))
                })
                .unwrap();
            assert_eq!(*v, Num(42));
            assert_eq!(m["n"], serde_json::json!(7u64));
            assert_eq!(outcome.is_hit(), round > 0);
        }
        assert_eq!(computed.load(Ordering::SeqCst), 1);
        let s = cache.stats(StageId::Pack);
        assert_eq!((s.misses.get(), s.hits()), (1, 2));
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = StageCache::new();
        let key = stage_key(StageId::Route, &["e"]);
        let r = cache.get_or_compute_artifact::<Num>(StageId::Route, &key, || {
            Err(crate::FlowError::new("routing (VPR)", "no"))
        });
        assert!(r.is_err());
        assert_eq!(cache.len(), 0);
        let (v, _, outcome) = cache
            .get_or_compute_artifact(StageId::Route, &key, || Ok((Num(9), Value::Null)))
            .unwrap();
        assert_eq!((v.0, outcome), (9, CacheOutcome::Computed));
    }

    #[test]
    fn panicking_computation_releases_the_slot() {
        let cache = Arc::new(StageCache::new());
        let key = stage_key(StageId::Pack, &["panics"]);
        let panicked = {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            std::thread::spawn(move || {
                cache
                    .get_or_compute_artifact::<Num>(StageId::Pack, &key, || panic!("stage blew up"))
            })
        };
        assert!(panicked.join().is_err(), "panic propagates to the caller");
        // The in-flight marker is gone: a later lookup computes fresh
        // instead of waiting forever.
        let (v, _, outcome) = cache
            .get_or_compute_artifact(StageId::Pack, &key, || Ok((Num(11), Value::Null)))
            .unwrap();
        assert_eq!((v.0, outcome), (11, CacheOutcome::Computed));
        let s = cache.stats(StageId::Pack);
        assert_eq!(
            (s.misses.get(), s.hits()),
            (1, 0),
            "the panic counted nothing"
        );
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = Arc::new(StageCache::new());
        let key = stage_key(StageId::LutMap, &["contended"]);
        let computed = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let key = key.clone();
            let computed = Arc::clone(&computed);
            handles.push(std::thread::spawn(move || {
                let (v, _, _) = cache
                    .get_or_compute_artifact(StageId::LutMap, &key, || {
                        computed.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok((Num(7), Value::Null))
                    })
                    .unwrap();
                v.0
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 7);
        }
        assert_eq!(
            computed.load(Ordering::SeqCst),
            1,
            "exactly one computation"
        );
        let s = cache.stats(StageId::LutMap);
        assert_eq!(s.misses, 1);
        assert_eq!(s.memory_hits, 7);
    }

    #[test]
    fn keys_separate_stages_and_parts() {
        let a = stage_key(StageId::Pack, &["x"]);
        let b = stage_key(StageId::Place, &["x"]);
        let c = stage_key(StageId::Pack, &["x", ""]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn capacity_evicts_least_recently_used_entry() {
        let cache = StageCache::new().with_capacity(2);
        let keys: Vec<String> = (0..3)
            .map(|i| stage_key(StageId::Pack, &[&format!("cap{i}")]))
            .collect();
        cache
            .get_or_compute_artifact(StageId::Pack, &keys[0], || Ok((Num(0), Value::Null)))
            .unwrap();
        cache
            .get_or_compute_artifact(StageId::Pack, &keys[1], || Ok((Num(1), Value::Null)))
            .unwrap();
        // Touch keys[0] so keys[1] is the LRU victim when keys[2] lands.
        let (_, _, outcome) = cache
            .get_or_compute_artifact(StageId::Pack, &keys[0], || Ok((Num(99), Value::Null)))
            .unwrap();
        assert!(outcome.is_hit());
        cache
            .get_or_compute_artifact(StageId::Pack, &keys[2], || Ok((Num(2), Value::Null)))
            .unwrap();

        assert_eq!(cache.len(), 2);
        assert_eq!(cache.memory_evicted(), 1);
        let (_, _, o0) = cache
            .get_or_compute_artifact(StageId::Pack, &keys[0], || Ok((Num(0), Value::Null)))
            .unwrap();
        assert!(o0.is_hit(), "recently used entry survived");
        let (_, _, o1) = cache
            .get_or_compute_artifact(StageId::Pack, &keys[1], || Ok((Num(1), Value::Null)))
            .unwrap();
        assert!(!o1.is_hit(), "LRU entry was evicted");
    }

    #[test]
    fn artifact_lookup_falls_through_to_disk_and_back() {
        let root = std::env::temp_dir().join(format!(
            "ifdf-cache-disk-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(DiskStore::open(&root, None).unwrap());
        let key = stage_key(StageId::Verify, &["disk"]);

        // First life: compute once, persisting to disk.
        let cache = StageCache::new().with_store(Arc::clone(&store));
        let (_, _, outcome) = cache
            .get_or_compute_artifact(StageId::Verify, &key, || {
                Ok(((), serde_json::json!({"ok": true})))
            })
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Computed);

        // Second life: fresh memory, same store — served from disk, no
        // recompute, counted as a hit attributed to the disk tier.
        let cache = StageCache::new().with_store(Arc::clone(&store));
        let (_, metrics, outcome) = cache
            .get_or_compute_artifact::<()>(StageId::Verify, &key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        assert_eq!(metrics["ok"], serde_json::json!(true));
        let s = cache.stats(StageId::Verify);
        assert_eq!(
            (s.hits(), s.disk_hits.get(), s.memory_hits.get()),
            (1, 1, 0)
        );
        assert_eq!(store.counters().disk_hits, 1);

        // Third lookup on the same cache: plain memory hit, disk untouched.
        let (_, _, outcome) = cache
            .get_or_compute_artifact::<()>(StageId::Verify, &key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::MemoryHit);
        let s = cache.stats(StageId::Verify);
        assert_eq!(
            (s.hits(), s.disk_hits.get(), s.memory_hits.get()),
            (2, 1, 1)
        );
        assert_eq!(store.counters().disk_hits, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn scraping_beside_disk_hits_never_reads_more_memory_hits_than_hits() {
        let root = std::env::temp_dir().join(format!(
            "ifdf-cache-scrape-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(DiskStore::open(&root, None).unwrap());
        // One memory slot, two keys: each lookup evicts the other key,
        // so once both are on disk every lookup is a disk hit.
        let cache = StageCache::new().with_store(store).with_capacity(1);
        let keys = ["scrape-a", "scrape-b"].map(|k| stage_key(StageId::Verify, &[k]));
        for key in &keys {
            cache
                .get_or_compute_artifact(StageId::Verify, key, || Ok(((), Value::Null)))
                .unwrap();
        }
        std::thread::scope(|s| {
            let scraper = s.spawn(|| {
                for _ in 0..10_000 {
                    let stats = cache.stats(StageId::Verify);
                    // A disk hit is one increment: no snapshot reads it
                    // as a memory hit.
                    assert_eq!(stats.hits(), stats.disk_hits.get(), "{stats:?}");
                }
            });
            while !scraper.is_finished() {
                for key in &keys {
                    let (_, _, outcome) = cache
                        .get_or_compute_artifact::<()>(StageId::Verify, key, || {
                            panic!("must not recompute")
                        })
                        .unwrap();
                    assert_eq!(outcome, CacheOutcome::DiskHit);
                }
            }
        });
        let stats = cache.stats(StageId::Verify);
        assert!(stats.disk_hits.get() >= 2);
        assert_eq!((stats.memory_hits.get(), stats.misses.get()), (0, 2));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn undecodable_disk_entry_is_quarantined_and_recomputed() {
        let root = std::env::temp_dir().join(format!(
            "ifdf-cache-rot-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(DiskStore::open(&root, None).unwrap());
        let key = stage_key(StageId::Verify, &["rot"]);
        // A verified-and-digest-valid entry whose *payload* the artifact
        // decoder rejects (the () artifact requires an empty payload).
        store
            .put(StageId::Verify, &key, "verified", "{}", b"not empty")
            .unwrap();

        let cache = StageCache::new().with_store(Arc::clone(&store));
        let (_, _, outcome) = cache
            .get_or_compute_artifact(StageId::Verify, &key, || Ok(((), Value::Null)))
            .unwrap();
        assert_eq!(
            outcome,
            CacheOutcome::Computed,
            "rotten entry recomputed, job unharmed"
        );
        assert_eq!(store.counters().quarantined, 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A [`RemoteTier`] that records every entry it is offered.
    #[derive(Default)]
    struct Offered(Mutex<Vec<(String, Vec<u8>)>>);

    impl RemoteTier for Offered {
        fn publish(&self, _stage: &'static str, key: &str, _kind: &'static str, raw: &[u8]) {
            self.0.lock().unwrap().push((key.to_string(), raw.to_vec()));
        }
    }

    #[test]
    fn computed_entries_are_offered_to_the_farm_and_hits_are_not() {
        let root = std::env::temp_dir().join(format!(
            "ifdf-cache-offered-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        let store = Arc::new(DiskStore::open(&root, None).unwrap());
        let offered = Arc::new(Offered::default());
        let cache = || {
            StageCache::new()
                .with_store(Arc::clone(&store))
                .with_remote(Arc::clone(&offered) as Arc<dyn RemoteTier>)
        };
        let key = stage_key(StageId::Verify, &["offered"]);
        let warm = cache();
        for want in [CacheOutcome::Computed, CacheOutcome::MemoryHit] {
            let (_, _, outcome) = warm
                .get_or_compute_artifact(StageId::Verify, &key, || Ok(((), Value::Null)))
                .unwrap();
            assert_eq!(outcome, want);
        }
        let (_, _, outcome) = cache()
            .get_or_compute_artifact::<()>(StageId::Verify, &key, || panic!("must not recompute"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::DiskHit);
        // One offer, of the exact self-verifying bytes the store holds.
        let raw = store.raw_entry(StageId::Verify, &key, "verified").unwrap();
        assert_eq!(*offered.0.lock().unwrap(), [(key.clone(), raw)]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
