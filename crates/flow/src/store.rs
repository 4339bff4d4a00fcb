//! Crash-safe on-disk artifact store behind the in-memory [`StageCache`].
//!
//! Layout under the store root:
//!
//! ```text
//! root/
//!   ab/ab34…ef      one file per entry, named by its 64-hex stage key,
//!                   sharded by the first two hex digits
//!   ab/.1234-7.tmp  in-flight write (unique per pid × counter); renamed
//!                   into place once fsynced, scrubbed at startup
//!   quarantine/     entries that failed verification, kept for autopsy
//!                   under an age/size cap ([`QuarantineLimits`]) —
//!                   trimmed at startup and whenever a new entry arrives
//! ```
//!
//! Entry format (all multi-byte values little-endian, strings and the
//! payload length-prefixed, matching the artifact codecs):
//!
//! ```text
//! magic "IFDFSTOR" | header version u32 | flow version | stage name
//! | stage key | artifact kind | digest (hex, over metrics + payload)
//! | metrics JSON | payload
//! ```
//!
//! Durability rules:
//!
//! * Writes are atomic: temp file in the destination shard, `fsync`,
//!   `rename`, best-effort directory `fsync`. A reader never observes a
//!   half-written entry under its final name; a crash leaves only a
//!   `.tmp` file that the next startup removes.
//! * Loads are paranoid: magic, versions, stage, key, kind and the
//!   recomputed payload digest must all match. Any mismatch — truncation,
//!   bit rot, format drift — quarantines the entry (renamed aside and
//!   counted) and reports a miss, so a bad disk entry can never fail a
//!   job, only slow it down by one recompute.
//! * The store is bounded: an optional byte budget is enforced by
//!   LRU eviction. Recency is tracked in memory (monotonic ticks) and
//!   seeded from file access times at startup, so a warm restart evicts
//!   cold entries first.
//! * Every outcome is counted where it happens, in one [`StoreCounters`]
//!   (hits, misses, quarantines, evictions, writes, write errors,
//!   scrubbed files); [`DiskStore::counters`] is a clone of it, and all
//!   seven reach `stats` and both `metrics` renderings.
//!
//! [`StageCache`]: crate::cache::StageCache

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use fpga_netlist::codec::{ByteReader, ByteWriter};

use crate::cache::StageId;
use crate::hash::digest_hex;
use crate::sync::{lock, Counter};
use crate::FLOW_VERSION;

const MAGIC: &[u8; 8] = b"IFDFSTOR";
const HEADER_VERSION: u32 = 1;
const QUARANTINE_DIR: &str = "quarantine";

/// Caps on the `quarantine/` holding area. Quarantined entries are
/// evidence, not data — they exist so an operator can autopsy a
/// corruption, and they must never grow without bound on a daemon that
/// runs for months against a flaky disk. Entries older than
/// `max_age_ms` are purged; the remainder is trimmed newest-first to
/// `max_bytes`. Enforced at startup scrub and after every new
/// quarantine.
#[derive(Clone, Copy, Debug)]
pub struct QuarantineLimits {
    pub max_bytes: u64,
    pub max_age_ms: u64,
}

impl Default for QuarantineLimits {
    fn default() -> Self {
        QuarantineLimits {
            max_bytes: 32 * 1024 * 1024,
            max_age_ms: 24 * 60 * 60 * 1_000,
        }
    }
}

/// Why a load did not return a payload. Distinguishes "never stored"
/// from "stored but failed verification" for the stats counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadMiss {
    /// No entry under this key.
    Absent,
    /// An entry existed but failed verification and was quarantined.
    Quarantined(String),
}

#[derive(Clone, Copy)]
struct EntryMeta {
    size: u64,
    tick: u64,
}

struct Index {
    entries: HashMap<String, EntryMeta>,
    total_bytes: u64,
}

/// The store's counters: it increments these where each event happens,
/// and a clone is the snapshot [`DiskStore::counters`] hands out.
#[derive(Clone, Debug, Default)]
pub struct StoreCounters {
    pub disk_hits: Counter,
    pub disk_misses: Counter,
    pub quarantined: Counter,
    pub evicted: Counter,
    pub writes: Counter,
    pub write_errors: Counter,
    pub scrubbed: Counter,
}

/// A durable, digest-verified, size-bounded store of stage artifacts.
pub struct DiskStore {
    root: PathBuf,
    budget_bytes: Option<u64>,
    quarantine_limits: QuarantineLimits,
    index: Mutex<Index>,
    clock: AtomicU64,
    temp_seq: AtomicU64,
    counters: StoreCounters,
}

fn is_hex_key(name: &str) -> bool {
    name.len() == 64 && name.bytes().all(|b| b.is_ascii_hexdigit())
}

fn atime_rank(path: &Path) -> u64 {
    // Best-effort recency seed. On `noatime` mounts the access time is
    // frozen at creation (or earlier), which would make eviction order
    // arbitrary; the max of atime and mtime degrades to oldest-written-
    // first there, which is the right LRU approximation. Only the
    // relative order matters.
    let Ok(meta) = fs::metadata(path) else {
        return 0;
    };
    let as_nanos = |t: Result<SystemTime, io::Error>| {
        t.ok()
            .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    };
    as_nanos(meta.accessed()).max(as_nanos(meta.modified()))
}

impl DiskStore {
    /// Open (creating if needed) a store rooted at `root`, scrub stale
    /// temp files and over-cap quarantined entries, and index what
    /// survives. Uses the default [`QuarantineLimits`].
    pub fn open(root: impl Into<PathBuf>, budget_bytes: Option<u64>) -> io::Result<DiskStore> {
        DiskStore::open_with_limits(root, budget_bytes, QuarantineLimits::default())
    }

    /// [`DiskStore::open`] with explicit quarantine caps.
    pub fn open_with_limits(
        root: impl Into<PathBuf>,
        budget_bytes: Option<u64>,
        quarantine_limits: QuarantineLimits,
    ) -> io::Result<DiskStore> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        fs::create_dir_all(root.join(QUARANTINE_DIR))?;

        let store = DiskStore {
            root,
            budget_bytes,
            quarantine_limits,
            index: Mutex::new(Index {
                entries: HashMap::new(),
                total_bytes: 0,
            }),
            clock: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
            counters: StoreCounters::default(),
        };
        store.scrub_and_index()?;
        store.enforce_budget();
        Ok(store)
    }

    /// The store root (for diagnostics and tests).
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Final on-disk path for a key (exposed so tests and the crash
    /// harness can corrupt entries deliberately).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.shard_dir(key).join(key)
    }

    /// The shard directory a key's entry lives in: its first two hex
    /// digits.
    fn shard_dir(&self, key: &str) -> PathBuf {
        self.root
            .join(if key.len() >= 2 { &key[..2] } else { "xx" })
    }

    fn quarantine_path(&self, key: &str) -> PathBuf {
        let n = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        self.root
            .join(QUARANTINE_DIR)
            .join(format!("{key}.{}-{n}", std::process::id()))
    }

    fn scrub_and_index(&self) -> io::Result<()> {
        // Quarantined entries are kept for autopsy, but only under the
        // age/size caps — an unbounded quarantine would let a decaying
        // disk fill itself with its own evidence.
        self.trim_quarantine();

        let mut found: Vec<(String, u64, u64)> = Vec::new();
        for shard in fs::read_dir(&self.root)? {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                // Stray files directly under the root (including crashed
                // pre-shard temp files from older layouts) are stale.
                if fs::remove_file(shard.path()).is_ok() {
                    self.counters.scrubbed.inc();
                }
                continue;
            }
            let dir_name = shard.file_name().to_string_lossy().into_owned();
            if dir_name == QUARANTINE_DIR {
                continue;
            }
            for entry in fs::read_dir(shard.path())?.flatten() {
                let path = entry.path();
                let name = entry.file_name().to_string_lossy().into_owned();
                if is_hex_key(&name) {
                    let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                    found.push((name, size, atime_rank(&path)));
                } else {
                    // Temp files from interrupted writes, or anything
                    // else that is not an entry.
                    if fs::remove_file(&path).is_ok() {
                        self.counters.scrubbed.inc();
                    }
                }
            }
        }

        // Seed in-memory recency from on-disk access order.
        found.sort_by_key(|(_, _, rank)| *rank);
        let mut index = lock(&self.index);
        for (key, size, _) in found {
            let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
            index.total_bytes += size;
            index.entries.insert(key, EntryMeta { size, tick });
        }
        Ok(())
    }

    /// Enforce [`QuarantineLimits`]: purge entries past the age cap,
    /// then trim newest-first to the byte cap. Removals count as
    /// `scrubbed`.
    fn trim_quarantine(&self) {
        let qdir = self.root.join(QUARANTINE_DIR);
        let Ok(entries) = fs::read_dir(&qdir) else {
            return;
        };
        let now = SystemTime::now();
        // (path, size, modified) for entries young enough to keep.
        let mut kept: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            let modified = meta.modified().unwrap_or(UNIX_EPOCH);
            let age_ms = now
                .duration_since(modified)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            if age_ms > self.quarantine_limits.max_age_ms {
                if fs::remove_file(&path).is_ok() {
                    self.counters.scrubbed.inc();
                }
                continue;
            }
            kept.push((path, meta.len(), modified));
        }
        // Newest evidence is the most likely to still matter; the tail
        // past the byte cap goes.
        kept.sort_by_key(|entry| std::cmp::Reverse(entry.2));
        let mut total: u64 = 0;
        for (path, size, _) in kept {
            total = total.saturating_add(size);
            if total > self.quarantine_limits.max_bytes && fs::remove_file(&path).is_ok() {
                self.counters.scrubbed.inc();
            }
        }
    }

    fn touch(&self, key: &str) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut index = lock(&self.index);
        if let Some(meta) = index.entries.get_mut(key) {
            meta.tick = tick;
        }
    }

    fn forget(&self, key: &str) -> Option<u64> {
        let mut index = lock(&self.index);
        let meta = index.entries.remove(key)?;
        index.total_bytes = index.total_bytes.saturating_sub(meta.size);
        Some(meta.size)
    }

    fn enforce_budget(&self) {
        let Some(budget) = self.budget_bytes else {
            return;
        };
        loop {
            let victim = {
                let index = lock(&self.index);
                if index.total_bytes <= budget {
                    return;
                }
                index
                    .entries
                    .iter()
                    .min_by_key(|(_, meta)| meta.tick)
                    .map(|(key, _)| key.clone())
            };
            let Some(key) = victim else {
                return;
            };
            if self.forget(&key).is_some() {
                let _ = fs::remove_file(self.entry_path(&key));
                self.counters.evicted.inc();
            }
        }
    }

    /// Atomically persist one entry. Errors are reported (and counted)
    /// but callers treat persistence as best-effort: a failed write
    /// costs a future recompute, nothing more.
    pub fn put(
        &self,
        stage: StageId,
        key: &str,
        kind: &str,
        metrics_json: &str,
        payload: &[u8],
    ) -> io::Result<()> {
        let result = self.put_inner(stage, key, kind, metrics_json, payload);
        match &result {
            Ok(()) => self.counters.writes.inc(),
            Err(_) => self.counters.write_errors.inc(),
        }
        result
    }

    fn put_inner(
        &self,
        stage: StageId,
        key: &str,
        kind: &str,
        metrics_json: &str,
        payload: &[u8],
    ) -> io::Result<()> {
        let mut w = ByteWriter::new();
        w.raw(MAGIC);
        w.u32(HEADER_VERSION);
        w.str(FLOW_VERSION);
        w.str(stage.name());
        w.str(key);
        w.str(kind);
        w.str(&digest_hex(&[metrics_json.as_bytes(), payload]));
        w.str(metrics_json);
        w.bytes(payload);
        let encoded = w.into_bytes();

        let shard = self.shard_dir(key);
        let final_path = shard.join(key);
        fs::create_dir_all(&shard)?;

        let n = self.temp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = shard.join(format!(".{}-{n}.tmp", std::process::id()));
        let write = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(&encoded)?;
            f.sync_all()?;
            fs::rename(&tmp, &final_path)?;
            // Make the rename itself durable where the platform allows
            // opening directories; failure only weakens crash-freshness.
            if let Ok(dir) = File::open(&shard) {
                let _ = dir.sync_all();
            }
            Ok(())
        })();
        if write.is_err() {
            let _ = fs::remove_file(&tmp);
            return write;
        }

        let size = encoded.len() as u64;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut index = lock(&self.index);
            if let Some(old) = index
                .entries
                .insert(key.to_string(), EntryMeta { size, tick })
            {
                index.total_bytes = index.total_bytes.saturating_sub(old.size);
            }
            index.total_bytes += size;
        }
        self.enforce_budget();
        Ok(())
    }

    /// Load and verify an entry. `Ok((payload, metrics_json))` only if
    /// every header field and the payload digest check out; any defect
    /// quarantines the entry and reports the reason.
    pub fn load(
        &self,
        stage: StageId,
        key: &str,
        kind: &str,
    ) -> Result<(Vec<u8>, String), LoadMiss> {
        let path = self.entry_path(key);
        let mut raw = Vec::new();
        match File::open(&path).and_then(|mut f| f.read_to_end(&mut raw)) {
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.counters.disk_misses.inc();
                return Err(LoadMiss::Absent);
            }
            Err(e) => {
                self.counters.disk_misses.inc();
                return Err(self.quarantine(key, &format!("unreadable: {e}")));
            }
        }

        match verify_entry(&raw, stage, key, kind) {
            Ok(ok) => {
                self.counters.disk_hits.inc();
                self.touch(key);
                // Reads don't reliably update atime (relatime/noatime
                // mounts), so stamp it by hand — recency must survive a
                // restart for the LRU seed to mean anything.
                let _ = File::options().write(true).open(&path).and_then(|f| {
                    f.set_times(fs::FileTimes::new().set_accessed(std::time::SystemTime::now()))
                });
                Ok(ok)
            }
            Err(reason) => {
                self.counters.disk_misses.inc();
                Err(self.quarantine(key, &reason))
            }
        }
    }

    /// Read the raw, self-verifying entry bytes for `key` — the exact
    /// payload the farm's replication ships between nodes. The entry
    /// is re-verified before it is served: a corrupt entry is
    /// quarantined and reported as `None`, so a node can never hand a
    /// peer bytes it would not trust itself.
    pub fn raw_entry(&self, stage: StageId, key: &str, kind: &str) -> Option<Vec<u8>> {
        let path = self.entry_path(key);
        let mut raw = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut raw))
            .ok()?;
        match verify_entry(&raw, stage, key, kind) {
            Ok(_) => {
                self.touch(key);
                Some(raw)
            }
            Err(reason) => {
                self.quarantine(key, &reason);
                None
            }
        }
    }

    /// Verify raw entry bytes received from a peer and, on success,
    /// install them locally (atomic, best-effort — an install failure
    /// still returns the verified payload). On verification failure the
    /// bytes are written to quarantine as evidence and counted, and the
    /// reason is returned — the caller treats that as a miss, never an
    /// error.
    pub fn admit_raw(
        &self,
        stage: StageId,
        key: &str,
        kind: &str,
        raw: &[u8],
    ) -> Result<(Vec<u8>, String), String> {
        match verify_entry(raw, stage, key, kind) {
            Ok((payload, metrics)) => {
                // Re-encoding from the verified parts is deterministic,
                // so the installed entry is byte-identical to `raw`.
                let _ = self.put(stage, key, kind, &metrics, &payload);
                Ok((payload, metrics))
            }
            Err(reason) => {
                let to = self.quarantine_path(key);
                let _ = fs::write(&to, raw);
                self.counters.quarantined.inc();
                self.trim_quarantine();
                Err(reason)
            }
        }
    }

    /// Move an entry aside (it decoded structurally but failed a later
    /// check, e.g. the artifact decoder rejected the payload) so it is
    /// never consulted again, and count it.
    pub fn quarantine(&self, key: &str, reason: &str) -> LoadMiss {
        let from = self.entry_path(key);
        let to = self.quarantine_path(key);
        // Rename preferred (keeps the evidence); deletion is an
        // acceptable fallback — the point is it stops matching the key.
        if fs::rename(&from, &to).is_err() {
            let _ = fs::remove_file(&from);
        }
        self.forget(key);
        self.counters.quarantined.inc();
        // Keep the holding area bounded even within one long process
        // lifetime (a decaying disk can quarantine entries for months).
        self.trim_quarantine();
        LoadMiss::Quarantined(reason.to_string())
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.index).entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of live entries.
    pub fn total_bytes(&self) -> u64 {
        lock(&self.index).total_bytes
    }

    pub fn counters(&self) -> StoreCounters {
        self.counters.clone()
    }

    /// Store health as a JSON object (embedded in the cache stats).
    pub fn stats_json(&self) -> serde_json::Value {
        let c = &self.counters;
        let budget = match self.budget_bytes {
            Some(b) => serde_json::json!(b),
            None => serde_json::Value::Null,
        };
        serde_json::json!({
            "entries": self.len() as u64,
            "bytes": self.total_bytes(),
            "budget_bytes": budget,
            "disk_hits": c.disk_hits.get(),
            "disk_misses": c.disk_misses.get(),
            "quarantined": c.quarantined.get(),
            "evicted": c.evicted.get(),
            "writes": c.writes.get(),
            "write_errors": c.write_errors.get(),
            "scrubbed": c.scrubbed.get(),
        })
    }
}

/// Verify a raw entry against what the caller expects: magic, header and
/// flow versions, stage, key, kind, and the recomputed payload digest
/// must all match. Pure so it can be tested without touching a
/// filesystem.
fn verify_entry(
    raw: &[u8],
    stage: StageId,
    key: &str,
    kind: &str,
) -> Result<(Vec<u8>, String), String> {
    let mut r = ByteReader::new(raw);
    let parse = (|| {
        let magic = r.take(MAGIC.len())?;
        if magic != MAGIC {
            return Err(fpga_netlist::CodecError("bad magic".into()));
        }
        let header_version = r.u32()?;
        let flow_version = r.str()?;
        let stage_name = r.str()?;
        let stored_key = r.str()?;
        let stored_kind = r.str()?;
        let digest = r.str()?;
        let metrics = r.str()?;
        let payload = r.bytes()?.to_vec();
        r.finish()?;
        Ok((
            header_version,
            flow_version,
            stage_name,
            stored_key,
            stored_kind,
            digest,
            metrics,
            payload,
        ))
    })();
    let (
        header_version,
        flow_version,
        stage_name,
        stored_key,
        stored_kind,
        digest,
        metrics,
        payload,
    ) = parse.map_err(|e| format!("malformed entry: {e}"))?;

    if header_version != HEADER_VERSION {
        return Err(format!(
            "header version {header_version} != {HEADER_VERSION}"
        ));
    }
    if flow_version != FLOW_VERSION {
        return Err(format!("flow version {flow_version:?} != {FLOW_VERSION:?}"));
    }
    if stage_name != stage.name() {
        return Err(format!("stage {stage_name:?} != {:?}", stage.name()));
    }
    if stored_key != key {
        return Err("key mismatch".into());
    }
    if stored_kind != kind {
        return Err(format!("artifact kind {stored_kind:?} != {kind:?}"));
    }
    let actual = digest_hex(&[metrics.as_bytes(), &payload]);
    if digest != actual {
        return Err("payload digest mismatch".into());
    }
    Ok((payload, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::stage_key;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ifdf-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key_for(stage: StageId, tag: &str) -> String {
        stage_key(stage, &[tag])
    }

    #[test]
    fn round_trips_and_counts_hits() {
        let root = tmp_root("roundtrip");
        let store = DiskStore::open(&root, None).unwrap();
        let key = key_for(StageId::Pack, "a");
        store
            .put(StageId::Pack, &key, "clustering", "{\"n\":1}", b"payload")
            .unwrap();
        let (payload, metrics) = store.load(StageId::Pack, &key, "clustering").unwrap();
        assert_eq!(payload, b"payload");
        assert_eq!(metrics, "{\"n\":1}");
        let c = store.counters();
        assert_eq!(
            (c.disk_hits.get(), c.disk_misses.get(), c.writes.get()),
            (1, 0, 1)
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn absent_key_is_a_plain_miss() {
        let root = tmp_root("absent");
        let store = DiskStore::open(&root, None).unwrap();
        let key = key_for(StageId::Place, "nope");
        assert_eq!(
            store.load(StageId::Place, &key, "placement"),
            Err(LoadMiss::Absent)
        );
        assert_eq!(store.counters().disk_misses, 1);
        assert_eq!(store.counters().quarantined, 0);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn survives_reopen() {
        let root = tmp_root("reopen");
        let key = key_for(StageId::Route, "r");
        {
            let store = DiskStore::open(&root, None).unwrap();
            store
                .put(StageId::Route, &key, "routed-design", "{}", b"tree")
                .unwrap();
        }
        let store = DiskStore::open(&root, None).unwrap();
        assert_eq!(store.len(), 1);
        let (payload, _) = store.load(StageId::Route, &key, "routed-design").unwrap();
        assert_eq!(payload, b"tree");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn every_single_byte_flip_is_quarantined() {
        let root = tmp_root("bitflip");
        let key = key_for(StageId::Power, "p");
        let store = DiskStore::open(&root, None).unwrap();
        store
            .put(StageId::Power, &key, "power-report", "{}", b"wattage")
            .unwrap();
        let path = store.entry_path(&key);
        let pristine = fs::read(&path).unwrap();
        for i in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[i] ^= 0x40;
            fs::write(&path, &bad).unwrap();
            match store.load(StageId::Power, &key, "power-report") {
                Err(LoadMiss::Quarantined(_)) => {}
                other => panic!("flip at byte {i} not quarantined: {other:?}"),
            }
            // Re-seed for the next flip (quarantine moved the file).
            store
                .put(StageId::Power, &key, "power-report", "{}", b"wattage")
                .unwrap();
        }
        assert_eq!(store.counters().quarantined.get() as usize, pristine.len());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncation_is_quarantined() {
        let root = tmp_root("trunc");
        let key = key_for(StageId::Bitstream, "b");
        let store = DiskStore::open(&root, None).unwrap();
        store
            .put(StageId::Bitstream, &key, "bitstream", "{}", b"framesframes")
            .unwrap();
        let path = store.entry_path(&key);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(matches!(
            store.load(StageId::Bitstream, &key, "bitstream"),
            Err(LoadMiss::Quarantined(_))
        ));
        // The entry no longer matches its key: next load is a clean miss.
        assert_eq!(
            store.load(StageId::Bitstream, &key, "bitstream"),
            Err(LoadMiss::Absent)
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn wrong_stage_kind_or_version_rejected() {
        let root = tmp_root("headers");
        let key = key_for(StageId::Pack, "h");
        let store = DiskStore::open(&root, None).unwrap();
        store
            .put(StageId::Pack, &key, "clustering", "{}", b"x")
            .unwrap();
        assert!(matches!(
            store.load(StageId::Place, &key, "clustering"),
            Err(LoadMiss::Quarantined(_))
        ));
        store
            .put(StageId::Pack, &key, "clustering", "{}", b"x")
            .unwrap();
        assert!(matches!(
            store.load(StageId::Pack, &key, "netlist"),
            Err(LoadMiss::Quarantined(_))
        ));
        fs::remove_dir_all(&root).unwrap();
    }

    /// Backdate a file's mtime by `age_ms` so age-cap tests don't sleep.
    fn backdate(path: &Path, age_ms: u64) {
        let then = SystemTime::now() - std::time::Duration::from_millis(age_ms);
        File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_times(fs::FileTimes::new().set_modified(then)))
            .unwrap();
    }

    #[test]
    fn startup_scrub_removes_temp_and_stale_quarantine() {
        let root = tmp_root("scrub");
        let key = key_for(StageId::Synthesis, "s");
        {
            let store = DiskStore::open(&root, None).unwrap();
            store
                .put(StageId::Synthesis, &key, "netlist", "{}", b"nl")
                .unwrap();
            // Simulate a crash mid-write, an old quarantine past the age
            // cap, and a fresh quarantine still worth an autopsy.
            let shard = store.entry_path(&key);
            fs::write(shard.parent().unwrap().join(".999-0.tmp"), b"partial").unwrap();
            let stale = root.join(QUARANTINE_DIR).join("oldbad");
            fs::write(&stale, b"junk").unwrap();
            backdate(&stale, 48 * 60 * 60 * 1_000);
            fs::write(root.join(QUARANTINE_DIR).join("freshbad"), b"junk").unwrap();
        }
        let store = DiskStore::open(&root, None).unwrap();
        assert_eq!(store.len(), 1);
        assert!(store.counters().scrubbed.get() >= 2);
        assert!(store.load(StageId::Synthesis, &key, "netlist").is_ok());
        let leftovers: Vec<_> = fs::read_dir(root.join(QUARANTINE_DIR))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(leftovers, vec!["freshbad"], "young evidence is kept");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn quarantine_byte_cap_keeps_newest_evidence() {
        let root = tmp_root("qcap");
        let limits = QuarantineLimits {
            max_bytes: 25,
            max_age_ms: u64::MAX / 2,
        };
        {
            let store = DiskStore::open(&root, None).unwrap();
            drop(store);
            // Four 10-byte casualties, oldest first; a 25-byte cap keeps
            // the newest two.
            for (i, age_ms) in [4_000u64, 3_000, 2_000, 1_000].iter().enumerate() {
                let path = root.join(QUARANTINE_DIR).join(format!("bad{i}"));
                fs::write(&path, [0u8; 10]).unwrap();
                backdate(&path, *age_ms);
            }
        }
        let _store = DiskStore::open_with_limits(&root, None, limits).unwrap();
        let mut left: Vec<String> = fs::read_dir(root.join(QUARANTINE_DIR))
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        left.sort();
        assert_eq!(left, vec!["bad2", "bad3"], "newest two under the cap");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn runtime_quarantine_trims_as_it_grows() {
        let root = tmp_root("qlive");
        let limits = QuarantineLimits {
            max_bytes: 1, // every prior casualty is over-cap immediately
            max_age_ms: u64::MAX / 2,
        };
        let store = DiskStore::open_with_limits(&root, None, limits).unwrap();
        let key = key_for(StageId::Pack, "live");
        for _ in 0..5 {
            store
                .put(StageId::Pack, &key, "clustering", "{}", b"payload")
                .unwrap();
            let path = store.entry_path(&key);
            let mut raw = fs::read(&path).unwrap();
            let last = raw.len() - 1;
            raw[last] ^= 0xff;
            fs::write(&path, &raw).unwrap();
            assert!(matches!(
                store.load(StageId::Pack, &key, "clustering"),
                Err(LoadMiss::Quarantined(_))
            ));
        }
        assert_eq!(store.counters().quarantined, 5);
        let survivors = fs::read_dir(root.join(QUARANTINE_DIR)).unwrap().count();
        assert!(
            survivors <= 1,
            "quarantine grew past its cap mid-run: {survivors} files"
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn raw_entry_round_trips_through_admit_raw() {
        let root_a = tmp_root("rawa");
        let root_b = tmp_root("rawb");
        let a = DiskStore::open(&root_a, None).unwrap();
        let b = DiskStore::open(&root_b, None).unwrap();
        let key = key_for(StageId::Route, "ship");
        a.put(StageId::Route, &key, "routed-design", "{\"w\":9}", b"tree")
            .unwrap();

        let raw = a.raw_entry(StageId::Route, &key, "routed-design").unwrap();
        let (payload, metrics) = b
            .admit_raw(StageId::Route, &key, "routed-design", &raw)
            .unwrap();
        assert_eq!(payload, b"tree");
        assert_eq!(metrics, "{\"w\":9}");
        // The admitted entry is a first-class local entry now.
        let (payload, _) = b.load(StageId::Route, &key, "routed-design").unwrap();
        assert_eq!(payload, b"tree");
        // And byte-identical to the original (deterministic encoding).
        assert_eq!(
            b.raw_entry(StageId::Route, &key, "routed-design").unwrap(),
            raw
        );
        fs::remove_dir_all(&root_a).unwrap();
        fs::remove_dir_all(&root_b).unwrap();
    }

    #[test]
    fn corrupt_admit_raw_is_refused_and_quarantined() {
        let root_a = tmp_root("rawrot-a");
        let root_b = tmp_root("rawrot-b");
        let a = DiskStore::open(&root_a, None).unwrap();
        let b = DiskStore::open(&root_b, None).unwrap();
        let key = key_for(StageId::Bitstream, "rot");
        a.put(StageId::Bitstream, &key, "bitstream", "{}", b"frames")
            .unwrap();
        let pristine = a.raw_entry(StageId::Bitstream, &key, "bitstream").unwrap();

        // Every single-byte flip of the transfer is caught.
        for i in [0, pristine.len() / 2, pristine.len() - 1] {
            let mut bad = pristine.clone();
            bad[i] ^= 0x01;
            assert!(
                b.admit_raw(StageId::Bitstream, &key, "bitstream", &bad)
                    .is_err(),
                "flip at byte {i} admitted"
            );
        }
        // A truncated transfer too.
        assert!(b
            .admit_raw(
                StageId::Bitstream,
                &key,
                "bitstream",
                &pristine[..pristine.len() - 2]
            )
            .is_err());
        assert_eq!(b.counters().quarantined, 4, "evidence kept and counted");
        assert_eq!(b.len(), 0, "nothing was installed");
        assert_eq!(
            b.load(StageId::Bitstream, &key, "bitstream"),
            Err(LoadMiss::Absent)
        );
        fs::remove_dir_all(&root_a).unwrap();
        fs::remove_dir_all(&root_b).unwrap();
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let root = tmp_root("lru");
        let store = DiskStore::open(&root, None).unwrap();
        let keys: Vec<String> = (0..4)
            .map(|i| key_for(StageId::LutMap, &format!("k{i}")))
            .collect();
        for key in &keys {
            store
                .put(StageId::LutMap, key, "netlist", "{}", &[0u8; 64])
                .unwrap();
            // Space out creation stamps: the reopen seeds recency from
            // file times, which may have coarse granularity.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let entry_size = store.total_bytes() / 4;
        // Touch k0 so k1 becomes the LRU victim.
        store.load(StageId::LutMap, &keys[0], "netlist").unwrap();
        drop(store);

        // Reopen with room for three entries.
        let store = DiskStore::open(&root, Some(entry_size * 3 + 1)).unwrap();
        assert_eq!(store.len(), 3);
        assert!(store.counters().evicted.get() >= 1);
        assert!(store.load(StageId::LutMap, &keys[0], "netlist").is_ok());
        assert_eq!(
            store.load(StageId::LutMap, &keys[1], "netlist"),
            Err(LoadMiss::Absent)
        );
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn put_over_budget_evicts_immediately() {
        let root = tmp_root("putbudget");
        let probe = DiskStore::open(&root, None).unwrap();
        let k = key_for(StageId::Verify, "probe");
        probe
            .put(StageId::Verify, &k, "verified", "{}", &[])
            .unwrap();
        let one = probe.total_bytes();
        drop(probe);
        let _ = fs::remove_dir_all(&root);

        let store = DiskStore::open(&root, Some(one * 2)).unwrap();
        for i in 0..5 {
            let key = key_for(StageId::Verify, &format!("v{i}"));
            store
                .put(StageId::Verify, &key, "verified", "{}", &[])
                .unwrap();
        }
        assert!(store.len() <= 2);
        assert!(store.total_bytes() <= one * 2);
        assert_eq!(store.counters().evicted, 3);
        fs::remove_dir_all(&root).unwrap();
    }
}
