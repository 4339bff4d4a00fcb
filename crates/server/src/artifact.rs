//! Daemon-side client for the farm's shared artifact tier.
//!
//! When `flowd` runs with `--artifact-gateway`, its stage cache gets a
//! [`RemoteTierClient`] as its [`RemoteTier`]: on a local miss the cache
//! asks the gateway (`artifact_get`) whether an affinity peer already
//! holds the stage's raw store entry, and after a local compute it
//! offers the fresh entry back (`artifact_put`).
//!
//! The tier is strictly best-effort, and every failure path degrades to
//! a local recompute — never a job error:
//!
//! * each exchange is bounded by a connect/read/write timeout;
//! * a fetch makes at most [`FETCH_ATTEMPTS`] attempts with capped,
//!   jittered backoff between them;
//! * failures feed a [`CircuitBreaker`], so while the gateway is down
//!   fetches are skipped outright (a counter, not a stall);
//! * fetched bytes are *not* trusted here — the cache re-verifies the
//!   entry's digest via `DiskStore::admit_raw`, and a corrupt or
//!   truncated transfer is quarantined and treated as a miss.
//!
//! Worst case, a fetch costs `FETCH_ATTEMPTS` timed-out exchanges plus
//! one capped backoff sleep — a few seconds at the default 1s timeout —
//! after which the stage computes locally inside whatever deadline the
//! job still has. The deadline check runs at stage boundaries either
//! way, so the artifact tier can delay a job, never wedge it.

use std::sync::Mutex;
use std::time::Duration;

use fpga_flow::sync::lock;
use fpga_flow::RemoteTier;

use crate::breaker::{backoff_step, CircuitBreaker, MsClock};
use crate::metrics::RemoteTierCounters;
use crate::net;
use crate::proto::{self, Event, Request};

/// Attempts per fetch (1 initial + 1 retry). Publishes never retry.
pub const FETCH_ATTEMPTS: u32 = 2;
/// First inter-attempt backoff; doubled (and jittered) up to the cap.
const BACKOFF_BASE_MS: u64 = 50;
const BACKOFF_CAP_MS: u64 = 250;
/// Consecutive failures that open the breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// Quiet period before the breaker half-opens for one probe fetch.
const BREAKER_REOPEN_MS: u64 = 2_000;

/// [`RemoteTier`] implementation speaking the proto-5 artifact verbs to
/// a `flow-gateway`.
pub struct RemoteTierClient {
    gateway: String,
    timeout: Duration,
    max_line_bytes: usize,
    breaker: Mutex<CircuitBreaker>,
    rng: Mutex<u64>,
    clock: MsClock,
    /// Live counts; `breaker` is only filled in by [`Self::counters`].
    counters: RemoteTierCounters,
}

impl RemoteTierClient {
    pub fn new(gateway: String, timeout_ms: u64, max_line_bytes: usize) -> Self {
        RemoteTierClient {
            gateway,
            timeout: Duration::from_millis(timeout_ms.max(1)),
            max_line_bytes,
            breaker: Mutex::new(CircuitBreaker::new(
                BREAKER_THRESHOLD,
                BREAKER_REOPEN_MS,
                0x5eed_a57e,
            )),
            rng: Mutex::new(0x5eed_a57e),
            clock: MsClock::start(),
            counters: RemoteTierCounters::default(),
        }
    }

    /// Snapshot for the daemon's `metrics` verb.
    pub fn counters(&self) -> RemoteTierCounters {
        RemoteTierCounters {
            breaker: lock(&self.breaker).state(),
            ..self.counters.clone()
        }
    }
}

/// Extract a hit's payload. Anything else — a miss, a v4 daemon's
/// "unknown cmd" error, garbled hex — is a miss, never an error.
fn artifact_payload(reply: Event) -> Option<Vec<u8>> {
    match reply {
        Event::Artifact {
            hit: true,
            data_hex: Some(hex),
            ..
        } => proto::from_hex(&hex).ok(),
        _ => None,
    }
}

impl RemoteTier for RemoteTierClient {
    fn fetch(&self, stage: &'static str, key: &str, kind: &'static str) -> Option<Vec<u8>> {
        if !lock(&self.breaker).allow(self.clock.now_ms()) {
            self.counters.breaker_skips.inc();
            return None;
        }
        let req = Request::ArtifactGet {
            stage: stage.to_string(),
            key: key.to_string(),
            kind: kind.to_string(),
        };
        let mut window_ms = BACKOFF_BASE_MS;
        for attempt in 0..FETCH_ATTEMPTS {
            if attempt > 0 {
                let sleep_ms = backoff_step(&mut window_ms, BACKOFF_CAP_MS, &mut lock(&self.rng));
                std::thread::sleep(Duration::from_millis(sleep_ms));
                if !lock(&self.breaker).allow(self.clock.now_ms()) {
                    break;
                }
            }
            match net::exchange(&self.gateway, &req, self.timeout, self.max_line_bytes) {
                Ok(reply) => {
                    lock(&self.breaker).on_success();
                    if let Some(raw) = artifact_payload(reply) {
                        self.counters.fetch_hits.inc();
                        self.counters.bytes_fetched.add(raw.len() as u64);
                        return Some(raw);
                    }
                    self.counters.fetch_misses.inc();
                    return None;
                }
                Err(_) => {
                    lock(&self.breaker).on_failure(self.clock.now_ms());
                }
            }
        }
        self.counters.fetch_failures.inc();
        None
    }

    fn publish(&self, stage: &'static str, key: &str, kind: &'static str, raw: &[u8]) {
        if !lock(&self.breaker).allow(self.clock.now_ms()) {
            self.counters.breaker_skips.inc();
            return;
        }
        let req = Request::ArtifactPut {
            stage: stage.to_string(),
            key: key.to_string(),
            kind: kind.to_string(),
            data_hex: proto::to_hex(raw),
        };
        match net::exchange(&self.gateway, &req, self.timeout, self.max_line_bytes) {
            Ok(reply) => {
                lock(&self.breaker).on_success();
                if matches!(reply, Event::ArtifactAck { stored: true, .. }) {
                    self.counters.published.inc();
                } else {
                    self.counters.publish_failures.inc();
                }
            }
            Err(_) => {
                lock(&self.breaker).on_failure(self.clock.now_ms());
                self.counters.publish_failures.inc();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A one-shot fake gateway: accepts one connection, reads one
    /// request line, answers with the given event, closes.
    fn fake_gateway(reply: Event) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        std::thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let _ = proto::read_line_limited(&mut reader, 1 << 20);
                let _ = proto::write_line(&mut writer, &reply.to_value());
            }
        });
        addr
    }

    #[test]
    fn fetch_returns_a_hit_payload_and_counts_bytes() {
        let payload = b"raw store entry bytes".to_vec();
        let addr = fake_gateway(Event::Artifact {
            stage: "synthesis".into(),
            key: "k".into(),
            hit: true,
            data_hex: Some(proto::to_hex(&payload)),
        });
        let client = RemoteTierClient::new(addr, 2_000, 1 << 20);
        assert_eq!(client.fetch("synthesis", "k", "netlist"), Some(payload));
        let c = client.counters();
        assert_eq!(c.fetch_hits, 1);
        assert_eq!(c.bytes_fetched, 21);
        assert_eq!(c.breaker, BreakerState::Closed);
    }

    #[test]
    fn fetch_treats_a_miss_reply_as_none() {
        let addr = fake_gateway(Event::Artifact {
            stage: "synthesis".into(),
            key: "k".into(),
            hit: false,
            data_hex: None,
        });
        let client = RemoteTierClient::new(addr, 2_000, 1 << 20);
        assert_eq!(client.fetch("synthesis", "k", "netlist"), None);
        assert_eq!(client.counters().fetch_misses, 1);
        assert_eq!(client.counters().fetch_failures, 0);
    }

    #[test]
    fn fetch_degrades_when_the_gateway_is_down_and_breaker_opens() {
        // Nothing listens here; connects are refused immediately.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
            // listener dropped: the port is closed again
        };
        let client = RemoteTierClient::new(dead, 200, 1 << 20);
        assert_eq!(client.fetch("synthesis", "k", "netlist"), None);
        assert_eq!(client.fetch("synthesis", "k", "netlist"), None);
        let c = client.counters();
        assert!(c.fetch_failures.get() >= 1, "errors counted: {c:?}");
        // 2 attempts per fetch and a threshold of 3: by now it's open,
        // and the next fetch is a skip, not a stall.
        assert_eq!(c.breaker, BreakerState::Open);
        assert_eq!(client.fetch("synthesis", "k", "netlist"), None);
        assert!(client.counters().breaker_skips.get() >= 1);
    }

    /// The retry sleeps of six fetches in a row — each fetch restarts at
    /// the base window, the client's jitter stream runs on — as recorded
    /// through `fetch` before the step moved to `breaker::backoff_step`.
    #[test]
    fn fetch_retry_sleeps_keep_their_recorded_schedule() {
        let client = RemoteTierClient::new("127.0.0.1:9".into(), 1, 1 << 20);
        let sleeps: Vec<u64> = (0..6)
            .map(|_| {
                let mut window_ms = BACKOFF_BASE_MS;
                backoff_step(&mut window_ms, BACKOFF_CAP_MS, &mut lock(&client.rng))
            })
            .collect();
        assert_eq!(sleeps, [28, 29, 34, 32, 28, 29]);
    }

    #[test]
    fn publish_counts_ack_outcomes() {
        let addr = fake_gateway(Event::ArtifactAck {
            stored: true,
            message: None,
        });
        let client = RemoteTierClient::new(addr, 2_000, 1 << 20);
        client.publish("synthesis", "k", "netlist", b"bytes");
        assert_eq!(client.counters().published, 1);
        // Second publish hits a dead port (the fake served once).
        client.publish("synthesis", "k", "netlist", b"bytes");
        assert_eq!(client.counters().publish_failures, 1);
    }
}
