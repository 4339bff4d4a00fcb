//! Daemon-side client of the farm's replication.
//!
//! When `flowd` runs with `--artifact-gateway`, its stage cache gets a
//! [`RemoteTierClient`] as its [`RemoteTier`]: after a local compute the
//! cache offers the fresh raw store entry, and the client sends it to
//! the gateway (`artifact_put`), which copies it into two backends'
//! durable stores. A daemon never asks the farm for an entry; it serves
//! a stage from its own memory or disk, or computes it.
//!
//! Publishing is strictly best-effort and never fails a job: each
//! exchange is bounded by a connect/read/write timeout, failures feed a
//! [`CircuitBreaker`] (so while the gateway is down publishes are
//! skipped outright — a counter, not a stall), and the receivers
//! re-verify every entry's digest before storing it.

use std::sync::Mutex;
use std::time::Duration;

use fpga_flow::sync::lock;
use fpga_flow::RemoteTier;

use crate::breaker::{CircuitBreaker, MsClock};
use crate::metrics::RemoteTierCounters;
use crate::net;
use crate::proto::{self, Event, Request};

/// Consecutive failures that open the breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// Quiet period before the breaker half-opens for one probe publish.
const BREAKER_REOPEN_MS: u64 = 2_000;

/// [`RemoteTier`] implementation speaking `artifact_put` to a
/// `flow-gateway`.
pub struct RemoteTierClient {
    gateway: String,
    timeout: Duration,
    max_line_bytes: usize,
    breaker: Mutex<CircuitBreaker>,
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

impl RemoteTier for RemoteTierClient {
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
    fn publish_degrades_when_the_gateway_is_down_and_breaker_opens() {
        // Nothing listens here; connects are refused immediately.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr").to_string()
            // listener dropped: the port is closed again
        };
        let client = RemoteTierClient::new(dead, 200, 1 << 20);
        for _ in 0..BREAKER_THRESHOLD {
            client.publish("synthesis", "k", "netlist", b"bytes");
        }
        let c = client.counters();
        assert_eq!(c.publish_failures, u64::from(BREAKER_THRESHOLD));
        // The breaker is open: the next publish is a skip, not a stall.
        assert_eq!(c.breaker, BreakerState::Open);
        client.publish("synthesis", "k", "netlist", b"bytes");
        assert_eq!(client.counters().breaker_skips, 1);
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
