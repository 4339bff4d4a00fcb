//! The one NDJSON transport: every socket `flowd`, `flow-gateway` and
//! `flowc` bind, accept, connect or put a timeout on goes through this
//! module (the `sockets` row of `tests/source_rules.rs` fails on a
//! socket call anywhere else in the crate).
//!
//! * **Listen side** — [`serve`] owns a node's endpoint: accept,
//!   admission (shutdown notice, connection cap), the idle timeout, the
//!   bounded read → parse → dispatch loop with its one `match` over
//!   [`Request`], the shutdown poke and the connection drain. What a
//!   verb *does* is the [`Node`]'s business; how a connection is
//!   guarded and how `ping`/`status`/`metrics` are framed is
//!   decided here, once, for both roles.
//! * **Dial side** — [`dial`] opens every outbound connection, and
//!   [`exchange`] is the one short request/reply hop (health probe,
//!   cache scrape, artifact replication).
//!
//! One socket-option policy, decided here and nowhere else: every TCP
//! socket the system opens ([`dial`]) or accepts ([`serve`]) has
//! `TCP_NODELAY` set, and every line leaves through
//! [`proto::write_line`] as a single write. The two belong together. An
//! exchange is write–write–read in each direction (request line, then a
//! burst of event lines, the last one large), and with Nagle's algorithm
//! on, the sender holds each sub-segment tail until the previous write
//! is acknowledged while the receiver's delayed ACK waits ~40 ms for
//! data to piggyback on: one stall per hop direction, 88 ms on a
//! gateway-fronted cache hit that computes for under 2 ms. Unix-domain
//! sockets have neither mechanism and are left alone.

use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::metrics::Connections;
use crate::proto::{self, conn_error, CompileRequest, Event, JobKind, Request, PROTO_VERSION};

/// Either transport, behind one blocking interface.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// The buffered read half and the write half of one connection.
    fn split(self) -> io::Result<(BufReader<Stream>, Stream)> {
        let writer = match &self {
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
        };
        Ok((BufReader::new(self), writer))
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// Open a TCP connection and split it. `reach` bounds getting a request
/// to the peer — the connect (first resolved address) and every write —
/// so a peer that accepted and then stopped reading cannot hold the
/// caller; `None` blocks like a plain connect. `read_timeout` bounds
/// each wait for the peer's next line.
pub(crate) fn dial(
    addr: impl ToSocketAddrs,
    reach: Option<Duration>,
    read_timeout: Option<Duration>,
) -> io::Result<(BufReader<Stream>, Stream)> {
    let stream = match reach {
        None => TcpStream::connect(addr)?,
        Some(timeout) => {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::AddrNotAvailable,
                    "address resolves to nothing",
                )
            })?;
            TcpStream::connect_timeout(&sock, timeout)?
        }
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(read_timeout)?;
    stream.set_write_timeout(reach)?;
    Stream::Tcp(stream).split()
}

/// [`dial`] for a Unix-domain socket (local: no timeouts).
pub(crate) fn dial_unix(path: &Path) -> io::Result<(BufReader<Stream>, Stream)> {
    #[cfg(unix)]
    {
        Stream::Unix(UnixStream::connect(path)?).split()
    }
    #[cfg(not(unix))]
    {
        Err(unix_unsupported(path))
    }
}

#[cfg(not(unix))]
fn unix_unsupported(_path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        "unix sockets are not available on this platform",
    )
}

/// One short request/reply hop: dial, send `req`, read one line and
/// parse it as an [`Event`]. Connect, write and read are each bounded by
/// `timeout`, and the reply by `max_line_bytes` like every other read in
/// the farm — a misbehaving peer cannot balloon the caller's memory with
/// one endless line. A reply that is not an event this build knows is
/// `InvalidData`, like a line that is not JSON.
pub(crate) fn exchange(
    addr: &str,
    req: &Request,
    timeout: Duration,
    max_line_bytes: usize,
) -> io::Result<Event> {
    let (mut reader, mut writer) = dial(addr, Some(timeout), Some(timeout))?;
    proto::write_line(&mut writer, &req.to_value())?;
    let reply = proto::read_line_limited(&mut reader, max_line_bytes)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "peer closed before replying")
    })?;
    proto::parse_event(&reply)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// The connection guards of one endpoint, fixed when the node starts.
pub(crate) struct Limits {
    /// Concurrently served connections; one more is told `overloaded`.
    pub max_connections: usize,
    /// Wait for a client's next request line; `None` waits forever.
    pub idle_timeout_ms: Option<u64>,
    /// Bytes in one request line.
    pub max_line_bytes: usize,
    /// Backoff hint sent with an `overloaded` rejection.
    pub retry_after_ms: u64,
}

/// Connection-level state of one endpoint: [`serve`] drives it, the
/// node's `status`/`metrics` bodies read it.
pub(crate) struct Conns {
    /// Thread-name prefix (`flowd` / `gw`).
    role: &'static str,
    limits: Limits,
    shutting_down: AtomicBool,
    open: AtomicU64,
    rejected: AtomicU64,
}

impl Conns {
    pub(crate) fn new(role: &'static str, limits: Limits) -> Conns {
        Conns {
            role,
            limits,
            shutting_down: AtomicBool::new(false),
            open: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    pub(crate) fn shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    pub(crate) fn open(&self) -> u64 {
        self.open.load(Ordering::SeqCst)
    }

    /// The `connections` object both roles' `status` carries: the
    /// connections being served, those refused at the cap, and the cap.
    pub(crate) fn status_json(&self) -> Value {
        let c = self.counts();
        let limit = self.limits.max_connections as u64;
        serde_json::json!({"open": c.open, "rejected": c.rejected, "limit": limit})
    }

    /// What the node's `metrics` reports of its connection guard.
    pub(crate) fn counts(&self) -> Connections {
        Connections {
            open: self.open(),
            rejected: self.rejected.load(Ordering::SeqCst),
        }
    }
}

/// What a role plugs into [`serve`]: what each verb does on this node.
/// Everything about the connection itself is `serve`'s.
pub(crate) trait Node: Send + Sync + 'static {
    fn conns(&self) -> &Conns;
    /// The `status` and JSON `metrics` bodies, framed.
    fn status(&self) -> Value;
    fn metrics_json(&self) -> Value;
    /// The text exposition a `metrics` text reply carries.
    fn metrics_text(&self) -> String;
    /// Run one job, streaming its events to `writer`. `false` when the
    /// client connection broke.
    fn submit(&self, kind: JobKind, req: CompileRequest, writer: &mut Stream) -> bool;
    fn artifact_put(&self, stage: &str, key: &str, kind: &str, data_hex: &str) -> Event;
    /// The role's own part of a shutdown, run once: after the flag is
    /// set, before the listeners are woken.
    fn begin_shutdown(&self) {}
}

/// Where an endpoint listens.
#[derive(Default)]
struct Addrs {
    tcp: Option<SocketAddr>,
    unix: Option<PathBuf>,
}

/// A served endpoint: its accept threads and where they listen.
pub(crate) struct Endpoint {
    node: Arc<dyn Node>,
    addrs: Arc<Addrs>,
    threads: Vec<JoinHandle<()>>,
}

type Accept = Box<dyn Fn() -> io::Result<Stream> + Send>;

/// Bind `tcp` (`host:port`; `:0` picks a free port) and/or the Unix
/// socket `unix`, and serve `node` on each from its own accept thread
/// until a `shutdown` verb or [`Endpoint::shutdown`].
pub(crate) fn serve(
    tcp: Option<&str>,
    unix: Option<&Path>,
    node: Arc<dyn Node>,
) -> io::Result<Endpoint> {
    let mut addrs = Addrs::default();
    let mut accepts: Vec<Accept> = Vec::new();
    if let Some(addr) = tcp {
        let listener = TcpListener::bind(addr)?;
        addrs.tcp = Some(listener.local_addr()?);
        accepts.push(Box::new(move || {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            Ok(Stream::Tcp(stream))
        }));
    }
    if let Some(path) = unix {
        #[cfg(unix)]
        {
            // A previous daemon's socket file would make bind fail.
            let _ = std::fs::remove_file(path);
            let listener = UnixListener::bind(path)?;
            addrs.unix = Some(path.to_path_buf());
            accepts.push(Box::new(move || {
                listener.accept().map(|(s, _)| Stream::Unix(s))
            }));
        }
        #[cfg(not(unix))]
        return Err(unix_unsupported(path));
    }
    let addrs = Arc::new(addrs);
    let mut threads = Vec::new();
    for accept in accepts {
        let (node, addrs) = (Arc::clone(&node), Arc::clone(&addrs));
        threads.push(
            thread::Builder::new()
                .name(format!("{}-accept", node.conns().role))
                .spawn(move || accept_loop(accept, &node, &addrs))?,
        );
    }
    Ok(Endpoint {
        node,
        addrs,
        threads,
    })
}

impl Endpoint {
    /// The bound TCP address (with the real port when `:0` was asked).
    pub(crate) fn tcp_addr(&self) -> Option<SocketAddr> {
        self.addrs.tcp
    }

    /// The bound Unix socket path.
    pub(crate) fn unix_path(&self) -> Option<&PathBuf> {
        self.addrs.unix.as_ref()
    }

    /// Stop accepting; connections already open keep being served.
    pub(crate) fn shutdown(&self) {
        trigger_shutdown(&*self.node, &self.addrs);
    }

    /// Block until the accept threads have stopped. Connection threads
    /// are detached, so joining the listeners does not prove the last
    /// ack left the building — in particular the `shutting_down` reply
    /// to the client that asked for the shutdown: in-flight connections
    /// get a bounded grace period to finish their final write before
    /// the process tears the sockets down. Calling it twice is a no-op.
    pub(crate) fn wait(&mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let deadline = Instant::now() + Duration::from_secs(2);
        while self.node.conns().open() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(5));
        }
        if let Some(path) = &self.addrs.unix {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Flip the flag, let the role drain, and wake every listener's
/// blocking `accept` with a no-op connection so it observes the flag
/// and exits.
fn trigger_shutdown(node: &dyn Node, addrs: &Addrs) {
    if node.conns().shutting_down.swap(true, Ordering::SeqCst) {
        return; // already triggered
    }
    node.begin_shutdown();
    if let Some(addr) = &addrs.tcp {
        let _ = TcpStream::connect_timeout(addr, Duration::from_millis(250));
    }
    #[cfg(unix)]
    if let Some(path) = &addrs.unix {
        let _ = UnixStream::connect(path);
    }
}

/// Decrements the open-connection gauge when a connection thread ends,
/// however it ends (including by panic).
struct ConnGuard(Arc<dyn Node>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.conns().open.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Admission control: the guard when the connection should be served,
/// `None` when it was told `overloaded` and must be dropped.
fn admit(stream: &mut Stream, node: &Arc<dyn Node>) -> Option<ConnGuard> {
    let conns = node.conns();
    let limit = conns.limits.max_connections;
    if conns.open.fetch_add(1, Ordering::SeqCst) >= limit as u64 {
        conns.open.fetch_sub(1, Ordering::SeqCst);
        conns.rejected.fetch_add(1, Ordering::SeqCst);
        let message = format!("too many connections ({limit} open)");
        let hint = Some(conns.limits.retry_after_ms);
        let _ = proto::write_line(stream, &conn_error(Some("overloaded"), message, hint));
        return None;
    }
    Some(ConnGuard(Arc::clone(node)))
}

/// Accept connections until shutdown, serving each admitted one on its
/// own thread.
fn accept_loop(accept: Accept, node: &Arc<dyn Node>, addrs: &Arc<Addrs>) {
    loop {
        let mut stream = match accept() {
            Ok(stream) => stream,
            Err(_) if node.conns().shutting_down() => return,
            Err(_) => continue,
        };
        if node.conns().shutting_down() {
            // A real client racing shutdown deserves a reason, not a
            // wordless hangup. (The shutdown poke also lands here; it
            // never reads, so the write is harmless.)
            let notice = conn_error(Some("shutting-down"), "shutting down", None);
            let _ = proto::write_line(&mut stream, &notice);
            return;
        }
        let Some(guard) = admit(&mut stream, node) else {
            continue;
        };
        let idle = node.conns().limits.idle_timeout_ms;
        let _ = stream.set_read_timeout(idle.map(|ms| Duration::from_millis(ms.max(1))));
        let (node, addrs) = (Arc::clone(node), Arc::clone(addrs));
        let _ = thread::Builder::new()
            .name(format!("{}-conn", node.conns().role))
            .spawn(move || {
                let _guard = guard;
                serve_connection(stream, &*node, &addrs);
            });
    }
}

/// Serve one client connection: a loop of request lines, each answered
/// by one or more event lines.
fn serve_connection(stream: Stream, node: &dyn Node, addrs: &Addrs) {
    let Ok((mut reader, mut writer)) = stream.split() else {
        return;
    };
    let max_line_bytes = node.conns().limits.max_line_bytes;
    loop {
        let line = match proto::read_line_limited(&mut reader, max_line_bytes) {
            Ok(Some(v)) => v,
            Ok(None) => return, // client hung up
            Err(e) => {
                // Every read failure is answered; on a dead transport
                // the write fails and that is the end of it.
                let (reply, keep_serving) = e.client_reply();
                if proto::write_line(&mut writer, &reply).is_err() || !keep_serving {
                    return;
                }
                continue;
            }
        };
        // Exhaustive: a new verb fails to compile until it is answered.
        let reply = match proto::parse_request_value(&line) {
            Err(message) => conn_error(None, message, None),
            Ok(Request::Ping) => Event::Pong {
                version: fpga_flow::FLOW_VERSION.to_string(),
                proto_version: PROTO_VERSION,
            }
            .to_value(),
            Ok(Request::Status) => Event::Status(node.status()).to_value(),
            Ok(Request::Metrics { text: false }) => Event::Metrics(node.metrics_json()).to_value(),
            Ok(Request::Metrics { text: true }) => {
                Event::Metrics(proto::metrics_text_body(node.metrics_text())).to_value()
            }
            Ok(Request::Shutdown) => {
                // Trigger BEFORE acknowledging: once the client reads the
                // ack, the node is already draining, so nothing submitted
                // afterwards can slip in and be served.
                trigger_shutdown(node, addrs);
                let _ = proto::write_line(&mut writer, &Event::ShuttingDown.to_value());
                return;
            }
            Ok(Request::Compile(req)) => {
                if !node.submit(JobKind::Compile, *req, &mut writer) {
                    return; // client gone mid-stream
                }
                continue;
            }
            Ok(Request::Check(kind, req)) => {
                if !node.submit(JobKind::Check(kind), *req, &mut writer) {
                    return;
                }
                continue;
            }
            Ok(Request::ArtifactPut {
                stage,
                key,
                kind,
                data_hex,
            }) => node.artifact_put(&stage, &key, &kind, &data_hex).to_value(),
        };
        let _ = proto::write_line(&mut writer, &reply);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    /// A one-connection fake peer: reads the request line, answers with
    /// `reply` (nothing when `None`), then holds the connection until
    /// the returned sender is dropped.
    fn fake_peer(reply: Option<Vec<u8>>) -> (String, std::sync::mpsc::Sender<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (hold, held) = std::sync::mpsc::channel::<()>();
        thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut request = String::new();
            let _ = BufReader::new(stream.try_clone().expect("clone")).read_line(&mut request);
            if let Some(reply) = reply {
                let _ = stream.write_all(&reply);
                return;
            }
            let _ = held.recv();
        });
        (addr, hold)
    }

    fn ask(addr: &str) -> io::Result<Event> {
        exchange(addr, &Request::Ping, Duration::from_millis(300), 1024)
    }

    #[test]
    fn exchange_returns_the_reply_line() {
        let (addr, _hold) = fake_peer(Some(b"{\"event\":\"pong\"}\n".to_vec()));
        assert!(matches!(ask(&addr).expect("reply"), Event::Pong { .. }));
    }

    #[test]
    fn exchange_maps_every_failure_to_an_io_error() {
        let kind = |reply: Option<&[u8]>| {
            let (addr, _hold) = fake_peer(reply.map(<[u8]>::to_vec));
            ask(&addr).expect_err("no usable reply").kind()
        };
        assert_eq!(kind(Some(b"")), io::ErrorKind::UnexpectedEof);
        assert_eq!(kind(Some(b"{\"event\":\n")), io::ErrorKind::InvalidData);
        // JSON, but not an event this build knows.
        assert_eq!(
            kind(Some(b"{\"event\":\"gossip\"}\n")),
            io::ErrorKind::InvalidData
        );
        // Silence past the read timeout.
        assert!(matches!(
            kind(None),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ));
        // A reply over the limit is refused, never buffered whole.
        let (addr, _hold) = fake_peer(Some(vec![b'x'; 1 << 20]));
        let e = ask(&addr).expect_err("oversized reply");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert_eq!(e.to_string(), "line exceeds 1024 bytes");
        // Nothing listens here: the port was bound, then released.
        let dead = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = dead.local_addr().expect("addr").to_string();
        drop(dead);
        assert_eq!(
            ask(&addr).expect_err("refused").kind(),
            io::ErrorKind::ConnectionRefused
        );
    }

    /// The least a [`Node`] can be: it answers nothing by itself, and
    /// notes whether the connection a job arrived on had `TCP_NODELAY`.
    struct Quiet {
        conns: Conns,
        accepted_nodelay: std::sync::Mutex<Option<bool>>,
    }

    fn quiet() -> Arc<Quiet> {
        let limits = Limits {
            max_connections: 1,
            idle_timeout_ms: None,
            max_line_bytes: 1024,
            retry_after_ms: 1,
        };
        Arc::new(Quiet {
            conns: Conns::new("quiet", limits),
            accepted_nodelay: std::sync::Mutex::new(None),
        })
    }

    fn nodelay(stream: &Stream) -> bool {
        match stream {
            Stream::Tcp(s) => s.nodelay().expect("read TCP_NODELAY"),
            #[cfg(unix)]
            Stream::Unix(_) => panic!("not a TCP stream"),
        }
    }

    impl Node for Quiet {
        fn conns(&self) -> &Conns {
            &self.conns
        }
        fn status(&self) -> Value {
            Value::Null
        }
        fn metrics_json(&self) -> Value {
            Value::Null
        }
        fn metrics_text(&self) -> String {
            String::new()
        }
        fn submit(&self, _: JobKind, _: CompileRequest, writer: &mut Stream) -> bool {
            *self.accepted_nodelay.lock().expect("no panic holds it") = Some(nodelay(writer));
            false
        }
        fn artifact_put(&self, _: &str, _: &str, _: &str, _: &str) -> Event {
            Event::ShuttingDown
        }
    }

    /// The connection accepted after the flag is set is told why it is
    /// dropped, and the accept loop ends with it. (Over the wire the
    /// node's own poke competes for that slot; here there is no poke.)
    #[test]
    fn the_first_connection_after_the_flag_gets_the_notice() {
        let node = quiet();
        let mut endpoint = serve(
            Some("127.0.0.1:0"),
            None,
            Arc::clone(&node) as Arc<dyn Node>,
        )
        .expect("serve");
        node.conns.shutting_down.store(true, Ordering::SeqCst);
        let (mut reader, _writer) =
            dial(endpoint.tcp_addr().expect("tcp"), None, None).expect("connect");
        let mut notice = String::new();
        reader.read_line(&mut notice).expect("read");
        assert_eq!(
            notice,
            "{\"event\":\"error\",\"kind\":\"shutting-down\",\"message\":\"shutting down\"}\n"
        );
        endpoint.wait();
    }

    /// The one socket-option policy: both halves [`dial`] hands back
    /// and the connection a [`serve`] endpoint accepted have
    /// `TCP_NODELAY` set (the platform default is off).
    #[test]
    fn every_tcp_socket_dialled_or_accepted_has_nodelay() {
        let node = quiet();
        let mut endpoint = serve(
            Some("127.0.0.1:0"),
            None,
            Arc::clone(&node) as Arc<dyn Node>,
        )
        .expect("serve");
        let (mut reader, mut writer) =
            dial(endpoint.tcp_addr().expect("tcp"), None, None).expect("connect");
        assert!(nodelay(reader.get_ref()) && nodelay(&writer));
        // A job is the one verb that hands the node its connection;
        // `Quiet` refuses it, which closes the connection.
        let source = CompileRequest::new(proto::SourceFormat::Blif, ".model m");
        let job = JobKind::Compile.request(source);
        proto::write_line(&mut writer, &job.to_value()).expect("send");
        let mut rest = String::new();
        reader.read_line(&mut rest).expect("read to hang-up");
        assert_eq!(rest, "");
        let accepted = *node.accepted_nodelay.lock().expect("no panic holds it");
        assert_eq!(accepted, Some(true));
        endpoint.shutdown();
        endpoint.wait();
    }
}
