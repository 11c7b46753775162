//! The `sspard` TCP server: bounded acceptor/worker pool over std
//! threads, newline-delimited JSON framing, admission control, and
//! graceful drain.
//!
//! The vendored async stacks are offline no-op stubs, so the daemon is
//! deliberately plain `std::net` + `std::thread`:
//!
//! * **acceptor** — one thread on a nonblocking listener, polling so it
//!   can observe the drain flag between accepts;
//! * **readers** — one thread per connection, framing request lines by
//!   hand (byte-capped, idle-timed) and writing responses back in order;
//! * **workers** — a fixed pool consuming a *bounded* `sync_channel`;
//!   [`SyncSender::try_send`] failing fast is the admission-control
//!   mechanism: a full queue answers `overloaded` instead of queueing
//!   unboundedly.
//!
//! Shutdown (the `shutdown` op) flips one flag: the acceptor stops
//! accepting and exits (dropping its queue sender), readers finish the
//! response in flight and close, and the workers drain whatever is still
//! queued before the channel disconnects — a graceful drain with no
//! dropped responses.

use crate::protocol::{self, Op, WireError};
use crate::service::{Service, ServiceConfig};
use crate::stats::StatsRegistry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything the daemon can be told at startup.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks a free port; see
    /// [`DaemonHandle::local_addr`]).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Persistent thread-team shards (see `Service::shard`).
    pub shards: usize,
    /// Bounded request-queue depth; one more `try_send` answers
    /// `overloaded`.
    pub queue: usize,
    /// Maximum request-line length in bytes; longer lines answer
    /// `oversized` and close the connection.
    pub max_line_bytes: usize,
    /// An idle connection (no complete line) is answered `timeout` and
    /// closed after this long.
    pub idle_timeout: Duration,
    /// Per-tenant artifact-cache entry bound.
    pub cache_capacity: Option<usize>,
    /// Per-tenant artifact-cache byte bound.
    pub cache_capacity_bytes: Option<usize>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: 2,
            queue: 64,
            max_line_bytes: 1 << 20,
            idle_timeout: Duration::from_secs(30),
            cache_capacity: None,
            cache_capacity_bytes: None,
        }
    }
}

/// How often blocked loops re-check the drain flag (and the granularity
/// of the idle-timeout accounting).
const TICK: Duration = Duration::from_millis(100);

/// One unit of queued work: a raw request line plus the channel its
/// response line must be sent down.
struct Job {
    line: String,
    respond: Sender<String>,
}

struct Shared {
    service: Service,
    draining: AtomicBool,
    config: DaemonConfig,
}

/// A running daemon: the listener's address plus the threads to join.
pub struct DaemonHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The bound listen address (the OS-chosen port for `…:0` configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a `shutdown` request (or [`DaemonHandle::drain`]) has
    /// started the drain.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain without a wire request (used by tests and
    /// embedders; the `shutdown` op does exactly this).
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Waits for the acceptor and every worker to exit (i.e. for a drain
    /// to complete).  Joins are idempotent.
    pub fn join(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for DaemonHandle {
    fn drop(&mut self) {
        self.drain();
        self.join();
    }
}

/// Binds, spawns the acceptor and worker pool, and returns immediately.
pub fn start(config: DaemonConfig) -> std::io::Result<DaemonHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;

    let shared = Arc::new(Shared {
        service: Service::new(ServiceConfig {
            shards: config.shards,
            cache_capacity: config.cache_capacity,
            cache_capacity_bytes: config.cache_capacity_bytes,
        }),
        draining: AtomicBool::new(false),
        config: config.clone(),
    });

    let (queue_tx, queue_rx) = mpsc::sync_channel::<Job>(config.queue.max(1));
    let queue_rx = Arc::new(Mutex::new(queue_rx));

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let queue_rx = Arc::clone(&queue_rx);
            std::thread::spawn(move || worker_loop(&shared, &queue_rx))
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || acceptor_loop(listener, &shared, queue_tx))
    };

    Ok(DaemonHandle {
        addr,
        shared,
        acceptor: Some(acceptor),
        workers,
    })
}

fn acceptor_loop(listener: TcpListener, shared: &Arc<Shared>, queue_tx: SyncSender<Job>) {
    // When the acceptor returns, its `queue_tx` clone dies with it; once
    // the last reader exits too the workers see a disconnected channel
    // and finish — the second half of the drain.
    while !shared.draining.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(shared);
                let queue_tx = queue_tx.clone();
                std::thread::spawn(move || connection_loop(stream, &shared, &queue_tx));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(TICK),
            // Transient accept errors (aborted handshakes etc.); the
            // listener itself stays healthy.
            Err(_) => std::thread::sleep(TICK),
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, queue_rx: &Mutex<Receiver<Job>>) {
    loop {
        // Hold the receiver lock only to *take* a job, never while
        // serving one.
        let job = match queue_rx.lock().unwrap_or_else(|e| e.into_inner()).recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: drain complete
        };
        let response = serve_line(shared, &job.line);
        // A vanished reader (client hung up mid-request) is fine.
        let _ = job.respond.send(response);
    }
}

/// Parses and dispatches one request line, returning the response line.
fn serve_line(shared: &Arc<Shared>, line: &str) -> String {
    let started = Instant::now();
    let stats = &shared.service.stats;
    let req = match protocol::parse_request(line) {
        Ok(req) => req,
        Err(e) => {
            stats.count_malformed();
            return protocol::error_response(None, &e);
        }
    };
    if req.op == Op::Shutdown {
        shared.draining.store(true, Ordering::SeqCst);
    }
    answer(stats, &req, started, || shared.service.dispatch(&req))
}

/// Runs `dispatch` for the parsed request `req`, received at `started`,
/// and renders its response line.  A panic out of it — an engine bug: the
/// thread team re-raises a member's panic in the requesting thread — is
/// counted and answered as `internal` under the request's own `id`, and
/// the op is recorded like any other failure, so neither this worker nor
/// its client (nor the client's correlation of replies) is lost to one bad
/// request.
fn answer(
    stats: &StatsRegistry,
    req: &protocol::Request,
    started: Instant,
    dispatch: impl FnOnce() -> Result<String, WireError>,
) -> String {
    let outcome = catch_unwind(AssertUnwindSafe(dispatch)).unwrap_or_else(|payload| {
        stats.count_internal();
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        Err(WireError::internal(message))
    });
    stats.record(req.op.name(), started.elapsed(), outcome.is_ok());
    let id = req.id.as_deref();
    match outcome {
        Ok(result) => protocol::ok_response(id, req.op, result),
        Err(e) => protocol::error_response(id, &e),
    }
}

/// Per-connection reader: frames request lines by hand, enforcing the
/// byte cap and the idle timeout, and writes response lines in order.
fn connection_loop(stream: TcpStream, shared: &Arc<Shared>, queue_tx: &SyncSender<Job>) {
    let mut stream = stream;
    if stream.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let config = &shared.config;
    let mut buffer: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // The idle clock measures time since the last *completed* (served)
    // line, not since the last received byte: resetting on any received
    // bytes would let a client dripping one byte per tick hold the
    // connection open forever without ever finishing a request
    // (slow-loris).  The timeout therefore bounds time-to-complete-a-line.
    let mut last_line = Instant::now();
    let mut scanned = 0usize; // bytes of `buffer` already known newline-free

    loop {
        // Drain every complete line already buffered.
        while let Some(nl) = buffer[scanned..].iter().position(|&b| b == b'\n') {
            let line_end = scanned + nl;
            let line: Vec<u8> = buffer.drain(..=line_end).collect();
            scanned = 0;
            let line = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            if !line.trim().is_empty() {
                if !admit_and_respond(&mut stream, shared, queue_tx, line) {
                    return;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return; // response in flight is done; drain closes us
                }
            }
            // Only a completed line buys the client another idle window
            // (measured from after its response was written, so slow
            // request processing is not billed to the client).
            last_line = Instant::now();
        }
        scanned = buffer.len();

        if buffer.len() > config.max_line_bytes {
            shared.service.stats.count_oversized();
            let error = WireError::oversized(config.max_line_bytes);
            let _ = write_line(&mut stream, &protocol::error_response(None, &error));
            return;
        }

        if last_line.elapsed() >= config.idle_timeout {
            shared.service.stats.count_timeout();
            let error = WireError::timeout(config.idle_timeout.as_millis() as u64);
            let _ = write_line(&mut stream, &protocol::error_response(None, &error));
            return;
        }

        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => buffer.extend_from_slice(&chunk[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(_) => return, // connection-level failure
        }
    }
}

/// Admission control + response for one framed line.  Returns false when
/// the connection should close.
fn admit_and_respond(
    stream: &mut TcpStream,
    shared: &Arc<Shared>,
    queue_tx: &SyncSender<Job>,
    line: String,
) -> bool {
    let (respond, response_rx) = mpsc::channel();
    match queue_tx.try_send(Job { line, respond }) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            shared.service.stats.count_overloaded();
            let error = WireError::overloaded(shared.config.queue);
            return write_line(stream, &protocol::error_response(None, &error));
        }
        Err(TrySendError::Disconnected(_)) => {
            let _ = write_line(
                stream,
                &protocol::error_response(None, &WireError::shutting_down()),
            );
            return false;
        }
    }
    match response_rx.recv() {
        Ok(response) => write_line(stream, &response),
        Err(_) => false, // worker pool gone mid-request (hard stop)
    }
}

fn write_line(stream: &mut TcpStream, line: &str) -> bool {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

// ---------------------------------------------------------------------------
// Client helpers (used by sspar-load, the CLI `request` command and tests).
// ---------------------------------------------------------------------------

/// A blocking NDJSON client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            pending: Vec::new(),
        })
    }

    /// Sends one request line and blocks for the matching response line.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;
        self.read_line()
    }

    /// Blocks for the next response line without sending anything first
    /// (to observe server-initiated messages like the idle-timeout error).
    pub fn read_response(&mut self) -> std::io::Result<String> {
        self.read_line()
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=nl).collect();
                return String::from_utf8(line[..line.len() - 1].to_vec())
                    .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e));
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed before a response line",
                ));
            }
            self.pending.extend_from_slice(&chunk[..n]);
        }
    }
}

/// One-shot convenience: connect, send `line`, return the response line.
pub fn request(addr: &str, line: &str) -> std::io::Result<String> {
    Client::connect(addr)?.call(line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonin;

    #[test]
    fn a_panicking_handler_is_answered_as_internal_and_counted() {
        let stats = StatsRegistry::new();
        let req = protocol::parse_request(r#"{"op":"engines","id":"r-7"}"#).unwrap();
        let fine = jsonin::parse(&answer(&stats, &req, Instant::now(), || {
            Ok("[]".to_string())
        }))
        .unwrap();
        assert_eq!(fine.get("ok").and_then(|v| v.as_bool()), Some(true));
        let internal_message = |dispatch: fn() -> Result<String, WireError>| {
            let reply = jsonin::parse(&answer(&stats, &req, Instant::now(), dispatch)).unwrap();
            assert_eq!(reply.get("ok").and_then(|v| v.as_bool()), Some(false));
            // The reply still correlates: it echoes the request's id.
            assert_eq!(reply.get("id").and_then(|v| v.as_str()), Some("r-7"));
            let error = reply.get("error").unwrap();
            assert_eq!(
                error.get("class").and_then(|c| c.as_str()),
                Some("internal")
            );
            error.get("message").unwrap().as_str().unwrap().to_string()
        };
        let literal = internal_message(|| panic!("worker thread panicked"));
        assert!(literal.ends_with("worker thread panicked"), "{literal}");
        let formatted = internal_message(|| panic!("{} exploded", "engine"));
        assert!(formatted.ends_with("engine exploded"), "{formatted}");
        let counted = jsonin::parse(&stats.to_json()).unwrap();
        let internal = counted.get("rejected").and_then(|r| r.get("internal"));
        assert_eq!(internal.and_then(|n| n.as_i64()), Some(2));
        // ... and the op is on the books, failures included.
        let engines = counted.get("endpoints").and_then(|e| e.get("engines"));
        let field = |name: &str| engines.and_then(|e| e.get(name)).and_then(|n| n.as_i64());
        assert_eq!((field("count"), field("errors")), (Some(3), Some(2)));
    }
}
