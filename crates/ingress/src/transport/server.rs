//! The framed TCP server: a supervisor accept loop plus one thread per
//! connection bridging its socket onto a [`ClientHandle`].
//!
//! Topology: one supervisor thread owns the listener. Each accepted
//! connection gets one thread that reads, decodes that read's frames,
//! submits them onto the broker (up to the inflight cap) without waking the
//! broker thread, then waits their tickets in order and writes the
//! replies. Waiting a ticket runs the broker pass on the waiting thread
//! when no other thread is running one, so a request usually crosses no
//! thread hand-off between socket and table.
//!
//! The broker's exactly-one-reply contract extends over
//! the wire: every decoded request produces exactly one reply frame — a
//! table result, a typed ingress error, or a typed transport refusal — and
//! connection-level rejections (`max_connections`, drain, poisoned framing)
//! are sent as typed `Reject` frames before close, never silent drops.
//!
//! Degradation is deliberate, mirroring the broker:
//!
//! * at `max_connections`, new connections get `Reject(MaxConnections)`;
//! * past the inflight cap within one read, requests get
//!   `Refused(InflightCap)` without touching the broker;
//! * idle connections (no bytes received; nothing is in flight while a
//!   connection reads) are closed after `idle_timeout` and counted;
//! * [`shutdown`](WireServer::shutdown) is a graceful drain — stop
//!   accepting, stop reading, answer everything in flight, then close.
//!
//! Shutdown ordering matters: the server holds [`ClientHandle`]s, which
//! keep the broker's queue open — drain the server *before* calling
//! [`Broker::shutdown`](crate::Broker::shutdown).

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use simt::telemetry::{Counter, GaugeMetric, MetricsRegistry};

use crate::broker::Broker;
use crate::client::{ClientHandle, Ticket};
use crate::transport::fault::{FaultInjector, WireFaultPlan, WriteOutcome};
use crate::wire::{
    write_frame, Frame, FrameBuffer, Refusal, RejectReason, ReplyBody, WireReply,
};

/// Tuning for [`WireServer::bind`].
#[derive(Debug, Clone)]
pub struct WireServerConfig {
    /// Most simultaneous connections; excess accepts are answered with a
    /// typed `Reject(MaxConnections)` and closed.
    pub max_connections: usize,
    /// Most requests one read may submit to the broker (a connection waits
    /// out one read's requests before reading again); the read's excess
    /// requests are answered with `Refused(InflightCap)` without touching
    /// the broker.
    pub max_inflight: usize,
    /// Connections that receive no bytes for this long are closed (and
    /// counted as idle-closed).
    pub idle_timeout: Duration,
    /// Read-slice granularity: how often a connection blocked in a read
    /// wakes to check idle/drain state. Bounds drain latency.
    pub tick: Duration,
    /// Server-side transport fault plan (torn/stalled/dropped reply
    /// writes), for chaos tests.
    pub fault: Option<WireFaultPlan>,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        Self {
            max_connections: 64,
            max_inflight: 64,
            idle_timeout: Duration::from_secs(30),
            tick: Duration::from_millis(10),
            fault: None,
        }
    }
}

/// Pre-registered transport metrics (`slab_transport_*`), following the
/// same conventions as the broker's ingress metrics.
#[derive(Debug)]
struct TransportMetrics {
    connections_open: GaugeMetric,
    accepted: Counter,
    rejected: Counter,
    idle_closed: Counter,
    frames_rx: Counter,
    frames_tx: Counter,
    decode_errors: Counter,
    inflight: GaugeMetric,
    inflight_refused: Counter,
    faults_injected: Counter,
}

impl TransportMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        Self {
            connections_open: registry.gauge(
                "slab_transport_connections_open",
                "Transport connections currently open",
            ),
            accepted: registry.counter(
                "slab_transport_connections_accepted_total",
                "Transport connections accepted",
            ),
            rejected: registry.counter(
                "slab_transport_connections_rejected_total",
                "Transport connections rejected at the cap or while draining",
            ),
            idle_closed: registry.counter(
                "slab_transport_connections_idle_closed_total",
                "Transport connections closed by the idle timeout",
            ),
            frames_rx: registry.counter(
                "slab_transport_frames_rx_total",
                "Frames decoded off transport connections",
            ),
            frames_tx: registry.counter(
                "slab_transport_frames_tx_total",
                "Frames written to transport connections",
            ),
            decode_errors: registry.counter(
                "slab_transport_frame_decode_errors_total",
                "Frames that failed to decode (connection poisoned)",
            ),
            inflight: registry.gauge(
                "slab_transport_inflight",
                "Broker-submitted requests in flight across all connections",
            ),
            inflight_refused: registry.counter(
                "slab_transport_inflight_refused_total",
                "Requests refused at the per-connection inflight cap",
            ),
            faults_injected: registry.counter(
                "slab_transport_faults_injected_total",
                "Transport faults injected by the server's wire fault plan",
            ),
        }
    }
}

/// State shared by the supervisor and every connection worker.
struct Shared {
    /// Drain flag: stop accepting and stop reading new requests.
    drain: AtomicBool,
    /// Abort flag: tear connections down without answering in-flight work.
    abort: AtomicBool,
    metrics: TransportMetrics,
    /// Open-connection count backing the gauge.
    open: AtomicUsize,
    /// Total inflight count backing the gauge.
    inflight: AtomicUsize,
    /// Clones of every live connection's stream, so drain can interrupt
    /// blocked reads and abort can hard-close.
    conns: Mutex<Vec<(u64, TcpStream)>>,
    cfg: WireServerConfig,
    next_conn_id: AtomicU64,
}

impl Shared {
    fn add_open(&self, delta: isize) {
        let now = if delta >= 0 {
            self.open.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
        } else {
            self.open.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
        };
        self.metrics.connections_open.set(now as u64);
    }

    fn add_inflight(&self, delta: isize) {
        let now = if delta >= 0 {
            self.inflight.fetch_add(delta as usize, Ordering::Relaxed) + delta as usize
        } else {
            self.inflight.fetch_sub((-delta) as usize, Ordering::Relaxed) - (-delta) as usize
        };
        self.metrics.inflight.set(now as u64);
    }

    fn forget_conn(&self, id: u64) {
        self.conns.lock().unwrap().retain(|(cid, _)| *cid != id);
    }
}

/// A running framed TCP server in front of one broker.
///
/// Bind with [`bind`](Self::bind), read the ephemeral port with
/// [`local_addr`](Self::local_addr), stop with a graceful
/// [`shutdown`](Self::shutdown) or a hard [`abort`](Self::abort). Dropping
/// the server aborts it.
#[derive(Debug)]
pub struct WireServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    supervisor: Option<thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("drain", &self.drain)
            .field("abort", &self.abort)
            .field("open", &self.open)
            .field("inflight", &self.inflight)
            .finish_non_exhaustive()
    }
}

impl WireServer {
    /// Binds `addr` (port 0 for ephemeral) and starts serving `broker`.
    ///
    /// Transport metrics register on the broker's own registry, so one
    /// scrape shows the whole pipeline: socket → queue → batch → table.
    pub fn bind(
        addr: impl ToSocketAddrs,
        broker: &Broker,
        cfg: WireServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            drain: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            metrics: TransportMetrics::register(&broker.metrics()),
            open: AtomicUsize::new(0),
            inflight: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
            cfg,
            next_conn_id: AtomicU64::new(1),
        });
        let handle = broker.handle();
        let sup_shared = Arc::clone(&shared);
        let supervisor = thread::Builder::new()
            .name("slab-wire-supervisor".into())
            .spawn(move || supervise(listener, handle, sup_shared))
            .expect("spawn wire supervisor thread");
        Ok(Self {
            addr: local,
            shared,
            supervisor: Some(supervisor),
        })
    }

    /// The bound address (the one to hand to clients).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn connections_open(&self) -> usize {
        self.shared.open.load(Ordering::Relaxed)
    }

    /// Graceful drain: stop accepting, stop reading new requests, answer
    /// everything already in flight, then close every connection and join
    /// its thread.
    pub fn shutdown(mut self) {
        self.stop(false);
    }

    /// Hard stop: close every connection immediately without answering
    /// in-flight work — the deterministic "server died" lever for chaos
    /// tests. In-flight broker replies are discarded; peers observe torn
    /// connections, exactly as they would on a crash.
    pub fn abort(mut self) {
        self.stop(true);
    }

    fn stop(&mut self, hard: bool) {
        let Some(supervisor) = self.supervisor.take() else {
            return;
        };
        if hard {
            self.shared.abort.store(true, Ordering::SeqCst);
        }
        self.shared.drain.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Interrupt every blocked read: drain lets in-flight replies be
        // written, abort closes both directions.
        let how = if hard { Shutdown::Both } else { Shutdown::Read };
        for (_, stream) in self.shared.conns.lock().unwrap().iter() {
            let _ = stream.shutdown(how);
        }
        let _ = supervisor.join();
    }
}

impl Drop for WireServer {
    fn drop(&mut self) {
        self.stop(true);
    }
}

/// The accept loop: spawn a connection thread per accept, reject past the
/// cap, reap finished threads, join everything on drain.
fn supervise(listener: TcpListener, handle: ClientHandle, shared: Arc<Shared>) {
    let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
    for accepted in listener.incoming() {
        if shared.drain.load(Ordering::SeqCst) {
            break;
        }
        workers.retain(|w| !w.is_finished());
        let stream = match accepted {
            Ok(s) => s,
            Err(_) => continue,
        };
        if shared.open.load(Ordering::Relaxed) >= shared.cfg.max_connections {
            shared.metrics.rejected.inc();
            reject_and_close(
                stream,
                RejectReason::MaxConnections {
                    max: shared.cfg.max_connections as u64,
                },
            );
            continue;
        }
        shared.metrics.accepted.inc();
        shared.add_open(1);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(read_side) = stream.try_clone() {
            shared.conns.lock().unwrap().push((conn_id, read_side));
        }
        let conn_shared = Arc::clone(&shared);
        let conn_handle = handle.clone();
        let worker = thread::Builder::new()
            .name(format!("slab-wire-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(stream, conn_id, &conn_handle, &conn_shared);
                conn_shared.forget_conn(conn_id);
                conn_shared.add_open(-1);
            })
            .expect("spawn wire connection worker");
        workers.push(worker);
    }
    // Drain: answer in-flight work, then join every worker.
    for worker in workers {
        let _ = worker.join();
    }
}

/// Best-effort typed rejection before close (the alternative is a silent
/// RST, which leaves the peer guessing).
fn reject_and_close(mut stream: TcpStream, reason: RejectReason) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut scratch = Vec::new();
    let _ = write_frame(&mut stream, &Frame::Reject(reason), &mut scratch);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Runs one connection on one thread: read, decode that read's frames and
/// submit them without waking the broker thread, wait their tickets in
/// order — so this thread runs the broker pass — write the replies, then
/// read again. Tickets are always waited, even once the peer is gone or
/// the server aborts, so the inflight gauge stays exact; nothing more is
/// written then.
fn serve_connection(mut stream: TcpStream, conn_id: u64, handle: &ClientHandle, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.cfg.tick.max(Duration::from_millis(1))));
    let mut injector = shared
        .cfg
        .fault
        .as_ref()
        .filter(|p| p.is_active())
        .map(|p| p.injector(conn_id));
    let mut carry = FrameBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut scratch = Vec::new();
    // One read's requests, in arrival order: a ticket, or an answer known
    // without the broker (a refusal or a client-side ingress error).
    let mut batch: Vec<(u64, Result<Ticket, ReplyBody>)> = Vec::new();
    let mut last_activity = Instant::now();
    loop {
        if shared.abort.load(Ordering::SeqCst) || shared.drain.load(Ordering::SeqCst) {
            break;
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle bookkeeping on the tick; nothing is in flight while
                // this thread reads.
                if last_activity.elapsed() >= shared.cfg.idle_timeout {
                    shared.metrics.idle_closed.inc();
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        };
        last_activity = Instant::now();
        carry.extend(&chunk[..n]);
        let poison = submit_read(&mut carry, handle, shared, &mut batch);
        let mut writable = true;
        for (req_id, outcome) in batch.drain(..) {
            let body = match outcome {
                Ok(ticket) => {
                    let reply = ticket.wait();
                    shared.add_inflight(-1);
                    match reply.result {
                        Ok(res) => ReplyBody::Result(res),
                        Err(e) => ReplyBody::Ingress(e),
                    }
                }
                Err(body) => body,
            };
            let frame = Frame::Reply(WireReply { req_id, body });
            writable = writable && send(&mut stream, &mut injector, &frame, &mut scratch, shared);
        }
        match poison {
            // Framing is lost; there is no resync. Typed reject, then close.
            Some(reason) => {
                if writable {
                    let reject = Frame::Reject(reason);
                    send(&mut stream, &mut injector, &reject, &mut scratch, shared);
                }
                break;
            }
            None if !writable => break,
            None => {}
        }
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decodes every whole frame buffered so far into `batch`, submitting
/// requests onto the broker up to the inflight cap. Returns the reason to
/// poison the connection, if a frame was bad.
fn submit_read(
    carry: &mut FrameBuffer,
    handle: &ClientHandle,
    shared: &Shared,
    batch: &mut Vec<(u64, Result<Ticket, ReplyBody>)>,
) -> Option<RejectReason> {
    let mut submitted = 0;
    loop {
        let wreq = match carry.next_frame() {
            Ok(Some(Frame::Request(wreq))) => wreq,
            Ok(None) => return None, // need more bytes
            // A client sending server-only frames has lost the plot, and
            // undecodable bytes mean framing is lost: poison either way.
            Ok(Some(_)) | Err(_) => {
                shared.metrics.decode_errors.inc();
                return Some(RejectReason::BadFrame);
            }
        };
        shared.metrics.frames_rx.inc();
        let outcome = if submitted >= shared.cfg.max_inflight {
            shared.metrics.inflight_refused.inc();
            Err(ReplyBody::Refused(Refusal::InflightCap {
                limit: shared.cfg.max_inflight as u64,
            }))
        } else if shared.drain.load(Ordering::SeqCst) {
            Err(ReplyBody::Refused(Refusal::Draining))
        } else {
            handle
                .enqueue(wreq.req, wreq.budget)
                .inspect(|_| {
                    submitted += 1;
                    shared.add_inflight(1);
                })
                .map_err(ReplyBody::Ingress)
        };
        batch.push((wreq.req_id, outcome));
    }
}

/// Writes one frame (through the fault injector, if any); `false` once the
/// peer can no longer hear us, which also closes the socket so the peer
/// sees the loss at once.
fn send(
    stream: &mut TcpStream,
    injector: &mut Option<FaultInjector>,
    frame: &Frame,
    scratch: &mut Vec<u8>,
    shared: &Shared,
) -> bool {
    let wrote = !shared.abort.load(Ordering::SeqCst)
        && match injector {
            Some(inj) => match inj.write_frame(stream, frame, scratch) {
                Ok(WriteOutcome::Sent) => true,
                Ok(WriteOutcome::Dropped) => {
                    shared.metrics.faults_injected.inc();
                    false
                }
                Err(_) => false,
            },
            None => write_frame(stream, frame, scratch).is_ok(),
        };
    if wrote {
        shared.metrics.frames_tx.inc();
    } else {
        let _ = stream.shutdown(Shutdown::Both);
    }
    wrote
}
