//! The `kv-*` workloads: closed-loop client threads, each with one
//! outstanding request, 90% get / 10% put over disjoint per-client key
//! ranges of one shared table behind a default `Broker`. `kv-inproc`
//! submits through `ClientHandle::submit_blocking` + `Ticket::wait`;
//! `kv-wire` through one `WireClient` per thread against a loopback
//! `WireServer` in the same process. The unit of work (one latency sample)
//! is one request.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use simt::Grid;
use slab_alloc::SlabAllocator;
use slab_hash::{KeyValue, OpResult, Request, SlabHash};
use slab_ingress::wire::{encode_frame, Frame, FrameBuffer, ReplyBody, WireReply, WireRequest};
use slab_ingress::{
    Broker, BrokerConfig, ClientHandle, IngressError, MetricsRegistry, TransportError, WireClient,
    WireClientConfig, WireServer, WireServerConfig, STAGES, STAGE_COUNT,
};

use crate::gen::{value_of, KeyMap, Rng};
use crate::stats::{ratio, Windows};
use crate::trace::{Tracer, UnitSpan};
use crate::{
    bytes_per_key, timed_setup, Config, Failures, Measured, MetricSet, RunResult, Verdict,
};

type Table = SlabHash<KeyValue>;

/// Target memory utilization the table is sized for (whole keyspace).
const UTILIZATION: f64 = 0.85;
/// Share of requests that are gets; the rest are puts (REPLACE).
const GET_PCT: u64 = 90;
/// Deadline budget per request: generous, so a scheduler hiccup on a
/// shared host is not reported as a failure.
const BUDGET: Duration = Duration::from_secs(1);
/// Client 0 samples the allocator's free-slab gauge every this many
/// requests.
const FREE_SAMPLE_EVERY: u64 = 1024;

/// What a client's oracle knows about one key of its range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Absent,
    Present(u32),
    /// A write whose outcome is unknown (a transport failure mid-call):
    /// excluded from verification from then on.
    Unknown,
}

/// The transport one client thread drives.
enum Conn {
    Inproc(ClientHandle),
    Wire(Box<WireClient>),
}

/// A call's outcome, reduced to what the benchmark checks and counts.
#[derive(Debug)]
enum Outcome {
    Ok(OpResult),
    /// Refused before execution: never applied.
    Shed,
    /// The broker's deadline: requests time out before dispatch, so a
    /// timed-out write was never applied.
    TimedOut,
    Typed,
    /// A transport failure: whether a write was applied is unknown.
    Transport,
}

impl From<IngressError> for Outcome {
    fn from(e: IngressError) -> Self {
        if e.is_shed() {
            Outcome::Shed
        } else if e.is_timeout() {
            Outcome::TimedOut
        } else {
            Outcome::Typed
        }
    }
}

impl From<TransportError> for Outcome {
    fn from(e: TransportError) -> Self {
        match e {
            TransportError::Ingress(ie) => ie.into(),
            e if e.is_overload() => Outcome::Shed,
            // Everything else leaves open whether the server applied a
            // write. That includes the client's own deadline, which fires
            // on the socket read after the request was sent.
            _ => Outcome::Transport,
        }
    }
}

/// One client's seeded request stream over its key range.
#[derive(Debug, Clone)]
struct Stream {
    keys: KeyMap,
    /// First global key index of this client's range.
    base: u64,
    len: u64,
    /// Range indices of the preloaded keys: the only keys puts write, so
    /// the live population (and `bytes_per_key`) holds steady and gets
    /// keep hitting about half the time.
    preloaded: Vec<u32>,
    rng: Rng,
    /// Successful writes so far: the version the next put writes.
    writes: u64,
}

impl Stream {
    fn new(keys: KeyMap, seed: u64, client: u64, range: u64, preloaded: Vec<u32>) -> Self {
        assert!(!preloaded.is_empty(), "puts need preloaded keys");
        Self {
            keys,
            base: client * range,
            len: range,
            preloaded,
            rng: Rng::new(seed, 0x434C_4900 + client),
            writes: 1,
        }
    }

    /// The next request: its index in the range, whether it is a put, and
    /// the request itself.
    fn draw(&mut self) -> (usize, bool, Request) {
        let put = !self.rng.percent(GET_PCT);
        let idx = if put {
            u64::from(self.preloaded[self.rng.below(self.preloaded.len() as u64) as usize])
        } else {
            self.rng.below(self.len)
        };
        let key = self.keys.key(self.base + idx);
        let req = if put {
            Request::replace(key, value_of(key, self.writes))
        } else {
            Request::search(key)
        };
        (idx as usize, put, req)
    }
}

/// One client thread's state: its connection, request stream and oracle.
struct Client {
    id: u64,
    conn: Conn,
    stream: Stream,
    oracle: Vec<Slot>,
}

/// What one phase observed: per client thread, then merged.
#[derive(Debug)]
struct Observed {
    windows: Windows,
    attempted: u64,
    completed: u64,
    fail: Failures,
    /// Sum of (client latency − broker span total) over in-process calls.
    residual_ns: u128,
    free_min: u64,
    wall: Duration,
}

impl Observed {
    fn new(start: Instant, dur: Duration) -> Self {
        Self {
            windows: Windows::new(start, dur),
            attempted: 0,
            completed: 0,
            fail: Failures::default(),
            residual_ns: 0,
            free_min: u64::MAX,
            wall: Duration::ZERO,
        }
    }

    fn absorb(&mut self, other: Observed) {
        self.windows.merge(other.windows);
        self.attempted += other.attempted;
        self.completed += other.completed;
        self.fail.add(&other.fail);
        self.residual_ns += other.residual_ns;
        self.free_min = self.free_min.min(other.free_min);
    }

    fn ops_s(&self) -> f64 {
        ratio(self.completed as f64, self.wall.as_secs_f64())
    }

    fn mean_us(&self) -> f64 {
        let sum: u64 = self.windows.all_samples().sum();
        ratio(sum as f64, self.completed as f64) / 1e3
    }
}

impl Client {
    /// One closed-loop request: draw, call, verify, update the oracle.
    fn step(&mut self, table: &Table, ph: &mut Observed, tracer: Option<&mut Tracer>) {
        let (idx, put, req) = self.stream.draw();
        let value = req.value;
        ph.attempted += 1;
        let t0 = Instant::now();
        let (outcome, span) = match &mut self.conn {
            Conn::Inproc(h) => match h.submit_blocking(req, BUDGET) {
                Ok(ticket) => {
                    let reply = ticket.wait();
                    let outcome = match reply.result {
                        Ok(r) => Outcome::Ok(r),
                        Err(e) => e.into(),
                    };
                    (outcome, Some(reply.span))
                }
                Err(e) => (e.into(), None),
            },
            Conn::Wire(c) => match c.call_with_deadline(req, BUDGET) {
                Ok(r) => (Outcome::Ok(r), None),
                Err(e) => (e.into(), None),
            },
        };
        let t1 = Instant::now();
        let slot = self.oracle[idx];
        match outcome {
            Outcome::Ok(result) => {
                let lat = (t1 - t0).as_nanos() as u64;
                ph.completed += 1;
                ph.windows.record(t1, lat, 1);
                if let Some(s) = &span {
                    ph.residual_ns += u128::from(lat.saturating_sub(s.total_ns));
                }
                let ok = match (put, slot, &result) {
                    (_, Slot::Unknown, _) => true,
                    (false, Slot::Present(v), OpResult::Found(f)) => *f == v,
                    (false, Slot::Absent, OpResult::NotFound) => true,
                    (true, Slot::Present(v), OpResult::Replaced(old)) => *old == v,
                    (true, Slot::Absent, OpResult::Inserted) => true,
                    (_, _, OpResult::Failed(_)) => {
                        ph.fail.typed += 1;
                        true
                    }
                    _ => false,
                };
                if !ok {
                    ph.fail.mismatches += 1;
                }
                if put && result.is_success() {
                    self.oracle[idx] = Slot::Present(value);
                    self.stream.writes += 1;
                }
            }
            Outcome::Shed => ph.fail.shed += 1,
            Outcome::TimedOut => ph.fail.timed_out += 1,
            Outcome::Typed => ph.fail.typed += 1,
            Outcome::Transport => {
                ph.fail.transport += 1;
                if put {
                    self.oracle[idx] = Slot::Unknown;
                }
            }
        }
        if let Some(tr) = tracer {
            let (s0, s1) = (tr.ns(t0), tr.ns(t1));
            let mut spans: [UnitSpan; 1 + STAGE_COUNT] =
                [("client.call", s0, s1, None); 1 + STAGE_COUNT];
            let mut n = 1;
            // The broker's span starts at submission, which is the first
            // thing `submit_blocking` does: lay its telescoping stages out
            // from the call's start.
            if let Some(s) = span.filter(|s| s.id != 0) {
                let mut at = s0;
                for (stage, (name, _)) in STAGES.into_iter().zip(STAGE_LAYERS) {
                    let d = s.stage(stage);
                    spans[n] = (name, at, at + d, Some(0));
                    at += d;
                    n += 1;
                }
            }
            tr.unit(self.id << 48 | ph.attempted, &spans[..n]);
        }
        if self.id == 0 && ph.attempted.is_multiple_of(FREE_SAMPLE_EVERY) {
            ph.free_min = ph.free_min.min(table.allocator().free_slabs());
        }
    }
}

/// Per broker stage, in [`STAGES`] order: its span name and its metric.
const STAGE_LAYERS: [(&str, &str); STAGE_COUNT] = [
    ("ingress.queue_wait", "ingress.queue_wait_us"),
    ("ingress.admission", "ingress.admission_us"),
    ("ingress.dispatch", "ingress.dispatch_us"),
    ("ingress.execute", "ingress.execute_us"),
    ("ingress.reply", "ingress.reply_us"),
];

/// Runs every client closed-loop for `dur`, one thread each; returns the
/// clients' merged observations.
fn drive(
    table: &Table,
    clients: &mut [Client],
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Observed {
    let locals: Vec<Option<Tracer>> = clients
        .iter()
        .map(|_| tracer.as_ref().map(|t| t.fork(clients.len())))
        .collect();
    let start = Instant::now();
    let results: Vec<(Observed, Option<Tracer>)> = std::thread::scope(|s| {
        let joins: Vec<_> = clients
            .iter_mut()
            .zip(locals)
            .map(|(c, mut local)| {
                s.spawn(move || {
                    let mut ph = Observed::new(start, dur);
                    while start.elapsed() < dur {
                        c.step(table, &mut ph, local.as_mut());
                    }
                    (ph, local)
                })
            })
            .collect();
        joins
            .into_iter()
            .map(|j| j.join().expect("client thread panicked"))
            .collect()
    });
    let mut merged = Observed::new(start, dur);
    merged.wall = start.elapsed();
    for (ph, local) in results {
        if let (Some(tr), Some(local)) = (tracer.as_deref_mut(), local) {
            tr.merge(local);
        }
        merged.absorb(ph);
    }
    merged
}

/// The running service: clients, optional wire server, broker, table.
/// Fields drop in this order, which is the teardown order.
struct Stack {
    conns: Vec<Conn>,
    server: Option<WireServer>,
    broker: Broker,
    table: Arc<Table>,
}

/// Prometheus series → value, from one scrape of the broker's registry.
fn scrape(registry: &MetricsRegistry) -> HashMap<String, f64> {
    registry
        .render_prometheus()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            Some((series.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// `after − before` for one series (0 when absent).
fn delta(before: &HashMap<String, f64>, after: &HashMap<String, f64>, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

/// Mean nanoseconds per call of encoding and decoding one request frame
/// and one reply frame, over a sample of the workload's own requests.
fn codec_ns(keys: &KeyMap, seed: u64, range: u64) -> f64 {
    let mut rng = Rng::new(seed, 0x434F_4445);
    let frames: Vec<(Frame, Frame)> = (0..1024u64)
        .map(|id| {
            let key = keys.key(rng.below(range));
            let put = !rng.percent(GET_PCT);
            let (req, res) = if put {
                (
                    Request::replace(key, value_of(key, id)),
                    OpResult::Replaced(value_of(key, 0)),
                )
            } else {
                (Request::search(key), OpResult::Found(value_of(key, 0)))
            };
            (
                Frame::Request(WireRequest {
                    req_id: id,
                    req,
                    budget: BUDGET,
                }),
                Frame::Reply(WireReply {
                    req_id: id,
                    body: ReplyBody::Result(res),
                }),
            )
        })
        .collect();
    let mut bytes = Vec::with_capacity(64);
    let mut carry = FrameBuffer::new();
    let mut calls = 0u64;
    let start = Instant::now();
    while start.elapsed() < Duration::from_millis(50) {
        for (req, reply) in &frames {
            for frame in [req, reply] {
                bytes.clear();
                encode_frame(frame, &mut bytes);
                carry.extend(&bytes);
                let decoded = carry.next_frame().expect("own frame decodes");
                std::hint::black_box(decoded);
            }
            calls += 1;
        }
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// Runs `kv-inproc` (`wire == false`) or `kv-wire`.
pub fn run(cfg: &Config, wire: bool) -> RunResult {
    let n_clients = std::thread::available_parallelism()
        .map_or(2, |n| n.get())
        .min(2);
    let range = cfg.sizes.kv_keyspace / n_clients as u64;
    let keyspace = range * n_clients as u64;
    let keys = KeyMap::new(cfg.seed);
    let grid = Grid::default();

    // Preload about half of every client's range, chosen by the seed.
    let mut pick = Rng::new(cfg.seed, 0x5052_454C);
    let preloaded: Vec<bool> = (0..keyspace).map(|_| pick.percent(50)).collect();
    let pairs: Vec<(u32, u32)> = (0..keyspace)
        .filter(|&i| preloaded[i as usize])
        .map(|i| {
            let k = keys.key(i);
            (k, value_of(k, 0))
        })
        .collect();

    let (stack, setup_s) = timed_setup(cfg.sizes.setup_reps, || {
        let table = Arc::new(Table::for_expected_elements(
            keyspace as usize,
            UTILIZATION,
            cfg.seed,
        ));
        table.bulk_build(&pairs, &grid);
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let server = wire.then(|| {
            WireServer::bind("127.0.0.1:0", &broker, WireServerConfig::default())
                .expect("bind a loopback wire server")
        });
        let conns = (0..n_clients as u64)
            .map(|c| match &server {
                None => Conn::Inproc(broker.handle()),
                Some(srv) => {
                    let ccfg = WireClientConfig {
                        default_deadline: BUDGET,
                        seed: cfg.seed ^ (c + 1),
                        ..WireClientConfig::default()
                    };
                    let mut client =
                        WireClient::new(srv.local_addr(), ccfg).expect("loopback address resolves");
                    // The first call dials: connecting is part of set-up.
                    client
                        .get(keys.key(c * range))
                        .expect("first call over loopback");
                    Conn::Wire(Box::new(client))
                }
            })
            .collect();
        Stack {
            conns,
            server,
            broker,
            table,
        }
    });
    let Stack {
        conns,
        server,
        broker,
        table,
    } = stack;
    let registry = broker.metrics();

    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(c, conn)| {
            let base = c as u64 * range;
            let oracle = (base..base + range)
                .map(|i| {
                    if preloaded[i as usize] {
                        Slot::Present(value_of(keys.key(i), 0))
                    } else {
                        Slot::Absent
                    }
                })
                .collect();
            Client {
                id: c as u64,
                conn,
                stream: Stream::new(
                    keys,
                    cfg.seed,
                    c as u64,
                    range,
                    (0..range as u32)
                        .filter(|&i| preloaded[(base + u64::from(i)) as usize])
                        .collect(),
                ),
                oracle,
            }
        })
        .collect();
    if cfg.corrupt_oracle {
        let slot = clients[0]
            .oracle
            .iter_mut()
            .find(|s| matches!(s, Slot::Present(_)))
            .expect("a preloaded key");
        if let Slot::Present(v) = slot {
            *v ^= 1;
        }
    }

    let warm = drive(&table, &mut clients, cfg.warmup(), None);
    let (untraced_len, traced_len) = cfg.phases();
    let mut main = drive(&table, &mut clients, untraced_len, None);
    let mut tracer = cfg
        .trace
        .then(|| Tracer::new(Instant::now(), cfg.sizes.span_cap));
    let before = scrape(&registry);
    let traced = tracer
        .as_mut()
        .map(|tr| drive(&table, &mut clients, traced_len, Some(tr)));
    let after = scrape(&registry);

    // Teardown, then the final sweep against the oracles.
    let (reconnects, transport_errors) = clients
        .iter()
        .filter_map(|c| match &c.conn {
            Conn::Wire(w) => Some(w.stats()),
            Conn::Inproc(_) => None,
        })
        .fold((0, 0), |(r, e), s| {
            (r + s.reconnects, e + s.transport_errors)
        });
    let oracles: Vec<(u64, Vec<Slot>)> = clients
        .into_iter()
        .map(|c| (c.stream.base, c.oracle))
        .collect();
    if let Some(srv) = server {
        srv.shutdown();
    }
    let ingress = broker.shutdown();
    let mut sweep = Failures::default();
    let mut live = 0u64;
    for (base, oracle) in &oracles {
        let ks: Vec<u32> = (0..oracle.len() as u64)
            .map(|i| keys.key(base + i))
            .collect();
        let (found, _) = table.bulk_search(&ks, &grid);
        for (slot, got) in oracle.iter().zip(found) {
            let ok = match slot {
                Slot::Unknown => true,
                Slot::Present(v) => got == Some(*v),
                Slot::Absent => got.is_none(),
            };
            sweep.mismatches += u64::from(!ok);
            live += u64::from(matches!(slot, Slot::Present(_)));
        }
    }
    let mut measured = main.fail;
    if let Some(t) = &traced {
        measured.add(&t.fail);
    }
    let verdict = Verdict {
        warm: warm.fail,
        measured,
        attempted: main.attempted + traced.as_ref().map_or(0, |t| t.attempted),
        sweep,
        audit: table.audit(),
        live_keys: live,
        setup: (setup_s, cfg.sizes.setup_reps),
    };

    let mut m = MetricSet::default();
    let mut details = vec![("clients", n_clients.to_string())];
    let measured = match (traced, tracer) {
        (Some(t), Some(tracer)) => {
            let calls = delta(&before, &after, "slab_ingress_submitted_total");
            let batches = delta(&before, &after, "slab_ingress_batches_total");
            let batch_size = ratio(calls, batches);
            m.set("ingress.batch_size", batch_size);
            m.set(
                "ingress.shed",
                delta(&before, &after, "slab_ingress_shed_total"),
            );
            m.set(
                "ingress.timed_out",
                delta(&before, &after, "slab_ingress_timed_out_total"),
            );
            m.set(
                "ingress.retried",
                delta(&before, &after, "slab_ingress_retried_total"),
            );
            let mut stage_sum_us = 0.0;
            for (stage, (span, metric)) in STAGES.into_iter().zip(STAGE_LAYERS) {
                let us = if wire {
                    let series = |kind: &str| {
                        format!(
                            "slab_ingress_stage_seconds_{kind}{{stage=\"{}\"}}",
                            stage.name()
                        )
                    };
                    let sum = delta(&before, &after, &series("sum"));
                    let n = delta(&before, &after, &series("count"));
                    ratio(sum, n) * 1e6
                } else {
                    tracer.mean_self_us(span)
                };
                stage_sum_us += us;
                m.set(metric, us);
            }
            if wire {
                let codec = codec_ns(&keys, cfg.seed, range);
                m.set("wire.codec_ns", codec);
                m.set("wire.socket_us", t.mean_us() - stage_sum_us - codec / 1e3);
                let frames = delta(&before, &after, "slab_transport_frames_rx_total")
                    + delta(&before, &after, "slab_transport_frames_tx_total");
                m.set("wire.frames_per_call", ratio(frames, t.completed as f64));
                m.set("wire.reconnects", reconnects as f64);
                m.set("wire.transport_errors", transport_errors as f64);
            } else {
                m.set(
                    "client.residual_us",
                    ratio(t.residual_ns as f64, t.completed as f64) / 1e3,
                );
            }
            m.set_counters(&ingress.counters);
            m.set(
                "slab-hash.retired_backlog",
                table.retired_slab_count() as f64,
            );
            m.set("slab-alloc.free_slabs_min", t.free_min as f64);
            Measured::Traced {
                tracer,
                grid: &grid,
                warps: (batch_size / 32.0).ceil().max(1.0) as usize,
                threads: n_clients,
                ops_s: (main.ops_s(), t.ops_s()),
                wall: t.wall,
            }
        }
        _ => {
            m.set("bytes_per_key", bytes_per_key(&*table, live));
            details.push(("phase_ops_s", format!("{:.1}", main.ops_s())));
            Measured::Untraced(main.windows.summary(false))
        }
    };
    verdict.finish(measured, m, details)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(seed: u64, client: u64, n: usize) -> Vec<(usize, bool, Request)> {
        let evens = (0..1 << 10).step_by(2).collect();
        let mut s = Stream::new(KeyMap::new(seed), seed, client, 1 << 10, evens);
        (0..n).map(|_| s.draw()).collect()
    }

    #[test]
    fn request_streams_repeat_per_seed() {
        assert_eq!(draws(5, 0, 500), draws(5, 0, 500));
        assert_ne!(draws(5, 0, 500), draws(6, 0, 500));
        assert_ne!(draws(5, 0, 500), draws(5, 1, 500));
        let all = draws(5, 0, 10_000);
        let puts = all.iter().filter(|d| d.1).count();
        assert!((800..1200).contains(&puts), "~10% puts, got {puts}");
        assert!(
            all.iter().filter(|d| d.1).all(|d| d.0 % 2 == 0),
            "puts hit preloaded keys only"
        );
        let odd_gets = all.iter().filter(|d| !d.1 && d.0 % 2 == 1).count();
        assert!(
            odd_gets > 3000,
            "gets cover the whole range, got {odd_gets} misses"
        );
    }

    #[test]
    fn only_never_applied_failures_keep_the_oracle() {
        let budget = BUDGET;
        let broker_deadline = IngressError::DeadlineExceeded { budget };
        assert!(matches!(
            Outcome::from(TransportError::Ingress(broker_deadline)),
            Outcome::TimedOut
        ));
        assert!(matches!(Outcome::from(broker_deadline), Outcome::TimedOut));
        assert!(matches!(
            Outcome::from(TransportError::Draining),
            Outcome::Shed
        ));
        for unknown in [
            TransportError::DeadlineExceeded { budget },
            TransportError::ConnectionLost {
                during: slab_ingress::transport::Phase::Recv,
            },
            TransportError::RemoteBadFrame,
        ] {
            assert!(matches!(Outcome::from(unknown), Outcome::Transport));
        }
    }

    #[test]
    fn client_ranges_are_disjoint() {
        let keys = KeyMap::new(9);
        let mut a = Stream::new(keys, 9, 0, 1 << 10, vec![0, 7]);
        let mut b = Stream::new(keys, 9, 1, 1 << 10, vec![3]);
        let ka: std::collections::HashSet<u32> = (0..2000).map(|_| a.draw().2.key).collect();
        assert!((0..2000).all(|_| !ka.contains(&b.draw().2.key)));
    }
}
