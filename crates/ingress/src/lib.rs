//! Overload-hardened async ingress for the slab hash.
//!
//! This crate turns the batch-oriented [`SlabHash`](slab_hash::SlabHash)
//! into a service: many concurrent clients submit point operations over a
//! bounded queue, a broker pass coalesces them into warp-shaped batches,
//! dispatches on the persistent executor pool, and routes a typed reply back
//! to each client. The thread that waits runs the pass: a client blocking on
//! its reply runs the pass itself when no other thread is, so a closed-loop
//! request costs no thread wake-up; the broker thread is woken only for
//! open-loop submits and otherwise drains on its idle tick as a backstop.
//! The interesting part is what happens past saturation — every overload
//! mechanism degrades gracefully instead of collapsing:
//!
//! * **Bounded queues** — submission is `try_send` onto a fixed-capacity
//!   channel; a full queue is a fast [`IngressError::QueueFull`], and the
//!   blocking variant runs a broker pass itself (or backs off while another
//!   thread runs one) only until the request's own deadline.
//! * **Deadlines** — every request carries a budget. The broker refuses to
//!   dispatch expired requests ([`IngressError::DeadlineExceeded`]), so a
//!   timed-out write was *never applied*.
//! * **Admission control** — under the shed policy, writes are refused while
//!   allocator free-slab headroom sits below a watermark
//!   ([`IngressError::ShedWrite`]); reads keep flowing. Writes cost slabs,
//!   reads do not — shedding them first is the graceful order.
//! * **Bounded retries** — retryable table failures get re-dispatched after
//!   the table's own recovery pass (compact, reclaim, grow, jittered
//!   backoff), capped by attempts *and* by the deadline.
//! * **Circuit breaking** — sustained write failures trip a breaker that
//!   refuses writes outright for a cooldown, then probes its way back
//!   closed ([`IngressError::BreakerOpen`]).
//!
//! The contract throughout: **exactly one reply per accepted submission**,
//! and refusals are typed, never silent.
//!
//! ```
//! use std::sync::Arc;
//! use slab_hash::{KeyValue, SlabHash, SlabHashConfig};
//! use slab_ingress::{Broker, BrokerConfig};
//!
//! let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(256)));
//! let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
//! let client = broker.handle();
//!
//! client.put(7, 42).unwrap();
//! assert_eq!(client.get(7).unwrap(), Some(42));
//! assert_eq!(client.remove(7).unwrap(), Some(42));
//!
//! drop(client);
//! let stats = broker.shutdown();
//! assert_eq!(stats.completed, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod breaker;
mod broker;
mod client;
mod error;
mod metrics;
mod stats;
pub mod transport;
pub mod wire;

pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use broker::{Broker, BrokerConfig};
pub use client::{ClientHandle, Reply, Ticket};
pub use error::IngressError;
pub use stats::{IngressStats, LatencyRecorder, LatencySummary};
pub use transport::{
    ClientStats, TransportError, WireClient, WireClientConfig, WireFaultPlan, WireServer,
    WireServerConfig,
};

// The span/metrics vocabulary clients need to consume `Reply::span` and a
// broker's registry without naming the telemetry crate themselves.
pub use simt::telemetry::{MetricsRegistry, RequestSpan, SpanReport, Stage, STAGES, STAGE_COUNT};

#[cfg(test)]
mod tests {
    use std::sync::Arc;
    use std::time::Duration;

    use slab_alloc::{SlabAlloc, SlabAllocConfig};
    use slab_hash::{
        KeyValue, MaintenancePolicy, OpResult, Request, SlabHash, SlabHashConfig,
    };

    use super::*;

    fn small_table() -> Arc<SlabHash<KeyValue>> {
        Arc::new(SlabHash::new(SlabHashConfig::with_buckets(64)))
    }

    #[test]
    fn round_trip_over_the_broker() {
        let table = small_table();
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();

        assert_eq!(client.put(1, 10).unwrap(), None);
        assert_eq!(client.get(1).unwrap(), Some(10));
        assert_eq!(client.put(1, 11).unwrap(), Some(10));
        assert_eq!(client.get(2).unwrap(), None);
        assert_eq!(client.remove(1).unwrap(), Some(11));
        assert_eq!(client.get(1).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.shed(), 0);
        assert_eq!(stats.timed_out(), 0);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn empty_requests_are_rejected_client_side() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let client = broker.handle();
        assert_eq!(
            client.submit(Request::default()).unwrap_err(),
            IngressError::EmptyRequest
        );
        drop(client);
        assert_eq!(broker.shutdown().submitted, 0);
    }

    #[test]
    fn zero_deadline_times_out_instead_of_executing() {
        let table = small_table();
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();
        let ticket = client
            .submit_with_deadline(Request::insert(5, 50), Duration::ZERO)
            .unwrap();
        let reply = ticket.wait();
        assert!(reply.result.unwrap_err().is_timeout());
        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.timed_out(), 1);
        // Deadline refusal happens before dispatch: the write never landed.
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn writes_shed_under_memory_pressure_while_reads_flow() {
        let table = small_table();
        // Headroom nobody can satisfy: every write sheds, deterministically.
        let cfg = BrokerConfig {
            write_shed_headroom: u64::MAX,
            policy: MaintenancePolicy::shed(),
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(Arc::clone(&table), cfg);
        let client = broker.handle();

        assert_eq!(
            client.call(Request::insert(3, 30)).unwrap_err(),
            IngressError::ShedWrite
        );
        // Reads are still served while writes shed: graceful degradation
        // order, not a full stop.
        assert_eq!(client.get(3).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.shed(), 1);
        assert_eq!(stats.completed, 1);
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn sustained_sheds_trip_the_breaker() {
        let cfg = BrokerConfig {
            write_shed_headroom: u64::MAX,
            policy: MaintenancePolicy::shed(),
            breaker: BreakerConfig {
                window: 8,
                min_samples: 4,
                trip_ratio: 0.5,
                cooldown: Duration::from_secs(60),
                half_open_probes: 2,
            },
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(small_table(), cfg);
        let client = broker.handle();

        let mut saw_breaker_open = false;
        for k in 0..32u32 {
            match client.call(Request::insert(k, k)) {
                Err(IngressError::ShedWrite) => {}
                Err(IngressError::BreakerOpen) => saw_breaker_open = true,
                other => panic!("unexpected write outcome: {other:?}"),
            }
        }
        assert!(saw_breaker_open, "breaker never opened under sustained sheds");
        // Reads flow even with the breaker open.
        assert_eq!(client.get(0).unwrap(), None);

        drop(client);
        let stats = broker.shutdown();
        assert!(stats.breaker_trips() >= 1);
        assert_eq!(stats.shed(), 32);
    }

    #[test]
    fn replies_route_back_to_the_right_client() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let clients = 8usize;
        let per_client = 64u32;
        let mut joins = Vec::new();
        for c in 0..clients as u32 {
            let client = broker.handle();
            joins.push(std::thread::spawn(move || {
                for i in 0..per_client {
                    let key = c * per_client + i;
                    // The value encodes the owning client; a misrouted reply
                    // would surface as a foreign value here.
                    match client.call(Request::insert(key, c)).unwrap() {
                        OpResult::Inserted => {}
                        other => panic!("client {c}: insert -> {other:?}"),
                    }
                    match client.call(Request::search(key)).unwrap() {
                        OpResult::Found(v) => assert_eq!(v, c, "misrouted reply"),
                        other => panic!("client {c}: search -> {other:?}"),
                    }
                }
            }));
        }
        for join in joins {
            join.join().unwrap();
        }
        let stats = broker.shutdown();
        let total = (clients as u64) * u64::from(per_client) * 2;
        assert_eq!(stats.submitted, total);
        assert_eq!(stats.completed, total);
    }

    #[test]
    fn block_policy_retries_through_a_tiny_allocator() {
        // An allocator small enough that bulk inserts exhaust it; the block
        // policy must heal (reclaim/grow) and retry rather than error out.
        let alloc = SlabAlloc::new(SlabAllocConfig::small(4, 32));
        let table = Arc::new(SlabHash::<KeyValue, _>::with_allocator(
            SlabHashConfig::with_buckets(8),
            alloc,
        ));
        let cfg = BrokerConfig {
            policy: MaintenancePolicy::block(),
            max_dispatch_attempts: 8,
            default_deadline: Duration::from_secs(10),
            write_shed_headroom: 0,
            ..BrokerConfig::default()
        };
        let broker = Broker::spawn(Arc::clone(&table), cfg);
        let client = broker.handle();
        let n = 2000u32;
        let mut tickets = Vec::new();
        for k in 0..n {
            tickets.push(client.submit_blocking(
                Request::insert(k, k),
                Duration::from_secs(10),
            ).unwrap());
        }
        let mut ok = 0u64;
        for t in tickets {
            if t.wait().result.is_ok() {
                ok += 1;
            }
        }
        assert_eq!(ok, u64::from(n), "block policy should land every insert");
        assert_eq!(table.len(), n as usize);
        drop(client);
        let stats = broker.shutdown();
        assert_eq!(stats.completed, u64::from(n));
    }

    #[test]
    fn shard_gauges_track_broker_writes() {
        let table = small_table();
        let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
        let client = broker.handle();
        // Spread inserts and some deletes across the keyspace so several
        // ownership shards see traffic.
        let n = 200u32;
        for k in 0..n {
            assert_eq!(client.put(k, k).unwrap(), None);
        }
        for k in 0..50u32 {
            assert_eq!(client.remove(k).unwrap(), Some(k));
        }
        // Render after shutdown: replies race the end-of-batch gauge
        // refresh, but the registry outlives the broker thread and its
        // final state is deterministic.
        let metrics = broker.metrics();
        drop(client);
        broker.shutdown();
        let rendered = metrics.render_prometheus();
        // One occupancy gauge per shard, and the ledger sums to the live
        // count the broker produced (200 inserts - 50 deletes).
        let occupancy: u64 = rendered
            .lines()
            .filter(|l| l.starts_with("slab_ingress_shard_occupancy{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .sum();
        assert_eq!(occupancy, u64::from(n) - 50);
        // Queue-depth gauges exist per shard and read zero between batches.
        let depths: Vec<u64> = rendered
            .lines()
            .filter(|l| l.starts_with("slab_ingress_shard_queue_depth{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
            .collect();
        assert!(!depths.is_empty(), "no per-shard queue-depth gauges rendered");
        assert!(depths.iter().all(|&d| d == 0));
    }

    #[test]
    fn broker_sharded_path_matches_flat_results() {
        // One 300-request pass takes the sharded branch; 300 one-at-a-time
        // calls take the flat one. The replies must be indistinguishable.
        let sharded = {
            let table = small_table();
            // The sleep lets the broker thread finish its start-up pass; the
            // long idle tick then keeps it parked, and `enqueue` does not
            // wake it, so the first `wait` runs the whole queue as one pass
            // on this thread.
            let cfg = BrokerConfig {
                idle_tick: Duration::from_secs(60),
                ..BrokerConfig::default()
            };
            let broker = Broker::spawn(Arc::clone(&table), cfg);
            std::thread::sleep(Duration::from_millis(50));
            let client = broker.handle();
            let budget = Duration::from_secs(30);
            let tickets: Vec<_> = (0..300u32)
                .map(|k| client.enqueue(Request::insert(k, k), budget).unwrap())
                .collect();
            let ok = tickets
                .into_iter()
                .map(|t| t.wait())
                .filter(|r| r.result.is_ok())
                .count();
            drop(client);
            let stats = broker.shutdown();
            assert_eq!(stats.batches, 1, "the 300 requests must share one pass");
            (ok, table.len())
        };
        let flat = {
            let table = small_table();
            let broker = Broker::spawn(Arc::clone(&table), BrokerConfig::default());
            let client = broker.handle();
            let ok = (0..300u32)
                .filter(|&k| client.call(Request::insert(k, k)).is_ok())
                .count();
            drop(client);
            broker.shutdown();
            (ok, table.len())
        };
        assert_eq!(sharded, (300, 300));
        assert_eq!(flat, (300, 300));
    }

    #[test]
    fn shutdown_answers_everything_already_queued() {
        let broker = Broker::spawn(small_table(), BrokerConfig::default());
        let client = broker.handle();
        let tickets: Vec<_> = (0..100u32)
            .map(|k| client.submit(Request::insert(k, k)).unwrap())
            .collect();
        drop(client);
        let stats = broker.shutdown();
        for t in tickets {
            assert!(t.wait().result.is_ok(), "queued request lost at shutdown");
        }
        assert_eq!(stats.completed, 100);
    }
}
