//! End-to-end tests of the telemetry layer: trace determinism under a
//! fixed chaos seed and sequential schedule, reconciliation between the
//! event stream / histograms and the launch's `PerfCounters`, heatmap
//! attribution, and custom-sink delivery.

use std::sync::Arc;

use std::time::Duration;

use simt::{ChaosGuard, FaultPlan, Grid, PerfCounters};
use slab_hash::{KeyValue, Request, SlabHash, SlabHashConfig};
use slab_ingress::{Broker, BrokerConfig};
use telemetry::{EventKind, Histograms, MemorySink, TraceConfig, TraceSession};

/// A skewed request mix that forces chains, allocations, and CAS retries.
fn workload(n: u32) -> Vec<Request> {
    (0..n)
        .map(|i| {
            if i % 3 == 0 {
                Request::search(i % 97)
            } else {
                Request::replace(i % 211, i)
            }
        })
        .collect()
}

fn traced_run(seed: u64) -> (String, PerfCounters, Histograms) {
    let _g = ChaosGuard::plan(
        FaultPlan::seeded(seed)
            .with_yields(0.1)
            .with_cas_failures(0.05),
    );
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
    let grid = Grid::sequential();
    let session = TraceSession::begin(TraceConfig::default());
    let mut reqs = workload(2_000);
    let report = table.execute_batch(&mut reqs, &grid);
    let trace = session.finish();
    (trace.to_jsonl(), report.counters, report.histograms)
}

/// Acceptance: a fixed chaos seed on the sequential grid replays to a
/// byte-identical event stream; a different seed does not.
#[test]
fn fixed_seed_sequential_trace_is_byte_identical() {
    let (a, ca, _) = traced_run(0xDECAF);
    let (b, cb, _) = traced_run(0xDECAF);
    assert_eq!(ca, cb, "counters must replay exactly");
    assert_eq!(a, b, "event stream must replay byte-identically");
    let (c, _, _) = traced_run(0x0DD_5EED);
    assert_ne!(a, c, "a different seed explores a different schedule");
}

/// The three telemetry views agree with the counters: per-op retries sum
/// to `cas_failures`, op events count `ops`, and every histogram's totals
/// match the corresponding counter.
#[test]
fn trace_and_histograms_reconcile_with_counters() {
    let _g = ChaosGuard::plan(FaultPlan::seeded(7).with_cas_failures(0.05));
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
    let grid = Grid::new(4);
    let session = TraceSession::begin(TraceConfig::default());
    let mut reqs = workload(4_000);
    let report = table.execute_batch(&mut reqs, &grid);
    let trace = session.finish();

    assert_eq!(trace.dropped(), 0);
    assert_eq!(trace.op_count(), report.counters.ops);
    assert_eq!(
        trace.retry_sum(),
        report.counters.cas_failures,
        "every CAS failure must be attributed to exactly one op"
    );
    let h = &report.histograms;
    assert_eq!(h.rounds_per_op.count(), report.counters.ops);
    assert_eq!(h.retries_per_op.count(), report.counters.ops);
    assert_eq!(h.retries_per_op.sum(), report.counters.cas_failures);
    assert_eq!(h.chain_slabs.count(), report.counters.ops);
    assert_eq!(h.resident_hops.count(), report.counters.allocations);
    assert!(h.rounds_per_op.sum() > 0);

    // The contention heatmap attributes exactly the observed failures.
    let audit = table.audit().unwrap();
    let heatmap = table.contention_heatmap(&audit, Some(&trace));
    assert_eq!(heatmap.total_cas_failures(), report.counters.cas_failures);
    assert_eq!(heatmap.rows().len(), 4);
}

/// Histograms merge across launches exactly like counter blocks.
#[test]
fn histograms_accumulate_across_launches() {
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
    let grid = Grid::new(2);
    let mut total = Histograms::default();
    let mut ops = 0;
    for round in 0..3u32 {
        let mut reqs: Vec<Request> = (0..500)
            .map(|i| Request::replace(round * 500 + i, i))
            .collect();
        let report = table.execute_batch(&mut reqs, &grid);
        total.merge(&report.histograms);
        ops += report.counters.ops;
    }
    assert_eq!(total.rounds_per_op.count(), ops);
    assert_eq!(ops, 1_500);
}

/// A custom sink receives every event exactly once, across real executor
/// threads, with launch framing intact.
#[test]
fn custom_sink_receives_all_events_with_launch_framing() {
    let sink = Arc::new(MemorySink::default());
    let table = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
    let grid = Grid::new(4);
    let session = TraceSession::begin_with_sink(TraceConfig::default(), sink.clone());
    let mut reqs = workload(1_000);
    let report = table.execute_batch(&mut reqs, &grid);
    session.finish();

    let (mut events, dropped) = sink.take();
    assert_eq!(dropped, 0);
    events.sort_by_key(|e| e.seq);
    let ops = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Op { .. }))
        .count() as u64;
    assert_eq!(ops, report.counters.ops);
    let begins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LaunchBegin { .. }))
        .count();
    let warp_begins = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::WarpBegin))
        .count();
    assert_eq!(begins, 1);
    assert_eq!(warp_begins, report.warps);

    // The exported chrome trace carries one span per warp plus the launch.
    let trace = telemetry::Trace::new(events, 0);
    let chrome = trace.to_chrome_trace();
    assert!(chrome.contains("\"traceEvents\""));
    assert_eq!(chrome.matches("\"ph\":\"X\"").count(), report.warps + 1);
}

/// A broker pass may run on any waiting client thread, yet its launches
/// belong to the session captured at `Broker::spawn`: a client thread with
/// no session of its own runs every pass here (the broker thread's idle
/// tick is a minute), and each pass's launch still lands in the spawner's
/// trace.
#[test]
fn launches_from_a_pass_on_another_thread_land_in_the_spawners_session() {
    const CALLS: u32 = 32;
    let table = Arc::new(SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(64)));
    let session = TraceSession::begin(TraceConfig::default());
    let broker = Broker::spawn(
        Arc::clone(&table),
        BrokerConfig {
            grid: Some(Grid::sequential()),
            idle_tick: Duration::from_secs(60),
            ..BrokerConfig::default()
        },
    );
    let client = broker.handle();
    std::thread::spawn(move || {
        assert!(telemetry::current_session().is_none());
        for k in 0..CALLS {
            client.put(k, k).expect("healthy broker");
        }
        // The pass's session guard is gone again.
        assert!(telemetry::current_session().is_none());
    })
    .join()
    .expect("client thread panicked");
    broker.shutdown();
    let trace = session.finish();
    let begins = trace
        .events()
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LaunchBegin { .. }))
        .count();
    assert_eq!(begins, CALLS as usize, "one launch per single-request pass");
}
