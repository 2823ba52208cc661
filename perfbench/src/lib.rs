//! Measured benchmark of the slab hash service, end to end and per layer.
//!
//! Three closed-loop workloads drive the system only through its public
//! API from one process (see `perfbench/README.md` for why each exists):
//!
//! * `kv-inproc` — client threads → `ClientHandle` → broker → table;
//! * `kv-wire` — the same load through `WireClient` → loopback
//!   `WireServer` → broker → table;
//! * `table-churn` — a sliding window of inserts and deletes with periodic
//!   `SlabHash::maintain`, keeping the allocator and compaction busy.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]) from spans the
//! benchmark records around its own calls into each layer.

#![forbid(unsafe_code)]

pub mod gen;
pub mod kv;
pub mod report;
pub mod stats;
pub mod table;
pub mod trace;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use simt::{Grid, PerfCounters};
use slab_alloc::SlabAllocator;
use slab_hash::{AuditReport, EntryLayout, SlabHash};

use crate::stats::{ratio, PhaseSummary};
use crate::trace::Tracer;

/// Operations per `execute_buffer` call on `table-churn`.
pub const BATCH: usize = 1024;

/// End-to-end metrics (untraced run): `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("success_share", "share"),
    ("setup_s", "s"),
    ("bytes_per_key", "B/key"),
];

/// Per-layer metrics (traced run): `(name, unit)`. A layer the workload
/// does not drive reads 0.
pub const PER_LAYER: [(&str, &str); 33] = [
    ("client.residual_us", "us"),
    ("ingress.queue_wait_us", "us"),
    ("ingress.admission_us", "us"),
    ("ingress.dispatch_us", "us"),
    ("ingress.execute_us", "us"),
    ("ingress.reply_us", "us"),
    ("ingress.batch_size", "ops"),
    ("ingress.shed", "count"),
    ("ingress.timed_out", "count"),
    ("ingress.retried", "count"),
    ("wire.codec_ns", "ns"),
    ("wire.socket_us", "us"),
    ("wire.frames_per_call", "frames"),
    ("wire.reconnects", "count"),
    ("wire.transport_errors", "count"),
    ("slab-hash.batch_us", "us"),
    ("slab-hash.route_us", "us"),
    ("slab-hash.bytes_per_op", "B/op"),
    ("slab-hash.warp_rounds_per_op", "rounds/op"),
    ("slab-hash.tag_fp_per_probe", "ratio"),
    ("slab-hash.cas_success_ratio", "ratio"),
    ("slab-hash.retry_exhaustions", "count"),
    ("slab-hash.maintain_us", "us"),
    ("slab-hash.retired_backlog", "slabs"),
    ("slab-alloc.allocs_per_kop", "1/kop"),
    ("slab-alloc.frees_per_kop", "1/kop"),
    ("slab-alloc.resident_changes_per_alloc", "ratio"),
    ("slab-alloc.free_slabs_min", "slabs"),
    ("simt.launch_us", "us"),
    ("simt.warps_per_launch", "warps"),
    ("simt.empty_launch_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.reconcile_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop clients through the in-process broker.
    KvInproc,
    /// Closed-loop clients through the loopback wire transport.
    KvWire,
    /// Sliding-window insert/delete batches with periodic maintenance.
    TableChurn,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::KvInproc, Workload::KvWire, Workload::TableChurn];

    /// The CLI / `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KvInproc => "kv-inproc",
            Workload::KvWire => "kv-wire",
            Workload::TableChurn => "table-churn",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::tiny`] is for
/// the benchmark's own tests.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Keys the `kv-*` clients address (split into disjoint client ranges).
    pub kv_keyspace: u64,
    /// Live keys in the `table-churn` window.
    pub churn_window: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Most span records kept in memory for the trace file.
    pub span_cap: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            kv_keyspace: 1 << 17,
            churn_window: 1 << 15,
            setup_reps: 31,
            span_cap: 50_000,
        }
    }

    /// Sizes small enough for a unit test.
    pub fn tiny() -> Self {
        Self {
            kv_keyspace: 1 << 10,
            churn_window: 1 << 11,
            setup_reps: 2,
            span_cap: 1000,
        }
    }
}

/// One benchmark run.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Measured seconds (a traced run splits them between an untraced and
    /// a traced phase).
    pub seconds: f64,
    /// Report per-layer metrics from a traced phase instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// Test hook: falsify one oracle answer, which the run must catch.
    pub corrupt_oracle: bool,
}

impl Config {
    /// Warm-up before the measured phases: lets pools spawn and caches
    /// fill; its operations are verified but not measured.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds * 0.1).clamp(0.02, 1.0))
    }

    /// The measured phases' lengths: `(untraced, traced)`.
    pub fn phases(&self) -> (Duration, Duration) {
        let s = Duration::from_secs_f64(self.seconds);
        if self.trace {
            (s / 2, s / 2)
        } else {
            (s, Duration::ZERO)
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
#[derive(Debug)]
pub struct RunResult {
    /// No verification mismatch, audit clean.
    pub correct: bool,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Failed operations (shed, timed out, typed or transport errors,
    /// verification mismatches) in the measured phases.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Details for the result file (sample counts, failure breakdown).
    pub details: Vec<(&'static str, String)>,
    /// The traced phase's spans, on traced runs.
    pub spans: Option<Tracer>,
}

/// Runs one benchmark configuration.
pub fn run(cfg: &Config) -> RunResult {
    match cfg.workload {
        Workload::KvInproc => kv::run(cfg, false),
        Workload::KvWire => kv::run(cfg, true),
        Workload::TableChurn => table::run_churn(cfg),
    }
}

/// Failure accounting for one measured phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Failures {
    /// Refused by admission or overload control.
    pub shed: u64,
    /// Deadline exceeded.
    pub timed_out: u64,
    /// Other typed errors (table errors, broker gone).
    pub typed: u64,
    /// Transport failures (connect, connection lost, bad frames).
    pub transport: u64,
    /// Answers that disagree with the oracle.
    pub mismatches: u64,
}

impl Failures {
    /// Every failure kind.
    pub fn total(&self) -> u64 {
        self.shed + self.timed_out + self.typed + self.transport + self.mismatches
    }

    /// Accumulates `other`.
    pub fn add(&mut self, other: &Failures) {
        self.shed += other.shed;
        self.timed_out += other.timed_out;
        self.typed += other.typed;
        self.transport += other.transport;
        self.mismatches += other.mismatches;
    }

    /// Key/value pairs for the result file.
    pub fn details(&self) -> Vec<(&'static str, String)> {
        vec![
            ("failed.shed", self.shed.to_string()),
            ("failed.timed_out", self.timed_out.to_string()),
            ("failed.typed", self.typed.to_string()),
            ("failed.transport", self.transport.to_string()),
            ("failed.mismatches", self.mismatches.to_string()),
        ]
    }
}

/// What a run verified, and the failures it counted.
#[derive(Debug)]
pub struct Verdict {
    /// Failures of the warm-up (only its mismatches count).
    pub warm: Failures,
    /// Failures of the measured phases.
    pub measured: Failures,
    /// Operations attempted in the measured phases.
    pub attempted: u64,
    /// Mismatches of the final sweep against the oracle.
    pub sweep: Failures,
    /// The table's audit after the run.
    pub audit: Result<AuditReport, String>,
    /// Keys the oracle holds at the end.
    pub live_keys: u64,
    /// `setup_s` and the set-ups it is the median of.
    pub setup: (f64, usize),
}

/// How a run was measured.
pub enum Measured<'a> {
    /// The untraced phase's end-to-end figures.
    Untraced(PhaseSummary),
    /// The traced phase.
    Traced {
        /// Its spans.
        tracer: Tracer,
        /// The grid the table launches on.
        grid: &'a Grid,
        /// Warps per launch, for `simt.empty_launch_us`.
        warps: usize,
        /// Load threads that drove it.
        threads: usize,
        /// Wall-clock throughput of the untraced and the traced phase.
        ops_s: (f64, f64),
        /// Its wall time.
        wall: Duration,
    },
}

impl Verdict {
    /// Assembles the run's result: `m` holds the workload's own metrics,
    /// `details` its own details; the accounting and the metrics every
    /// workload reads the same way are added here.
    pub fn finish(
        self,
        measured: Measured<'_>,
        mut m: MetricSet,
        details: Vec<(&'static str, String)>,
    ) -> RunResult {
        let mut all_fail = self.measured;
        all_fail.add(&self.warm);
        all_fail.add(&self.sweep);
        let correct = all_fail.mismatches == 0 && audit_ok(&self.audit);
        // Failures of the measured phases, plus every verification
        // mismatch (warm-up and final sweep included).
        let failed = self.measured.total() + self.warm.mismatches + self.sweep.mismatches;
        let audit = self
            .audit
            .as_ref()
            .map(|a| (a.live_elements, a.tags_consistent(), a.double_frees));
        let mut all_details = vec![
            ("setup_reps", self.setup.1.to_string()),
            ("warmup_mismatches", self.warm.mismatches.to_string()),
            ("sweep_mismatches", self.sweep.mismatches.to_string()),
            ("audit", format!("{audit:?}")),
            ("live_keys", self.live_keys.to_string()),
        ];
        all_details.extend(details);
        let spans = match measured {
            Measured::Untraced(sum) => {
                all_details.extend(sum.details());
                m.set("throughput_ops_s", sum.throughput_ops_s);
                m.set("latency_p50_us", sum.p50_us);
                m.set("latency_p99_us", sum.p99_us);
                m.set(
                    "success_share",
                    1.0 - ratio(failed as f64, self.attempted as f64),
                );
                m.set("setup_s", self.setup.0);
                None
            }
            Measured::Traced {
                tracer,
                grid,
                warps,
                threads,
                ops_s,
                wall,
            } => {
                m.set("simt.empty_launch_us", empty_launch_us(grid, warps));
                m.set("trace.overhead_pct", overhead_pct(ops_s.0, ops_s.1));
                m.set(
                    "trace.reconcile_pct",
                    reconcile_pct(tracer.layer_sum_ns(), threads, wall),
                );
                let (kept, dropped) = tracer.counts();
                all_details.push(("spans_kept", kept.to_string()));
                all_details.push(("spans_dropped", dropped.to_string()));
                Some(tracer)
            }
        };
        all_details.extend(all_fail.details());
        RunResult {
            correct,
            attempted: self.attempted,
            failed,
            metrics: m.finish(spans.is_some()),
            details: all_details,
            spans,
        }
    }
}

/// Collects the metric list of a run, keyed by the fixed name tables so
/// every run emits every metric of its kind, in order.
#[derive(Debug, Default)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// Sets `name` (must be listed in [`END_TO_END`] or [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Sets the per-op table and allocator counters from `c`.
    pub fn set_counters(&mut self, c: &PerfCounters) {
        let ops = c.ops as f64;
        self.set("slab-hash.bytes_per_op", ratio(c.bytes_moved() as f64, ops));
        self.set(
            "slab-hash.warp_rounds_per_op",
            ratio(c.warp_rounds as f64, ops),
        );
        self.set(
            "slab-hash.tag_fp_per_probe",
            ratio(c.tag_false_positives as f64, c.tag_reads as f64),
        );
        self.set(
            "slab-hash.cas_success_ratio",
            1.0 - ratio(c.cas_failures as f64, c.atomics as f64),
        );
        self.set("slab-hash.retry_exhaustions", c.retry_exhaustions as f64);
        self.set(
            "slab-alloc.allocs_per_kop",
            ratio(c.allocations as f64 * 1e3, ops),
        );
        self.set(
            "slab-alloc.frees_per_kop",
            ratio(c.deallocations as f64 * 1e3, ops),
        );
        self.set(
            "slab-alloc.resident_changes_per_alloc",
            ratio(c.resident_changes as f64, c.allocations as f64),
        );
    }

    /// The metrics of one kind (`per_layer` selects [`PER_LAYER`]), unset
    /// ones reading 0.
    pub fn finish(&self, per_layer: bool) -> Vec<Metric> {
        let table: &[(&'static str, &'static str)] =
            if per_layer { &PER_LAYER } else { &END_TO_END };
        table
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0.get(name).copied().unwrap_or(0.0),
                unit,
            })
            .collect()
    }
}

/// Table bytes per live key: base slabs plus allocated slabs, each with
/// its 32 B fingerprint-tag sidecar when tags are on.
/// (`SlabHash::device_bytes` leaves the sidecar out.)
pub fn bytes_per_key<L: EntryLayout, A: SlabAllocator>(t: &SlabHash<L, A>, live: u64) -> f64 {
    let slabs = u64::from(t.num_buckets()) + t.allocator().allocated_slabs();
    let per_slab = simt::SLAB_BYTES as u64 + if t.tags_enabled() { 32 } else { 0 };
    ratio((slabs * per_slab) as f64, live as f64)
}

/// Runs `build` `reps` times, timing each; returns the last build and the
/// median seconds. Earlier builds are dropped outside the timed region.
pub fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Whether an audit passes the benchmark's bar: structurally sound, tags
/// sound, no double frees.
fn audit_ok(audit: &Result<AuditReport, String>) -> bool {
    matches!(audit, Ok(a) if a.tags_consistent() && a.double_frees == 0)
}

/// `trace.overhead_pct`: how much slower the traced phase ran than the
/// untraced one, from their throughputs.
fn overhead_pct(untraced_ops_s: f64, traced_ops_s: f64) -> f64 {
    (ratio(untraced_ops_s, traced_ops_s) - 1.0) * 100.0
}

/// `trace.reconcile_pct`: the layers' summed self time against the load
/// threads' wall time in the traced phase. Negative means load-thread time
/// outside every recorded call (input generation, oracle checks).
fn reconcile_pct(layer_sum_ns: u128, threads: usize, wall: Duration) -> f64 {
    let end_to_end = threads as f64 * wall.as_nanos() as f64;
    (ratio(layer_sum_ns as f64, end_to_end) - 1.0) * 100.0
}

/// Median wall time of `Grid::launch_warps` with a no-op kernel over
/// `warps` warps, microseconds: the launch layer's dispatch floor.
fn empty_launch_us(grid: &Grid, warps: usize) -> f64 {
    let samples: Vec<f64> = (0..2000)
        .map(|_| {
            let t0 = Instant::now();
            grid.launch_warps(warps, |_| {});
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}
