//! Observability layer for the SlabHash simulator.
//!
//! Three complementary views of a launch, all collected with the same
//! discipline as `PerfCounters` (private per-warp storage, merged once
//! after the launch, no hot-path synchronization beyond one relaxed
//! sequence counter):
//!
//! 1. **Traces** — structured launch → warp → op events recorded into
//!    per-executor ring buffers ([`WarpTracer`]) and flushed to a
//!    [`TraceSink`]. Exportable as JSON Lines and chrome://tracing
//!    `trace_event` JSON ([`Trace`]). Timestamps are logical sequence
//!    numbers, so a fixed chaos seed plus a sequential grid replays to a
//!    byte-identical stream.
//! 2. **Histograms** — log₂-bucketed distributions ([`LogHistogram`],
//!    [`Histograms`]) of chain length, warp rounds per op, CAS retries per
//!    op, and allocator resident-block hops, merged into every launch
//!    report.
//! 3. **Heatmaps** — per-bucket contention attribution ([`Heatmap`])
//!    fusing audit-side structure ([`BucketStat`]) with trace-side CAS
//!    retry counts.
//!
//! A fourth, instantaneous view — [`Gauge`] pressure gauges with watermark
//! thresholds — carries live resource levels (outstanding slabs, free-unit
//! headroom) from allocators to maintenance policies and soak tests.
//!
//! On top of those sit the *live* metrics plane:
//!
//! * **Registry** — a sharded, lock-free [`MetricsRegistry`] of named
//!   [`Counter`]s, [`GaugeMetric`]s, and per-worker-sharded
//!   [`HistogramMetric`]s, scrapable while the system runs.
//! * **Spans** — a [`RequestSpan`] minted per request with per-[`Stage`]
//!   wall-clock marks, collapsing into a [`SpanReport`] latency
//!   decomposition (queue-wait / admission / dispatch / execute / reply).
//! * **Exporter** — [`exporter::MetricsServer`] serves the registry as
//!   Prometheus text over a tiny std `TcpListener` thread, and
//!   [`exporter::JsonlSnapshots`] appends periodic JSON lines for headless
//!   runs.
//!
//! This crate is deliberately free of simulator dependencies; `simt` and
//! the table crates hook into it, not the other way round.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod exporter;
pub mod gauge;
pub mod heatmap;
pub mod histogram;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::{EventKind, TraceEvent, LAUNCH_WARP};
pub use exporter::{scrape_text, JsonlSnapshots, MetricsServer};
pub use gauge::{Gauge, GaugeSnapshot, Watermark};
pub use heatmap::{BucketStat, Heatmap, HotBucket};
pub use histogram::{Histograms, LogHistogram, HISTOGRAM_BUCKETS};
pub use metrics::{Counter, GaugeMetric, HistogramMetric, HistogramSnapshot, MetricsRegistry};
pub use sink::{
    current_session, MemorySink, SessionGuard, SessionHandle, TraceConfig, TraceSession, TraceSink,
    WarpTracer,
};
pub use span::{RequestSpan, SpanReport, Stage, STAGES, STAGE_COUNT};
pub use trace::Trace;
