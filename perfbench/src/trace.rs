//! Spans the benchmark records around its own calls into each layer.
//!
//! One unit of work (a request on `kv-*`, a batch on `table-churn`) is
//! recorded as a small tree: a root span plus children that name their
//! parent. Every span's *self time* (its duration minus its direct
//! children's) is accumulated per layer name for the whole traced phase;
//! the span records themselves are kept in memory up to a cap and written
//! out as JSON lines when the run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Most spans one unit of work may carry.
const MAX_SPANS_PER_UNIT: usize = 8;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `ingress.queue_wait`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the parent span in the written trace, `None` for roots.
    pub parent: Option<usize>,
    /// The unit of work (request or batch) the span belongs to.
    pub request: u64,
}

/// A span of a unit under construction: `(name, start_ns, end_ns,
/// parent)`, where `parent` indexes the unit's own span slice.
pub type UnitSpan = (&'static str, u64, u64, Option<usize>);

/// Per-thread span recorder; merge the threads' recorders at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    cap: usize,
    kept: Vec<SpanRecord>,
    dropped: u64,
    /// Per layer: total self time (ns) and span count. A handful of
    /// layers, so a linear scan beats a map on the traced hot path.
    self_ns: Vec<(&'static str, u128, u64)>,
}

impl Tracer {
    /// A recorder timing spans against `origin`, keeping at most `cap`
    /// span records (aggregates always cover every span).
    pub fn new(origin: Instant, cap: usize) -> Self {
        Self {
            origin,
            cap,
            kept: Vec::new(),
            dropped: 0,
            self_ns: Vec::new(),
        }
    }

    /// An empty recorder with this one's origin and a `1/ways` share of
    /// its cap, for one of `ways` threads; [`merge`](Self::merge) it back.
    pub fn fork(&self, ways: usize) -> Tracer {
        Tracer::new(self.origin, self.cap / ways.max(1))
    }

    /// `t` as nanoseconds since the origin.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records one unit of work. `spans[0]` is the root; every other span
    /// names its parent by index into `spans` (children must not overlap).
    pub fn unit(&mut self, request: u64, spans: &[UnitSpan]) {
        assert!(
            !spans.is_empty() && spans.len() <= MAX_SPANS_PER_UNIT,
            "a unit carries 1..={MAX_SPANS_PER_UNIT} spans"
        );
        let mut children_ns = [0u64; MAX_SPANS_PER_UNIT];
        for &(_, start, end, parent) in &spans[1..] {
            let p = parent.expect("only the root span has no parent");
            children_ns[p] += end.saturating_sub(start);
        }
        for (i, &(name, start, end, _)) in spans.iter().enumerate() {
            let self_ns = end.saturating_sub(start).saturating_sub(children_ns[i]);
            self.add_self(name, u128::from(self_ns), 1);
        }
        if self.kept.len() + spans.len() > self.cap {
            self.dropped += spans.len() as u64;
            return;
        }
        let base = self.kept.len();
        self.kept.extend(
            spans
                .iter()
                .map(|&(name, start_ns, end_ns, parent)| SpanRecord {
                    name,
                    start_ns,
                    end_ns,
                    parent: parent.map(|p| base + p),
                    request,
                }),
        );
    }

    /// Appends `other`'s spans and aggregates (re-basing parent indices).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.kept.len();
        let room = self.cap.saturating_sub(base);
        if other.kept.len() <= room {
            self.kept.extend(other.kept.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        } else {
            self.dropped += other.kept.len() as u64;
        }
        self.dropped += other.dropped;
        for (name, ns, n) in other.self_ns {
            self.add_self(name, ns, n);
        }
    }

    fn add_self(&mut self, name: &'static str, ns: u128, spans: u64) {
        match self.self_ns.iter_mut().find(|e| e.0 == name) {
            Some(e) => {
                e.1 += ns;
                e.2 += spans;
            }
            None => self.self_ns.push((name, ns, spans)),
        }
    }

    /// Total self time of layer `name`, nanoseconds, and its span count.
    pub fn self_time(&self, name: &str) -> (u128, u64) {
        self.self_ns
            .iter()
            .find(|e| e.0 == name)
            .map_or((0, 0), |&(_, ns, n)| (ns, n))
    }

    /// Mean self time of layer `name` per span, microseconds (0 if unseen).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let (ns, n) = self.self_time(name);
        crate::stats::ratio(ns as f64, n as f64) / 1e3
    }

    /// Sum of every layer's self time: by construction the sum of the root
    /// spans' durations.
    pub fn layer_sum_ns(&self) -> u128 {
        self.self_ns.iter().map(|&(_, ns, _)| ns).sum()
    }

    /// Span records kept and dropped by the cap.
    pub fn counts(&self) -> (usize, u64) {
        (self.kept.len(), self.dropped)
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root() {
        let mut t = Tracer::new(Instant::now(), 100);
        t.unit(
            1,
            &[
                ("root", 0, 100, None),
                ("a", 10, 40, Some(0)),
                ("b", 40, 90, Some(0)),
                ("b.inner", 50, 70, Some(2)),
            ],
        );
        assert_eq!(t.self_time("root"), (20, 1));
        assert_eq!(t.self_time("a"), (30, 1));
        assert_eq!(t.self_time("b"), (30, 1));
        assert_eq!(t.self_time("b.inner"), (20, 1));
        assert_eq!(t.layer_sum_ns(), 100, "self times add up to the root");
    }

    #[test]
    fn cap_bounds_records_not_aggregates() {
        let mut a = Tracer::new(Instant::now(), 3);
        a.unit(1, &[("root", 0, 10, None), ("x", 0, 5, Some(0))]);
        a.unit(2, &[("root", 10, 20, None), ("x", 10, 15, Some(0))]);
        assert_eq!(a.counts(), (2, 2));
        assert_eq!(a.self_time("x"), (10, 2));
        let mut b = Tracer::new(Instant::now(), 3);
        b.unit(3, &[("root", 0, 1, None)]);
        a.merge(b);
        assert_eq!(a.counts(), (3, 2));
        assert_eq!(a.kept[2].parent, None);
        assert_eq!(a.self_time("root"), (11, 3));
    }
}
