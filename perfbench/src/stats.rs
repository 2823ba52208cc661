//! Order statistics over raw nanosecond samples. Samples are kept exact
//! (no histogram bucketing, no microsecond truncation) and sorted once at
//! the end of a phase.

use std::time::{Duration, Instant};

/// Nearest-rank percentile `p` (0..=100) of `sorted`; 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, or 0 when the denominator is 0 (an idle layer).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// `q`-quantile (0..=1) of `values`, interpolating linearly between the
/// closest ranks; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Windows a measured phase is cut into.
///
/// Interference from other tenants of a shared host only ever adds time,
/// and it comes in bursts of a second or more. So throughput and the
/// median are read from the less-disturbed windows: the upper quartile of
/// window throughputs and the lower quartile of window medians. The tail
/// is the median of the window 99th percentiles, so a tail cost the system
/// adds in half the windows or more (a periodic stall, a maintenance pass,
/// a reconnect) moves it, while a burst confined to a few windows does
/// not. A cost the system pays all the time moves every window, and so
/// every figure.
pub const WINDOWS: usize = 20;

/// One measured phase's observations, bucketed into [`WINDOWS`] equal
/// windows by completion time.
#[derive(Debug, Clone)]
pub struct Windows {
    start: Instant,
    len_ns: u64,
    samples: Vec<Vec<u64>>,
    ops: Vec<u64>,
}

/// One phase's end-to-end figures, read across its windows.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Completed operations per second.
    pub throughput_ops_s: f64,
    /// Median latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// Latency samples over all windows.
    pub samples: u64,
    /// Each window's throughput, for the result file.
    pub window_ops_s: Vec<f64>,
    /// Each window's 99th percentile, for the result file.
    pub window_p99_us: Vec<f64>,
}

impl PhaseSummary {
    /// The per-window figures as result-file details.
    pub fn details(&self) -> Vec<(&'static str, String)> {
        let list = |v: &[f64]| {
            let items: Vec<String> = v.iter().map(|x| format!("{x:.1}")).collect();
            items.join(" ")
        };
        vec![
            ("latency_samples", self.samples.to_string()),
            ("window_ops_s", list(&self.window_ops_s)),
            ("window_p99_us", list(&self.window_p99_us)),
        ]
    }
}

impl Windows {
    /// Empty windows for a phase starting at `start` and lasting `phase`.
    pub fn new(start: Instant, phase: Duration) -> Self {
        Self {
            start,
            len_ns: (phase.as_nanos() as u64 / WINDOWS as u64).max(1),
            samples: vec![Vec::new(); WINDOWS],
            ops: vec![0; WINDOWS],
        }
    }

    /// Records one unit of work that completed at `end`, took
    /// `latency_ns` and completed `ops` operations.
    pub fn record(&mut self, end: Instant, latency_ns: u64, ops: u64) {
        let at = end.saturating_duration_since(self.start).as_nanos() as u64;
        // The last unit may finish past the phase's end: it counts in the
        // last window.
        let w = ((at / self.len_ns) as usize).min(WINDOWS - 1);
        self.samples[w].push(latency_ns);
        self.ops[w] += ops;
    }

    /// Adds `other`'s observations (another thread's, same phase).
    pub fn merge(&mut self, other: Windows) {
        for (mine, theirs) in self.samples.iter_mut().zip(other.samples) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.ops.iter_mut().zip(other.ops) {
            *mine += theirs;
        }
    }

    /// Every latency sample, nanoseconds.
    pub fn all_samples(&self) -> impl Iterator<Item = u64> + '_ {
        self.samples.iter().flatten().copied()
    }

    /// The phase's figures, read across windows (see [`WINDOWS`]). With
    /// `busy_rate`, throughput is operations per second of summed unit
    /// latency (one load thread: the time spent inside the system's
    /// calls); otherwise per second of wall time.
    pub fn summary(&mut self, busy_rate: bool) -> PhaseSummary {
        let (mut thr, mut p50, mut p99) = (Vec::new(), Vec::new(), Vec::new());
        let mut samples = 0;
        for (window, &ops) in self.samples.iter_mut().zip(&self.ops) {
            let busy_ns: u64 = window.iter().sum();
            let denom_ns = if busy_rate { busy_ns } else { self.len_ns };
            thr.push(ratio(ops as f64 * 1e9, denom_ns as f64));
            if window.is_empty() {
                continue;
            }
            window.sort_unstable();
            samples += window.len() as u64;
            p50.push(percentile(window, 50.0) as f64 / 1e3);
            p99.push(percentile(window, 99.0) as f64 / 1e3);
        }
        PhaseSummary {
            throughput_ops_s: quantile(&thr, 0.75),
            p50_us: quantile(&p50, 0.25),
            p99_us: median(&p99),
            samples,
            window_ops_s: thr,
            window_p99_us: p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.25), 1.25);
    }

    #[test]
    fn windows_read_the_least_disturbed_windows() {
        let start = Instant::now();
        let phase = Duration::from_secs(WINDOWS as u64);
        let mut w = Windows::new(start, phase);
        for i in 0..WINDOWS as u64 {
            let end = start + Duration::from_millis(500 + 1000 * i);
            // Stalled windows (slow, with few completions) do not move the
            // figures while they stay under a quarter of the windows.
            let stalled = i % 5 == 0;
            let (lat, ops) = if stalled {
                (1_000_000_000, 1)
            } else if i == 7 {
                (800, 10)
            } else {
                (1000, 10)
            };
            w.record(end, lat, ops);
        }
        // A unit finishing past the phase's end counts in the last window.
        w.record(start + phase + Duration::from_secs(1), 1000, 10);
        let s = w.summary(false);
        assert_eq!(s.samples, WINDOWS as u64 + 1);
        assert_eq!(s.throughput_ops_s, 10.0);
        // Medians: lower quartile of windows; tail: the median window.
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p99_us, 1.0);
        assert_eq!(s.window_ops_s[WINDOWS - 1], 20.0);
    }

    #[test]
    fn a_tail_cost_in_most_windows_moves_p99() {
        let start = Instant::now();
        let phase = Duration::from_secs(WINDOWS as u64);
        let mut w = Windows::new(start, phase);
        for i in 0..WINDOWS as u64 {
            let end = start + Duration::from_millis(500 + 1000 * i);
            // Two slow units in 11 of the 20 windows: a periodic stall.
            let slow = if i % 2 == 0 || i == 1 { 50_000 } else { 1000 };
            for j in 0..100 {
                w.record(end, if j < 2 { slow } else { 1000 }, 1);
            }
        }
        let s = w.summary(false);
        assert_eq!(s.p50_us, 1.0);
        assert_eq!(s.p99_us, 50.0);
    }

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
