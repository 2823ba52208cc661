//! The `table-churn` workload: one load thread calling
//! `SlabHash::execute_buffer` with 1024-op batches on the default grid,
//! over a sliding window of live keys, with `SlabHash::maintain` after
//! every 16th batch. The unit of work (one latency sample) is one batch
//! call; every 16th unit also includes the `maintain` pass that follows
//! its batch.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use simt::{Grid, PerfCounters};
use slab_hash::{BatchBuffer, KeyValue, OpKind, OpResult, Request, SlabHash};

use crate::gen::{value_of, KeyMap};
use crate::stats::{ratio, Windows};
use crate::trace::Tracer;
use crate::{
    bytes_per_key, timed_setup, Config, Failures, Measured, MetricSet, RunResult, Verdict, BATCH,
};

type Table = SlabHash<KeyValue>;

/// Target memory utilization the table is sized for.
const UTILIZATION: f64 = 0.85;

/// `SlabHash::maintain` runs after every this many batches.
const MAINTAIN_EVERY: u64 = 16;

/// Everything one measured phase observed.
#[derive(Debug)]
struct Phase {
    windows: Windows,
    ops: u64,
    busy_ns: u128,
    wall: Duration,
    fail: Failures,
    counters: PerfCounters,
    batches: u64,
    batch_ns: u128,
    launch_ns: u128,
    warps: u64,
    maintains: u64,
    maintain_ns: u128,
    /// Slabs `maintain` returned to the allocator.
    reclaimed: u64,
    backlog_max: u64,
    free_min: u64,
    /// Table bytes per live key, sampled with the free-slab gauge.
    bytes_per_key: Vec<f64>,
}

impl Phase {
    /// Completed operations per second of time spent inside the table's
    /// calls (batch execution and maintenance).
    fn busy_ops_s(&self) -> f64 {
        ratio(self.ops as f64 * 1e9, self.busy_ns as f64)
    }

    /// Completed operations per second of phase wall time.
    fn wall_ops_s(&self) -> f64 {
        ratio(self.ops as f64, self.wall.as_secs_f64())
    }
}

fn drive(
    table: &Table,
    grid: &Grid,
    load: &mut Churn,
    batch: &mut BatchBuffer,
    dur: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let start = Instant::now();
    let mut ph = Phase {
        windows: Windows::new(start, dur),
        ops: 0,
        busy_ns: 0,
        wall: Duration::ZERO,
        fail: Failures::default(),
        counters: PerfCounters::default(),
        batches: 0,
        batch_ns: 0,
        launch_ns: 0,
        warps: 0,
        maintains: 0,
        maintain_ns: 0,
        reclaimed: 0,
        backlog_max: 0,
        free_min: u64::MAX,
        bytes_per_key: Vec::new(),
    };
    while start.elapsed() < dur {
        load.prepare(batch);
        let t0 = Instant::now();
        let report = table.execute_buffer(batch, grid);
        let t1 = Instant::now();
        let maintain = ph.batches % MAINTAIN_EVERY == MAINTAIN_EVERY - 1;
        let t2 = if maintain {
            let before = Instant::now();
            let pass = table.maintain(grid);
            ph.reclaimed += pass.reclaimed;
            Some(before)
        } else {
            None
        };
        let t3 = Instant::now();
        let batch_ns = (t1 - t0).as_nanos() as u64;
        let maintain_ns = t2.map_or(0, |t2| (t3 - t2).as_nanos() as u64);
        ph.windows
            .record(t3, batch_ns + maintain_ns, batch.len() as u64);
        ph.busy_ns += u128::from(batch_ns + maintain_ns);
        ph.batch_ns += u128::from(batch_ns);
        ph.launch_ns += report.wall.as_nanos();
        ph.warps += report.warps as u64;
        ph.counters.merge(&report.counters);
        if maintain {
            ph.maintains += 1;
            ph.maintain_ns += u128::from(maintain_ns);
            ph.backlog_max = ph.backlog_max.max(table.retired_slab_count());
        }
        if let Some(tr) = tracer.as_deref_mut() {
            let (s0, s1) = (tr.ns(t0), tr.ns(t1));
            let launch_start = s1.saturating_sub(report.wall.as_nanos() as u64).max(s0);
            tr.unit(
                ph.batches,
                &[
                    ("slab-hash.execute_buffer", s0, s1, None),
                    ("simt.launch", launch_start, s1, Some(0)),
                ],
            );
            if let Some(t2) = t2 {
                tr.unit(
                    ph.batches,
                    &[("slab-hash.maintain", tr.ns(t2), tr.ns(t3), None)],
                );
            }
        }
        ph.fail.add(&load.check(batch.requests()));
        ph.ops += batch.len() as u64;
        ph.free_min = ph
            .free_min
            .min(slab_alloc::SlabAllocator::free_slabs(table.allocator()));
        ph.bytes_per_key
            .push(bytes_per_key(table, load.oracle.len() as u64));
        ph.batches += 1;
    }
    ph.wall = start.elapsed();
    ph
}

/// Runs warm-up and the measured phases of `table-churn`, then the
/// final oracle sweep and audit, and assembles the result.
fn measure(
    cfg: &Config,
    table: &Table,
    grid: &Grid,
    load: &mut Churn,
    setup: (f64, usize),
) -> RunResult {
    let mut batch = BatchBuffer::with_capacity(BATCH);
    let warm = drive(table, grid, load, &mut batch, cfg.warmup(), None);
    let (untraced_len, traced_len) = cfg.phases();
    let mut main = drive(table, grid, load, &mut batch, untraced_len, None);
    let mut tracer = cfg
        .trace
        .then(|| Tracer::new(Instant::now(), cfg.sizes.span_cap));
    let traced = tracer
        .as_mut()
        .map(|tr| drive(table, grid, load, &mut batch, traced_len, Some(tr)));

    // Final sweep: every key the oracle holds must read back its value,
    // and the table must hold nothing else.
    let expected = &load.oracle;
    let mut sweep = Failures::default();
    let keys: Vec<u32> = expected.keys().copied().collect();
    let (found, _) = table.bulk_search(&keys, grid);
    sweep.mismatches += keys
        .iter()
        .zip(&found)
        .filter(|&(k, v)| expected.get(k) != v.as_ref())
        .count() as u64;
    let audit = table.audit();
    if let Ok(a) = &audit {
        sweep.mismatches += u64::from(a.live_elements != expected.len() as u64);
    }
    let mut measured = main.fail;
    if let Some(t) = &traced {
        measured.add(&t.fail);
    }
    let verdict = Verdict {
        warm: warm.fail,
        measured,
        attempted: main.ops + traced.as_ref().map_or(0, |t| t.ops),
        sweep,
        audit,
        live_keys: expected.len() as u64,
        setup,
    };

    let mut m = MetricSet::default();
    let mut details = Vec::new();
    let measured = match (traced, tracer) {
        (Some(t), Some(tracer)) => {
            let b = t.batches as f64;
            m.set("slab-hash.batch_us", ratio(t.batch_ns as f64, b) / 1e3);
            m.set(
                "slab-hash.route_us",
                tracer.mean_self_us("slab-hash.execute_buffer"),
            );
            m.set("simt.launch_us", ratio(t.launch_ns as f64, b) / 1e3);
            m.set("simt.warps_per_launch", ratio(t.warps as f64, b));
            m.set_counters(&t.counters);
            // Frees inside batch launches are counted by the kernels;
            // frees by maintenance passes come from their reports.
            m.set(
                "slab-alloc.frees_per_kop",
                ratio(
                    (t.counters.deallocations + t.reclaimed) as f64 * 1e3,
                    t.ops as f64,
                ),
            );
            m.set(
                "slab-hash.maintain_us",
                ratio(t.maintain_ns as f64, t.maintains as f64) / 1e3,
            );
            m.set(
                "slab-hash.retired_backlog",
                if t.maintains > 0 {
                    t.backlog_max
                } else {
                    table.retired_slab_count()
                } as f64,
            );
            m.set("slab-alloc.free_slabs_min", t.free_min as f64);
            Measured::Traced {
                tracer,
                grid,
                warps: BATCH.div_ceil(32),
                threads: 1,
                ops_s: (main.wall_ops_s(), t.wall_ops_s()),
                wall: t.wall,
            }
        }
        _ => {
            details.push(("phase_busy_ops_s", format!("{:.1}", main.busy_ops_s())));
            details.push(("phase_wall_ops_s", format!("{:.1}", main.wall_ops_s())));
            // Sampled through the phase: on `table-churn` the footprint
            // saw-tooths between maintenance passes.
            m.set("bytes_per_key", crate::stats::median(&main.bytes_per_key));
            Measured::Untraced(main.windows.summary(true))
        }
    };
    verdict.finish(measured, m, details)
}

/// The input stream and oracle: a sliding window of `churn_window` live
/// keys; each batch inserts (REPLACE) the next 512 keys and deletes the
/// 512 oldest.
struct Churn {
    keys: KeyMap,
    oldest: u64,
    next: u64,
    oracle: HashMap<u32, u32>,
}

impl Churn {
    /// Refills `batch` with the next unit's requests.
    fn prepare(&mut self, batch: &mut BatchBuffer) {
        batch.clear();
        let half = (BATCH / 2) as u64;
        for j in 0..half {
            let new = self.keys.key(self.next + j);
            batch.push(Request::replace(new, value_of(new, 0)));
            batch.push(Request::delete(self.keys.key(self.oldest + j)));
        }
        self.next += half;
        self.oldest += half;
    }

    /// Checks the executed requests against the oracle, and advances it.
    fn check(&mut self, reqs: &[Request]) -> Failures {
        let mut fail = Failures::default();
        for r in reqs {
            // A failed request had no effect: the oracle stays as it was.
            if let OpResult::Failed(_) = r.result {
                fail.typed += 1;
                continue;
            }
            let ok = match (r.op, &r.result) {
                (OpKind::Replace, OpResult::Inserted) => {
                    self.oracle.insert(r.key, r.value).is_none()
                }
                (OpKind::Replace, OpResult::Replaced(old)) => {
                    self.oracle.insert(r.key, r.value) == Some(*old)
                }
                (OpKind::Delete, OpResult::Deleted(v)) => self.oracle.remove(&r.key) == Some(*v),
                (OpKind::Delete, OpResult::NotFound) => self.oracle.remove(&r.key).is_none(),
                _ => false,
            };
            fail.mismatches += u64::from(!ok);
        }
        fail
    }
}

/// Runs `table-churn`.
pub fn run_churn(cfg: &Config) -> RunResult {
    let w = cfg.sizes.churn_window;
    let keys = KeyMap::new(cfg.seed);
    let grid = Grid::default();
    let pairs: Vec<(u32, u32)> = (0..w)
        .map(|i| {
            let k = keys.key(i);
            (k, value_of(k, 0))
        })
        .collect();
    let mut oracle: HashMap<u32, u32> = pairs.iter().copied().collect();
    let reps = cfg.sizes.setup_reps;
    let (table, setup_s) = timed_setup(reps, || {
        let t = Table::for_expected_elements(w as usize, UTILIZATION, cfg.seed);
        t.bulk_build(&pairs, &grid);
        t
    });
    if cfg.corrupt_oracle {
        *oracle.get_mut(&keys.key(0)).expect("key 0 is built") ^= 1;
    }
    let mut load = Churn {
        keys,
        oldest: 0,
        next: w,
        oracle,
    };
    measure(cfg, &table, &grid, &mut load, (setup_s, reps))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(load: &mut Churn, n: usize) -> Vec<Vec<Request>> {
        let mut batch = BatchBuffer::new();
        (0..n)
            .map(|_| {
                load.prepare(&mut batch);
                batch.requests().to_vec()
            })
            .collect()
    }

    fn churn(seed: u64) -> Churn {
        Churn {
            keys: KeyMap::new(seed),
            oldest: 0,
            next: 1 << 11,
            oracle: HashMap::new(),
        }
    }

    #[test]
    fn batches_repeat_per_seed() {
        assert_eq!(batches(&mut churn(3), 4), batches(&mut churn(3), 4));
        assert_ne!(batches(&mut churn(3), 4), batches(&mut churn(4), 4));
    }

    #[test]
    fn churn_batches_slide_the_window() {
        let mut c = churn(1);
        let b = batches(&mut c, 2);
        let keys = KeyMap::new(1);
        assert_eq!(b[0].len(), 1024);
        assert_eq!(
            b[0][0],
            Request::replace(keys.key(1 << 11), value_of(keys.key(1 << 11), 0))
        );
        assert_eq!(b[0][1], Request::delete(keys.key(0)));
        assert_eq!(b[1][1], Request::delete(keys.key(512)));
        assert_eq!((c.oldest, c.next), (1024, (1 << 11) + 1024));
    }
}
