//! Kernel launching: scheduling simulated warps over CPU threads.
//!
//! A GPU kernel launch creates `ceil(n / 32)` warps that the hardware
//! scheduler multiplexes over its streaming multiprocessors. We reproduce the
//! structure directly: work items (one per simulated GPU thread) are split
//! into warp-sized chunks and a pool of OS threads drains them by bumping a
//! shared atomic claim counter. Warps that run on different OS threads
//! execute *genuinely concurrently*, so every inter-warp race in the paper's
//! lock-free algorithms (CAS retries, allocate-then-link races,
//! delete/search interleavings) is exercised for real, not emulated.
//!
//! Executor threads are persistent (see [`Grid`] and the crate's `pool`
//! module): a launch wakes the grid's parked workers instead of spawning
//! fresh OS threads, mirroring how a GPU's SMs are always powered and
//! merely fed new blocks.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use telemetry::{EventKind, Histograms, SessionHandle, WarpTracer, LAUNCH_WARP};

use crate::counters::PerfCounters;
use crate::pool::{ChunkDispenser, Pool, ShardDispenser};
use crate::shard::ShardPlan;
use crate::warp::WARP_SIZE;

/// Per-warp execution context handed to kernels.
///
/// The context is exclusive to one warp for the duration of its execution, so
/// counter updates are plain (non-atomic) increments and histogram/trace
/// recording touches only private storage; blocks are merged (and trace rings
/// flushed) when the launch completes.
pub struct WarpCtx {
    /// Global warp id within the launch (the paper's allocator hashes this to
    /// pick resident memory blocks).
    pub warp_id: usize,
    /// Performance counters for this warp.
    pub counters: PerfCounters,
    /// Work-distribution histograms for this warp.
    pub histograms: Histograms,
    /// Trace recorder, present when the launching thread had an active
    /// [`telemetry::TraceSession`].
    pub tracer: Option<WarpTracer>,
    /// `counters.ops` when the current warp chunk began (for the
    /// `warp_end` event's ops delta).
    ops_at_warp_begin: u64,
}

impl WarpCtx {
    /// Creates a context for unit tests and single-warp drivers. Picks up
    /// the calling thread's active trace session, if any.
    pub fn for_test(warp_id: usize) -> Self {
        Self::fresh(warp_id)
    }

    /// A fresh context bound to the calling thread's trace session.
    fn fresh(warp_id: usize) -> Self {
        Self::bound(warp_id, telemetry::current_session().as_ref())
    }

    /// A fresh context recording into `session` (captured once per launch on
    /// the launching thread, then shared with every executor).
    fn bound(warp_id: usize, session: Option<&SessionHandle>) -> Self {
        Self {
            warp_id,
            counters: PerfCounters::default(),
            histograms: Histograms::default(),
            tracer: session.map(SessionHandle::tracer),
            ops_at_warp_begin: 0,
        }
    }

    /// Records a trace event attributed to this warp. A no-op without an
    /// active trace session, so instrumented hot paths stay cheap.
    #[inline]
    pub fn trace(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(self.warp_id as u32, kind);
        }
    }

    /// Marks the start of one warp chunk (`warp_begin` event).
    fn begin_warp(&mut self) {
        self.ops_at_warp_begin = self.counters.ops;
        self.trace(EventKind::WarpBegin);
    }

    /// Marks the end of one warp chunk (`warp_end` event with the chunk's
    /// completed-op count).
    fn end_warp(&mut self) {
        let ops = (self.counters.ops - self.ops_at_warp_begin) as u32;
        self.trace(EventKind::WarpEnd { ops });
    }
}

/// Result of a kernel launch: merged counters plus host-side wall time of the
/// simulation (reported alongside, never mixed with, model-estimated time).
#[derive(Debug, Clone, Copy)]
pub struct LaunchReport {
    /// Counters merged across all warps.
    pub counters: PerfCounters,
    /// Work-distribution histograms merged across all warps.
    pub histograms: Histograms,
    /// Wall-clock time the simulation took on the CPU.
    pub wall: Duration,
    /// Number of warps executed.
    pub warps: usize,
}

impl LaunchReport {
    /// Host-side throughput in operations per second (simulation speed, *not*
    /// the modeled GPU speed).
    pub fn cpu_ops_per_sec(&self) -> f64 {
        if self.wall.as_secs_f64() == 0.0 {
            0.0
        } else {
            self.counters.ops as f64 / self.wall.as_secs_f64()
        }
    }
}

/// A contained warp panic from [`Grid::try_launch`] /
/// [`Grid::try_launch_warps`].
///
/// Exactly one panicking warp is reported (the first observed); the
/// scheduler's poison flag keeps remaining warps from *starting* after the
/// panic, while warps already in flight drain normally and are counted in
/// [`completed_warps`](Self::completed_warps).
pub struct LaunchError {
    /// Warp id of the (first) panicking warp.
    pub warp_id: usize,
    /// The panic payload, as `std::thread::JoinHandle::join` would return
    /// it.
    pub payload: Box<dyn Any + Send + 'static>,
    /// Warps that ran to completion before the launch was abandoned.
    pub completed_warps: usize,
}

impl LaunchError {
    /// The panic message, when the payload was a string (the common case).
    pub fn message(&self) -> Option<&str> {
        if let Some(s) = self.payload.downcast_ref::<&'static str>() {
            Some(s)
        } else {
            self.payload.downcast_ref::<String>().map(String::as_str)
        }
    }

    /// Re-raises the contained panic on the calling thread.
    pub fn resume_unwind(self) -> ! {
        std::panic::resume_unwind(self.payload)
    }
}

impl std::fmt::Debug for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaunchError")
            .field("warp_id", &self.warp_id)
            .field("completed_warps", &self.completed_warps)
            .field("message", &self.message().unwrap_or("<non-string panic payload>"))
            .finish()
    }
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "warp {} panicked ({}); {} warps completed",
            self.warp_id,
            self.message().unwrap_or("non-string panic payload"),
            self.completed_warps
        )
    }
}

/// The warp scheduler: a fixed-width pool of OS threads standing in for the
/// GPU's SMs.
///
/// The grid owns `num_threads - 1` persistent worker threads, spawned
/// lazily on the first parallel launch; each launch wakes them and the
/// launching thread executes alongside. A launch that finds the pool busy
/// (concurrent launches on one shared grid, or a nested launch from inside
/// a kernel) spawns scoped threads for just that launch instead.
///
/// Clones share the same executor pool, so passing a grid by clone is cheap
/// and keeps one set of worker threads per logical scheduler.
#[derive(Clone)]
pub struct Grid {
    num_threads: usize,
    pool: Arc<OnceLock<Pool>>,
}

impl std::fmt::Debug for Grid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Grid")
            .field("num_threads", &self.num_threads)
            .field("pool_started", &self.pool.get().is_some())
            .finish()
    }
}

impl Default for Grid {
    fn default() -> Self {
        // `available_parallelism` is a syscall on most platforms; benches
        // and tests construct grids freely, so query it once per process.
        static PARALLELISM: OnceLock<usize> = OnceLock::new();
        Self::new(*PARALLELISM.get_or_init(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        }))
    }
}

impl Grid {
    /// A scheduler with `num_threads` concurrent warp executors (clamped to
    /// at least one).
    pub fn new(num_threads: usize) -> Self {
        Self {
            num_threads: num_threads.max(1),
            pool: Arc::new(OnceLock::new()),
        }
    }

    /// A single-threaded scheduler: warps run one after another in warp-id
    /// order. Deterministic — used by tests that need reproducible
    /// interleavings-free behaviour. Never spawns worker threads.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// Number of OS threads used for warp execution.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Live executor-pool statistics, for the metrics plane. `None` until
    /// the grid's first parallel launch (the pool spawns lazily).
    pub fn pool_stats(&self) -> Option<crate::pool::PoolStats> {
        self.pool.get().map(Pool::stats)
    }

    /// Fault-injection hook for robustness tests: makes up to `n` of the
    /// grid's pool workers exit as if they had died (starting the pool if it
    /// has not launched yet), blocks until they are gone, and returns the
    /// number of workers still alive. Subsequent launches must keep
    /// completing on the survivors — launcher-only in the limit — instead of
    /// hanging the completion barrier.
    #[doc(hidden)]
    pub fn debug_kill_pool_workers(&self, n: usize) -> usize {
        self.pool
            .get_or_init(|| Pool::new(self.num_threads - 1))
            .kill_workers(n)
    }

    /// Launches a kernel over `items`, one item per simulated GPU thread.
    ///
    /// `kernel` is invoked once per warp with the warp's up-to-32 work items;
    /// the final (partial) warp simply has fewer. This mirrors CUDA's
    /// `if (tid < n)` guard: inactive lanes exist but carry no work.
    ///
    /// A panicking warp is re-raised on the calling thread (after in-flight
    /// warps drain); use [`Grid::try_launch`] to contain it instead.
    pub fn launch<T, F>(&self, items: &mut [T], kernel: F) -> LaunchReport
    where
        T: Send,
        F: Fn(&mut WarpCtx, &mut [T]) + Sync,
    {
        match self.try_launch(items, kernel) {
            Ok(report) => report,
            Err(e) => e.resume_unwind(),
        }
    }

    /// Like [`Grid::launch`], but contains warp panics: the first panicking
    /// warp poisons the launch (queued warps stop being picked up, in-flight
    /// warps drain) and is returned as a structured [`LaunchError`] instead
    /// of unwinding through the scheduler.
    ///
    /// # Errors
    /// Returns the first warp panic observed.
    pub fn try_launch<T, F>(&self, items: &mut [T], kernel: F) -> Result<LaunchReport, LaunchError>
    where
        T: Send,
        F: Fn(&mut WarpCtx, &mut [T]) + Sync,
    {
        let dispenser = ChunkDispenser::new(items, WARP_SIZE);
        self.run_launch(dispenser.num_chunks(), |_slot, ctx, containment| {
            while !containment.poisoned() {
                let Some((warp_id, chunk)) = dispenser.next() else {
                    break;
                };
                if !containment.run_warp(ctx, warp_id, |ctx| kernel(ctx, chunk)) {
                    break;
                }
            }
        })
    }

    /// Launches a kernel over shard-shaped work, containing warp panics as
    /// [`Grid::try_launch`] does: `items` is the concatenation of per-shard
    /// sub-batches described by `plan`, and each executor drains *its own*
    /// shard's warps before stealing from others (owner-first dispatch; see
    /// [`crate::ShardPlan`]).
    ///
    /// Ownership is keyed on stable executor slots — the launching thread
    /// is slot 0, each pool worker keeps its spawn index for life — so
    /// shard `s` is processed by the same OS thread launch after launch,
    /// and two executors only touch the same bucket range when one has
    /// gone idle (or an owner has died) and steals the tail. Correctness
    /// never depends on the routing: stolen or misrouted chunks run the
    /// same kernel against the same table.
    ///
    /// # Errors
    /// Returns the first warp panic observed.
    ///
    /// # Panics
    /// If `items.len()` does not match the plan's total element count.
    pub fn try_launch_sharded<T, F>(
        &self,
        items: &mut [T],
        plan: &ShardPlan,
        kernel: F,
    ) -> Result<LaunchReport, LaunchError>
    where
        T: Send,
        F: Fn(&mut WarpCtx, &mut [T]) + Sync,
    {
        let dispenser = ShardDispenser::new(items, plan);
        self.run_launch(plan.num_chunks(), |slot, ctx, containment| {
            dispenser.drain(slot, |warp_id, chunk| {
                !containment.poisoned()
                    && containment.run_warp(ctx, warp_id, |ctx| kernel(ctx, chunk))
            });
        })
    }

    /// Launches a kernel of `num_warps` warps with no attached work items;
    /// each warp receives its warp id through the context. Used by
    /// whole-bucket kernels such as FLUSH and by allocator stress tests.
    ///
    /// A panicking warp is re-raised on the calling thread (after in-flight
    /// warps drain); use [`Grid::try_launch_warps`] to contain it instead.
    pub fn launch_warps<F>(&self, num_warps: usize, kernel: F) -> LaunchReport
    where
        F: Fn(&mut WarpCtx) + Sync,
    {
        match self.try_launch_warps(num_warps, kernel) {
            Ok(report) => report,
            Err(e) => e.resume_unwind(),
        }
    }

    /// Like [`Grid::launch_warps`], but contains warp panics (see
    /// [`Grid::try_launch`]).
    ///
    /// # Errors
    /// Returns the first warp panic observed.
    pub fn try_launch_warps<F>(&self, num_warps: usize, kernel: F) -> Result<LaunchReport, LaunchError>
    where
        F: Fn(&mut WarpCtx) + Sync,
    {
        let next_warp = AtomicUsize::new(0);
        self.run_launch(num_warps, |_slot, ctx, containment| {
            while !containment.poisoned() {
                let warp_id = next_warp.fetch_add(1, Ordering::Relaxed);
                if warp_id >= num_warps || !containment.run_warp(ctx, warp_id, &kernel) {
                    break;
                }
            }
        })
    }

    /// The launch shared by every entry point: emits the session's
    /// `LaunchBegin`/`LaunchEnd`, times the kernel, runs `claim` on each
    /// executor with a fresh warp context, merges the resulting counter and
    /// histogram blocks, and turns the containment outcome into the
    /// launch result. `claim` is the entry point's warp-claim loop; it runs
    /// each warp through [`Containment::run_warp`] and must not unwind.
    ///
    /// `claim`'s first argument is the executor's stable slot (0 for the
    /// launching thread, the pool worker's spawn index otherwise) — the
    /// shard-ownership key for sharded launches; flat launches ignore it.
    fn run_launch<C>(&self, warps: usize, claim: C) -> Result<LaunchReport, LaunchError>
    where
        C: Fn(usize, &mut WarpCtx, &Containment) + Sync,
    {
        let containment = Containment::default();
        // Captured once on the launching thread; executors record into
        // private rings bound to it.
        let session = telemetry::current_session();
        if let Some(s) = &session {
            s.emit(LAUNCH_WARP, EventKind::LaunchBegin { warps: warps as u32 });
        }
        // The wall clock starts after launch setup (claim-state arithmetic,
        // session lookup) so `LaunchReport::wall` measures kernel
        // execution, not host bookkeeping.
        let start = Instant::now();
        let (counters, histograms) = self.run_executors(warps, session.as_ref(), |slot, ctx| {
            claim(slot, ctx, &containment)
        });
        let wall = start.elapsed();
        if let Some(s) = &session {
            s.emit(LAUNCH_WARP, EventKind::LaunchEnd { warps: warps as u32 });
        }
        containment.into_result(LaunchReport {
            counters,
            histograms,
            wall,
            warps,
        })
    }

    /// Runs `body` on each executor with a fresh warp context bound to
    /// `session` and merges the resulting counter and histogram blocks.
    fn run_executors<B>(
        &self,
        expected_warps: usize,
        session: Option<&SessionHandle>,
        body: B,
    ) -> (PerfCounters, Histograms)
    where
        B: Fn(usize, &mut WarpCtx) + Sync,
    {
        // Don't wake more executors than there are warps to run.
        let executors = self.num_threads.min(expected_warps.max(1));
        if executors == 1 {
            let mut ctx = WarpCtx::bound(0, session);
            body(0, &mut ctx);
            // `ctx` drops after the return value is built, flushing its
            // trace ring to the session sink before the launch returns.
            return (ctx.counters, ctx.histograms);
        }
        let merged = parking_lot::Mutex::new((PerfCounters::default(), Histograms::default()));
        // Fault plans are thread-scoped: every executor runs this launch
        // under the launching thread's plan (and never a sibling test's).
        // The guard drops at the end of each invocation, so pooled workers
        // shed the plan before the next launch. Trace sessions are likewise
        // captured per launch from the launching thread.
        let chaos = crate::chaos::LaunchPlan::capture();
        let executor = |slot: usize| {
            let _chaos = chaos.map(|plan| plan.enter(slot));
            let mut ctx = WarpCtx::bound(usize::MAX, session);
            body(slot, &mut ctx);
            let mut blocks = merged.lock();
            blocks.0.merge(&ctx.counters);
            blocks.1.merge(&ctx.histograms);
            // `ctx` drops here, flushing its trace ring before the pool
            // counts this executor as done.
        };
        let pool = self.pool.get_or_init(|| Pool::new(self.num_threads - 1));
        // The launching thread is one executor; the pool wakes the rest.
        // `try_run` declines when another launch holds the pool (shared
        // grid, or a kernel launching on its own grid) — fall back to
        // scoped spawning for just that launch.
        if !pool.try_run(executors - 1, &executor) {
            let executor = &executor;
            std::thread::scope(|scope| {
                for slot in 0..executors {
                    scope.spawn(move || executor(slot));
                }
            });
        }
        merged.into_inner()
    }
}

/// Shared panic-containment state for one `try_` launch: the poison flag,
/// the completed-warp count, and the first captured panic.
#[derive(Default)]
struct Containment {
    poisoned: AtomicBool,
    completed: AtomicUsize,
    failure: parking_lot::Mutex<Option<(usize, Box<dyn Any + Send + 'static>)>>,
}

impl Containment {
    /// True once any warp has panicked; executors drain without starting
    /// new work.
    fn poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Runs warp `warp_id` on `ctx` between its `warp_begin`/`warp_end`
    /// trace events, catching a panic. Returns `false` when the executor
    /// should stop (this warp panicked).
    fn run_warp(
        &self,
        ctx: &mut WarpCtx,
        warp_id: usize,
        warp_body: impl FnOnce(&mut WarpCtx),
    ) -> bool {
        ctx.warp_id = warp_id;
        ctx.begin_warp();
        let outcome = catch_unwind(AssertUnwindSafe(|| warp_body(ctx)));
        ctx.end_warp();
        match outcome {
            Ok(()) => {
                self.completed.fetch_add(1, Ordering::Relaxed);
                true
            }
            Err(payload) => {
                self.poisoned.store(true, Ordering::Release);
                let mut slot = self.failure.lock();
                if slot.is_none() {
                    *slot = Some((warp_id, payload));
                }
                false
            }
        }
    }

    /// Converts the containment outcome into the launch result.
    fn into_result(self, report: LaunchReport) -> Result<LaunchReport, LaunchError> {
        match self.failure.into_inner() {
            None => Ok(report),
            Some((warp_id, payload)) => Err(LaunchError {
                warp_id,
                payload,
                completed_warps: self.completed.into_inner(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn launch_visits_every_item_exactly_once() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 1000];
        let report = grid.launch(&mut items, |ctx, chunk| {
            for item in chunk.iter_mut() {
                *item += 1;
                ctx.counters.ops += 1;
            }
        });
        assert!(items.iter().all(|&v| v == 1));
        assert_eq!(report.counters.ops, 1000);
        assert_eq!(report.warps, 1000_usize.div_ceil(WARP_SIZE));
    }

    #[test]
    fn partial_final_warp_gets_remainder() {
        let grid = Grid::sequential();
        let mut items = vec![0u8; 70]; // 2 full warps + 6 lanes
        let sizes = parking_lot::Mutex::new(vec![]);
        grid.launch(&mut items, |_, chunk| sizes.lock().push(chunk.len()));
        let mut sizes = sizes.into_inner();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![6, 32, 32]);
    }

    #[test]
    fn warp_ids_are_unique_and_dense() {
        let grid = Grid::new(8);
        let seen = (0..64).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let mut items = vec![(); 64 * WARP_SIZE];
        grid.launch(&mut items, |ctx, _| {
            seen[ctx.warp_id].fetch_add(1, Ordering::Relaxed);
        });
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn launch_warps_runs_each_warp_once() {
        let grid = Grid::new(3);
        let hits = AtomicU64::new(0);
        let report = grid.launch_warps(100, |ctx| {
            assert!(ctx.warp_id < 100);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(report.warps, 100);
    }

    #[test]
    fn counters_are_merged_across_threads() {
        let grid = Grid::new(4);
        let report = grid.launch_warps(257, |ctx| {
            ctx.counters.slab_reads += 2;
            ctx.counters.ops += 1;
        });
        assert_eq!(report.counters.slab_reads, 514);
        assert_eq!(report.counters.ops, 257);
    }

    #[test]
    fn try_launch_contains_warp_panic() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 40 * WARP_SIZE];
        let err = grid
            .try_launch(&mut items, |ctx, chunk| {
                if ctx.warp_id == 7 {
                    panic!("lane fault in warp 7");
                }
                for item in chunk.iter_mut() {
                    *item = 1;
                }
            })
            .expect_err("warp 7 must fail the launch");
        assert_eq!(err.warp_id, 7);
        assert_eq!(err.message(), Some("lane fault in warp 7"));
        assert!(err.completed_warps < 40, "poison must stop queued warps");
        // The process is alive and the grid reusable after containment.
        let report = grid.try_launch(&mut items, |_, _| {}).unwrap();
        assert_eq!(report.warps, 40);
    }

    #[test]
    fn try_launch_warps_reports_first_failure_and_drains() {
        let grid = Grid::new(2);
        let err = Grid::try_launch_warps(&grid, 64, |ctx| {
            if ctx.warp_id >= 3 {
                panic!("warp {} down", ctx.warp_id);
            }
        })
        .expect_err("must fail");
        assert!(err.warp_id >= 3);
        assert!(err.message().unwrap().starts_with("warp "));
        assert!(err.completed_warps <= 64);
    }

    #[test]
    fn try_launch_ok_matches_launch() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 100];
        let report = grid
            .try_launch(&mut items, |ctx, chunk| {
                ctx.counters.ops += chunk.len() as u64;
            })
            .unwrap();
        assert_eq!(report.counters.ops, 100);
        assert_eq!(report.warps, 100_usize.div_ceil(WARP_SIZE));
    }

    #[test]
    fn launch_resumes_contained_panic() {
        let grid = Grid::sequential();
        let mut items = vec![0u32; 1];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            grid.launch(&mut items, |_, _| panic!("boom"));
        }));
        let payload = caught.expect_err("panic must propagate through launch");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn empty_launch_is_fine() {
        let grid = Grid::default();
        let mut items: Vec<u32> = vec![];
        let report = grid.launch(&mut items, |_, _| panic!("no warps expected"));
        assert_eq!(report.warps, 0);
        assert_eq!(report.counters, PerfCounters::default());
    }

    #[test]
    fn pooled_grid_reuses_workers_across_many_launches() {
        let grid = Grid::new(4);
        for round in 0..100u64 {
            let report = grid.launch_warps(16, |ctx| ctx.counters.ops += round + 1);
            assert_eq!(report.counters.ops, 16 * (round + 1));
            assert_eq!(report.warps, 16);
        }
    }

    #[test]
    fn cloned_grids_share_one_pool() {
        let grid = Grid::new(4);
        grid.launch_warps(8, |ctx| ctx.counters.ops += 1);
        let clone = grid.clone();
        assert!(Arc::ptr_eq(&grid.pool, &clone.pool));
        let report = clone.launch_warps(8, |ctx| ctx.counters.ops += 1);
        assert_eq!(report.counters.ops, 8);
    }

    #[test]
    fn nested_launch_on_same_grid_falls_back_without_deadlock() {
        let grid = Grid::new(4);
        let inner_ops = AtomicU64::new(0);
        let report = grid.launch_warps(4, |ctx| {
            ctx.counters.ops += 1;
            // Re-entering the grid from inside a kernel must not deadlock
            // on the pool; the inner launch takes the scoped fallback.
            let inner = grid.launch_warps(2, |ictx| ictx.counters.ops += 1);
            inner_ops.fetch_add(inner.counters.ops, Ordering::Relaxed);
        });
        assert_eq!(report.counters.ops, 4);
        assert_eq!(inner_ops.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn concurrent_launches_on_shared_grid_all_complete() {
        let grid = Grid::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        let report = grid.launch_warps(8, |ctx| ctx.counters.ops += 1);
                        assert_eq!(report.counters.ops, 8);
                    }
                });
            }
        });
    }

    #[test]
    fn sharded_launch_visits_every_item_once_with_dense_warp_ids() {
        let grid = Grid::new(4);
        // 4 uneven shards over 300 items.
        let mut items = vec![0u32; 300];
        let mut plan = ShardPlan::new();
        plan.reset(&[0, 100, 101, 180, 300], WARP_SIZE);
        let warps = plan.num_chunks();
        let seen = (0..warps).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        let report = grid
            .try_launch_sharded(&mut items, &plan, |ctx, chunk| {
                seen[ctx.warp_id].fetch_add(1, Ordering::Relaxed);
                for item in chunk.iter_mut() {
                    *item += 1;
                    ctx.counters.ops += 1;
                }
            })
            .unwrap();
        assert!(items.iter().all(|&v| v == 1), "every item exactly once");
        assert_eq!(report.counters.ops, 300);
        assert_eq!(report.warps, warps);
        assert!(seen.iter().all(|s| s.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn sharded_launch_with_more_shards_than_executors_drains_by_stealing() {
        let grid = Grid::new(2);
        let mut items: Vec<u32> = (0..256).collect();
        let mut plan = ShardPlan::new();
        // 8 shards but only 2 executors: stealing must finish the job.
        plan.reset(&[0, 32, 64, 96, 128, 160, 192, 224, 256], WARP_SIZE);
        let report = grid
            .try_launch_sharded(&mut items, &plan, |ctx, chunk| {
                for item in chunk.iter_mut() {
                    *item += 1000;
                    ctx.counters.ops += 1;
                }
            })
            .unwrap();
        assert_eq!(report.counters.ops, 256);
        assert!(items.iter().enumerate().all(|(i, &v)| v == i as u32 + 1000));
    }

    #[test]
    fn sharded_launch_survives_worker_death() {
        let grid = Grid::new(4);
        let mut plan = ShardPlan::new();
        let run = |grid: &Grid, plan: &mut ShardPlan| {
            let mut items = vec![0u32; 4 * WARP_SIZE * 4];
            let n = items.len();
            plan.reset(&[0, n / 4, n / 2, 3 * n / 4, n], WARP_SIZE);
            let report = grid
                .try_launch_sharded(&mut items, plan, |ctx, chunk| {
                    for item in chunk.iter_mut() {
                        *item += 1;
                        ctx.counters.ops += 1;
                    }
                })
                .unwrap();
            assert_eq!(report.counters.ops, n as u64);
            assert!(items.iter().all(|&v| v == 1));
        };
        run(&grid, &mut plan);
        grid.debug_kill_pool_workers(2);
        run(&grid, &mut plan);
        grid.debug_kill_pool_workers(8);
        run(&grid, &mut plan); // launcher-only, pure stealing
    }

    #[test]
    fn sharded_launch_contains_warp_panics() {
        let grid = Grid::new(4);
        let mut items = vec![0u32; 8 * WARP_SIZE];
        let mut plan = ShardPlan::new();
        let n = items.len();
        plan.reset(&[0, n / 2, n], WARP_SIZE);
        let err = grid
            .try_launch_sharded(&mut items, &plan, |ctx, _| {
                if ctx.warp_id == 5 {
                    panic!("shard fault");
                }
            })
            .expect_err("warp 5 must fail the launch");
        assert_eq!(err.warp_id, 5);
        assert_eq!(err.message(), Some("shard fault"));
        // Grid stays usable.
        plan.reset(&[0, n / 2, n], WARP_SIZE);
        let report = grid.try_launch_sharded(&mut items, &plan, |_, _| {}).unwrap();
        assert_eq!(report.warps, 8);
    }

    #[test]
    fn sharded_launch_empty_plan_is_fine() {
        let grid = Grid::new(4);
        let mut items: Vec<u32> = vec![];
        let mut plan = ShardPlan::new();
        plan.reset(&[0, 0, 0, 0], WARP_SIZE);
        let report = grid
            .try_launch_sharded(&mut items, &plan, |_, _| panic!("no warps"))
            .unwrap();
        assert_eq!(report.warps, 0);
    }

    #[test]
    fn pooled_grid_contains_panics_and_stays_usable() {
        let grid = Grid::new(4);
        for _ in 0..5 {
            let err = grid
                .try_launch_warps(32, |ctx| {
                    if ctx.warp_id == 3 {
                        panic!("warp 3 down");
                    }
                })
                .expect_err("warp 3 must fail the launch");
            assert_eq!(err.warp_id, 3);
            let report = grid.launch_warps(32, |ctx| ctx.counters.ops += 1);
            assert_eq!(report.counters.ops, 32);
        }
    }
}
