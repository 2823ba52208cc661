//! Chaos scheduling and deterministic fault injection for lock-free race
//! and failure testing.
//!
//! The substrate runs warps on OS threads, so on a many-core host races
//! happen naturally. On a single-core host (CI boxes, laptops in power
//! save), threads only interleave at preemption boundaries — milliseconds
//! apart — and the narrow windows lock-free algorithms care about (between
//! a slab read and the CAS that validates it) would almost never be hit.
//!
//! Chaos mode closes that gap: under a yield plan, the memory layer yields
//! the OS thread with probability `p` immediately **before each atomic
//! RMW**, maximizing the chance that another warp's operation lands inside
//! the read-then-CAS window. Tests that assert linearizable outcomes under
//! concurrency enable it around their stress loops.
//!
//! Beyond yields, a [`FaultPlan`] can inject *failures*:
//!
//! * **spurious CAS failures** ([`should_fail_cas`]) — consumers treat an
//!   injected failure exactly like losing a real race and take their retry
//!   path, so retry loops and unlink/republish logic get exercised without
//!   real contention;
//! * **forced allocation failures** ([`should_fail_alloc`]) — allocators
//!   surface `AllocError` as if capacity were exhausted, so out-of-memory
//!   recovery paths get exercised on healthy allocators.
//!
//! # Scope
//!
//! A plan applies to the thread that installed it with a [`ChaosGuard`]
//! and to the grid launches that thread makes: `Grid` hands the launching
//! thread's plan to each executor for that launch only, so pooled workers
//! shed it when the launch ends. Threads spawned directly with
//! `std::thread` do not inherit a plan; they opt in with their own guard.
//! There is no process-global plan, so tests running in parallel never see
//! each other's plans. Guards nest on a thread: the innermost live plan is
//! in force, and dropping a guard restores the plan it replaced.
//!
//! # Determinism
//!
//! Draws come from per-thread xorshift32 streams. A guard seeds its
//! thread's stream from the plan's `seed` mixed with a per-thread index, so
//! threads holding the same plan make *different* decisions. A launch
//! seeds each executor's stream from one draw of the launching thread's
//! stream and the executor's slot. So a fixed seed on a fixed schedule
//! (e.g. `Grid::sequential`, which runs warps on the launching thread)
//! reproduces the exact same decision sequence — failures found in CI
//! replay locally. Work that may run on any thread names its stream
//! instead ([`ChaosGuard::on_stream`]): the ingress broker installs its
//! plan per batch on a stream numbered by the batch, so a replay does not
//! depend on which thread ran the batch.
//!
//! With no plan installed (the default), each hook costs one thread-local
//! load.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

/// A seeded fault-injection configuration.
///
/// Probabilities are clamped to `[0, 1]`. The default plan injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Probability of yielding the OS thread before each atomic RMW.
    pub yield_probability: f64,
    /// Probability that a consumer of [`should_fail_cas`] treats its next
    /// CAS as spuriously failed.
    pub cas_fail_probability: f64,
    /// Probability that a consumer of [`should_fail_alloc`] fails its next
    /// allocation.
    pub alloc_fail_probability: f64,
    /// Base seed for the per-thread decision streams.
    pub seed: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            yield_probability: 0.0,
            cas_fail_probability: 0.0,
            alloc_fail_probability: 0.0,
            seed: 0x5EED_CAFE,
        }
    }
}

impl FaultPlan {
    /// A plan with the given base seed and no injection (combine with the
    /// `with_*` builders).
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// A yield-only plan (classic chaos scheduling).
    pub fn yields(p: f64) -> Self {
        Self::default().with_yields(p)
    }

    /// Sets the yield probability.
    pub fn with_yields(mut self, p: f64) -> Self {
        self.yield_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the spurious-CAS-failure probability.
    pub fn with_cas_failures(mut self, p: f64) -> Self {
        self.cas_fail_probability = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the forced-allocation-failure probability.
    pub fn with_alloc_failures(mut self, p: f64) -> Self {
        self.alloc_fail_probability = p.clamp(0.0, 1.0);
        self
    }
}

/// Probability as a u32 threshold (draw `<= level` fires; 0 = disabled).
fn level(p: f64) -> u32 {
    (p.clamp(0.0, 1.0) * u32::MAX as f64) as u32
}

/// One thread's chaos state: the installed plan, denormalized into draw
/// thresholds for the hot path, plus the thread's decision stream.
#[derive(Clone, Copy)]
struct Scope {
    plan: Option<FaultPlan>,
    yield_level: u32,
    cas_fail_level: u32,
    alloc_fail_level: u32,
    /// xorshift32 state (never zero while a plan is installed).
    rng: u32,
}

impl Scope {
    const OFF: Scope = Scope {
        plan: None,
        yield_level: 0,
        cas_fail_level: 0,
        alloc_fail_level: 0,
        rng: 0,
    };
}

static THREAD_COUNTER: AtomicU32 = AtomicU32::new(0);

thread_local! {
    /// The plan in force on this thread. `Copy` with a const initializer,
    /// so every hook reads it with one thread-local load.
    static SCOPE: Cell<Scope> = const { Cell::new(Scope::OFF) };
    /// Live guards on this thread, innermost last: (guard id, the scope
    /// it replaced).
    static SAVED: RefCell<Vec<(u64, Scope)>> = const { RefCell::new(Vec::new()) };
    /// Stable per-thread index, mixed into the stream seed so threads
    /// holding the same plan diverge.
    static THREAD_INDEX: u32 = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
}

/// 32-bit finalizer (splitmix-style) used for seeding.
fn mix32(mut x: u32) -> u32 {
    x ^= x >> 16;
    x = x.wrapping_mul(0x7feb_352d);
    x ^= x >> 15;
    x = x.wrapping_mul(0x846c_a68b);
    x ^= x >> 16;
    x
}

/// Initial stream state for `seed` on stream `index`; never zero
/// (xorshift32 has a fixed point at 0).
fn stream_seed(seed: u64, index: u32) -> u32 {
    mix32(seed as u32 ^ mix32((seed >> 32) as u32) ^ mix32(index.wrapping_mul(0x9e37_79b9))) | 1
}

/// The plan installed on the current thread, if any: by a live
/// [`ChaosGuard`] on this thread, or by the grid for the launch this
/// thread is executing.
pub fn active_plan() -> Option<FaultPlan> {
    SCOPE.with(|s| s.get().plan)
}

/// RAII guard: installs a [`FaultPlan`] on the creating thread for the
/// guard's lifetime; dropping it restores the plan it replaced.
///
/// The plan applies to this thread and to the grid launches it makes (each
/// executor runs the launch under the plan). Threads it spawns itself do
/// not inherit it; they opt in by creating their own guard with the same
/// plan. Guards nest on a thread: the innermost live one wins. The guard is
/// `!Send`, since it restores the state of the thread that created it.
pub struct ChaosGuard {
    id: u64,
    _thread_bound: PhantomData<*const ()>,
}

impl ChaosGuard {
    /// Enables yield-only chaos at probability `p` for the guard's
    /// lifetime.
    pub fn new(p: f64) -> Self {
        Self::plan(FaultPlan::yields(p))
    }

    /// Installs an arbitrary fault plan for the guard's lifetime.
    pub fn plan(plan: FaultPlan) -> Self {
        Self::install(plan, stream_seed(plan.seed, THREAD_INDEX.with(|&t| t)))
    }

    /// Installs `plan` on stream `stream` of the plan's seed, on whichever
    /// thread calls it; `None` installs no plan, masking the thread's own
    /// for the guard's lifetime. Threads given the same plan and stream
    /// draw identical decisions, so work that may run on any thread replays
    /// by its own sequence number, not by the thread that ran it.
    pub fn on_stream(plan: Option<FaultPlan>, stream: u32) -> Self {
        match plan {
            Some(plan) => Self::install(plan, stream_seed(plan.seed, stream)),
            None => Self::push(Scope::OFF),
        }
    }

    fn install(plan: FaultPlan, rng: u32) -> Self {
        Self::push(Scope {
            plan: Some(plan),
            yield_level: level(plan.yield_probability),
            cas_fail_level: level(plan.cas_fail_probability),
            alloc_fail_level: level(plan.alloc_fail_probability),
            rng,
        })
    }

    fn push(scope: Scope) -> Self {
        let prev = SCOPE.replace(scope);
        // Ids ascend along the stack, so the next one is unique among the
        // live guards.
        let id = SAVED.with(|s| {
            let mut saved = s.borrow_mut();
            let id = saved.last().map_or(0, |&(id, _)| id + 1);
            saved.push((id, prev));
            id
        });
        ChaosGuard {
            id,
            _thread_bound: PhantomData,
        }
    }
}

impl Drop for ChaosGuard {
    fn drop(&mut self) {
        SAVED.with(|s| {
            let mut saved = s.borrow_mut();
            let Some(i) = saved.iter().rposition(|&(id, _)| id == self.id) else {
                return;
            };
            let (_, prev) = saved.remove(i);
            match saved.get_mut(i) {
                // Dropped under a live inner guard: the inner plan stays in
                // force and, when it goes, restores what this guard replaced.
                Some((_, inner_prev)) => *inner_prev = prev,
                None => SCOPE.set(prev),
            }
        });
    }
}

/// A launching thread's plan, captured for one multi-executor launch.
#[derive(Clone, Copy)]
pub(crate) struct LaunchPlan {
    plan: FaultPlan,
    seed: u64,
}

impl LaunchPlan {
    /// Captures the current thread's plan, if any. The launch's streams
    /// are seeded from one draw of this thread's stream, so successive
    /// launches diverge while a fixed seed still replays them.
    pub(crate) fn capture() -> Option<Self> {
        let plan = active_plan()?;
        Some(LaunchPlan {
            plan,
            seed: u64::from(draw()),
        })
    }

    /// Installs the plan on an executor for the rest of its invocation;
    /// `slot` selects the executor's stream.
    pub(crate) fn enter(&self, slot: usize) -> ChaosGuard {
        ChaosGuard::install(self.plan, stream_seed(self.seed, slot as u32))
    }
}

/// One draw from this thread's decision stream.
fn draw() -> u32 {
    SCOPE.with(|s| {
        let mut scope = s.get();
        let mut x = scope.rng;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        scope.rng = x;
        s.set(scope);
        x
    })
}

/// Called by the memory layer (and other lock-free substrates built on this
/// crate) before atomic RMWs. Yields the OS thread with the probability of
/// this thread's plan; a no-op when the thread has none.
#[inline]
pub fn maybe_yield() {
    let level = SCOPE.with(|s| s.get().yield_level);
    if level != 0 && draw() <= level {
        std::thread::yield_now();
    }
}

/// Consulted by retry-safe CAS call sites (slot claims, tombstoning):
/// `true` means "treat this attempt as spuriously failed and take the
/// retry path". Always `false` when this thread's plan injects no CAS
/// failures.
#[inline]
pub fn should_fail_cas() -> bool {
    let level = SCOPE.with(|s| s.get().cas_fail_level);
    level != 0 && draw() <= level
}

/// Consulted by fallible allocators: `true` means "fail this allocation as
/// if capacity were exhausted". Always `false` when this thread's plan
/// injects no allocation failures.
#[inline]
pub fn should_fail_alloc() -> bool {
    let level = SCOPE.with(|s| s.get().alloc_fail_level);
    level != 0 && draw() <= level
}

#[cfg(test)]
mod tests {
    use super::*;

    fn yield_level() -> u32 {
        SCOPE.with(|s| s.get().yield_level)
    }

    #[test]
    fn disabled_by_default_and_guard_restores() {
        assert_eq!(yield_level(), 0);
        assert!(active_plan().is_none());
        {
            let _g = ChaosGuard::new(0.5);
            assert!(yield_level() > 0);
            maybe_yield(); // must not panic or hang
        }
        assert_eq!(yield_level(), 0);
        assert!(active_plan().is_none());
    }

    #[test]
    fn full_probability_always_yields_without_deadlock() {
        let _g = ChaosGuard::new(1.0);
        for _ in 0..100 {
            maybe_yield();
        }
    }

    #[test]
    fn builders_clamp_probabilities_to_unit_interval() {
        let high = FaultPlan::yields(7.5)
            .with_cas_failures(2.0)
            .with_alloc_failures(f64::INFINITY);
        assert_eq!(high.yield_probability, 1.0);
        assert_eq!(high.cas_fail_probability, 1.0);
        assert_eq!(high.alloc_fail_probability, 1.0);
        let low = FaultPlan::yields(-1.0)
            .with_cas_failures(-0.5)
            .with_alloc_failures(f64::NEG_INFINITY);
        assert_eq!(low.yield_probability, 0.0);
        assert_eq!(low.cas_fail_probability, 0.0);
        assert_eq!(low.alloc_fail_probability, 0.0);
        let _g = ChaosGuard::new(7.5);
        assert_eq!(yield_level(), u32::MAX);
    }

    #[test]
    fn guards_nest_inner_wins_then_outer_restored() {
        let outer = ChaosGuard::plan(FaultPlan::yields(0.25));
        {
            let _inner = ChaosGuard::plan(FaultPlan::seeded(9).with_cas_failures(1.0));
            assert_eq!(active_plan().unwrap().cas_fail_probability, 1.0);
            assert!(should_fail_cas());
        }
        // Outer guard's plan restored, not chaos-off.
        let plan = active_plan().expect("outer guard still live");
        assert_eq!(plan.yield_probability, 0.25);
        assert!(!should_fail_cas());
        drop(outer);
        assert!(active_plan().is_none());
    }

    #[test]
    fn out_of_order_guard_drops_keep_survivor_active() {
        let a = ChaosGuard::plan(FaultPlan::yields(0.1));
        let b = ChaosGuard::plan(FaultPlan::yields(0.2));
        drop(a); // dropped before the inner guard b
        let plan = active_plan().expect("b still live");
        assert_eq!(plan.yield_probability, 0.2);
        drop(b);
        assert!(active_plan().is_none());
    }

    #[test]
    fn injection_probability_extremes() {
        {
            let _g = ChaosGuard::plan(
                FaultPlan::seeded(1)
                    .with_cas_failures(1.0)
                    .with_alloc_failures(1.0),
            );
            assert!((0..100).all(|_| should_fail_cas()));
            assert!((0..100).all(|_| should_fail_alloc()));
        }
        assert!((0..100).all(|_| !should_fail_cas()));
        assert!((0..100).all(|_| !should_fail_alloc()));
    }

    #[test]
    fn concurrent_plans_on_two_threads_stay_separate() {
        // Both plans are live at once; each thread's hooks follow only the
        // plan it installed.
        let both_live = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let failing = s.spawn(|| {
                let _g = ChaosGuard::plan(FaultPlan::seeded(3).with_cas_failures(1.0));
                both_live.wait();
                let all = (0..256).all(|_| should_fail_cas());
                both_live.wait();
                all
            });
            let yielding = s.spawn(|| {
                let _g = ChaosGuard::plan(FaultPlan::seeded(4).with_yields(0.5));
                both_live.wait();
                let none = (0..256).all(|_| !should_fail_cas() && !should_fail_alloc());
                both_live.wait();
                none
            });
            assert!(
                failing.join().unwrap(),
                "CAS-fail-1.0 thread missed injections"
            );
            assert!(
                yielding.join().unwrap(),
                "yield-only thread saw a sibling's CAS plan"
            );
        });
    }

    #[test]
    fn same_seed_same_thread_reproduces_decisions() {
        let run = |seed: u64| -> Vec<bool> {
            let _g = ChaosGuard::plan(FaultPlan::seeded(seed).with_cas_failures(0.5));
            (0..64).map(|_| should_fail_cas()).collect()
        };
        assert_eq!(run(42), run(42), "fixed seed must replay identically");
        assert_ne!(run(42), run(43), "different seeds must diverge");
    }

    #[test]
    fn same_stream_on_two_threads_draws_identical_decisions() {
        let plan = FaultPlan::seeded(11).with_cas_failures(0.5);
        let draw_on = |stream: u32| {
            std::thread::spawn(move || {
                let _g = ChaosGuard::on_stream(Some(plan), stream);
                (0..64).map(|_| should_fail_cas()).collect::<Vec<_>>()
            })
        };
        let (a, b, other) = (draw_on(5), draw_on(5), draw_on(6));
        let (a, b, other) = (a.join().unwrap(), b.join().unwrap(), other.join().unwrap());
        assert_eq!(a, b, "one stream must replay identically on any thread");
        assert_ne!(a, other, "different streams must diverge");
    }

    #[test]
    fn empty_stream_guard_masks_the_threads_plan() {
        let _outer = ChaosGuard::plan(FaultPlan::seeded(2).with_cas_failures(1.0));
        {
            let _masked = ChaosGuard::on_stream(None, 0);
            assert!(active_plan().is_none());
            assert!((0..64).all(|_| !should_fail_cas()));
        }
        assert!(should_fail_cas(), "dropping the mask restores the plan");
    }

    #[test]
    fn threads_draw_divergent_streams() {
        let plan = FaultPlan::seeded(7).with_cas_failures(0.5);
        let decisions: Vec<Vec<bool>> = std::thread::scope(|s| {
            (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let _g = ChaosGuard::plan(plan);
                        (0..64).map(|_| should_fail_cas()).collect::<Vec<_>>()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        // With per-thread seed mixing, 4 threads × 64 draws at p=0.5 all
        // agreeing is ~2⁻¹⁹² — identical streams mean the seed bug is back.
        assert!(
            decisions.windows(2).any(|w| w[0] != w[1]),
            "all threads drew identical decision streams"
        );
    }
}
