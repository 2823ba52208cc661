//! Pool-semantics parity and partitioned-batch equivalence.
//!
//! The persistent executor pool must be observably identical to the scoped
//! per-launch threads a launch falls back to when the pool is busy: same
//! panic containment, same per-launch fault plan (the launching thread's,
//! inherited for the launch and shed afterwards — workers outlive
//! launches), same per-launch telemetry binding, same merged counter and
//! histogram totals. And bucket-partitioned batch execution must be a pure
//! scheduling change: identical table state, identical per-request results
//! in the caller's order.

use std::sync::Mutex;

use simt::telemetry::{EventKind, TraceConfig, TraceSession};
use simt::{ChaosGuard, FaultPlan, Grid};
use slab_hash::{BatchBuffer, KeyValue, OpResult, Request, SlabHash, SlabHashConfig};

/// SplitMix64, for distinct well-spread test keys without the bench crate.
fn mixed_key(i: u64) -> u32 {
    let mut z = i.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) % (u32::MAX as u64 - 2)) as u32 + 1
}

/// Runs `body` twice on `grid`: directly, where its launches run on the
/// persistent pool, and from inside a kernel on the same grid, where the
/// outer launch holds the pool and `body`'s launches take the scoped-thread
/// fallback. `body` gets the name of the path it exercises.
fn on_pool_and_fallback<R: Send>(grid: &Grid, body: impl Fn(&str) -> R + Sync) -> [R; 2] {
    let pooled = body("pooled");
    let pool_launches = || grid.pool_stats().map_or(0, |s| s.launches);
    let before = pool_launches();
    let fallback = Mutex::new(None);
    // Two warps, so the outer launch wakes the pool instead of running
    // inline; only warp 0 runs `body`.
    grid.launch_warps(2, |ctx| {
        if ctx.warp_id == 0 {
            *fallback.lock().unwrap() = Some(body("fallback"));
        }
    });
    assert_eq!(
        pool_launches(),
        before + 1,
        "only the outer launch may run on the pool"
    );
    [pooled, fallback.into_inner().unwrap().expect("warp 0 ran")]
}

#[test]
fn pooled_and_scoped_contain_panics_identically() {
    let grid = Grid::new(4);
    on_pool_and_fallback(&grid, |path| {
        let mut items = vec![0u32; 40 * 32];
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
        assert_eq!(err.warp_id, 7, "{path} dispatch");
        assert_eq!(err.message(), Some("lane fault in warp 7"));
        assert!(err.completed_warps < 40, "poison must stop queued warps");
        // Either path is alive and reusable after containment.
        let report = grid.try_launch(&mut items, |_, _| {}).unwrap();
        assert_eq!(report.warps, 40);
    });
}

#[test]
fn pool_survives_dead_workers_without_hanging_launches() {
    // A pool worker dying must not poison the pool or strand the completion
    // barrier: launches keep completing on the survivors (launcher-only in
    // the limit), and panic containment still works afterwards.
    let grid = Grid::new(4);
    let mut items = vec![0u32; 16 * 32];
    grid.launch(&mut items, |_, _| {}); // warm the pool
    assert_eq!(grid.debug_kill_pool_workers(2), 1);
    let report = grid
        .try_launch(&mut items, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        })
        .expect("launch must complete on surviving workers");
    assert_eq!(report.warps, 16);
    assert!(items.iter().all(|&v| v == 1));
    // Kernel panics are still contained, and the grid stays reusable.
    let err = grid
        .try_launch(&mut items, |ctx, _| {
            if ctx.warp_id == 3 {
                panic!("lane fault after worker death");
            }
        })
        .expect_err("warp 3 must fail the launch");
    assert_eq!(err.warp_id, 3);
    // Every worker dead: the launching thread alone drains the grid.
    assert_eq!(grid.debug_kill_pool_workers(8), 0);
    let report = grid
        .try_launch(&mut items, |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        })
        .expect("launcher-only execution must still complete");
    assert_eq!(report.warps, 16);
    assert!(items.iter().all(|&v| v == 2));
}

#[test]
fn pool_inherits_chaos_enrollment_per_launch_and_sheds_it() {
    let plan = FaultPlan::seeded(0xC0DE).with_cas_failures(0.5);
    // Counts warps whose executor thread runs under `plan`.
    let planned_warps = |grid: &Grid| {
        grid.launch_warps(64, |ctx| {
            if simt::chaos::active_plan() == Some(plan) {
                ctx.counters.ops += 1;
            }
        })
        .counters
        .ops
    };
    let grid = Grid::new(4);
    // Warm the pool outside any chaos scope.
    assert_eq!(planned_warps(&grid), 0);
    let [pooled, fallback] = on_pool_and_fallback(&grid, |_| planned_warps(&grid));
    assert_eq!([pooled, fallback], [0, 0]);
    {
        let _chaos = ChaosGuard::plan(plan);
        // Every executor, the same persistent workers included, must now
        // run under the launching thread's plan, for every warp. A nested
        // launch's launching thread is an outer executor, which holds the
        // plan for the outer launch.
        let [pooled, fallback] = on_pool_and_fallback(&grid, |_| planned_warps(&grid));
        assert_eq!([pooled, fallback], [64, 64]);
    }
    // Guard dropped: workers are persistent, the plan must not be.
    let [pooled, fallback] = on_pool_and_fallback(&grid, |_| planned_warps(&grid));
    assert_eq!([pooled, fallback], [0, 0]);
}

#[test]
fn launches_never_inherit_another_threads_fault_plan() {
    let grid = Grid::new(4);
    // Injected CAS and alloc failures observed by a launch's executors.
    let injected = |grid: &Grid| {
        grid.launch_warps(64, |ctx| {
            for _ in 0..32 {
                if simt::chaos::should_fail_cas() || simt::chaos::should_fail_alloc() {
                    ctx.counters.ops += 1;
                }
            }
        })
        .counters
        .ops
    };
    let yields = FaultPlan::seeded(0x71E1D).with_yields(0.2);
    let yielding_warps = |grid: &Grid| {
        grid.launch_warps(64, |ctx| {
            if simt::chaos::active_plan() == Some(yields) {
                ctx.counters.ops += 1;
            }
        })
        .counters
        .ops
    };
    // A sibling thread holds a CAS- and alloc-fail-1.0 plan, installed
    // after this thread's yield-only plan, while this thread and a thread
    // with no plan at all launch on the same pooled grid.
    let _yield_only = ChaosGuard::plan(yields);
    let sibling_live = std::sync::Barrier::new(2);
    let launches_done = std::sync::Barrier::new(2);
    let (own, yield_launch, yield_warps, unplanned) = std::thread::scope(|s| {
        let sibling = s.spawn(|| {
            let _storm = ChaosGuard::plan(
                FaultPlan::seeded(0x5707)
                    .with_cas_failures(1.0)
                    .with_alloc_failures(1.0),
            );
            sibling_live.wait();
            let own = simt::chaos::should_fail_cas();
            launches_done.wait();
            own
        });
        sibling_live.wait();
        let yield_launch = injected(&grid);
        let yield_warps = yielding_warps(&grid);
        let unplanned = s
            .spawn(|| (simt::chaos::active_plan(), injected(&grid)))
            .join()
            .unwrap();
        launches_done.wait();
        (
            sibling.join().unwrap(),
            yield_launch,
            yield_warps,
            unplanned,
        )
    });
    assert!(
        own,
        "the sibling's own plan must be live during the launches"
    );
    assert_eq!(
        yield_launch, 0,
        "yield-only launch inherited a sibling's failures"
    );
    assert_eq!(yield_warps, 64, "the yield plan must reach every executor");
    assert_eq!(
        unplanned,
        (None, 0),
        "no-plan launch inherited a sibling's failures"
    );
    assert_eq!(injected(&grid), 0);
}

#[test]
fn pool_binds_telemetry_sessions_per_launch() {
    let grid = Grid::new(4);
    let mut items = vec![0u32; 64 * 32];
    let warp_begins = |trace: &simt::telemetry::Trace| {
        trace
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::WarpBegin))
            .count()
    };
    let trace_a = {
        let session = TraceSession::begin(TraceConfig::default());
        grid.launch(&mut items, |ctx, chunk| {
            ctx.counters.ops += chunk.len() as u64;
        });
        session.finish()
    };
    // A launch with no active session on the same (already warmed) pool
    // must record nowhere.
    grid.launch(&mut items, |_, _| {});
    // A second session sees only its own launch, not the pool's history.
    let trace_b = {
        let session = TraceSession::begin(TraceConfig::default());
        grid.launch(&mut items[..16 * 32], |_, _| {});
        session.finish()
    };
    assert_eq!(warp_begins(&trace_a), 64);
    assert_eq!(warp_begins(&trace_b), 16);
}

#[test]
fn pooled_and_scoped_merge_identical_totals() {
    // Read-only searches are deterministic regardless of schedule, so the
    // merged counters and histograms must agree exactly between the pool
    // and the scoped fallback.
    let n = 20_000usize;
    let pairs: Vec<(u32, u32)> = (0..n as u64).map(|i| (mixed_key(i), i as u32)).collect();
    let keys: Vec<u32> = pairs.iter().map(|p| p.0).collect();
    let grid = Grid::new(6);
    let reports = on_pool_and_fallback(&grid, |_| {
        let t = SlabHash::<KeyValue>::for_expected_elements(n, 0.75, 42);
        // Build deterministically: a racy build leaves schedule-dependent
        // fingerprint-tag state (contended lanes escalate to the
        // wildcard), which would perturb the searches' tag counters.
        t.bulk_build(&pairs, &Grid::sequential());
        let (hits, report) = t.bulk_search(&keys, &grid);
        assert!(hits.iter().all(|h| h.is_some()));
        report
    });
    assert_eq!(reports[0].counters, reports[1].counters);
    assert_eq!(reports[0].warps, reports[1].warps);
    for (a, b) in [
        (&reports[0].histograms.chain_slabs, &reports[1].histograms.chain_slabs),
        (&reports[0].histograms.rounds_per_op, &reports[1].histograms.rounds_per_op),
        (&reports[0].histograms.retries_per_op, &reports[1].histograms.retries_per_op),
    ] {
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
    }
}

/// Executes `reqs` through the sharded entry point and returns them, with
/// their results, in the order given.
fn run_sharded(
    t: &SlabHash<KeyValue>,
    reqs: impl IntoIterator<Item = Request>,
    grid: &Grid,
) -> BatchBuffer {
    let mut batch: BatchBuffer = reqs.into_iter().collect();
    t.execute_buffer_partitioned(&mut batch, grid);
    batch
}

/// REPLACE requests building `pairs`.
fn build_requests(pairs: &[(u32, u32)]) -> impl Iterator<Item = Request> + '_ {
    pairs.iter().map(|&(k, v)| Request::replace(k, v))
}

/// Builds a mixed batch whose per-request outcomes are schedule-independent:
/// inserts of fresh distinct keys, deletes of distinct built keys, searches
/// of untouched built keys and of never-inserted keys.
fn deterministic_batch(built: &[u32], fresh_base: u64) -> Vec<Request> {
    let third = built.len() / 3;
    let mut batch = Vec::new();
    for i in 0..third as u64 {
        batch.push(Request::replace(mixed_key(fresh_base + i), i as u32));
    }
    for &k in &built[..third] {
        batch.push(Request::delete(k));
    }
    for &k in &built[third..2 * third] {
        batch.push(Request::search(k));
    }
    for i in 0..third as u64 {
        batch.push(Request::search(mixed_key(fresh_base + 1_000_000 + i)));
    }
    batch
}

#[test]
fn partitioned_batches_match_unpartitioned_results_and_state() {
    let grid = Grid::new(4);
    for seed in [1u64, 2, 3] {
        let n = 3000;
        let built: Vec<u32> = (0..n as u64).map(|i| mixed_key(seed * 10_000_000 + i)).collect();
        let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 7)).collect();
        let t1 = SlabHash::<KeyValue>::new(SlabHashConfig {
            seed: 0x5EED,
            ..SlabHashConfig::with_buckets(256)
        });
        let t2 = SlabHash::<KeyValue>::new(SlabHashConfig {
            seed: 0x5EED,
            ..SlabHashConfig::with_buckets(256)
        });
        t1.bulk_build(&pairs, &grid);
        run_sharded(&t2, build_requests(&pairs), &grid);

        let mut b1 = deterministic_batch(&built, seed * 77_000_000);
        let b2 = run_sharded(&t2, b1.clone(), &grid);
        t1.execute_batch(&mut b1, &grid);

        for (i, (r1, r2)) in b1.iter().zip(b2.requests()).enumerate() {
            assert_eq!(r1.key, r2.key, "seed {seed}, slot {i}: request order changed");
            assert_eq!(r1.result, r2.result, "seed {seed}, slot {i} (key {})", r1.key);
            assert_ne!(r1.result, OpResult::Pending, "seed {seed}, slot {i} never ran");
        }
        let mut e1 = t1.collect_elements();
        let mut e2 = t2.collect_elements();
        e1.sort_unstable();
        e2.sort_unstable();
        assert_eq!(e1, e2, "seed {seed}: table state diverged");
        assert_eq!(t1.len(), t2.len());
    }
}

#[test]
fn sharded_matches_unpartitioned_under_chaos_yields() {
    // Scheduling chaos (forced yields) perturbs interleavings but not
    // outcomes: the sharded path must still produce byte-identical replies
    // in the caller's order and the same final table state.
    let _chaos = ChaosGuard::plan(FaultPlan::seeded(0x5A5A).with_yields(0.2));
    let grid = Grid::new(4);
    let n = 2400;
    let built: Vec<u32> = (0..n as u64).map(|i| mixed_key(44_000_000 + i)).collect();
    let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 3)).collect();
    let t1 = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xFACE,
        ..SlabHashConfig::with_buckets(128)
    });
    let t2 = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xFACE,
        ..SlabHashConfig::with_buckets(128)
    });
    t1.bulk_build(&pairs, &grid);
    run_sharded(&t2, build_requests(&pairs), &grid);

    let mut b1 = deterministic_batch(&built, 91_000_000);
    let b2 = run_sharded(&t2, b1.clone(), &grid);
    t1.execute_batch(&mut b1, &grid);
    for (i, (r1, r2)) in b1.iter().zip(b2.requests()).enumerate() {
        assert_eq!(r1.key, r2.key, "slot {i}: request order changed");
        assert_eq!(r1.result, r2.result, "slot {i} (key {})", r1.key);
    }
    let mut e1 = t1.collect_elements();
    let mut e2 = t2.collect_elements();
    e1.sort_unstable();
    e2.sort_unstable();
    assert_eq!(e1, e2, "table state diverged under yield chaos");
    t2.audit().expect("sharded table audits clean under chaos");
}

#[test]
fn sharded_replies_stay_typed_and_ordered_under_cas_fault_injection() {
    // Injected CAS failures can burn retry budgets, so exact results are
    // not schedule-independent here. The contract that must survive: every
    // request comes back completed or with a *typed* failure (never
    // Pending), in the caller's order, and the table still audits clean.
    let _chaos = ChaosGuard::plan(FaultPlan::seeded(0xBEEF).with_cas_failures(0.25));
    let grid = Grid::new(4);
    let n = 1800;
    let built: Vec<u32> = (0..n as u64).map(|i| mixed_key(55_000_000 + i)).collect();
    let pairs: Vec<(u32, u32)> = built.iter().map(|&k| (k, k ^ 9)).collect();
    let t = SlabHash::<KeyValue>::new(SlabHashConfig {
        seed: 0xD00D,
        ..SlabHashConfig::with_buckets(96)
    });
    run_sharded(&t, build_requests(&pairs), &grid);

    let submitted = deterministic_batch(&built, 66_000_000);
    let batch = run_sharded(&t, submitted.clone(), &grid);
    assert_eq!(batch.len(), submitted.len());
    for (i, (sent, got)) in submitted.iter().zip(batch.requests()).enumerate() {
        assert_eq!(sent.key, got.key, "slot {i}: caller order not restored");
        assert_eq!(sent.op, got.op, "slot {i}: op changed in flight");
        assert_ne!(got.result, OpResult::Pending, "slot {i} never executed");
    }
    t.audit().expect("table audits clean after faulted sharded batch");
}

#[test]
fn sharded_batches_survive_worker_death_between_rounds() {
    // Ownership is scheduling affinity, not correctness: as pool workers
    // die round by round (down to launcher-only), the steal path must keep
    // every sharded batch complete and correct.
    let grid = Grid::new(4);
    let n = 1500u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 21);
    let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
    t.execute_buffer_partitioned(&mut batch, &grid);
    for round in 1..5u32 {
        // Kill one more worker each round; by the last rounds the grid is
        // launcher-only and shards are drained entirely by stealing.
        grid.debug_kill_pool_workers(1);
        for req in batch.requests_mut() {
            req.value = req.key + round;
        }
        batch.reset_results();
        t.execute_buffer_partitioned(&mut batch, &grid);
        for req in batch.requests() {
            assert_eq!(
                req.result,
                OpResult::Replaced(req.key + round - 1),
                "round {round}, key {}",
                req.key
            );
        }
    }
    assert_eq!(t.len(), n as usize);
    t.audit().expect("table audits clean after worker-death rounds");
}

#[test]
fn batch_buffer_partitioned_loop_is_stable() {
    // The allocation-free loop: one buffer, reset + partitioned execution
    // per round, against a table that the rounds keep mutating back and
    // forth (replace flips values).
    let grid = Grid::new(4);
    let n = 2000u32;
    let t = SlabHash::<KeyValue>::for_expected_elements(n as usize, 0.6, 9);
    let mut batch: BatchBuffer = (0..n).map(|k| Request::replace(k, k)).collect();
    t.execute_buffer(&mut batch, &grid);
    for round in 1..4u32 {
        for req in batch.requests_mut() {
            req.value = req.key + round;
        }
        batch.reset_results();
        t.execute_buffer_partitioned(&mut batch, &grid);
        for req in batch.requests() {
            assert_eq!(
                req.result,
                OpResult::Replaced(req.key + round - 1),
                "round {round}, key {}",
                req.key
            );
        }
    }
    assert_eq!(t.len(), n as usize);
}
