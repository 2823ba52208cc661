//! End-to-end tests of the failure model: allocator exhaustion surfaces as
//! a structured [`TableError`] without aborting, a fixed-seed fault plan
//! reproduces the exact same failure points, warp panics are contained by
//! the scheduler, and the table always audits clean afterwards.

use simt::{ChaosGuard, FaultPlan, Grid};
use slab_alloc::{AllocError, SerialHeapSim, SlabAllocator};
use slab_hash::{
    KeyValue, OpResult, Request, SlabHash, SlabHashConfig, TableError, WarpDriver, EMPTY_KEY,
};

/// Satellite oracle: a launch over an exhausted allocator returns a
/// structured `OutOfSlabs`, previously inserted keys stay searchable, and
/// the audit balances (no half-linked slab leaked by the failure path).
#[test]
fn exhausted_allocator_surfaces_error_and_preserves_the_table() {
    // 1 bucket over a 3-slab heap: 15 base + 45 chained pairs = 60 max.
    let t = SlabHash::<KeyValue, SerialHeapSim>::with_allocator(
        SlabHashConfig::with_buckets(1),
        SerialHeapSim::new(3, EMPTY_KEY),
    );
    let grid = Grid::sequential();
    let pairs: Vec<(u32, u32)> = (0..100).map(|k| (k, k + 1)).collect();
    let err = t
        .try_bulk_build(&pairs, &grid)
        .expect_err("a 60-pair table cannot hold 100");
    assert_eq!(
        err,
        TableError::OutOfSlabs(AllocError::OutOfSlabs {
            allocated: 3,
            capacity: 3,
        })
    );

    // The launch did not abort: everything inserted before exhaustion is
    // intact and searchable (sequential grid => keys 0..59 in order).
    let keys: Vec<u32> = (0..100).collect();
    let (results, _) = t.bulk_search(&keys, &grid);
    for (k, r) in results.iter().enumerate() {
        if k < 60 {
            assert_eq!(*r, Some(k as u32 + 1), "key {k} lost after exhaustion");
        } else {
            assert_eq!(*r, None, "key {k} cannot have been inserted");
        }
    }
    let audit = t.audit().unwrap();
    assert_eq!(audit.live_elements, 60);
    assert!(audit.no_leaks(), "failure path leaked a slab: {audit:?}");

    // Recovery without new slabs: a tombstone frees a slot that a
    // duplicate-allowing INSERT can reuse.
    let mut w = WarpDriver::new(&t);
    assert!(w.checked_insert(1_000, 1).is_err(), "still exhausted");
    assert_eq!(w.checked_delete(0), Ok(Some(1)));
    w.checked_insert(1_000, 1)
        .expect("tombstone reuse needs no allocation");
    assert_eq!(w.search(1_000), Some(1));
    assert!(t.audit().unwrap().no_leaks());
}

/// Acceptance: the same fault-plan seed on a deterministic schedule
/// reproduces the exact same per-request outcomes, failure points
/// included; a different seed explores a different schedule.
#[test]
fn fixed_seed_fault_injection_reproduces_the_failure_points() {
    let run = |seed: u64| -> (Vec<Option<TableError>>, usize) {
        let _g = ChaosGuard::plan(FaultPlan::seeded(seed).with_alloc_failures(0.4));
        let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(1));
        let mut w = WarpDriver::new(&t);
        let outcomes: Vec<Option<TableError>> =
            (0..200).map(|k| w.checked_replace(k, k).err()).collect();
        t.audit().unwrap();
        (outcomes, t.len())
    };
    let (a, len_a) = run(0xFEED_F00D);
    let (b, len_b) = run(0xFEED_F00D);
    assert_eq!(a, b, "same seed must reproduce the same failure points");
    assert_eq!(len_a, len_b);
    assert!(
        a.contains(&Some(TableError::OutOfSlabs(AllocError::Injected))),
        "plan at p=0.4 must inject at least one failure over ~13 allocations"
    );
    assert!(a.iter().any(|r| r.is_none()), "some inserts must succeed");

    let (c, _) = run(0x0DD_5EED);
    assert_ne!(a, c, "a different seed must fail at different points");
}

/// A panicking warp is contained by the scheduler: the launch returns a
/// structured `LaunchError` instead of unwinding, and the table remains
/// auditable and usable.
#[test]
fn warp_panic_is_contained_and_the_table_stays_usable() {
    let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
    let grid = Grid::new(4);
    let mut reqs: Vec<Request> = (0..16 * 32).map(|k| Request::replace(k, k)).collect();
    let err = grid
        .try_launch(&mut reqs, |ctx, chunk| {
            if ctx.warp_id == 5 {
                panic!("injected warp fault");
            }
            let mut st = t.allocator().new_warp_state();
            t.process_warp(ctx, &mut st, chunk);
        })
        .expect_err("warp 5 must fail the launch");
    assert_eq!(err.warp_id, 5);
    assert_eq!(err.message(), Some("injected warp fault"));
    assert!(err.completed_warps < 16);

    // Whatever subset of warps completed, the table is consistent and
    // fully operational.
    assert!(t.audit().unwrap().no_leaks());
    let mut w = WarpDriver::new(&t);
    assert_eq!(w.checked_replace(999_983, 7), Ok(None));
    assert_eq!(w.search(999_983), Some(7));
}

/// The same containment through the public batch API: a poisoned request
/// (reserved key) panics inside the kernel; `try_execute_batch` returns
/// the failure instead of unwinding.
#[test]
fn try_execute_batch_contains_kernel_panics() {
    let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(4));
    let grid = Grid::new(4);
    let mut clean: Vec<Request> = (0..100).map(|k| Request::replace(k, k)).collect();
    t.try_execute_batch(&mut clean, &grid)
        .expect("clean batch completes");

    let mut poisoned: Vec<Request> = (200..264).map(|k| Request::replace(k, k)).collect();
    poisoned[40] = Request::replace(EMPTY_KEY, 0); // reserved key: panics in-kernel
    let err = t
        .try_execute_batch(&mut poisoned, &grid)
        .expect_err("reserved key must fail its warp");
    assert_eq!(err.warp_id, 1, "lane 40 lives in the second warp");
    assert!(err.message().unwrap().contains("reserved"));
    assert!(t.audit().unwrap().no_leaks());
    // The first, clean batch is untouched by the contained failure.
    let (results, _) = t.bulk_search(&(0..100).collect::<Vec<_>>(), &grid);
    assert!(results.iter().all(|r| r.is_some()));
}

/// Chaos stress at a fixed seed (exercised by the CI chaos job): random
/// yields, spurious CAS failures, and injected allocation failures
/// together, over a genuinely concurrent grid. Every request must either
/// apply or fail cleanly — and the table must account for every slab.
#[test]
fn chaos_stress_fixed_seed_consistency() {
    let _g = ChaosGuard::plan(
        FaultPlan::seeded(0x00C1_57E5)
            .with_yields(0.2)
            .with_cas_failures(0.05)
            .with_alloc_failures(0.02),
    );
    let t = SlabHash::<KeyValue>::new(SlabHashConfig::with_buckets(8));
    let grid = Grid::new(8);
    let mut reqs: Vec<Request> = (0..4_000).map(|k| Request::replace(k, k + 1)).collect();
    t.execute_batch(&mut reqs, &grid);

    let mut applied = 0u32;
    for r in &reqs {
        match &r.result {
            OpResult::Inserted => applied += 1,
            OpResult::Failed(TableError::OutOfSlabs(AllocError::Injected)) => {}
            other => panic!("unexpected outcome under chaos: {other:?}"),
        }
    }
    assert_eq!(t.len(), applied as usize);

    // Applied keys are present with their values; failed keys are absent.
    let (results, _) = t.bulk_search(&(0..4_000).collect::<Vec<_>>(), &grid);
    for (k, r) in results.iter().enumerate() {
        match &reqs[k].result {
            OpResult::Inserted => assert_eq!(*r, Some(k as u32 + 1), "key {k}"),
            _ => assert_eq!(*r, None, "failed key {k} must not be present"),
        }
    }
    assert!(t.audit().unwrap().no_leaks());
}
