//! Integration tests for the typed collection wrappers under concurrency
//! and chaos scheduling. Fault plans are thread-scoped, so each thread a
//! test spawns installs the test's plan itself.

use simt::{ChaosGuard, FaultPlan, Grid};
use slab_hash::collections::{SlabMap, SlabMultiMap, SlabSet};

#[test]
fn map_concurrent_disjoint_writers() {
    let chaos = FaultPlan::yields(0.1);
    let map = SlabMap::with_capacity(40_000);
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let map = &map;
            scope.spawn(move || {
                let _g = ChaosGuard::plan(chaos);
                let mut h = map.handle();
                for i in 0..10_000u32 {
                    h.insert(t * 10_000 + i, i);
                }
            });
        }
    });
    assert_eq!(map.len(), 40_000);
    let mut h = map.handle();
    for t in 0..4u32 {
        assert_eq!(h.get(t * 10_000 + 9_999), Some(9_999));
    }
    map.as_raw().audit().unwrap();
}

#[test]
fn map_concurrent_upsert_many_hot_keys() {
    let chaos = FaultPlan::yields(0.15);
    let map = SlabMap::with_capacity(64);
    let increments_per_thread = 1_000;
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let map = &map;
            scope.spawn(move || {
                let _g = ChaosGuard::plan(chaos);
                let mut h = map.handle();
                for i in 0..increments_per_thread {
                    h.upsert(i % 8, |v| v.unwrap_or(0) + 1);
                }
            });
        }
    });
    let mut h = map.handle();
    let total: u32 = (0..8).map(|k| h.get(k).unwrap_or(0)).sum();
    assert_eq!(total, 4 * increments_per_thread, "increments lost or duplicated");
}

#[test]
fn set_concurrent_dedup_exactness() {
    // Many threads insert overlapping key ranges; the set must contain each
    // key exactly once and report exactly one "new" per key overall.
    let chaos = FaultPlan::yields(0.1);
    let set = SlabSet::with_capacity(10_000);
    let new_count = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let set = &set;
            let new_count = &new_count;
            scope.spawn(move || {
                let _g = ChaosGuard::plan(chaos);
                let mut h = set.handle();
                // Each thread inserts an overlapping window.
                for k in (t as u32 * 2_000)..(t as u32 * 2_000 + 4_000) {
                    if h.insert(k) {
                        new_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                }
            });
        }
    });
    // Windows cover 0..10_000 with overlaps.
    assert_eq!(set.len(), 10_000);
    assert_eq!(
        new_count.load(std::sync::atomic::Ordering::Acquire),
        10_000,
        "every key must report Inserted exactly once"
    );
}

#[test]
fn multimap_concurrent_append_and_drain() {
    let _g = ChaosGuard::new(0.1);
    let grid = Grid::new(4);
    let mut mm = SlabMultiMap::with_capacity(20_000);
    // Concurrent appends to 100 shared keys.
    let pairs: Vec<(u32, u32)> = (0..20_000).map(|i| (i % 100, i)).collect();
    mm.extend(&pairs, &grid);
    assert_eq!(mm.len(), 20_000);
    {
        let mut h = mm.handle();
        for k in 0..100 {
            assert_eq!(h.get_all(k).len(), 200, "key {k}");
        }
        // Drain half the keys.
        for k in 0..50 {
            assert_eq!(h.remove_all(k), 200);
        }
    }
    mm.compact(&grid);
    assert_eq!(mm.len(), 10_000);
    let audit = mm.as_raw().audit().unwrap();
    assert_eq!(audit.tombstones, 0);
    assert!(audit.no_leaks());
}
