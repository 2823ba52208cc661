//! Shard ownership: contiguous bucket-range → executor mapping plus the
//! reusable claim state behind
//! [`Grid::try_launch_sharded`](crate::Grid::try_launch_sharded).
//!
//! Ordering requests by bucket is not enough to remove hot-bucket
//! contention: fed through the shared chunk dispenser, a hot bucket's
//! requests, now *adjacent*, are routinely split across a chunk boundary
//! and executed by two pool workers at the same instant, so the sort
//! manufactures exactly the CAS contention it was meant to remove (the
//! 0.82x regression in BENCH_5.json). Sharded dispatch fixes the routing
//! instead of the order: every bucket belongs to exactly one contiguous
//! shard, every shard has one *owning* executor, and a bucket's requests
//! are only ever CASed by their owner unless an idle executor steals the
//! tail. This is the delegation design from the NUMA hash-table literature
//! applied to the executor pool.
//!
//! Two types live here:
//!
//! * [`ShardMap`] — pure arithmetic mapping `bucket → shard` and
//!   `shard → bucket range`. Shards are contiguous, cover every bucket, and
//!   are balanced to within one bucket.
//! * [`ShardPlan`] — the reusable per-launch claim state: one atomic cursor
//!   per shard over that shard's warp-sized chunks. Resetting a plan reuses
//!   its buffers, so steady-state sharded launches allocate nothing.
//!
//! Correctness never depends on the mapping: a request executed by a
//! non-owner (stolen tail, dead owner, stale bucket hint) still runs the
//! same lock-free kernel against the same table. Sharding is purely a
//! scheduling affinity, which is what lets the claim protocol stay a plain
//! `fetch_add` with work stealing rather than a strict SPSC handoff.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Contiguous, balanced partition of `items` buckets into `shards` ranges.
///
/// `shard_of` and `range` are exact inverses: `range(s)` is precisely the
/// set of items `i` with `shard_of(i) == s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    items: u32,
    shards: u32,
}

impl ShardMap {
    /// A map over `items` buckets split into `shards` contiguous ranges.
    /// `shards` is clamped to `1..=items` (and `items` to at least 1), so
    /// every shard is non-empty.
    pub fn new(items: u32, shards: u32) -> Self {
        let items = items.max(1);
        Self {
            items,
            shards: shards.clamp(1, items),
        }
    }

    /// Number of shards (after clamping).
    pub fn num_shards(&self) -> u32 {
        self.shards
    }

    /// Number of items covered.
    pub fn num_items(&self) -> u32 {
        self.items
    }

    /// The shard owning `item`.
    #[inline]
    pub fn shard_of(&self, item: u32) -> u32 {
        debug_assert!(item < self.items, "item {item} out of range {}", self.items);
        ((u64::from(item) * u64::from(self.shards)) / u64::from(self.items)) as u32
    }

    /// The contiguous item range owned by `shard`.
    pub fn range(&self, shard: u32) -> std::ops::Range<u32> {
        debug_assert!(shard < self.shards);
        let lo = (u64::from(shard) * u64::from(self.items)).div_ceil(u64::from(self.shards));
        let hi = ((u64::from(shard) + 1) * u64::from(self.items)).div_ceil(u64::from(self.shards));
        lo as u32..hi as u32
    }
}

/// Reusable per-launch claim state for sharded dispatch: one atomic chunk
/// cursor per shard, over caller-provided element bounds.
///
/// A plan is reset before each launch with the prefix-sum `bounds` of the
/// per-shard sub-batches (`bounds[s]..bounds[s + 1]` is shard `s`'s element
/// range) and the chunk (warp) size. All interior buffers are retained
/// across resets, so a reused plan allocates only when the shard count
/// grows — steady-state sharded batch loops are allocation-free.
#[derive(Debug, Default)]
pub struct ShardPlan {
    /// Chunk claim cursor per shard (indices into the shard's chunk list).
    next: Vec<AtomicUsize>,
    /// Prefix sums of per-shard chunk counts; `chunk_base[s]` is the global
    /// warp id of shard `s`'s first chunk. Length `num_shards() + 1`.
    chunk_base: Vec<usize>,
    /// Element offsets per shard, copied from the caller. Length
    /// `num_shards() + 1`, monotone, starting at 0.
    bounds: Vec<usize>,
    /// Elements per chunk (the warp size in practice).
    chunk: usize,
}

impl ShardPlan {
    /// An empty plan; call [`reset`](Self::reset) before launching.
    pub fn new() -> Self {
        Self {
            next: Vec::new(),
            chunk_base: Vec::new(),
            bounds: Vec::new(),
            chunk: 1,
        }
    }

    /// Re-arms the plan for one launch over sub-batches described by
    /// `bounds` (monotone prefix sums starting at 0; `bounds.len() - 1`
    /// shards) handed out in chunks of `chunk` elements.
    ///
    /// # Panics
    /// If `chunk == 0`, `bounds` is empty or does not start at 0, or
    /// `bounds` is not monotone non-decreasing.
    pub fn reset(&mut self, bounds: &[usize], chunk: usize) {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(
            bounds.first() == Some(&0),
            "bounds must be a prefix sum starting at 0"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] <= w[1]),
            "bounds must be monotone non-decreasing"
        );
        self.chunk = chunk;
        self.bounds.clear();
        self.bounds.extend_from_slice(bounds);
        self.chunk_base.clear();
        self.chunk_base.push(0);
        let mut total = 0usize;
        for w in bounds.windows(2) {
            total += (w[1] - w[0]).div_ceil(chunk);
            self.chunk_base.push(total);
        }
        let shards = self.num_shards();
        if self.next.len() < shards {
            self.next.resize_with(shards, || AtomicUsize::new(0));
        }
        for cursor in &self.next[..shards] {
            cursor.store(0, Ordering::Relaxed);
        }
    }

    /// Number of shards this plan currently describes.
    pub fn num_shards(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Total chunks (warps) across all shards.
    pub fn num_chunks(&self) -> usize {
        self.chunk_base.last().copied().unwrap_or(0)
    }

    /// Total elements across all shards.
    pub fn total_items(&self) -> usize {
        self.bounds.last().copied().unwrap_or(0)
    }

    /// Claims the next chunk of `shard`: its launch-global warp id and
    /// element range, or `None` once the shard is drained. Each chunk is
    /// handed out at most once across all concurrent claimers (the cursor
    /// `fetch_add` is the sole source of chunk indices).
    pub(crate) fn claim(&self, shard: usize) -> Option<(usize, usize, usize)> {
        let lo = self.bounds[shard];
        let hi = self.bounds[shard + 1];
        let chunks = self.chunk_base[shard + 1] - self.chunk_base[shard];
        let c = self.next[shard].fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            return None;
        }
        let start = lo + c * self.chunk;
        Some((self.chunk_base[shard] + c, start, (start + self.chunk).min(hi)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_map_covers_contiguously_and_inverts() {
        for items in [1u32, 2, 7, 32, 100, 1024, 100_003] {
            for shards in [1u32, 2, 3, 8, 64] {
                let map = ShardMap::new(items, shards);
                assert!(map.num_shards() >= 1 && map.num_shards() <= items.max(1));
                let mut covered = 0u32;
                for s in 0..map.num_shards() {
                    let range = map.range(s);
                    assert_eq!(range.start, covered, "ranges must be contiguous");
                    assert!(!range.is_empty(), "no empty shards after clamping");
                    for i in range.clone() {
                        assert_eq!(map.shard_of(i), s);
                    }
                    covered = range.end;
                }
                assert_eq!(covered, items, "ranges must cover every item");
            }
        }
    }

    #[test]
    fn shard_map_is_balanced_within_one() {
        let map = ShardMap::new(1000, 7);
        let sizes: Vec<u32> = (0..7).map(|s| map.range(s).len() as u32).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "sizes {sizes:?} must be balanced");
        assert_eq!(sizes.iter().sum::<u32>(), 1000);
    }

    #[test]
    fn plan_claims_every_chunk_once_with_global_warp_ids() {
        let mut plan = ShardPlan::new();
        // 3 shards: 40, 0, 25 elements; chunk 16 → 3 + 0 + 2 chunks.
        plan.reset(&[0, 40, 40, 65], 16);
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.num_chunks(), 5);
        assert_eq!(plan.total_items(), 65);
        let mut claims = vec![];
        for shard in 0..3 {
            while let Some(c) = plan.claim(shard) {
                claims.push(c);
            }
        }
        claims.sort_unstable();
        assert_eq!(
            claims,
            vec![(0, 0, 16), (1, 16, 32), (2, 32, 40), (3, 40, 56), (4, 56, 65)]
        );
    }

    #[test]
    fn plan_reset_reuses_buffers() {
        let mut plan = ShardPlan::new();
        plan.reset(&[0, 100, 200], 32);
        while plan.claim(0).is_some() {}
        let cap = plan.next.capacity();
        plan.reset(&[0, 50, 120], 32);
        assert_eq!(plan.next.capacity(), cap, "reset must not reallocate");
        assert_eq!(plan.claim(0), Some((0, 0, 32)));
        assert_eq!(plan.claim(1), Some((2, 50, 82)));
    }
}
