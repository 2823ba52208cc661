//! Reusable request buffers for steady-state batch loops.
//!
//! Every `execute_batch` call used to be preceded by materializing a fresh
//! `Vec<Request>`, so batch-per-iteration loops (the concurrent benchmark,
//! streaming ingest) measured allocator traffic as much as table
//! throughput. A [`BatchBuffer`] owns its requests plus the scratch storage
//! the sharded execution path needs — bucket cache, shard segments, the
//! per-shard claim plan — so a loop that reuses one buffer allocates
//! nothing after warm-up:
//!
//! ```
//! use simt::Grid;
//! use slab_hash::{BatchBuffer, KeyValue, Request, SlabHash};
//!
//! let grid = Grid::sequential();
//! let table = SlabHash::<KeyValue>::for_expected_elements(1000, 0.6, 7);
//! let mut batch: BatchBuffer = (0..1000).map(|k| Request::replace(k, k)).collect();
//! for _ in 0..3 {
//!     batch.reset_results(); // no reallocation, results cleared in place
//!     table.execute_buffer_partitioned(&mut batch, &grid);
//! }
//! assert_eq!(table.len(), 1000);
//! ```

use simt::{Grid, LaunchReport, ShardPlan};
use slab_alloc::SlabAllocator;

use crate::entry::EntryLayout;
use crate::hash_table::SlabHash;
use crate::ops::Request;

/// The scratch storage behind sharded (bucket-partitioned) execution,
/// grouped so it can be reused across batches. Every buffer here retains
/// its allocation across [`BatchBuffer::clear`] and across executions, so
/// steady-state partitioned loops are allocation-free after the first
/// batch sizes them.
#[derive(Debug, Default)]
pub(crate) struct PartitionScratch {
    /// Cached destination bucket per request. Filled by
    /// [`BatchBuffer::push_with_bucket`] (the ingress broker pre-hashes at
    /// admission) or recomputed by the execution path when the length does
    /// not match the request count. A stale or wrong bucket only misroutes
    /// the request to another shard — the kernel re-hashes internally, so
    /// sharding is scheduling affinity, never correctness.
    pub(crate) buckets: Vec<u32>,
    /// Original index of the request now living in `scratch[i]`, for the
    /// caller-order scatter-back.
    pub(crate) order: Vec<u32>,
    /// Requests permuted into shard-major order for execution.
    pub(crate) scratch: Vec<Request>,
    /// Per-shard element bounds (prefix sums, length `shards + 1`) during
    /// planning; consumed as scatter cursors afterwards.
    pub(crate) segments: Vec<usize>,
    /// Reusable per-shard chunk-claim state for the sharded launch.
    pub(crate) plan: ShardPlan,
}

/// An owned, reusable batch of requests plus the scratch buffers that
/// sharded (bucket-partitioned) execution uses. Reusing one buffer across
/// batch executions keeps the steady-state loop allocation-free.
#[derive(Debug, Default)]
pub struct BatchBuffer {
    pub(crate) reqs: Vec<Request>,
    pub(crate) parts: PartitionScratch,
}

impl Clone for BatchBuffer {
    /// Clones the requests; the partition scratch is transient per-execution
    /// state and starts empty in the clone (it re-sizes on first use).
    fn clone(&self) -> Self {
        Self {
            reqs: self.reqs.clone(),
            parts: PartitionScratch::default(),
        }
    }
}

impl BatchBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty buffer with room for `n` requests.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            reqs: Vec::with_capacity(n),
            parts: PartitionScratch::default(),
        }
    }

    /// Number of requests in the buffer.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// True when the buffer holds no requests.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Removes all requests, keeping every allocation — request storage,
    /// bucket cache, partition scratch, shard plan — for reuse.
    pub fn clear(&mut self) {
        self.reqs.clear();
        self.parts.buckets.clear();
    }

    /// Appends one request.
    pub fn push(&mut self, req: Request) {
        self.reqs.push(req);
    }

    /// Appends one request with its pre-computed destination bucket, so
    /// sharded execution can skip the hashing pass. The ingress broker uses
    /// this to coalesce submissions directly into shard-shaped batches.
    ///
    /// All requests of a batch must be pushed the same way: if the bucket
    /// cache length does not match the request count at execution time, the
    /// whole batch is re-hashed.
    pub fn push_with_bucket(&mut self, req: Request, bucket: u32) {
        debug_assert_eq!(
            self.parts.buckets.len(),
            self.reqs.len(),
            "mixing push and push_with_bucket within one batch"
        );
        self.reqs.push(req);
        self.parts.buckets.push(bucket);
    }

    /// Resets every request's result to pending (see [`Request::reset`]) so
    /// the same batch can be executed again without rebuilding it. Keys are
    /// untouched, so the bucket cache stays valid.
    pub fn reset_results(&mut self) {
        for req in &mut self.reqs {
            req.reset();
        }
    }

    /// The requests, in the order they were pushed. Results land here after
    /// execution — sharded execution restores this order too.
    pub fn requests(&self) -> &[Request] {
        &self.reqs
    }

    /// Mutable access to the requests (for editing keys/ops in place).
    /// Invalidates the bucket cache, since keys may change under it.
    pub fn requests_mut(&mut self) -> &mut [Request] {
        self.parts.buckets.clear();
        &mut self.reqs
    }
}

impl Extend<Request> for BatchBuffer {
    fn extend<I: IntoIterator<Item = Request>>(&mut self, iter: I) {
        self.reqs.extend(iter);
    }
}

impl FromIterator<Request> for BatchBuffer {
    fn from_iter<I: IntoIterator<Item = Request>>(iter: I) -> Self {
        Self {
            reqs: iter.into_iter().collect(),
            parts: PartitionScratch::default(),
        }
    }
}

impl<L: EntryLayout, A: SlabAllocator> SlabHash<L, A> {
    /// Executes the buffer's requests (see [`SlabHash::execute_batch`]).
    pub fn execute_buffer(&self, batch: &mut BatchBuffer, grid: &Grid) -> LaunchReport {
        self.execute_batch(&mut batch.reqs, grid)
    }

    /// Like [`SlabHash::execute_buffer`], but through **sharded ownership
    /// dispatch**: requests are bucketed in O(n) into per-shard sub-batches
    /// (each shard a contiguous bucket range, one shard per grid executor)
    /// and each persistent pool worker drains *its own* shard before
    /// stealing — so a hot bucket's requests are CASed by exactly one
    /// OS thread instead of all of them. Per-request results land in the
    /// *original* positions; the reordering is invisible to the caller.
    ///
    /// The buffer's scratch storage — including the broker-filled bucket
    /// cache — is reused, so repeated calls allocate nothing. A panicking
    /// warp unwinds through this call after every executed request's
    /// result is back in its original slot.
    pub fn execute_buffer_partitioned(&self, batch: &mut BatchBuffer, grid: &Grid) -> LaunchReport {
        let BatchBuffer { reqs, parts } = batch;
        match self.try_execute_sharded_into(reqs, parts, grid) {
            Ok(report) => report,
            Err(e) => e.resume_unwind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::KeyValue;
    use crate::ops::OpResult;

    #[test]
    fn buffer_reuse_allocates_nothing_and_matches_fresh_requests() {
        let grid = Grid::new(4);
        let t = SlabHash::<KeyValue>::for_expected_elements(2000, 0.6, 11);
        let mut batch: BatchBuffer = (0..2000).map(|k| Request::replace(k, k + 1)).collect();
        t.execute_buffer(&mut batch, &grid);
        // First sharded execution sizes the scratch buffers …
        batch.reset_results();
        t.execute_buffer_partitioned(&mut batch, &grid);
        let caps = (
            batch.reqs.capacity(),
            batch.parts.buckets.capacity(),
            batch.parts.order.capacity(),
            batch.parts.scratch.capacity(),
            batch.parts.segments.capacity(),
        );
        for round in 0..3 {
            batch.reset_results();
            assert!(batch.requests().iter().all(|r| r.result == OpResult::Pending));
            t.execute_buffer_partitioned(&mut batch, &grid);
            for (k, req) in batch.requests().iter().enumerate() {
                assert_eq!(
                    req.result,
                    OpResult::Replaced(k as u32 + 1),
                    "round {round}, key {k}"
                );
            }
        }
        // … and every later round reuses them unchanged.
        assert_eq!(
            caps,
            (
                batch.reqs.capacity(),
                batch.parts.buckets.capacity(),
                batch.parts.order.capacity(),
                batch.parts.scratch.capacity(),
                batch.parts.segments.capacity(),
            )
        );
        assert_eq!(t.len(), 2000);
    }

    #[test]
    fn clear_retains_partition_scratch() {
        let grid = Grid::new(4);
        let t = SlabHash::<KeyValue>::for_expected_elements(4096, 0.6, 3);
        let mut batch = BatchBuffer::new();
        batch.extend((0..4096).map(|k| Request::replace(k, k)));
        t.execute_buffer_partitioned(&mut batch, &grid);
        let caps = (
            batch.parts.order.capacity(),
            batch.parts.scratch.capacity(),
            batch.parts.segments.capacity(),
        );
        assert!(caps.0 >= 4096 && caps.1 >= 4096);
        for round in 0..3 {
            batch.clear();
            assert!(batch.is_empty());
            batch.extend((0..4096).map(Request::search));
            t.execute_buffer_partitioned(&mut batch, &grid);
            assert!(
                batch
                    .requests()
                    .iter()
                    .all(|r| matches!(r.result, OpResult::Found(_))),
                "round {round}"
            );
            assert_eq!(
                caps,
                (
                    batch.parts.order.capacity(),
                    batch.parts.scratch.capacity(),
                    batch.parts.segments.capacity(),
                ),
                "clear must not drop partition scratch (round {round})"
            );
        }
    }

    #[test]
    fn push_with_bucket_matches_plain_push_results() {
        let grid = Grid::new(4);
        let t = SlabHash::<KeyValue>::for_expected_elements(3000, 0.6, 17);
        let hash = *t.hash_fn();
        let mut pre = BatchBuffer::new();
        let mut plain = BatchBuffer::new();
        for k in 0..3000u32 {
            pre.push_with_bucket(Request::replace(k, k * 2), hash.bucket(k));
            plain.push(Request::replace(k, k * 2));
        }
        t.execute_buffer_partitioned(&mut pre, &grid);
        let t2 = SlabHash::<KeyValue>::for_expected_elements(3000, 0.6, 17);
        t2.execute_buffer_partitioned(&mut plain, &grid);
        for (a, b) in pre.requests().iter().zip(plain.requests()) {
            assert_eq!(a.key, b.key);
            assert_eq!(a.result, b.result);
        }
        assert_eq!(t.len(), 3000);
        assert_eq!(t2.len(), 3000);
    }

    #[test]
    fn stale_bucket_hints_only_affect_routing_not_results() {
        let grid = Grid::new(4);
        let t = SlabHash::<KeyValue>::for_expected_elements(2000, 0.6, 23);
        let mut batch = BatchBuffer::new();
        // Deliberately wrong bucket hints: everything claims bucket 0.
        for k in 0..2000u32 {
            batch.push_with_bucket(Request::replace(k, k + 5), 0);
        }
        t.execute_buffer_partitioned(&mut batch, &grid);
        for (k, r) in batch.requests().iter().enumerate() {
            assert_eq!(r.result, OpResult::Inserted, "key {k}");
        }
        assert_eq!(t.len(), 2000);
        t.audit().unwrap();
    }

    #[test]
    fn requests_mut_invalidates_bucket_cache() {
        let mut batch = BatchBuffer::new();
        batch.push_with_bucket(Request::search(1), 42);
        assert_eq!(batch.parts.buckets.len(), 1);
        batch.requests_mut()[0].key = 2;
        assert!(batch.parts.buckets.is_empty(), "stale hints must be dropped");
    }

    #[test]
    fn buffer_basics() {
        let mut batch = BatchBuffer::with_capacity(8);
        assert!(batch.is_empty());
        batch.push(Request::search(1));
        batch.extend([Request::search(2), Request::search(3)]);
        assert_eq!(batch.len(), 3);
        batch.requests_mut()[0].key = 9;
        assert_eq!(batch.requests()[0].key, 9);
        batch.clear();
        assert!(batch.is_empty());
    }
}
