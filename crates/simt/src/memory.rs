//! Device global memory, organized as 128-byte slabs of atomic words.
//!
//! The paper fixes the slab size at 128 B = 32 × 32-bit lanes (§IV-B), so a
//! warp reading one slab performs exactly one coalesced memory transaction
//! with each thread holding 1/32 of the slab. We store a slab as sixteen
//! `AtomicU64` words: lane *l* occupies the low half of word *l/2* when *l*
//! is even, the high half when odd. That mapping makes a key–value pair
//! (even/odd lane couple) one naturally aligned `u64`, so the paper's 64-bit
//! `atomicCAS` of a pair is a single `compare_exchange`, and gives us sound
//! 32-bit lane CAS (next pointers, key-only entries) via a CAS loop on the
//! containing word.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counters::PerfCounters;
use crate::warp::WARP_SIZE;

/// Number of 64-bit words per 128-byte slab.
pub const WORDS_PER_SLAB: usize = WARP_SIZE / 2;

/// Bytes per slab (the warp's physical memory access width on all targeted
/// architectures).
pub const SLAB_BYTES: usize = 128;

/// Number of 64-bit words in a slab's fingerprint-tag region (one byte per
/// lane, 32 bytes per slab).
pub const TAG_WORDS_PER_SLAB: usize = WARP_SIZE / 8;

/// Tag byte of a lane no publisher has ever claimed. Storage is initialized
/// (and scrubbed) to this value.
pub const TAG_EMPTY: u8 = 0xFF;

/// Wildcard tag: racing publishers with different fingerprints escalate the
/// byte here, and it then matches every probe. Absorbing — once wild, a lane
/// stays wild until an exclusive scrub — so delayed publishes can never
/// shrink what a tag covers.
pub const TAG_WILD: u8 = 0xFE;

/// Splits a lane index into (word index, `true` if the lane is the high half).
#[inline]
fn lane_word(lane: usize) -> (usize, bool) {
    debug_assert!(lane < WARP_SIZE);
    (lane / 2, lane % 2 == 1)
}

#[inline]
fn half(word: u64, high: bool) -> u32 {
    if high {
        (word >> 32) as u32
    } else {
        word as u32
    }
}

#[inline]
fn with_half(word: u64, high: bool, value: u32) -> u64 {
    if high {
        (word & 0x0000_0000_FFFF_FFFF) | ((value as u64) << 32)
    } else {
        (word & 0xFFFF_FFFF_0000_0000) | value as u64
    }
}

/// Packs a (key, value) pair into the 64-bit word layout used on device:
/// key in the even (low) lane, value in the odd (high) lane.
#[inline]
pub fn pack_pair(key: u32, value: u32) -> u64 {
    key as u64 | ((value as u64) << 32)
}

/// Inverse of [`pack_pair`].
#[inline]
pub fn unpack_pair(word: u64) -> (u32, u32) {
    (word as u32, (word >> 32) as u32)
}

/// A contiguous array of slabs in device global memory.
///
/// All access is through atomic operations; `&SlabStorage` is freely shared
/// between concurrently executing warps. Loads use `Acquire` and successful
/// RMWs `Release` so that a warp observing a published pointer/pair also
/// observes the writes that preceded its publication — the same guarantee
/// CUDA's default-scope atomics give the original implementation.
pub struct SlabStorage {
    words: Box<[AtomicU64]>,
    /// Fingerprint-tag sidecar: one byte per lane ([`TAG_WORDS_PER_SLAB`]
    /// u64 words per slab), initialized to [`TAG_EMPTY`]. A 32-byte tag
    /// vector read costs a quarter of a slab transaction, which is the whole
    /// point: SEARCH/DELETE probe tags first and only touch key lanes on a
    /// candidate match.
    tags: Box<[AtomicU64]>,
}

impl SlabStorage {
    /// Allocates `num_slabs` slabs with every lane initialized to `fill`
    /// (typically the data structure's `EMPTY_KEY` sentinel) and every tag
    /// byte to [`TAG_EMPTY`].
    pub fn new(num_slabs: usize, fill: u32) -> Self {
        let word = pack_pair(fill, fill);
        let words = (0..num_slabs * WORDS_PER_SLAB)
            .map(|_| AtomicU64::new(word))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        let tags = (0..num_slabs * TAG_WORDS_PER_SLAB)
            .map(|_| AtomicU64::new(u64::MAX))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self { words, tags }
    }

    /// Number of slabs in this storage.
    #[inline]
    pub fn num_slabs(&self) -> usize {
        self.words.len() / WORDS_PER_SLAB
    }

    /// Total bytes of device memory held.
    #[inline]
    pub fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    #[inline]
    fn word(&self, slab: usize, word_idx: usize) -> &AtomicU64 {
        &self.words[slab * WORDS_PER_SLAB + word_idx]
    }

    /// Warp-coalesced read of a whole slab: each lane receives its 32-bit
    /// portion. Counts as **one** 128-byte transaction (`ReadSlab()` in the
    /// paper's pseudocode).
    ///
    /// The sixteen word loads are individually atomic but the slab is not
    /// snapshot-atomic — exactly like the hardware, where a warp's coalesced
    /// read can interleave with other warps' CASes. All algorithms built on
    /// top re-validate with CAS before mutating.
    #[inline]
    pub fn read_slab(&self, slab: usize, counters: &mut PerfCounters) -> [u32; WARP_SIZE] {
        counters.slab_reads += 1;
        let mut lanes = [0u32; WARP_SIZE];
        let base = slab * WORDS_PER_SLAB;
        for w in 0..WORDS_PER_SLAB {
            let word = self.words[base + w].load(Ordering::Acquire);
            lanes[2 * w] = word as u32;
            lanes[2 * w + 1] = (word >> 32) as u32;
        }
        lanes
    }

    /// Single-lane 32-bit read (uncoalesced; counts one sector transaction).
    #[inline]
    pub fn read_lane(&self, slab: usize, lane: usize, counters: &mut PerfCounters) -> u32 {
        counters.sector_reads += 1;
        let (w, high) = lane_word(lane);
        half(self.word(slab, w).load(Ordering::Acquire), high)
    }

    /// Non-atomic-looking plain store of a single lane, implemented as an RMW
    /// on the containing word (used by the paper's DELETE, line 59, which
    /// overwrites a key with `DELETED_KEY` using a plain store; an RMW keeps
    /// the neighbouring lane intact in our packed representation).
    #[inline]
    pub fn write_lane(&self, slab: usize, lane: usize, value: u32, counters: &mut PerfCounters) {
        counters.sector_writes += 1;
        crate::chaos::maybe_yield();
        let (w, high) = lane_word(lane);
        let word = self.word(slab, w);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let new = with_half(cur, high, value);
            match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// 32-bit `atomicCAS` on one lane. Returns the lane's previous value
    /// (CUDA semantics): the CAS succeeded iff the return equals `current`.
    #[inline]
    pub fn cas_lane(
        &self,
        slab: usize,
        lane: usize,
        current: u32,
        new: u32,
        counters: &mut PerfCounters,
    ) -> u32 {
        counters.atomics += 1;
        crate::chaos::maybe_yield();
        let (w, high) = lane_word(lane);
        let word = self.word(slab, w);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let observed = half(cur, high);
            if observed != current {
                return observed;
            }
            let newword = with_half(cur, high, new);
            match word.compare_exchange_weak(cur, newword, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return current,
                Err(actual) => cur = actual,
            }
        }
    }

    /// 64-bit `atomicCAS` on an even/odd lane pair. `pair_idx` is the word
    /// index (lane / 2). Returns the previous packed value (CUDA semantics).
    #[inline]
    pub fn cas_pair(
        &self,
        slab: usize,
        pair_idx: usize,
        current: u64,
        new: u64,
        counters: &mut PerfCounters,
    ) -> u64 {
        counters.atomics += 1;
        crate::chaos::maybe_yield();
        match self.word(slab, pair_idx).compare_exchange(
            current,
            new,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(prev) => prev,
            Err(prev) => prev,
        }
    }

    /// 64-bit atomic exchange on a lane pair (used by cuckoo hashing's
    /// eviction step: `atomicExch` swaps the incoming pair with the occupant).
    #[inline]
    pub fn exch_pair(
        &self,
        slab: usize,
        pair_idx: usize,
        new: u64,
        counters: &mut PerfCounters,
    ) -> u64 {
        counters.atomic_exchanges += 1;
        crate::chaos::maybe_yield();
        self.word(slab, pair_idx).swap(new, Ordering::AcqRel)
    }

    /// Reads one 64-bit pair without touching the rest of the slab
    /// (uncoalesced; one sector).
    #[inline]
    pub fn read_pair(&self, slab: usize, pair_idx: usize, counters: &mut PerfCounters) -> u64 {
        counters.sector_reads += 1;
        self.word(slab, pair_idx).load(Ordering::Acquire)
    }

    /// Plain (non-RMW) store of a whole pair word. Used by exclusive-phase
    /// kernels such as FLUSH where no concurrent access exists.
    #[inline]
    pub fn store_pair(&self, slab: usize, pair_idx: usize, value: u64, counters: &mut PerfCounters) {
        counters.sector_writes += 1;
        self.word(slab, pair_idx).store(value, Ordering::Release);
    }

    /// Resets every lane of `slab` to `fill` and its tag vector to
    /// [`TAG_EMPTY`]. Exclusive-phase helper; every scrub path (flush
    /// rebuild, surplus release, epoch reclaim) goes through here, so a
    /// recycled slab never carries another lifetime's tags.
    pub fn clear_slab(&self, slab: usize, fill: u32, counters: &mut PerfCounters) {
        counters.sector_writes += WORDS_PER_SLAB as u64;
        let word = pack_pair(fill, fill);
        let base = slab * WORDS_PER_SLAB;
        for w in 0..WORDS_PER_SLAB {
            self.words[base + w].store(word, Ordering::Release);
        }
        counters.tag_writes += 1;
        let tag_base = slab * TAG_WORDS_PER_SLAB;
        for w in 0..TAG_WORDS_PER_SLAB {
            self.tags[tag_base + w].store(u64::MAX, Ordering::Release);
        }
    }

    /// Coalesced read of a slab's 32-byte fingerprint-tag vector, packed
    /// little-endian (byte *l* of the result words is lane *l*'s tag — feed
    /// straight into [`crate::warp::byte_eq_mask`]). Bills one `tag_read`:
    /// a quarter-transaction next to the 128 B slab read it replaces.
    #[inline]
    pub fn read_tags(
        &self,
        slab: usize,
        counters: &mut PerfCounters,
    ) -> [u64; TAG_WORDS_PER_SLAB] {
        counters.tag_reads += 1;
        let base = slab * TAG_WORDS_PER_SLAB;
        let mut out = [0u64; TAG_WORDS_PER_SLAB];
        for (w, word) in out.iter_mut().enumerate() {
            *word = self.tags[base + w].load(Ordering::Acquire);
        }
        out
    }

    /// Monotone publish of lane `lane`'s fingerprint tag, called **before**
    /// the key CAS that makes the element visible. The byte only ever moves
    /// up the lattice `TAG_EMPTY → fp → TAG_WILD`:
    ///
    /// * empty → `tag` (first publisher);
    /// * already `tag` → no-op (re-insert of the same fingerprint);
    /// * already [`TAG_WILD`] → no-op (wildcard covers everything);
    /// * any other fingerprint → [`TAG_WILD`] (two keys with different
    ///   fingerprints have lived in this lane; the wildcard keeps both
    ///   reachable).
    ///
    /// Because the order is monotone, racing and delayed publishes converge:
    /// a tag can gain coverage but never lose it, so a probe that filters on
    /// `fp | TAG_WILD` can miss no published key (false *positives* only —
    /// deletes leave tags in place by design).
    #[inline]
    pub fn publish_tag(&self, slab: usize, lane: usize, tag: u8, counters: &mut PerfCounters) {
        debug_assert!(lane < WARP_SIZE);
        debug_assert!(tag < TAG_WILD, "fingerprints live below the sentinels");
        counters.tag_writes += 1;
        crate::chaos::maybe_yield();
        let word = &self.tags[slab * TAG_WORDS_PER_SLAB + lane / 8];
        let shift = 8 * (lane % 8);
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let cur_byte = ((cur >> shift) & 0xFF) as u8;
            let next_byte = if cur_byte == tag || cur_byte == TAG_WILD {
                return;
            } else if cur_byte == TAG_EMPTY {
                tag
            } else {
                TAG_WILD
            };
            let new = (cur & !(0xFFu64 << shift)) | (u64::from(next_byte) << shift);
            match word.compare_exchange_weak(cur, new, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Uncounted single-tag read for audit passes (not a modeled device
    /// access — the audit walks exclusively).
    #[inline]
    pub fn peek_tag(&self, slab: usize, lane: usize) -> u8 {
        let word = self.tags[slab * TAG_WORDS_PER_SLAB + lane / 8].load(Ordering::Acquire);
        ((word >> (8 * (lane % 8))) & 0xFF) as u8
    }

    /// Bytes of the fingerprint-tag sidecar (32 per slab), reported
    /// separately from [`bytes`](Self::bytes) so utilization math over the
    /// paper's 128 B slab layout stays comparable.
    #[inline]
    pub fn tag_bytes(&self) -> usize {
        self.tags.len() * 8
    }
}

impl std::fmt::Debug for SlabStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabStorage")
            .field("num_slabs", &self.num_slabs())
            .field("bytes", &self.bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters() -> PerfCounters {
        PerfCounters::default()
    }

    #[test]
    fn new_storage_is_filled() {
        let mut c = counters();
        let s = SlabStorage::new(3, 0xFFFF_FFFF);
        assert_eq!(s.num_slabs(), 3);
        assert_eq!(s.bytes(), 3 * SLAB_BYTES);
        for slab in 0..3 {
            let lanes = s.read_slab(slab, &mut c);
            assert!(lanes.iter().all(|&l| l == 0xFFFF_FFFF));
        }
    }

    #[test]
    fn pair_pack_roundtrip() {
        let w = pack_pair(0x1234_5678, 0x9abc_def0);
        assert_eq!(unpack_pair(w), (0x1234_5678, 0x9abc_def0));
    }

    #[test]
    fn lane_mapping_matches_pair_layout() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        // Writing a pair at word 3 must surface as lanes 6 (key) and 7 (value).
        s.store_pair(0, 3, pack_pair(111, 222), &mut c);
        let lanes = s.read_slab(0, &mut c);
        assert_eq!(lanes[6], 111);
        assert_eq!(lanes[7], 222);
        assert_eq!(s.read_lane(0, 6, &mut c), 111);
        assert_eq!(s.read_lane(0, 7, &mut c), 222);
    }

    #[test]
    fn cas_lane_success_and_failure() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        // Success returns the expected old value.
        assert_eq!(s.cas_lane(0, 31, 0, 42, &mut c), 0);
        assert_eq!(s.read_lane(0, 31, &mut c), 42);
        // Failure returns the actual occupant and leaves memory unchanged.
        assert_eq!(s.cas_lane(0, 31, 0, 99, &mut c), 42);
        assert_eq!(s.read_lane(0, 31, &mut c), 42);
        // The neighbouring lane in the same u64 word is untouched.
        assert_eq!(s.read_lane(0, 30, &mut c), 0);
    }

    #[test]
    fn cas_pair_success_and_failure() {
        let mut c = counters();
        let s = SlabStorage::new(1, u32::MAX);
        let empty = pack_pair(u32::MAX, u32::MAX);
        let pair = pack_pair(5, 50);
        assert_eq!(s.cas_pair(0, 0, empty, pair, &mut c), empty);
        assert_eq!(s.cas_pair(0, 0, empty, pack_pair(6, 60), &mut c), pair);
        let lanes = s.read_slab(0, &mut c);
        assert_eq!((lanes[0], lanes[1]), (5, 50));
    }

    #[test]
    fn write_lane_preserves_sibling() {
        let mut c = counters();
        let s = SlabStorage::new(1, 7);
        s.write_lane(0, 10, 123, &mut c);
        assert_eq!(s.read_lane(0, 10, &mut c), 123);
        assert_eq!(s.read_lane(0, 11, &mut c), 7);
    }

    #[test]
    fn exch_pair_swaps() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        let a = pack_pair(1, 2);
        let b = pack_pair(3, 4);
        assert_eq!(s.exch_pair(0, 5, a, &mut c), pack_pair(0, 0));
        assert_eq!(s.exch_pair(0, 5, b, &mut c), a);
        assert_eq!(s.read_pair(0, 5, &mut c), b);
    }

    #[test]
    fn read_slab_counts_one_transaction() {
        let mut c = counters();
        let s = SlabStorage::new(4, 0);
        s.read_slab(2, &mut c);
        s.read_slab(3, &mut c);
        assert_eq!(c.slab_reads, 2);
        assert_eq!(c.sector_reads, 0);
    }

    #[test]
    fn tags_start_empty_and_pack_per_lane() {
        let mut c = counters();
        let s = SlabStorage::new(2, 0);
        assert_eq!(s.read_tags(1, &mut c), [u64::MAX; TAG_WORDS_PER_SLAB]);
        assert_eq!(s.tag_bytes(), 2 * WARP_SIZE);
        s.publish_tag(1, 0, 0x12, &mut c);
        s.publish_tag(1, 9, 0x34, &mut c);
        s.publish_tag(1, 31, 0x56, &mut c);
        assert_eq!(s.peek_tag(1, 0), 0x12);
        assert_eq!(s.peek_tag(1, 9), 0x34);
        assert_eq!(s.peek_tag(1, 31), 0x56);
        let words = s.read_tags(1, &mut c);
        assert_eq!(words[0] & 0xFF, 0x12);
        assert_eq!((words[1] >> 8) & 0xFF, 0x34);
        assert_eq!(words[3] >> 56, 0x56);
        // Slab 0's vector is untouched.
        assert_eq!(s.read_tags(0, &mut c), [u64::MAX; TAG_WORDS_PER_SLAB]);
        assert_eq!(c.tag_reads, 3);
        assert_eq!(c.tag_writes, 3);
    }

    #[test]
    fn publish_tag_is_monotone_to_wild() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        s.publish_tag(0, 4, 0x10, &mut c);
        assert_eq!(s.peek_tag(0, 4), 0x10);
        // Same fingerprint: no change.
        s.publish_tag(0, 4, 0x10, &mut c);
        assert_eq!(s.peek_tag(0, 4), 0x10);
        // Different fingerprint: escalates to the wildcard…
        s.publish_tag(0, 4, 0x20, &mut c);
        assert_eq!(s.peek_tag(0, 4), TAG_WILD);
        // …which is absorbing.
        s.publish_tag(0, 4, 0x30, &mut c);
        assert_eq!(s.peek_tag(0, 4), TAG_WILD);
    }

    #[test]
    fn clear_slab_scrubs_tags() {
        let mut c = counters();
        let s = SlabStorage::new(1, 0);
        s.publish_tag(0, 7, 0x42, &mut c);
        s.clear_slab(0, u32::MAX, &mut c);
        assert_eq!(s.read_tags(0, &mut c), [u64::MAX; TAG_WORDS_PER_SLAB]);
        assert_eq!(c.tag_writes, 2, "publish + the clear's vector reset");
    }

    #[test]
    fn concurrent_cas_lane_no_lost_updates() {
        use std::sync::atomic::{AtomicU32, Ordering as O};
        // Hammer both halves of the same u64 word from many threads; the
        // CAS-loop implementation must not lose updates to either half.
        let s = SlabStorage::new(1, 0);
        let successes = AtomicU32::new(0);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let s = &s;
                let successes = &successes;
                scope.spawn(move || {
                    let mut c = PerfCounters::default();
                    let lane = if t % 2 == 0 { 30 } else { 31 };
                    for i in 0..1000u32 {
                        let cur = s.read_lane(0, lane, &mut c);
                        if s.cas_lane(0, lane, cur, cur.wrapping_add(1), &mut c) == cur {
                            successes.fetch_add(1, O::Relaxed);
                        }
                        std::hint::black_box(i);
                    }
                });
            }
        });
        let mut c = PerfCounters::default();
        let total = s.read_lane(0, 30, &mut c) as u64 + s.read_lane(0, 31, &mut c) as u64;
        assert_eq!(total, successes.load(O::Relaxed) as u64);
    }
}

#[cfg(test)]
mod race_tests {
    use super::*;
    use crate::chaos::ChaosGuard;

    /// Yield probability of the plan every racing thread below installs
    /// for itself: plans are thread-scoped, and these threads are spawned
    /// directly.
    const CHAOS: f64 = 0.3;

    /// 64-bit pair CAS must never produce a torn pair: concurrent writers
    /// each install (tag, tag) pairs; every observed pair must be coherent.
    #[test]
    fn no_torn_pairs_under_chaos() {
        let s = SlabStorage::new(1, 0);
        std::thread::scope(|scope| {
            for t in 1..=4u32 {
                let s = &s;
                scope.spawn(move || {
                    let _g = ChaosGuard::new(CHAOS);
                    let mut c = PerfCounters::default();
                    for i in 0..500 {
                        let tag = t * 10_000 + i;
                        let cur = s.read_pair(0, 3, &mut c);
                        s.cas_pair(0, 3, cur, pack_pair(tag, tag), &mut c);
                        let (k, v) = unpack_pair(s.read_pair(0, 3, &mut c));
                        assert_eq!(k, v, "torn pair observed: ({k}, {v})");
                    }
                });
            }
        });
    }

    /// Racing tag publishers with distinct fingerprints must leave the lane
    /// covering *both* (i.e. wild) or exactly one publisher's fingerprint if
    /// the other observed it and escalated — never empty, and never a value
    /// that covers neither.
    #[test]
    fn racing_tag_publishes_converge_upward() {
        for _ in 0..50 {
            let s = SlabStorage::new(1, 0);
            std::thread::scope(|scope| {
                for tag in [0x11u8, 0x22] {
                    let s = &s;
                    scope.spawn(move || {
                        let _g = ChaosGuard::new(CHAOS);
                        let mut c = PerfCounters::default();
                        s.publish_tag(0, 5, tag, &mut c);
                    });
                }
            });
            let t = s.peek_tag(0, 5);
            assert!(t == TAG_WILD, "two distinct publishers must go wild, got {t:#x}");
        }
    }

    /// Lane-granular CAS on the two halves of one u64 word must preserve
    /// both halves under concurrent updates (the CAS-loop implementation).
    #[test]
    fn sibling_lanes_are_independent_under_chaos() {
        let s = SlabStorage::new(1, 0);
        std::thread::scope(|scope| {
            for lane in [8usize, 9] {
                let s = &s;
                scope.spawn(move || {
                    let _g = ChaosGuard::new(CHAOS);
                    let mut c = PerfCounters::default();
                    for _ in 0..2_000 {
                        let cur = s.read_lane(0, lane, &mut c);
                        s.cas_lane(0, lane, cur, cur.wrapping_add(1), &mut c);
                    }
                });
            }
        });
        let mut c = PerfCounters::default();
        // Each lane was incremented only by its own thread: no lost updates
        // and no cross-lane interference.
        assert_eq!(s.read_lane(0, 8, &mut c), 2_000);
        assert_eq!(s.read_lane(0, 9, &mut c), 2_000);
    }
}
