//! Seeded input generation. Everything a workload feeds the system comes
//! from here, derived from the `--seed` argument alone, so one seed always
//! yields the same keys, values and operation streams.

/// SplitMix64: a small, fast, seedable generator with a full 2^64 period.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (client, phase).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` must be non-zero).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() >> 32) * n) >> 32
    }

    /// True with probability `pct` percent.
    pub fn percent(&mut self, pct: u64) -> bool {
        self.below(100) < pct
    }
}

/// 2^31 − 1, a prime below every reserved key sentinel.
const KEY_PRIME: u64 = (1 << 31) - 1;

/// A seeded bijection from indices `0..2^31-1` onto distinct table keys:
/// `key(i) = (a·i + b) mod p` with `p` prime. Distinct indices give
/// distinct keys, so a workload reasons about indices (ranges, windows,
/// hit/miss halves) and the table sees scattered keys.
#[derive(Debug, Clone, Copy)]
pub struct KeyMap {
    a: u64,
    b: u64,
}

impl KeyMap {
    /// The key map for `seed`.
    pub fn new(seed: u64) -> Self {
        let mut r = Rng::new(seed, 0x004B_4559);
        Self {
            a: 1 + r.below(KEY_PRIME - 1),
            b: r.below(KEY_PRIME),
        }
    }

    /// The key for index `i` (`i < 2^31 − 1`).
    pub fn key(&self, i: u64) -> u32 {
        debug_assert!(i < KEY_PRIME, "key index out of range");
        ((self.a * i + self.b) % KEY_PRIME) as u32
    }
}

/// The value a workload writes for `key` at write number `version`; never
/// depends on anything but its arguments, so oracles can recompute it.
pub fn value_of(key: u32, version: u64) -> u32 {
    let mut z = u64::from(key) ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    (z ^ (z >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn key_map_is_injective_and_avoids_sentinels() {
        let m = KeyMap::new(42);
        let keys: HashSet<u32> = (0..100_000).map(|i| m.key(i)).collect();
        assert_eq!(keys.len(), 100_000);
        assert!(keys.iter().all(|&k| k <= slab_hash::MAX_KEY));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let c: Vec<u64> = (0..8)
            .map({
                let mut r = Rng::new(8, 1);
                move |_| r.next_u64()
            })
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(KeyMap::new(7).key(3), KeyMap::new(8).key(3));
    }
}
