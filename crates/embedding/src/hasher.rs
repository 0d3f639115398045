//! FNV-1a hashing of n-grams into a fixed bucket space.
//!
//! FastText does not store a vector per distinct n-gram; it hashes n-grams
//! into a fixed number of buckets (2 M by default) and learns one vector per
//! bucket.  We reproduce the same trick with the classic 64-bit FNV-1a hash,
//! which is deterministic across runs and platforms — determinism matters
//! because the paper's experiments fix the random seed for reproducibility.

/// 64-bit FNV-1a offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
/// 64-bit FNV-1a prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// Hashes a byte string with 64-bit FNV-1a.
#[inline]
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_extend(FNV_OFFSET, data)
}

/// Continues an FNV-1a hash over more bytes, so a string held in pieces
/// hashes like their concatenation.
#[inline]
pub(crate) fn fnv1a_extend(mut hash: u64, data: &[u8]) -> u64 {
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes an n-gram string into a bucket index in `[0, buckets)`.
///
/// # Panics
/// Panics if `buckets == 0`; the model configuration validates this earlier.
#[inline]
pub fn bucket_of(ngram: &str, buckets: usize) -> usize {
    bucket_of_hash(fnv1a(ngram.as_bytes()), buckets)
}

/// The bucket of an n-gram whose FNV-1a hash is already known.
#[inline]
pub(crate) fn bucket_of_hash(hash: u64, buckets: usize) -> usize {
    assert!(buckets > 0, "bucket count must be non-zero");
    (hash % buckets as u64) as usize
}

/// A deterministic pseudo-random stream seeded from a hash value, used to
/// initialise bucket vectors without an external RNG dependency.
///
/// This is the SplitMix64 generator: tiny, fast, and good enough for
/// initialising embedding components uniformly in `[-0.5/dim, 0.5/dim)`, the
/// same initialisation scale FastText uses.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Next `f32` uniform in `[0, 1)`.
    #[inline]
    pub fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32
    }

    /// Next `f32` uniform in `[-scale, scale)`.
    #[inline]
    pub fn next_symmetric(&mut self, scale: f32) -> f32 {
        (self.next_f32() * 2.0 - 1.0) * scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv1a(b"dbms"), fnv1a(b"dbms"));
        assert_ne!(fnv1a(b"dbms"), fnv1a(b"rdbms"));
    }

    #[test]
    fn fnv_known_value_for_empty_input() {
        assert_eq!(fnv1a(b""), FNV_OFFSET);
    }

    #[test]
    fn bucket_within_range() {
        for word in ["a", "barbecue", "<dbms>", "ngram with spaces"] {
            let b = bucket_of(word, 1000);
            assert!(b < 1000);
        }
    }

    #[test]
    #[should_panic(expected = "bucket count")]
    fn zero_buckets_panics() {
        bucket_of("x", 0);
    }

    #[test]
    fn splitmix_deterministic_with_same_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_different_seeds_differ() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_f32_in_unit_interval() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let v = g.next_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn next_symmetric_in_range_and_not_degenerate() {
        let mut g = SplitMix64::new(9);
        let mut saw_negative = false;
        let mut saw_positive = false;
        for _ in 0..1000 {
            let v = g.next_symmetric(0.1);
            assert!((-0.1..0.1).contains(&v));
            saw_negative |= v < 0.0;
            saw_positive |= v > 0.0;
        }
        assert!(saw_negative && saw_positive);
    }
}
