//! One deterministic hasher for frame and line numbers.
//!
//! The per-frame maps (physical frames, MAC pages, zeroed frames, EFREE's
//! detached set) are keyed by frame and line numbers the simulator itself
//! computes, so std's SipHash with a per-process random seed buys nothing
//! there but cost. This is Fibonacci hashing: multiply by 2^64 / φ, whose
//! high bits spread consecutive and strided numbers alike across the
//! table, then rotate those bits down to the low end, which std's map
//! takes the bucket from. The hash is the same in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ, rounded to odd.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply hasher for integer keys.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrameHasher(u64);

impl Hasher for FrameHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(FIB);
    }
}

/// A map keyed by frame or line number.
pub(crate) type FrameMap<V> = HashMap<u64, V, BuildHasherDefault<FrameHasher>>;

/// A set of frames or other integer keys.
pub type FrameSet<T> = HashSet<T, BuildHasherDefault<FrameHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    /// 4,096 consecutive frames, and 4,096 frames 4,096 apart, each spread
    /// over 4,096 buckets with at most three in any one.
    #[test]
    fn runs_and_strides_spread_over_the_buckets() {
        let build = BuildHasherDefault::<FrameHasher>::default();
        for stride in [1u64, 4096] {
            let mut load = vec![0u32; 4096];
            for i in 0..4096 {
                load[(build.hash_one(5000 + i * stride) % 4096) as usize] += 1;
            }
            let worst = load.iter().max().copied();
            assert!(worst <= Some(3), "stride {stride}: {worst:?} in one bucket");
        }
        let again = BuildHasherDefault::<FrameHasher>::default();
        assert_eq!(build.hash_one(7u64), again.hash_one(7u64), "no seed");
    }
}
