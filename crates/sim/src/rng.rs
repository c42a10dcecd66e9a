//! SplitMix64: stateless mixing and per-shard deterministic streams.
//!
//! The parallel simulator (see `hypertee::shard`) needs randomness that is
//! *independent of thread count and interleaving*: every shard's machine
//! boots from its own stream, keyed by `(campaign seed, shard index)`, so
//! the schedule a shard sees never depends on when the host OS ran its
//! worker thread. The splitmix64 finalizer used here is the same one the
//! request pipeline has charged its retry-back-off jitter with since the
//! async-pipeline PR; this module is its canonical home so every consumer
//! provably shares one definition.
//!
//! Two layers:
//!
//! * [`mix`] — the stateless splitmix64 finalizer. Feeding it distinct
//!   inputs yields decorrelated outputs; it can never perturb any other
//!   random stream because it carries no state.
//! * [`SplitMix64`] — a tiny sequential generator over the Weyl sequence,
//!   for draws that need a stream rather than a hash.
//!
//! [`derive_stream`] composes the two: a per-shard seed that is stable
//! under re-partitioning of *other* shards.

/// The splitmix64 increment (golden-ratio Weyl constant).
pub const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The stateless splitmix64 finalizer: a high-quality 64-bit mixer.
///
/// Exactly the arithmetic the pipeline's jitter has always used — changing
/// these constants would silently re-seed every replayable campaign, so
/// they are pinned here once.
#[must_use]
pub fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// A uniform draw in `[0, 1)` from the top 53 bits of a mixed word.
#[must_use]
pub fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Derives the seed of stream `stream` from a master `seed`.
///
/// Used as `derive_stream(campaign_seed, shard_id)`: each shard of a
/// partitioned campaign gets its own decorrelated seed, and the derivation
/// depends only on `(seed, stream)` — never on how many shards exist or
/// which host thread runs them. That is the property that makes a sharded
/// run bit-identical at 1, 2, 4, or 8 worker threads.
#[must_use]
pub fn derive_stream(seed: u64, stream: u64) -> u64 {
    // Offset by one so stream 0 does not collapse to mix(seed), which some
    // single-machine paths already use directly.
    mix(seed ^ (stream.wrapping_add(1)).wrapping_mul(GOLDEN_GAMMA))
}

/// A sequential splitmix64 generator (Weyl sequence + [`mix`]).
///
/// Small, cheap to clone, and `Send`: a seeded stream for private draws.
/// Not cryptographic — campaign scheduling and test generation only.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator starting from `seed`.
    #[must_use]
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        mix(self.state)
    }

    /// A draw in `[0, n)`; `n = 0` yields 0.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift range reduction: deterministic and unbiased enough
        // for scheduling (not sampling-critical).
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_matches_reference_vector() {
        // splitmix64 reference: seed 0 produces 0xe220a8397b1dcdaf as its
        // first output (state += GOLDEN_GAMMA, then finalize).
        assert_eq!(mix(GOLDEN_GAMMA), 0xe220_a839_7b1d_cdaf);
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(g.next_u64(), 0x6e78_9e6a_a1b9_65f4);
    }

    #[test]
    fn streams_are_deterministic_and_decorrelated() {
        let a1: Vec<u64> = {
            let mut g = SplitMix64::new(derive_stream(42, 0));
            (0..16).map(|_| g.next_u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut g = SplitMix64::new(derive_stream(42, 0));
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert_eq!(a1, a2, "same (seed, shard) must replay");
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(derive_stream(42, 1));
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert!(
            a1.iter().zip(&b).all(|(x, y)| x != y),
            "adjacent shards must not share draws"
        );
        let c: Vec<u64> = {
            let mut g = SplitMix64::new(derive_stream(43, 0));
            (0..16).map(|_| g.next_u64()).collect()
        };
        assert_ne!(a1, c, "different campaign seeds must differ");
    }

    #[test]
    fn stream_derivation_is_independent_of_other_streams() {
        // Shard 2's seed is the same whether the campaign has 3 shards or 8.
        let lone = derive_stream(7, 2);
        let seeds_of_8: Vec<u64> = (0..8).map(|s| derive_stream(7, s)).collect();
        assert_eq!(seeds_of_8[2], lone);
        // And all 8 are distinct.
        let unique: std::collections::BTreeSet<u64> = seeds_of_8.iter().copied().collect();
        assert_eq!(unique.len(), 8);
    }

    #[test]
    fn unit_and_range_are_bounded() {
        let mut g = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&unit(g.next_u64())));
            assert!(g.gen_range(10) < 10);
        }
        assert_eq!(g.gen_range(0), 0);
    }
}
