//! ChaCha20 block function and a deterministic random bit generator.
//!
//! EMS needs unpredictable-but-reproducible randomness in several places the
//! paper calls out: randomized pool-growth thresholds (§IV-A), random
//! selection of pages for swap-out (§IV-A), attestation salts (§VI), and key
//! erasure with random values (§VI). [`ChaChaRng`] provides all of it,
//! seeded from the platform root of trust in the real system and from a test
//! seed in the simulator.

/// The ChaCha20 quarter round.
#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Computes one 64-byte ChaCha20 keystream block.
///
/// `key` is 32 bytes, `nonce` is 12 bytes, `counter` is the 32-bit block
/// counter — the RFC 7539 layout.
pub(crate) fn chacha20_block(key: &[u8; 32], counter: u32, nonce: &[u8; 12]) -> [u8; 64] {
    let mut state = [0u32; 16];
    state[0] = 0x61707865;
    state[1] = 0x3320646e;
    state[2] = 0x79622d32;
    state[3] = 0x6b206574;
    for i in 0..8 {
        state[4 + i] = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
    }
    let initial = state;
    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    let mut out = [0u8; 64];
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// A deterministic random bit generator built on the ChaCha20 block function.
///
/// # Example
///
/// ```
/// use hypertee_crypto::chacha::ChaChaRng;
/// let mut a = ChaChaRng::from_seed([1u8; 32]);
/// let mut b = ChaChaRng::from_seed([1u8; 32]);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct ChaChaRng {
    key: [u8; 32],
    counter: u32,
    nonce: [u8; 12],
    buffer: [u8; 64],
    offset: usize,
}

impl core::fmt::Debug for ChaChaRng {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "ChaChaRng {{ counter: {}, offset: {} }}",
            self.counter, self.offset
        )
    }
}

impl ChaChaRng {
    /// Creates a generator from a 32-byte seed.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        ChaChaRng {
            key: seed,
            counter: 0,
            nonce: [0; 12],
            buffer: [0; 64],
            offset: 64,
        }
    }

    /// Creates a generator from a 64-bit seed by expanding it with SHA-256,
    /// convenient for tests and simulator configuration.
    pub fn from_u64(seed: u64) -> Self {
        let digest = crate::sha256::sha256(&seed.to_le_bytes());
        Self::from_seed(digest)
    }

    fn refill(&mut self) {
        self.buffer = chacha20_block(&self.key, self.counter, &self.nonce);
        self.counter = self.counter.wrapping_add(1);
        self.offset = 0;
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        for b in dest.iter_mut() {
            if self.offset == 64 {
                self.refill();
            }
            *b = self.buffer[self.offset];
            self.offset += 1;
        }
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        let mut bytes = [0u8; 8];
        self.fill_bytes(&mut bytes);
        u64::from_le_bytes(bytes)
    }

    /// Returns a uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        let mut bytes = [0u8; 4];
        self.fill_bytes(&mut bytes);
        u32::from_le_bytes(bytes)
    }

    /// Returns a uniformly random value in `[0, bound)` using rejection
    /// sampling (no modulo bias).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    /// Returns a random 32-byte array (key/salt material).
    pub fn gen_bytes32(&mut self) -> [u8; 32] {
        let mut out = [0u8; 32];
        self.fill_bytes(&mut out);
        out
    }

    /// Shuffles a slice in place (Fisher–Yates), used for randomized page
    /// selection during EWB swap-out.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.is_empty() {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_range(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc7539_block_test_vector() {
        // RFC 7539 §2.3.2.
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let block = chacha20_block(&key, 1, &nonce);
        assert_eq!(
            block[..16],
            [
                0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
                0x71, 0xc4
            ]
        );
        assert_eq!(
            block[48..64],
            [
                0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9, 0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50,
                0x3c, 0x4e
            ]
        );
    }

    #[test]
    fn determinism() {
        let mut a = ChaChaRng::from_u64(42);
        let mut b = ChaChaRng::from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaChaRng::from_u64(1);
        let mut b = ChaChaRng::from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn gen_range_in_bounds() {
        let mut rng = ChaChaRng::from_u64(7);
        for bound in [1u64, 2, 3, 10, 100, 1 << 40, u64::MAX] {
            for _ in 0..50 {
                assert!(rng.gen_range(bound) < bound);
            }
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = ChaChaRng::from_u64(3);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "gen_range bound must be positive")]
    fn gen_range_zero_panics() {
        ChaChaRng::from_u64(0).gen_range(0);
    }
}
