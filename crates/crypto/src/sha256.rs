//! SHA-256, used by the EMS crypto engine (Table III: 16.1 Gbps) for
//! measurement transcripts, HMAC, and the SIGMA attestation flow.
//!
//! [`Sha256`] compresses through the SHA-NI kernel (`shani`: the
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions) when the host has
//! it, and through the portable scalar `compress` otherwise. The scalar
//! function is also the oracle: [`sha256_ref`] runs it alone, and the tests
//! pin the dispatched hasher against it.

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    ///
    /// # Example
    ///
    /// ```
    /// use hypertee_crypto::sha256::Sha256;
    /// let mut h = Sha256::new();
    /// h.update(b"abc");
    /// let digest = h.finalize();
    /// assert_eq!(digest[0], 0xba);
    /// ```
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }

    /// Compresses `blocks` in order: one SHA-NI kernel call when the host
    /// has SHA-NI, the scalar [`Sha256::compress`] per block otherwise.
    fn compress_blocks(&mut self, blocks: &[[u8; 64]]) {
        if blocks.is_empty() {
            return;
        }
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = shani::ShaNi::detect() {
            return kernel.compress_blocks(&mut self.state, blocks);
        }
        for block in blocks {
            self.compress(block);
        }
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress_blocks(&[block]);
                self.buffer_len = 0;
            }
        }
        // Every whole block of the call goes to one kernel call, so the
        // kernel's state shuffle is paid once per call, not once per block.
        let (blocks, tail) = data.as_chunks::<64>();
        self.compress_blocks(blocks);
        if !tail.is_empty() {
            self.buffer[..tail.len()].copy_from_slice(tail);
            self.buffer_len = tail.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    ///
    /// The padding (`0x80`, zeros, the 64-bit bit length) is written
    /// straight after the buffered bytes: one final block, or two when 56
    /// or more bytes are buffered and the length no longer fits.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_len.wrapping_mul(8);
        let n = self.buffer_len;
        let mut last = [[0u8; 64]; 2];
        last[0][..n].copy_from_slice(&self.buffer[..n]);
        last[0][n] = 0x80;
        let blocks = if n < 56 { 1 } else { 2 };
        last[blocks - 1][56..].copy_from_slice(&bit_len.to_be_bytes());
        self.compress_blocks(&last[..blocks]);
        self.digest()
    }

    /// The state words as the big-endian digest.
    fn digest(&self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 on the portable scalar `Sha256::compress` alone,
/// padded byte by byte: the differential oracle and benchmark baseline for
/// the dispatched [`sha256`].
pub fn sha256_ref(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    let (blocks, tail) = data.as_chunks::<64>();
    for block in blocks {
        h.compress(block);
    }
    let mut last = tail.to_vec();
    last.push(0x80);
    while last.len() % 64 != 56 {
        last.push(0);
    }
    last.extend_from_slice(&(data.len() as u64).wrapping_mul(8).to_be_bytes());
    for block in last.as_chunks::<64>().0 {
        h.compress(block);
    }
    h.digest()
}

#[cfg(target_arch = "x86_64")]
mod shani {
    //! SHA-NI backend: `sha256rnds2` runs two rounds on the state held as
    //! the ABEF/CDGH register pair, and `sha256msg1`/`sha256msg2` extend the
    //! message schedule four words at a time. The state is shuffled into
    //! that pair once per call and back once, so a call over many blocks
    //! (EADD's 4 KiB page is 63 or 64) pays it once. Like `aes::aesni`,
    //! this module holds all of its file's `unsafe` code, is reachable only
    //! through a safe wrapper that checks the CPU features at run time, and
    //! is pinned against the scalar `Sha256::compress` by KATs and a
    //! differential test.
    #![allow(unsafe_code)]

    use core::arch::x86_64::*;

    use super::K;

    /// Proof that this host has SHA-NI and the SSE levels the kernel uses:
    /// it is only built by [`ShaNi::detect`].
    pub(super) struct ShaNi(());

    impl ShaNi {
        /// `Some` when this host has SHA-NI, SSSE3 and SSE4.1.
        pub(super) fn detect() -> Option<ShaNi> {
            use std::arch::is_x86_feature_detected as has;
            (has!("sha") && has!("ssse3") && has!("sse4.1")).then_some(ShaNi(()))
        }

        /// Compresses `blocks` into `state` in order.
        pub(super) fn compress_blocks(self, state: &mut [u32; 8], blocks: &[[u8; 64]]) {
            // SAFETY: a `ShaNi` exists only once `detect` has seen every
            // feature `compress_blocks` is compiled for.
            unsafe { compress_blocks(state, blocks) }
        }
    }

    /// Four words of the message schedule, `W[t..t+4]`, from the previous
    /// sixteen: `w0` = `W[t-16..t-12]` up to `w3` = `W[t-4..t]`.
    #[target_feature(enable = "sha,sse2,ssse3")]
    #[inline]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Rounds `4 * quad` to `4 * quad + 3` with message words `w`.
    #[target_feature(enable = "sha,sse2")]
    #[inline]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, quad: usize) {
        let k = &K[4 * quad..4 * quad + 4];
        let wk = _mm_add_epi32(
            w,
            _mm_set_epi32(k[3] as i32, k[2] as i32, k[1] as i32, k[0] as i32),
        );
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }

    /// Compresses `blocks` into `state` in order.
    ///
    /// # Safety
    ///
    /// Requires SHA-NI, SSSE3 and SSE4.1; callers verify with
    /// `is_x86_feature_detected!` (see [`ShaNi::detect`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // SAFETY: the loads and stores touch exactly the 32-byte state and
        // the 64 bytes of each block.
        unsafe {
            // Byte swap of each 32-bit word: the message is big-endian.
            let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
            let load = |block: &[u8; 64], i: usize| {
                _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16 * i).cast()), bswap)
            };
            let dcba = _mm_loadu_si128(state.as_ptr().cast());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast());
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
            let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);
            for block in blocks {
                let (abef_in, cdgh_in) = (abef, cdgh);
                let (mut w0, mut w1, mut w2, mut w3) = (
                    load(block, 0),
                    load(block, 1),
                    load(block, 2),
                    load(block, 3),
                );
                rounds4(&mut abef, &mut cdgh, w0, 0);
                rounds4(&mut abef, &mut cdgh, w1, 1);
                rounds4(&mut abef, &mut cdgh, w2, 2);
                rounds4(&mut abef, &mut cdgh, w3, 3);
                for quad in [4, 8, 12] {
                    w0 = schedule(w0, w1, w2, w3);
                    rounds4(&mut abef, &mut cdgh, w0, quad);
                    w1 = schedule(w1, w2, w3, w0);
                    rounds4(&mut abef, &mut cdgh, w1, quad + 1);
                    w2 = schedule(w2, w3, w0, w1);
                    rounds4(&mut abef, &mut cdgh, w2, quad + 2);
                    w3 = schedule(w3, w0, w1, w2);
                    rounds4(&mut abef, &mut cdgh, w3, quad + 3);
                }
                abef = _mm_add_epi32(abef, abef_in);
                cdgh = _mm_add_epi32(cdgh, cdgh_in);
            }
            let feba = _mm_shuffle_epi32(abef, 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
            _mm_storeu_si128(state.as_mut_ptr().cast(), _mm_blend_epi16(feba, dchg, 0xf0));
            _mm_storeu_si128(
                state.as_mut_ptr().add(4).cast(),
                _mm_alignr_epi8(dchg, feba, 8),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chacha::ChaChaRng;

    fn hex(digest: [u8; 32]) -> String {
        digest.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let oneshot = sha256(&data);
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    /// FIPS 180-2 / NIST CAVP vectors, through the dispatched hasher and
    /// the portable oracle alike. The 448-bit message buffers 56 bytes at
    /// `finalize`, so its padding takes two blocks; the 896-bit one spans
    /// two message blocks.
    #[test]
    fn known_answers() {
        let million_a = vec![b'a'; 1_000_000];
        let vectors: [(&[u8], &str); 5] = [
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
            (
                &million_a,
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
            ),
        ];
        for (msg, want) in vectors {
            assert_eq!(hex(sha256(msg)), want, "dispatched, {} bytes", msg.len());
            assert_eq!(hex(sha256_ref(msg)), want, "portable, {} bytes", msg.len());
        }
    }

    /// Every buffered tail length `finalize` can meet, 0 to 63 after zero
    /// and one whole blocks, against the portable oracle's byte-wise
    /// padding: one final block below 56 buffered bytes, two from 56 on.
    #[test]
    fn finalize_pads_every_tail_length() {
        let data: Vec<u8> = (0..128u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=127 {
            assert_eq!(
                sha256(&data[..len]),
                sha256_ref(&data[..len]),
                "{len} bytes"
            );
        }
    }

    /// The dispatched [`Sha256`] against the portable path on every length
    /// from 0 to 4,200 bytes, each fed through `update` in pieces split at
    /// seeded random points. That covers a buffered prefix followed by a
    /// run of whole blocks, the EADD shape (a 30-byte header, then a 4 KiB
    /// page). On a host without SHA-NI both sides run the portable code.
    #[test]
    fn dispatched_matches_portable_on_random_splits() {
        let mut rng = ChaChaRng::from_u64(0x5a_256);
        let mut data = vec![0u8; 4200];
        rng.fill_bytes(&mut data);
        for len in 0..=data.len() {
            let msg = &data[..len];
            let mut h = Sha256::new();
            let mut rest = msg;
            while !rest.is_empty() {
                let take = rng.gen_range(rest.len() as u64 + 1) as usize;
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(h.finalize(), sha256_ref(msg), "{len} bytes");
        }
    }
}
