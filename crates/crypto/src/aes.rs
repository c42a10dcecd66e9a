//! AES-128 block cipher with ECB-style single-block and CTR-mode helpers.
//!
//! This is the functional model of both the EMS crypto engine's AES unit
//! (Table III: 1.24 Gbps) and of the multi-key memory encryption engine
//! (§IV-C, MKTME/SME-like). The memory engine in `hypertee-mem` encrypts each
//! physical line with AES-CTR keyed by the enclave's KeyID and tweaked by the
//! physical address, so that reads through the wrong KeyID really return
//! ciphertext — the property the paper's PTW attack-surface analysis relies
//! on (§VIII-C).

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// AES inverse S-box, precomputed from [`SBOX`] at compile time (the decrypt
/// path previously rebuilt this 256-entry table on every block).
const INV_SBOX: [u8; 256] = {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[SBOX[i] as usize] = i as u8;
        i += 1;
    }
    inv
};

/// Round constants for AES-128 key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const fn xtime(b: u8) -> u8 {
    let hi = b & 0x80;
    let r = b << 1;
    if hi != 0 {
        r ^ 0x1b
    } else {
        r
    }
}

/// Encryption T-table `TE0[x] = (2·S[x], S[x], S[x], 3·S[x])` packed as a
/// big-endian word: one lookup fuses SubBytes with the column's MixColumns
/// contribution. `TE1..TE3` are byte rotations of `TE0`, derived on the fly
/// with `rotate_right`, which keeps the cache footprint at 1 KiB.
const TE0: [u32; 256] = {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        t[i] = ((s2 as u32) << 24) | ((s as u32) << 16) | ((s as u32) << 8) | (s3 as u32);
        i += 1;
    }
    t
};

#[inline(always)]
fn te0(b: u32) -> u32 {
    TE0[(b & 0xff) as usize]
}
#[inline(always)]
fn te1(b: u32) -> u32 {
    TE0[(b & 0xff) as usize].rotate_right(8)
}
#[inline(always)]
fn te2(b: u32) -> u32 {
    TE0[(b & 0xff) as usize].rotate_right(16)
}
#[inline(always)]
fn te3(b: u32) -> u32 {
    TE0[(b & 0xff) as usize].rotate_right(24)
}

/// Multiplies two elements of GF(2^8) with the AES polynomial.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key schedule (11 round keys).
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
    /// The same schedule as big-endian column words, the shape the T-table
    /// encrypt path consumes.
    ek: [[u32; 4]; 11],
}

impl core::fmt::Debug for Aes128 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never leak key material through Debug.
        write!(f, "Aes128 {{ round_keys: <redacted> }}")
    }
}

impl Aes128 {
    /// Expands a 16-byte key into the full round-key schedule.
    ///
    /// # Example
    ///
    /// ```
    /// let cipher = hypertee_crypto::aes::Aes128::new(&[0u8; 16]);
    /// let ct = cipher.encrypt_block(&[0u8; 16]);
    /// assert_eq!(cipher.decrypt_block(&ct), [0u8; 16]);
    /// ```
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i] = [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]];
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp = [
                    SBOX[temp[1] as usize] ^ RCON[i / 4 - 1],
                    SBOX[temp[2] as usize],
                    SBOX[temp[3] as usize],
                    SBOX[temp[0] as usize],
                ];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        let mut ek = [[0u32; 4]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                ek[r][c] = u32::from_be_bytes(w[4 * r + c]);
            }
        }
        Aes128 { round_keys, ek }
    }

    fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
        for i in 0..16 {
            state[i] ^= rk[i];
        }
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        // State is column-major: state[4*c + r].
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * c + r] = s[4 * ((c + r) % 4) + r];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col = [
                state[4 * c],
                state[4 * c + 1],
                state[4 * c + 2],
                state[4 * c + 3],
            ];
            state[4 * c] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[4 * c + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[4 * c + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[4 * c + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    /// Encrypts one 16-byte block.
    ///
    /// Dispatches on a cached CPUID probe: hosts with AES-NI run the
    /// hardware round instructions, everything else the T-table path. Both
    /// are pinned against `Aes128::encrypt_block_ref` and the FIPS-197
    /// known-answer tests.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            // SAFETY: the required CPU feature was verified just above.
            #[allow(unsafe_code)]
            unsafe {
                return aesni::encrypt_block(&self.round_keys, block);
            }
        }
        self.encrypt_block_ttable(block)
    }

    /// Encrypts one 16-byte block via the precomputed T-tables.
    fn encrypt_block_ttable(&self, block: &[u8; 16]) -> [u8; 16] {
        let ek = &self.ek;
        let mut t0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ ek[0][0];
        let mut t1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ ek[0][1];
        let mut t2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ ek[0][2];
        let mut t3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ ek[0][3];
        for rk in &ek[1..10] {
            let n0 = te0(t0 >> 24) ^ te1(t1 >> 16) ^ te2(t2 >> 8) ^ te3(t3) ^ rk[0];
            let n1 = te0(t1 >> 24) ^ te1(t2 >> 16) ^ te2(t3 >> 8) ^ te3(t0) ^ rk[1];
            let n2 = te0(t2 >> 24) ^ te1(t3 >> 16) ^ te2(t0 >> 8) ^ te3(t1) ^ rk[2];
            let n3 = te0(t3 >> 24) ^ te1(t0 >> 16) ^ te2(t1 >> 8) ^ te3(t2) ^ rk[3];
            t0 = n0;
            t1 = n1;
            t2 = n2;
            t3 = n3;
        }
        let sb = |b: u32| SBOX[(b & 0xff) as usize] as u32;
        let o0 = (sb(t0 >> 24) << 24) | (sb(t1 >> 16) << 16) | (sb(t2 >> 8) << 8) | sb(t3);
        let o1 = (sb(t1 >> 24) << 24) | (sb(t2 >> 16) << 16) | (sb(t3 >> 8) << 8) | sb(t0);
        let o2 = (sb(t2 >> 24) << 24) | (sb(t3 >> 16) << 16) | (sb(t0 >> 8) << 8) | sb(t1);
        let o3 = (sb(t3 >> 24) << 24) | (sb(t0 >> 16) << 16) | (sb(t1 >> 8) << 8) | sb(t2);
        let mut out = [0u8; 16];
        out[0..4].copy_from_slice(&(o0 ^ ek[10][0]).to_be_bytes());
        out[4..8].copy_from_slice(&(o1 ^ ek[10][1]).to_be_bytes());
        out[8..12].copy_from_slice(&(o2 ^ ek[10][2]).to_be_bytes());
        out[12..16].copy_from_slice(&(o3 ^ ek[10][3]).to_be_bytes());
        out
    }

    /// The pre-optimization scalar round-function encryption, kept as the
    /// differential oracle the T-table path is pinned against (and as the
    /// "before" measurement of the tracked benchmark pipeline).
    pub(crate) fn encrypt_block_ref(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[0]);
        for round in 1..10 {
            Self::sub_bytes(&mut state);
            Self::shift_rows(&mut state);
            Self::mix_columns(&mut state);
            Self::add_round_key(&mut state, &self.round_keys[round]);
        }
        Self::sub_bytes(&mut state);
        Self::shift_rows(&mut state);
        Self::add_round_key(&mut state, &self.round_keys[10]);
        state
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let inv = &INV_SBOX;
        let mut state = *block;
        Self::add_round_key(&mut state, &self.round_keys[10]);
        for round in (1..10).rev() {
            // Inverse shift rows.
            let s = state;
            for r in 1..4 {
                for c in 0..4 {
                    state[4 * ((c + r) % 4) + r] = s[4 * c + r];
                }
            }
            // Inverse sub bytes.
            for b in state.iter_mut() {
                *b = inv[*b as usize];
            }
            Self::add_round_key(&mut state, &self.round_keys[round]);
            // Inverse mix columns.
            for c in 0..4 {
                let col = [
                    state[4 * c],
                    state[4 * c + 1],
                    state[4 * c + 2],
                    state[4 * c + 3],
                ];
                state[4 * c] =
                    gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
                state[4 * c + 1] =
                    gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
                state[4 * c + 2] =
                    gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
                state[4 * c + 3] =
                    gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
            }
        }
        // Final (first) round.
        let s = state;
        for r in 1..4 {
            for c in 0..4 {
                state[4 * ((c + r) % 4) + r] = s[4 * c + r];
            }
        }
        for b in state.iter_mut() {
            *b = inv[*b as usize];
        }
        Self::add_round_key(&mut state, &self.round_keys[0]);
        state
    }

    /// Applies CTR-mode keystream to `data` in place, starting from the
    /// 16-byte `iv` interpreted as a big-endian counter block.
    ///
    /// CTR is an involution: applying it twice with the same parameters
    /// restores the plaintext.
    pub fn ctr_apply(&self, iv: &[u8; 16], data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("aes") {
            // SAFETY: the required CPU feature was verified just above.
            #[allow(unsafe_code)]
            unsafe {
                return aesni::ctr_apply(&self.round_keys, iv, data);
            }
        }
        self.ctr_apply_ttable(iv, data);
    }

    /// Portable CTR path over the T-table block function.
    fn ctr_apply_ttable(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut counter = *iv;
        for chunk in data.chunks_mut(16) {
            let ks = self.encrypt_block_ttable(&counter);
            if chunk.len() == 16 {
                // Full block: XOR as two u64 words instead of byte-wise.
                let lo = u64::from_ne_bytes(chunk[0..8].try_into().expect("8 bytes"))
                    ^ u64::from_ne_bytes(ks[0..8].try_into().expect("8 bytes"));
                let hi = u64::from_ne_bytes(chunk[8..16].try_into().expect("8 bytes"))
                    ^ u64::from_ne_bytes(ks[8..16].try_into().expect("8 bytes"));
                chunk[0..8].copy_from_slice(&lo.to_ne_bytes());
                chunk[8..16].copy_from_slice(&hi.to_ne_bytes());
            } else {
                for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                    *b ^= k;
                }
            }
            Self::increment_counter(&mut counter);
        }
    }

    /// The pre-optimization CTR path (scalar block function, byte-wise XOR),
    /// kept as the differential/benchmark baseline for [`Aes128::ctr_apply`].
    pub fn ctr_apply_ref(&self, iv: &[u8; 16], data: &mut [u8]) {
        let mut counter = *iv;
        for chunk in data.chunks_mut(16) {
            let ks = self.encrypt_block_ref(&counter);
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            Self::increment_counter(&mut counter);
        }
    }

    /// Increments the 16-byte big-endian counter block in place.
    #[inline]
    fn increment_counter(counter: &mut [u8; 16]) {
        for i in (0..16).rev() {
            counter[i] = counter[i].wrapping_add(1);
            if counter[i] != 0 {
                break;
            }
        }
    }
}

/// AES-NI backend: the hardware round instruction does SubBytes, ShiftRows,
/// MixColumns and AddRoundKey in one `aesenc`, and the CTR path keeps four
/// counter blocks in flight to cover the instruction's latency. This module
/// and the AVX-512 Keccak backend are the crate's only `unsafe` code; both
/// are reachable solely through runtime-dispatched safe wrappers with
/// portable fallbacks, and are pinned by KATs and differential tests.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aesni {
    use core::arch::x86_64::*;

    /// Loads the precomputed round-key schedule into vector registers.
    ///
    /// # Safety
    ///
    /// Requires AES-NI/SSE2; callers verify with `is_x86_feature_detected!`.
    #[target_feature(enable = "aes")]
    #[inline]
    unsafe fn load_schedule(round_keys: &[[u8; 16]; 11]) -> [__m128i; 11] {
        // SAFETY: each round key is exactly 16 readable bytes.
        unsafe {
            let mut ek = [_mm_setzero_si128(); 11];
            for (v, rk) in ek.iter_mut().zip(round_keys.iter()) {
                *v = _mm_loadu_si128(rk.as_ptr().cast());
            }
            ek
        }
    }

    /// One-block ECB encryption via the hardware rounds.
    ///
    /// # Safety
    ///
    /// Requires AES-NI; callers verify with `is_x86_feature_detected!`.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn encrypt_block(round_keys: &[[u8; 16]; 11], block: &[u8; 16]) -> [u8; 16] {
        // SAFETY: loads/stores touch exactly the 16-byte block and keys.
        unsafe {
            let ek = load_schedule(round_keys);
            let mut b = _mm_xor_si128(_mm_loadu_si128(block.as_ptr().cast()), ek[0]);
            for rk in &ek[1..10] {
                b = _mm_aesenc_si128(b, *rk);
            }
            b = _mm_aesenclast_si128(b, ek[10]);
            let mut out = [0u8; 16];
            _mm_storeu_si128(out.as_mut_ptr().cast(), b);
            out
        }
    }

    /// CTR keystream application with four blocks in flight.
    ///
    /// # Safety
    ///
    /// Requires AES-NI; callers verify with `is_x86_feature_detected!`.
    #[target_feature(enable = "aes")]
    pub(super) unsafe fn ctr_apply(round_keys: &[[u8; 16]; 11], iv: &[u8; 16], data: &mut [u8]) {
        // SAFETY: all loads/stores stay within `data`, the counter block and
        // the key schedule; the 64-byte chunks_exact bound guards the quads.
        unsafe {
            let ek = load_schedule(round_keys);
            let mut counter = *iv;
            let mut quads = data.chunks_exact_mut(64);
            for quad in &mut quads {
                let mut c = [_mm_setzero_si128(); 4];
                for slot in c.iter_mut() {
                    *slot = _mm_xor_si128(_mm_loadu_si128(counter.as_ptr().cast()), ek[0]);
                    super::Aes128::increment_counter(&mut counter);
                }
                for rk in &ek[1..10] {
                    for slot in c.iter_mut() {
                        *slot = _mm_aesenc_si128(*slot, *rk);
                    }
                }
                for (i, slot) in c.iter().enumerate() {
                    let ks = _mm_aesenclast_si128(*slot, ek[10]);
                    let p = quad.as_mut_ptr().add(16 * i).cast::<__m128i>();
                    _mm_storeu_si128(p, _mm_xor_si128(_mm_loadu_si128(p), ks));
                }
            }
            for chunk in quads.into_remainder().chunks_mut(16) {
                let mut b = _mm_xor_si128(_mm_loadu_si128(counter.as_ptr().cast()), ek[0]);
                for rk in &ek[1..10] {
                    b = _mm_aesenc_si128(b, *rk);
                }
                let mut ks = [0u8; 16];
                _mm_storeu_si128(ks.as_mut_ptr().cast(), _mm_aesenclast_si128(b, ek[10]));
                for (byte, k) in chunk.iter_mut().zip(ks.iter()) {
                    *byte ^= k;
                }
                super::Aes128::increment_counter(&mut counter);
            }
        }
    }
}

/// Builds a CTR IV from a 64-bit tweak (e.g. a physical address) and a
/// 64-bit stream nonce, as used by the memory encryption engine.
pub fn ctr_iv(tweak: u64, nonce: u64) -> [u8; 16] {
    let mut iv = [0u8; 16];
    iv[..8].copy_from_slice(&tweak.to_be_bytes());
    iv[8..].copy_from_slice(&nonce.to_be_bytes());
    iv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctr_is_involution() {
        let cipher = Aes128::new(&[0x42; 16]);
        let iv = ctr_iv(0xdead_beef, 7);
        let mut data: Vec<u8> = (0..100u8).collect();
        let orig = data.clone();
        cipher.ctr_apply(&iv, &mut data);
        assert_ne!(data, orig, "ciphertext must differ from plaintext");
        cipher.ctr_apply(&iv, &mut data);
        assert_eq!(data, orig);
    }

    #[test]
    fn ctr_differs_per_tweak() {
        let cipher = Aes128::new(&[0x42; 16]);
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        cipher.ctr_apply(&ctr_iv(1, 0), &mut a);
        cipher.ctr_apply(&ctr_iv(2, 0), &mut b);
        assert_ne!(
            a, b,
            "different address tweaks must yield different keystreams"
        );
    }

    #[test]
    fn counter_increment_carries() {
        let cipher = Aes128::new(&[0x01; 16]);
        // IV ending in 0xff...ff forces a carry across bytes.
        let iv = [0xffu8; 16];
        let mut data = vec![0u8; 48];
        cipher.ctr_apply(&iv, &mut data);
        let mut again = data.clone();
        cipher.ctr_apply(&iv, &mut again);
        assert!(again.iter().all(|&b| b == 0));
    }

    #[test]
    fn ttable_matches_scalar_reference() {
        // The T-table path must agree with the scalar round function for
        // every key/plaintext pair we throw at it.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            // xorshift64 keeps this test dependency-free.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let mut key = [0u8; 16];
            let mut pt = [0u8; 16];
            key[..8].copy_from_slice(&next().to_le_bytes());
            key[8..].copy_from_slice(&next().to_le_bytes());
            pt[..8].copy_from_slice(&next().to_le_bytes());
            pt[8..].copy_from_slice(&next().to_le_bytes());
            let cipher = Aes128::new(&key);
            let ct = cipher.encrypt_block(&pt);
            assert_eq!(ct, cipher.encrypt_block_ref(&pt));
            assert_eq!(cipher.decrypt_block(&ct), pt);
        }
    }

    #[test]
    fn ctr_fast_path_matches_reference() {
        let cipher = Aes128::new(&[0x5a; 16]);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 64, 100, 256] {
            let mut fast: Vec<u8> = (0..len as u32).map(|i| (i * 13 % 251) as u8).collect();
            let mut slow = fast.clone();
            let iv = ctr_iv(0xfeed_f00d, 42);
            cipher.ctr_apply(&iv, &mut fast);
            cipher.ctr_apply_ref(&iv, &mut slow);
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    fn gmul_matches_xtime() {
        for b in 0..=255u8 {
            assert_eq!(gmul(b, 2), xtime(b));
            assert_eq!(gmul(b, 1), b);
            assert_eq!(gmul(b, 3), xtime(b) ^ b);
        }
    }
}
