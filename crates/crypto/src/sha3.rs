//! SHA3-256 over the Keccak-f\[1600\] permutation.
//!
//! The paper protects enclave memory integrity with a "SHA-3 based MAC
//! (28-bit)" (§IV-C). This module provides the underlying hash; the truncated
//! MAC itself lives in [`crate::mac`].

const ROUNDS: usize = 24;

pub(crate) const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

/// One Keccak round from 25 named input lanes to 25 named output lanes.
///
/// Theta's column parities are folded straight into the rho rotations
/// (`b = (in ^ d).rotate_left(r)`), so a round never writes its inputs —
/// every value is a fresh SSA name the compiler can schedule freely across
/// rounds; the caller's mutable lanes are only re-assigned once per
/// unrolled chain (a register-to-register move LLVM elides). Lane `aXY` is
/// flat index `X + 5*Y` of the reference state; pinned against the
/// loop-based [`keccakf_ref`] by the crate's differential tests.
macro_rules! keccak_round_io {
    ($rc:expr,
     $i0:ident $i1:ident $i2:ident $i3:ident $i4:ident
     $i5:ident $i6:ident $i7:ident $i8:ident $i9:ident
     $i10:ident $i11:ident $i12:ident $i13:ident $i14:ident
     $i15:ident $i16:ident $i17:ident $i18:ident $i19:ident
     $i20:ident $i21:ident $i22:ident $i23:ident $i24:ident =>
     $o0:ident $o1:ident $o2:ident $o3:ident $o4:ident
     $o5:ident $o6:ident $o7:ident $o8:ident $o9:ident
     $o10:ident $o11:ident $o12:ident $o13:ident $o14:ident
     $o15:ident $o16:ident $o17:ident $o18:ident $o19:ident
     $o20:ident $o21:ident $o22:ident $o23:ident $o24:ident) => {
        let rc: u64 = $rc;
        // Theta.
        let c0 = $i0 ^ $i5 ^ $i10 ^ $i15 ^ $i20;
        let c1 = $i1 ^ $i6 ^ $i11 ^ $i16 ^ $i21;
        let c2 = $i2 ^ $i7 ^ $i12 ^ $i17 ^ $i22;
        let c3 = $i3 ^ $i8 ^ $i13 ^ $i18 ^ $i23;
        let c4 = $i4 ^ $i9 ^ $i14 ^ $i19 ^ $i24;
        let d0 = c4 ^ c1.rotate_left(1);
        let d1 = c0 ^ c2.rotate_left(1);
        let d2 = c1 ^ c3.rotate_left(1);
        let d3 = c2 ^ c4.rotate_left(1);
        let d4 = c3 ^ c0.rotate_left(1);
        // Rho + Pi, theta fused into the rotated reads (d index = lane % 5).
        let b0 = $i0 ^ d0;
        let b10 = ($i1 ^ d1).rotate_left(1);
        let b7 = ($i10 ^ d0).rotate_left(3);
        let b11 = ($i7 ^ d2).rotate_left(6);
        let b17 = ($i11 ^ d1).rotate_left(10);
        let b18 = ($i17 ^ d2).rotate_left(15);
        let b3 = ($i18 ^ d3).rotate_left(21);
        let b5 = ($i3 ^ d3).rotate_left(28);
        let b16 = ($i5 ^ d0).rotate_left(36);
        let b8 = ($i16 ^ d1).rotate_left(45);
        let b21 = ($i8 ^ d3).rotate_left(55);
        let b24 = ($i21 ^ d1).rotate_left(2);
        let b4 = ($i24 ^ d4).rotate_left(14);
        let b15 = ($i4 ^ d4).rotate_left(27);
        let b23 = ($i15 ^ d0).rotate_left(41);
        let b19 = ($i23 ^ d3).rotate_left(56);
        let b13 = ($i19 ^ d4).rotate_left(8);
        let b12 = ($i13 ^ d3).rotate_left(25);
        let b2 = ($i12 ^ d2).rotate_left(43);
        let b20 = ($i2 ^ d2).rotate_left(62);
        let b14 = ($i20 ^ d0).rotate_left(18);
        let b22 = ($i14 ^ d4).rotate_left(39);
        let b9 = ($i22 ^ d2).rotate_left(61);
        let b6 = ($i9 ^ d4).rotate_left(20);
        let b1 = ($i6 ^ d1).rotate_left(44);
        // Chi + Iota.
        let $o0 = b0 ^ ((!b1) & b2) ^ rc;
        let $o1 = b1 ^ ((!b2) & b3);
        let $o2 = b2 ^ ((!b3) & b4);
        let $o3 = b3 ^ ((!b4) & b0);
        let $o4 = b4 ^ ((!b0) & b1);
        let $o5 = b5 ^ ((!b6) & b7);
        let $o6 = b6 ^ ((!b7) & b8);
        let $o7 = b7 ^ ((!b8) & b9);
        let $o8 = b8 ^ ((!b9) & b5);
        let $o9 = b9 ^ ((!b5) & b6);
        let $o10 = b10 ^ ((!b11) & b12);
        let $o11 = b11 ^ ((!b12) & b13);
        let $o12 = b12 ^ ((!b13) & b14);
        let $o13 = b13 ^ ((!b14) & b10);
        let $o14 = b14 ^ ((!b10) & b11);
        let $o15 = b15 ^ ((!b16) & b17);
        let $o16 = b16 ^ ((!b17) & b18);
        let $o17 = b17 ^ ((!b18) & b19);
        let $o18 = b18 ^ ((!b19) & b15);
        let $o19 = b19 ^ ((!b15) & b16);
        let $o20 = b20 ^ ((!b21) & b22);
        let $o21 = b21 ^ ((!b22) & b23);
        let $o22 = b22 ^ ((!b23) & b24);
        let $o23 = b23 ^ ((!b24) & b20);
        let $o24 = b24 ^ ((!b20) & b21);
    };
}

/// All 24 rounds, unrolled four at a time: one loop iteration chains four
/// [`keccak_round_io!`] bodies through fresh lane sets (`a → t → u → v → a`),
/// so only the fourth round writes memory-backed names and the chain stays
/// pure SSA. The earlier pairwise unroll still round-tripped all 25 lanes
/// through their mutable locals every round; dropping those write-backs is
/// worth more than the extra decode pressure, while the quad body stays
/// well under the fully-unrolled ~1800-op blowup that regressed on non-AVX
/// hosts. `RC.len()` is 24, so `chunks_exact(4)` covers every round
/// constant.
macro_rules! keccak_rounds {
    ($a0:ident $a1:ident $a2:ident $a3:ident $a4:ident
     $a5:ident $a6:ident $a7:ident $a8:ident $a9:ident
     $a10:ident $a11:ident $a12:ident $a13:ident $a14:ident
     $a15:ident $a16:ident $a17:ident $a18:ident $a19:ident
     $a20:ident $a21:ident $a22:ident $a23:ident $a24:ident) => {
        for quad in RC.chunks_exact(4) {
            keccak_round_io!(quad[0],
                $a0 $a1 $a2 $a3 $a4 $a5 $a6 $a7 $a8 $a9 $a10 $a11 $a12 $a13 $a14 $a15 $a16 $a17 $a18 $a19 $a20 $a21 $a22 $a23 $a24 =>
                t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12 t13 t14 t15 t16 t17 t18 t19 t20 t21 t22 t23 t24);
            keccak_round_io!(quad[1],
                t0 t1 t2 t3 t4 t5 t6 t7 t8 t9 t10 t11 t12 t13 t14 t15 t16 t17 t18 t19 t20 t21 t22 t23 t24 =>
                u0 u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12 u13 u14 u15 u16 u17 u18 u19 u20 u21 u22 u23 u24);
            keccak_round_io!(quad[2],
                u0 u1 u2 u3 u4 u5 u6 u7 u8 u9 u10 u11 u12 u13 u14 u15 u16 u17 u18 u19 u20 u21 u22 u23 u24 =>
                v0 v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 v11 v12 v13 v14 v15 v16 v17 v18 v19 v20 v21 v22 v23 v24);
            keccak_round_io!(quad[3],
                v0 v1 v2 v3 v4 v5 v6 v7 v8 v9 v10 v11 v12 v13 v14 v15 v16 v17 v18 v19 v20 v21 v22 v23 v24 =>
                w0 w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11 w12 w13 w14 w15 w16 w17 w18 w19 w20 w21 w22 w23 w24);
            $a0 = w0;
            $a1 = w1;
            $a2 = w2;
            $a3 = w3;
            $a4 = w4;
            $a5 = w5;
            $a6 = w6;
            $a7 = w7;
            $a8 = w8;
            $a9 = w9;
            $a10 = w10;
            $a11 = w11;
            $a12 = w12;
            $a13 = w13;
            $a14 = w14;
            $a15 = w15;
            $a16 = w16;
            $a17 = w17;
            $a18 = w18;
            $a19 = w19;
            $a20 = w20;
            $a21 = w21;
            $a22 = w22;
            $a23 = w23;
            $a24 = w24;
        }
    };
}

/// [`keccakf_portable`] recompiled with BMI1/BMI2 available: chi's
/// `(!b) & c` terms become single `andn` instructions (25 per round) and
/// the rho rotations can use flag-free `rorx`/shift forms. Safety contract:
/// callers must have verified both features via CPUID.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi1,bmi2")]
#[allow(unsafe_code)]
unsafe fn keccakf_bmi(state: &mut [u64; 25]) {
    keccakf_portable(state);
}

/// Applies the Keccak-f\[1600\] permutation to the 25-lane state.
///
/// Dispatches once per call on a cached CPUID probe: BMI-capable x86-64
/// hosts take the `andn`-scheduled scalar kernel, everything else the plain
/// scalar lane-local path. Both are pinned against [`keccakf_ref`] by the
/// crate's differential tests.
pub fn keccakf(state: &mut [u64; 25]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("bmi1") {
        #[allow(unsafe_code)]
        unsafe {
            return keccakf_bmi(state);
        }
    }
    keccakf_portable(state);
}

/// The scalar permutation (see [`keccak_round_io!`] for the formulation).
#[inline(always)]
fn keccakf_portable(state: &mut [u64; 25]) {
    let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7, mut a8, mut a9, mut a10, mut a11, mut a12, mut a13, mut a14, mut a15, mut a16, mut a17, mut a18, mut a19, mut a20, mut a21, mut a22, mut a23, mut a24] =
        *state;
    keccak_rounds!(a0 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a13 a14
        a15 a16 a17 a18 a19 a20 a21 a22 a23 a24);
    *state = [
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19,
        a20, a21, a22, a23, a24,
    ];
}

/// Sponge for a message that fits one already-padded rate block: absorbs
/// the 17 lanes into an all-zero state (a plain assignment — the XOR is
/// free), permutes, and returns lane 0, which carries the first 8 digest
/// bytes. This is the whole SHA3-256 computation for the per-line memory
/// MAC, with no state array materialized at all.
pub(crate) fn keccakf_single_block(lanes: &[u64; RATE / 8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("bmi2") && std::arch::is_x86_feature_detected!("bmi1") {
        // SAFETY: both required CPU features were verified just above.
        #[allow(unsafe_code)]
        unsafe {
            return keccakf_single_block_bmi(lanes);
        }
    }
    keccakf_single_block_portable(lanes)
}

/// [`keccakf_single_block_portable`] under BMI1/BMI2 codegen (see
/// [`keccakf_bmi`]). Safety contract: callers must have verified both
/// features via CPUID.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "bmi1,bmi2")]
#[allow(unsafe_code)]
unsafe fn keccakf_single_block_bmi(lanes: &[u64; RATE / 8]) -> u64 {
    keccakf_single_block_portable(lanes)
}

/// Scalar single-block sponge shared by all dispatch tiers.
#[inline(always)]
fn keccakf_single_block_portable(lanes: &[u64; RATE / 8]) -> u64 {
    let [mut a0, mut a1, mut a2, mut a3, mut a4, mut a5, mut a6, mut a7, mut a8, mut a9, mut a10, mut a11, mut a12, mut a13, mut a14, mut a15, mut a16] =
        *lanes;
    let (mut a17, mut a18, mut a19, mut a20, mut a21, mut a22, mut a23, mut a24) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    keccak_rounds!(a0 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11 a12 a13 a14
        a15 a16 a17 a18 a19 a20 a21 a22 a23 a24);
    let _ = (
        a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15, a16, a17, a18, a19, a20,
        a21, a22, a23, a24,
    );
    a0
}

/// The pre-optimization loop-based permutation, kept as the differential
/// oracle for [`keccakf`] and as the "before" measurement of the tracked
/// benchmark pipeline.
pub fn keccakf_ref(state: &mut [u64; 25]) {
    for &rc in RC.iter() {
        // Theta.
        let mut c = [0u64; 5];
        for x in 0..5 {
            c[x] = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // Rho and Pi.
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // Chi.
        for y in 0..5 {
            let row = [
                state[5 * y],
                state[5 * y + 1],
                state[5 * y + 2],
                state[5 * y + 3],
                state[5 * y + 4],
            ];
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ ((!row[(x + 1) % 5]) & row[(x + 2) % 5]);
            }
        }
        // Iota.
        state[0] ^= rc;
    }
}

/// Rate in bytes for SHA3-256 (1088 bits).
pub(crate) const RATE: usize = 136;

/// Incremental SHA3-256 hasher.
#[derive(Clone, Debug)]
pub struct Sha3_256 {
    state: [u64; 25],
    buffer: [u8; RATE],
    buffer_len: usize,
}

impl Default for Sha3_256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha3_256 {
    /// Creates a fresh hasher.
    ///
    /// # Example
    ///
    /// ```
    /// use hypertee_crypto::sha3::Sha3_256;
    /// let mut h = Sha3_256::new();
    /// h.update(b"abc");
    /// let digest = h.finalize();
    /// assert_eq!(digest[0], 0x3a);
    /// ```
    pub fn new() -> Self {
        Sha3_256 {
            state: [0; 25],
            buffer: [0; RATE],
            buffer_len: 0,
        }
    }

    fn absorb_block(&mut self) {
        for i in 0..RATE / 8 {
            let lane = u64::from_le_bytes(self.buffer[8 * i..8 * i + 8].try_into().unwrap());
            self.state[i] ^= lane;
        }
        keccakf(&mut self.state);
        self.buffer_len = 0;
    }

    /// Absorbs more input. Whole rate blocks are XORed straight into the
    /// state and the remainder is buffered with slice copies (the previous
    /// byte-at-a-time loop dominated short-message hashing such as the
    /// per-line `mac28`).
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buffer_len > 0 {
            let take = (RATE - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < RATE {
                return;
            }
            self.absorb_block();
        }
        while data.len() >= RATE {
            for i in 0..RATE / 8 {
                self.state[i] ^= u64::from_le_bytes(data[8 * i..8 * i + 8].try_into().unwrap());
            }
            keccakf(&mut self.state);
            data = &data[RATE..];
        }
        self.buffer[..data.len()].copy_from_slice(data);
        self.buffer_len = data.len();
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        // SHA-3 domain-separation padding: 0x06 ... 0x80.
        for b in self.buffer[self.buffer_len..].iter_mut() {
            *b = 0;
        }
        self.buffer[self.buffer_len] ^= 0x06;
        self.buffer[RATE - 1] ^= 0x80;
        self.buffer_len = RATE;
        // absorb_block resets buffer_len, fine.
        let mut this = self;
        for i in 0..RATE / 8 {
            let lane = u64::from_le_bytes(this.buffer[8 * i..8 * i + 8].try_into().unwrap());
            this.state[i] ^= lane;
        }
        keccakf(&mut this.state);
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&this.state[i].to_le_bytes());
        }
        out
    }
}

/// One-shot SHA3-256.
pub fn sha3_256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha3_256::new();
    h.update(data);
    h.finalize()
}

/// The pre-optimization hasher, reproduced verbatim: byte-at-a-time
/// absorption over [`keccakf_ref`]. Differential oracle and the honest
/// "before" measurement for [`Sha3_256`] (the benchmark baseline must
/// reflect what the code actually did before this optimization pass, not a
/// partially improved hybrid).
#[derive(Clone, Debug)]
pub(crate) struct Sha3_256Ref {
    state: [u64; 25],
    buffer: [u8; RATE],
    buffer_len: usize,
}

impl Default for Sha3_256Ref {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha3_256Ref {
    /// Creates a fresh reference hasher.
    pub(crate) fn new() -> Self {
        Sha3_256Ref {
            state: [0; 25],
            buffer: [0; RATE],
            buffer_len: 0,
        }
    }

    fn absorb_block(&mut self) {
        for i in 0..RATE / 8 {
            let lane = u64::from_le_bytes(self.buffer[8 * i..8 * i + 8].try_into().unwrap());
            self.state[i] ^= lane;
        }
        keccakf_ref(&mut self.state);
        self.buffer_len = 0;
    }

    /// Absorbs more input, one byte at a time (the seed behaviour).
    pub(crate) fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.buffer[self.buffer_len] = b;
            self.buffer_len += 1;
            if self.buffer_len == RATE {
                self.absorb_block();
            }
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub(crate) fn finalize(mut self) -> [u8; 32] {
        for b in self.buffer[self.buffer_len..].iter_mut() {
            *b = 0;
        }
        self.buffer[self.buffer_len] ^= 0x06;
        self.buffer[RATE - 1] ^= 0x80;
        self.absorb_block();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.state[i].to_le_bytes());
        }
        out
    }
}

/// One-shot SHA3-256 over the pre-optimization path (`Sha3_256Ref`):
/// the differential/benchmark baseline for [`sha3_256`].
pub fn sha3_256_ref(data: &[u8]) -> [u8; 32] {
    let mut h = Sha3_256Ref::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i * 7 % 253) as u8).collect();
        let oneshot = sha3_256(&data);
        for split in [0usize, 1, 135, 136, 137, 1000, 2000] {
            let mut h = Sha3_256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), oneshot, "split at {split}");
        }
    }

    #[test]
    fn rate_boundary_message() {
        // Exactly one rate block of input exercises the padding-only block.
        let data = vec![0xa3u8; RATE];
        let d1 = sha3_256(&data);
        let mut h = Sha3_256::new();
        for &b in &data {
            h.update(&[b]);
        }
        assert_eq!(h.finalize(), d1);
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha3_256(b"enclave-a"), sha3_256(b"enclave-b"));
    }

    #[test]
    fn unrolled_permutation_matches_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..32 {
            let mut a = [0u64; 25];
            for lane in a.iter_mut() {
                *lane = next();
            }
            let mut b = a;
            keccakf(&mut a);
            keccakf_ref(&mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn pairwise_unrolled_scalar_path_matches_reference() {
        // Pins the 2-round-unrolled scalar permutation itself (the
        // `unrolled_permutation_matches_reference` test above goes through
        // the dispatcher, which may take the AVX-512 backend instead).
        let mut x = 0x0123_4567_89ab_cdefu64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..64 {
            let mut a = [0u64; 25];
            for lane in a.iter_mut() {
                *lane = next();
            }
            let mut b = a;
            keccakf_portable(&mut a);
            keccakf_ref(&mut b);
            assert_eq!(a, b);
        }
        // And the single-block sponge variant against a full-state run.
        for _ in 0..64 {
            let mut lanes = [0u64; RATE / 8];
            for lane in lanes.iter_mut() {
                *lane = next();
            }
            let mut full = [0u64; 25];
            full[..RATE / 8].copy_from_slice(&lanes);
            keccakf_ref(&mut full);
            assert_eq!(keccakf_single_block_portable(&lanes), full[0]);
        }
    }

    #[test]
    fn oneshot_matches_reference_hasher() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 31 % 255) as u8).collect();
        for len in [0usize, 1, 63, 135, 136, 137, 272, 1000] {
            assert_eq!(sha3_256(&data[..len]), sha3_256_ref(&data[..len]), "{len}");
        }
    }
}
