//! AVX-512F backend for the batched per-line memory MAC.
//!
//! One scalar Keccak-f\[1600\] permutation is throughput-bound at roughly
//! a thousand host cycles: ~76 ALU ops per round over a 25-lane working set
//! that cannot fit the 16 general-purpose registers. Eight *independent*
//! permutations, lane-sliced across the eight qword slots of 25 zmm
//! registers, share those ops: theta and chi become `vpternlogq` trees, rho
//! an immediate rotate per register, and pi pure register renaming. That is
//! what [`mac28_lines8`] uses to tag eight cache lines at once.
//!
//! A single-state AVX-512 permutation (one 5-lane plane per register) was
//! measured slower than the BMI scalar kernel and is not provided; one-shot
//! permutations in [`crate::sha3`] dispatch to the scalar paths only.
//!
//! Like the AES-NI and SHA-NI backends, this module's `unsafe` code is
//! reachable solely through the runtime-dispatched
//! [`crate::mac::mac28_lines`], which falls back to eight scalar tags when
//! AVX-512F is absent. Equivalence with the scalar tags is pinned by the
//! `mac28_lines` doc test and `mac::tests::batched_lines_match_single_line_macs`,
//! which exercise this backend on any AVX-512 host.
#![allow(unsafe_code)]

use core::arch::x86_64::*;

use crate::sha3::RC;

/// Rotates every qword left by a compile-time amount, tolerating 0.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn rolc<const N: i32>(v: __m512i) -> __m512i {
    if N == 0 {
        v
    } else {
        _mm512_rol_epi64::<N>(v)
    }
}

/// 3-way XOR in one `vpternlogq`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn xor3(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi64(a, b, c, 0x96)
}

/// Chi's `a ^ (!b & c)` in one `vpternlogq`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn chi(a: __m512i, b: __m512i, c: __m512i) -> __m512i {
    _mm512_ternarylogic_epi64(a, b, c, 0xd2)
}

/// Eight *independent* Keccak-f\[1600\] permutations, one per qword slot.
///
/// The lane-sliced layout (register `i` holds state lane `i` of all eight
/// instances) makes every Keccak step elementwise: theta and chi are `vpternlogq` trees, rho is an immediate
/// rotate per register, and pi is pure register renaming — zero shuffles.
/// The ~76 ops per round are shared by eight instances, which is where the
/// batched line-MAC gets its near-order-of-magnitude over one-at-a-time
/// hashing.
///
/// # Safety
///
/// Requires AVX-512F; callers must verify with `is_x86_feature_detected!`.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn permute_x8(s: &mut [__m512i; 25]) {
    // SAFETY: elementwise register arithmetic only.
    unsafe {
        for &rc in RC.iter() {
            // Theta.
            let c0 = xor3(xor3(s[0], s[5], s[10]), s[15], s[20]);
            let c1 = xor3(xor3(s[1], s[6], s[11]), s[16], s[21]);
            let c2 = xor3(xor3(s[2], s[7], s[12]), s[17], s[22]);
            let c3 = xor3(xor3(s[3], s[8], s[13]), s[18], s[23]);
            let c4 = xor3(xor3(s[4], s[9], s[14]), s[19], s[24]);
            let d0 = _mm512_xor_si512(c4, rolc::<1>(c1));
            let d1 = _mm512_xor_si512(c0, rolc::<1>(c2));
            let d2 = _mm512_xor_si512(c1, rolc::<1>(c3));
            let d3 = _mm512_xor_si512(c2, rolc::<1>(c4));
            let d4 = _mm512_xor_si512(c3, rolc::<1>(c0));
            for x in 0..5 {
                let d = [d0, d1, d2, d3, d4][x];
                s[x] = _mm512_xor_si512(s[x], d);
                s[x + 5] = _mm512_xor_si512(s[x + 5], d);
                s[x + 10] = _mm512_xor_si512(s[x + 10], d);
                s[x + 15] = _mm512_xor_si512(s[x + 15], d);
                s[x + 20] = _mm512_xor_si512(s[x + 20], d);
            }
            // Rho + Pi: same lane moves as the scalar `keccak_round!`.
            let b0 = s[0];
            let b10 = rolc::<1>(s[1]);
            let b7 = rolc::<3>(s[10]);
            let b11 = rolc::<6>(s[7]);
            let b17 = rolc::<10>(s[11]);
            let b18 = rolc::<15>(s[17]);
            let b3 = rolc::<21>(s[18]);
            let b5 = rolc::<28>(s[3]);
            let b16 = rolc::<36>(s[5]);
            let b8 = rolc::<45>(s[16]);
            let b21 = rolc::<55>(s[8]);
            let b24 = rolc::<2>(s[21]);
            let b4 = rolc::<14>(s[24]);
            let b15 = rolc::<27>(s[4]);
            let b23 = rolc::<41>(s[15]);
            let b19 = rolc::<56>(s[23]);
            let b13 = rolc::<8>(s[19]);
            let b12 = rolc::<25>(s[13]);
            let b2 = rolc::<43>(s[12]);
            let b20 = rolc::<62>(s[2]);
            let b14 = rolc::<18>(s[20]);
            let b22 = rolc::<39>(s[14]);
            let b9 = rolc::<61>(s[22]);
            let b6 = rolc::<20>(s[9]);
            let b1 = rolc::<44>(s[6]);
            // Chi + Iota.
            s[0] = _mm512_xor_si512(chi(b0, b1, b2), _mm512_set1_epi64(rc as i64));
            s[1] = chi(b1, b2, b3);
            s[2] = chi(b2, b3, b4);
            s[3] = chi(b3, b4, b0);
            s[4] = chi(b4, b0, b1);
            s[5] = chi(b5, b6, b7);
            s[6] = chi(b6, b7, b8);
            s[7] = chi(b7, b8, b9);
            s[8] = chi(b8, b9, b5);
            s[9] = chi(b9, b5, b6);
            s[10] = chi(b10, b11, b12);
            s[11] = chi(b11, b12, b13);
            s[12] = chi(b12, b13, b14);
            s[13] = chi(b13, b14, b10);
            s[14] = chi(b14, b10, b11);
            s[15] = chi(b15, b16, b17);
            s[16] = chi(b16, b17, b18);
            s[17] = chi(b17, b18, b19);
            s[18] = chi(b18, b19, b15);
            s[19] = chi(b19, b15, b16);
            s[20] = chi(b20, b21, b22);
            s[21] = chi(b21, b22, b23);
            s[22] = chi(b22, b23, b24);
            s[23] = chi(b23, b24, b20);
            s[24] = chi(b24, b20, b21);
        }
    }
}

/// Transposes eight 8-qword rows (one per instance) into eight lane-sliced
/// registers, via the classic unpack / 128-bit-shuffle butterfly.
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn transpose_8x8(r: [__m512i; 8]) -> [__m512i; 8] {
    {
        let t0 = _mm512_unpacklo_epi64(r[0], r[1]);
        let t1 = _mm512_unpackhi_epi64(r[0], r[1]);
        let t2 = _mm512_unpacklo_epi64(r[2], r[3]);
        let t3 = _mm512_unpackhi_epi64(r[2], r[3]);
        let t4 = _mm512_unpacklo_epi64(r[4], r[5]);
        let t5 = _mm512_unpackhi_epi64(r[4], r[5]);
        let t6 = _mm512_unpacklo_epi64(r[6], r[7]);
        let t7 = _mm512_unpackhi_epi64(r[6], r[7]);
        let u0 = _mm512_shuffle_i64x2(t0, t2, 0x88);
        let u1 = _mm512_shuffle_i64x2(t1, t3, 0x88);
        let u2 = _mm512_shuffle_i64x2(t0, t2, 0xdd);
        let u3 = _mm512_shuffle_i64x2(t1, t3, 0xdd);
        let u4 = _mm512_shuffle_i64x2(t4, t6, 0x88);
        let u5 = _mm512_shuffle_i64x2(t5, t7, 0x88);
        let u6 = _mm512_shuffle_i64x2(t4, t6, 0xdd);
        let u7 = _mm512_shuffle_i64x2(t5, t7, 0xdd);
        [
            _mm512_shuffle_i64x2(u0, u4, 0x88),
            _mm512_shuffle_i64x2(u1, u5, 0x88),
            _mm512_shuffle_i64x2(u2, u6, 0x88),
            _mm512_shuffle_i64x2(u3, u7, 0x88),
            _mm512_shuffle_i64x2(u0, u4, 0xdd),
            _mm512_shuffle_i64x2(u1, u5, 0xdd),
            _mm512_shuffle_i64x2(u2, u6, 0xdd),
            _mm512_shuffle_i64x2(u3, u7, 0xdd),
        ]
    }
}

/// Eight single-block line-MAC sponges at once: instance `i` absorbs the
/// padded block `key ‖ (first_addr + 64·i) ‖ 64 ‖ data[64·i..64·i+64]` and
/// the returned qword `i` carries its first 8 digest bytes. The key and the
/// constant lanes are broadcast; only the 8×8 block of data lanes needs a
/// real transpose.
///
/// # Safety
///
/// Requires AVX-512F; callers must verify with `is_x86_feature_detected!`.
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn mac28_lines8(
    key_lanes: &[u64; 4],
    first_addr: u64,
    data: &[u8; 512],
) -> [u64; 8] {
    // SAFETY: loads read exactly the 512 data bytes; the store writes the
    // 8-qword result buffer.
    unsafe {
        let rows = core::array::from_fn(|i| _mm512_loadu_si512(data.as_ptr().add(64 * i).cast()));
        let lanes = transpose_8x8(rows);
        let zero = _mm512_setzero_si512();
        let mut s = [zero; 25];
        s[0] = _mm512_set1_epi64(key_lanes[0] as i64);
        s[1] = _mm512_set1_epi64(key_lanes[1] as i64);
        s[2] = _mm512_set1_epi64(key_lanes[2] as i64);
        s[3] = _mm512_set1_epi64(key_lanes[3] as i64);
        s[4] = _mm512_add_epi64(
            _mm512_set1_epi64(first_addr as i64),
            _mm512_setr_epi64(0, 64, 128, 192, 256, 320, 384, 448),
        );
        s[5] = _mm512_set1_epi64(64);
        s[6..14].copy_from_slice(&lanes);
        s[14] = _mm512_set1_epi64(0x06); // padding start at message byte 112
        s[16] = _mm512_set1_epi64((0x80u64 << 56) as i64); // 0x80 at rate byte 135
        permute_x8(&mut s);
        let mut out = [0u64; 8];
        _mm512_storeu_si512(out.as_mut_ptr().cast(), s[0]);
        out
    }
}
