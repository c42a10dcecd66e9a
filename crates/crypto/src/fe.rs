//! Arithmetic in the field GF(2^255 − 19) underlying Curve25519.
//!
//! Elements are reduced lazily. An [`Fe`] holds any 256-bit value that is
//! congruent to the element, so the arithmetic never compares against p:
//! `mul` and `square` stop after their two folds, and `add`, `sub` and
//! `neg` fold a carry or borrow out of bit 256 back in as 38
//! (2^256 ≡ 38). The canonical form (< p) is taken only where a value
//! leaves the field: [`Fe::to_le_bytes`], [`Fe::is_zero`], equality and
//! hashing. Because 2^256 = 2p + 38, at most two subtractions of p
//! canonicalise any representative.

use crate::u256::{U256, U512};

/// The field prime p = 2^255 − 19, little-endian limbs.
pub const P: U256 = U256([
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

/// An element of GF(2^255 − 19): any value below 2^256 congruent to it.
/// `Debug` shows the limbs as held, not the canonical form.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fe(pub(crate) U256);

/// `x − p` when `x ≥ p`, else `x`.
#[inline]
fn sub_p_once(x: U256) -> U256 {
    match x.sbb(&P) {
        (reduced, false) => reduced,
        (_, true) => x,
    }
}

/// Multiplies a 512-bit value by a small constant, asserting no overflow out
/// of 512 bits (true for the reduction path where the top limbs are sparse).
fn mul_small(x: &U512, k: u64) -> U512 {
    let mut out = [0u64; 8];
    let mut carry = 0u128;
    for (o, &limb) in out.iter_mut().zip(x.0.iter()) {
        let acc = (limb as u128) * (k as u128) + carry;
        *o = acc as u64;
        carry = acc >> 64;
    }
    debug_assert_eq!(carry, 0, "mul_small overflow");
    U512(out)
}

fn add512(a: &U512, b: &U512) -> U512 {
    let mut out = [0u64; 8];
    let mut carry = 0u64;
    for (o, (&ai, &bi)) in out.iter_mut().zip(a.0.iter().zip(b.0.iter())) {
        let (s1, c1) = ai.overflowing_add(bi);
        let (s2, c2) = s1.overflowing_add(carry);
        *o = s2;
        carry = (c1 as u64) + (c2 as u64);
    }
    debug_assert_eq!(carry, 0, "add512 overflow");
    U512(out)
}

/// `x >> 255`.
fn shr255(x: &U512) -> U512 {
    // Shift right by 255 = shift right 192 bits (3 limbs) then 63 bits.
    let mut limbs = [0u64; 8];
    for (i, limb) in limbs.iter_mut().enumerate().take(5) {
        let lo = x.0[i + 3] >> 63;
        let hi = if i + 4 < 8 { x.0[i + 4] << 1 } else { 0 };
        *limb = lo | hi;
    }
    U512(limbs)
}

/// Low 255 bits of `x` as a 512-bit value.
fn mask255(x: &U512) -> U512 {
    let mut limbs = [0u64; 8];
    limbs[..4].copy_from_slice(&x.0[..4]);
    limbs[3] &= 0x7fff_ffff_ffff_ffff;
    U512(limbs)
}

/// The seed reduction of a 512-bit product modulo p: fold with
/// 2^255 ≡ 19 until nothing is left above bit 255. Kept for
/// [`Fe::mul_ref`].
fn reduce_p(mut x: U512) -> U256 {
    loop {
        let hi = shr255(&x);
        if hi.is_zero() {
            break;
        }
        x = add512(&mask255(&x), &mul_small(&hi, 19));
    }
    let mut r = U256([x.0[0], x.0[1], x.0[2], x.0[3]]);
    // r < 2^255 < 2p, so at most one subtraction normalises it.
    if r.cmp_u256(&P) != core::cmp::Ordering::Less {
        let (sub, _) = r.sbb(&P);
        r = sub;
    }
    r
}

/// 256-bit square: the six cross products once, doubled by a shift, plus
/// the four diagonal squares.
#[inline]
fn square_wide(a: &[u64; 4]) -> [u64; 8] {
    let mut out = [0u64; 8];
    for i in 0..3 {
        let mut carry = 0u128;
        for j in i + 1..4 {
            let acc = out[i + j] as u128 + (a[i] as u128) * (a[j] as u128) + carry;
            out[i + j] = acc as u64;
            carry = acc >> 64;
        }
        out[i + 4] = carry as u64;
    }
    let mut top = 0u64;
    for limb in out.iter_mut() {
        let v = *limb;
        *limb = (v << 1) | top;
        top = v >> 63;
    }
    let mut carry = 0u128;
    for i in 0..4 {
        let sq = (a[i] as u128) * (a[i] as u128);
        let lo = out[2 * i] as u128 + (sq as u64) as u128 + carry;
        out[2 * i] = lo as u64;
        let hi = out[2 * i + 1] as u128 + (sq >> 64) + (lo >> 64);
        out[2 * i + 1] = hi as u64;
        carry = hi >> 64;
    }
    out
}

/// Reduces a 512-bit value to a representative below 2^256 in one pass:
/// fold the high half with 2^256 ≡ 38, then everything above bit 255 with
/// 2^255 ≡ 19.
#[inline]
fn reduce_wide(w: &[u64; 8]) -> U256 {
    let mut r = [0u64; 4];
    let mut carry = 0u128;
    for i in 0..4 {
        let acc = w[i] as u128 + (w[i + 4] as u128) * 38 + carry;
        r[i] = acc as u64;
        carry = acc >> 64;
    }
    // carry < 40, so the part above bit 255 is below 80 and the sum below
    // stays under 2^255 + 1520: no carry leaves bit 255's limb.
    let top = ((carry as u64) << 1) | (r[3] >> 63);
    r[3] &= 0x7fff_ffff_ffff_ffff;
    let mut c = (top * 19) as u128;
    for limb in r.iter_mut() {
        let acc = *limb as u128 + c;
        *limb = acc as u64;
        c = acc >> 64;
    }
    U256(r)
}

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe(U256([0, 0, 0, 0]));
    /// The multiplicative identity.
    pub const ONE: Fe = Fe(U256([1, 0, 0, 0]));

    /// Builds a field element from a small integer.
    pub fn from_u64(v: u64) -> Fe {
        Fe(U256::from_u64(v))
    }

    /// Parses 32 little-endian bytes, reducing modulo p.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Fe {
        let raw = U256::from_le_bytes(bytes);
        Fe(U512::from_u256(&raw).reduce_mod(&P))
    }

    /// Parses 32 little-endian bytes, refusing values ≥ p, so that every
    /// accepted element has exactly one encoding.
    pub(crate) fn from_canonical_le_bytes(bytes: &[u8; 32]) -> Option<Fe> {
        let raw = U256::from_le_bytes(bytes);
        raw.cmp_u256(&P).is_lt().then_some(Fe(raw))
    }

    /// The canonical representative (< p): at most two subtractions,
    /// since every representative is below 2^256 = 2p + 38.
    fn canonical(&self) -> U256 {
        sub_p_once(sub_p_once(self.0))
    }

    /// Serializes to 32 little-endian bytes (canonical form).
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.canonical().to_le_bytes()
    }

    /// Returns `true` when this element is zero (0, p or 2p).
    pub fn is_zero(&self) -> bool {
        self.canonical().is_zero()
    }

    /// Field addition: a carry out of bit 256 folds back in as 38. The
    /// second fold cannot carry, because a sum that carried twice is
    /// below 38 after the first.
    pub(crate) fn add(&self, other: &Fe) -> Fe {
        let (sum, carry) = self.0.adc(&other.0);
        let (mut r, carry) = sum.adc(&U256::from_u64(38 * carry as u64));
        r.0[0] += 38 * carry as u64;
        Fe(r)
    }

    /// Field subtraction: a borrow out of bit 256 folds back in as −38.
    /// The second fold cannot borrow, because a difference that borrowed
    /// twice is at least 2^256 − 38 after the first.
    pub(crate) fn sub(&self, other: &Fe) -> Fe {
        let (diff, borrow) = self.0.sbb(&other.0);
        let (mut r, borrow) = diff.sbb(&U256::from_u64(38 * borrow as u64));
        r.0[0] -= 38 * borrow as u64;
        Fe(r)
    }

    /// Field negation.
    pub(crate) fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication: schoolbook product, one-pass reduction.
    pub fn mul(&self, other: &Fe) -> Fe {
        Fe(reduce_wide(&self.0.widening_mul(&other.0).0))
    }

    /// Field squaring (ten limb products instead of sixteen).
    pub fn square(&self) -> Fe {
        Fe(reduce_wide(&square_wide(&self.0 .0)))
    }

    /// `self^(2^n)`: `n` successive squarings.
    fn square_n(&self, n: u32) -> Fe {
        let mut acc = *self;
        for _ in 0..n {
            acc = acc.square();
        }
        acc
    }

    /// The seed multiplication (iterated 2^255 ≡ 19 fold), kept as the
    /// differential oracle and benchmark baseline for [`Fe::mul`].
    pub fn mul_ref(&self, other: &Fe) -> Fe {
        Fe(reduce_p(self.0.widening_mul(&other.0)))
    }

    /// Multiplicative inverse via Fermat, `self^(p−2)`, along the fixed
    /// addition chain for p − 2 = 2^255 − 21: 254 squarings, 11 multiplies.
    ///
    /// # Panics
    ///
    /// Panics when called on zero.
    pub fn invert(&self) -> Fe {
        assert!(!self.is_zero(), "zero has no inverse");
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9); // 2^5 − 1
        let z_10_0 = z_5_0.square_n(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_n(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_n(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_n(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_n(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_n(100).mul(&z_100_0);
        let z_250_0 = z_200_0.square_n(50).mul(&z_50_0);
        z_250_0.square_n(5).mul(&z11) // 2^255 − 32 + 11 = p − 2
    }

    /// The seed inversion — square-and-multiply over the bits of p − 2 on
    /// [`Fe::mul_ref`] — kept as the oracle for [`Fe::invert`].
    ///
    /// # Panics
    ///
    /// Panics when called on zero.
    pub fn invert_ref(&self) -> Fe {
        assert!(!self.is_zero(), "zero has no inverse");
        let (p_minus_2, _) = P.sbb(&U256::from_u64(2));
        pow_with(self, &p_minus_2, Fe::mul_ref)
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Fe) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for Fe {}

impl core::hash::Hash for Fe {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

/// Square-and-multiply over the bits of `exp`, LSB first, on `mul`.
fn pow_with(x: &Fe, exp: &U256, mul: fn(&Fe, &Fe) -> Fe) -> Fe {
    let mut acc = Fe::ONE;
    let mut base = *x;
    for i in 0..=exp.highest_bit().unwrap_or(0) {
        if exp.bit(i) {
            acc = mul(&acc, &base);
        }
        base = mul(&base, &base);
    }
    if exp.is_zero() {
        Fe::ONE
    } else {
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_is_identity() {
        let x = Fe::from_u64(123456789);
        assert_eq!(x.mul(&Fe::ONE), x);
        assert_eq!(x.add(&Fe::ZERO), x);
    }

    #[test]
    fn sub_neg_consistency() {
        let a = Fe::from_u64(5);
        let b = Fe::from_u64(9);
        assert_eq!(a.sub(&b), a.add(&b.neg()));
    }

    #[test]
    fn invert_roundtrip() {
        for v in [1u64, 2, 19, 123456789, u64::MAX] {
            let x = Fe::from_u64(v);
            assert_eq!(x.mul(&x.invert()), Fe::ONE, "v={v}");
        }
    }

    #[test]
    fn p_reduces_to_zero() {
        let bytes = P.to_le_bytes();
        assert!(Fe::from_le_bytes(&bytes).is_zero());
    }

    #[test]
    fn mul_commutative_associative() {
        let a = Fe::from_le_bytes(&[0xaa; 32]);
        let b = Fe::from_le_bytes(&[0x37; 32]);
        let c = Fe::from_le_bytes(&[0x91; 32]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b).mul(&c), a.mul(&b.mul(&c)));
    }

    #[test]
    fn distributive_law() {
        let a = Fe::from_u64(7777);
        let b = Fe::from_le_bytes(&[0x55; 32]);
        let c = Fe::from_le_bytes(&[0x13; 32]);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    #[should_panic(expected = "zero has no inverse")]
    fn invert_zero_panics() {
        Fe::ZERO.invert();
    }

    /// Representatives at or above p: p, p + 1, 2p, 2p + 37 and 2^256 − 1,
    /// plus p + 37 and 2p + 1 around the one- and two-subtraction edges.
    fn high_reps() -> Vec<Fe> {
        let (two_p, _) = P.adc(&P);
        let plus = |v: &U256, k: u64| Fe(v.adc(&U256::from_u64(k)).0);
        vec![
            Fe(P),
            plus(&P, 1),
            plus(&P, 37),
            Fe(two_p),
            plus(&two_p, 1),
            plus(&two_p, 37),
            Fe(U256([u64::MAX; 4])),
        ]
    }

    /// Seeded random limbs (any 256-bit value) and the high representatives.
    fn lazy_values() -> Vec<Fe> {
        let mut rng = crate::chacha::ChaChaRng::from_u64(0x1A2_F0E5);
        let mut values = high_reps();
        values.extend([Fe::ZERO, Fe::ONE]);
        values.extend((0..200).map(|_| {
            Fe(U256([
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ]))
        }));
        values
    }

    /// Every operation on (a, b) against `u256`'s generic arithmetic mod p
    /// and the `*_ref` oracles, compared after canonicalising.
    fn check_against_generic(a: &Fe, b: &Fe) {
        use crate::u256::{add_mod, mul_mod, sub_mod};
        let (ca, cb) = (a.canonical(), b.canonical());
        assert_eq!(a.add(b).canonical(), add_mod(&ca, &cb, &P), "{a:?} + {b:?}");
        assert_eq!(a.sub(b).canonical(), sub_mod(&ca, &cb, &P), "{a:?} − {b:?}");
        assert_eq!(a.neg().canonical(), sub_mod(&U256::ZERO, &ca, &P), "−{a:?}");
        assert_eq!(a.mul(b).canonical(), mul_mod(&a.0, &b.0, &P), "{a:?}·{b:?}");
        assert_eq!(a.mul(b), a.mul_ref(b), "{a:?}·{b:?}");
        assert_eq!(a.square().canonical(), mul_mod(&a.0, &a.0, &P), "{a:?}²");
        assert_eq!(a.square(), a.mul_ref(a), "{a:?}²");
        if !a.is_zero() {
            assert_eq!(a.invert(), a.invert_ref(), "1/{a:?}");
            assert_eq!(a.invert().mul(a).canonical(), U256::ONE, "{a:?}/{a:?}");
        }
    }

    #[test]
    fn lazy_ops_agree_with_generic_modular_arithmetic() {
        let values = lazy_values();
        for (i, a) in values.iter().enumerate() {
            check_against_generic(a, &values[(i * 7 + 3) % values.len()]);
        }
        // Every pair of high representatives, each with itself included:
        // (2^256 − 1) + (2^256 − 1) carries twice, 0 − (2^256 − 1) borrows
        // twice.
        let mut high = high_reps();
        high.extend([Fe::ZERO, Fe::ONE]);
        for a in &high {
            for b in &high {
                check_against_generic(a, b);
            }
        }
    }

    #[test]
    fn representatives_of_one_element_are_one_value() {
        use std::hash::{BuildHasher, RandomState};
        let hasher = RandomState::new();
        for x in lazy_values() {
            let canon = Fe(x.canonical());
            let (plus_p, carry) = canon.0.adc(&P);
            assert!(!carry, "x + p stays below 2^256 for canonical x");
            let plus_p = Fe(plus_p);
            assert_eq!(plus_p, canon);
            assert_eq!(x, canon);
            assert_eq!(hasher.hash_one(plus_p), hasher.hash_one(canon));
            assert_eq!(hasher.hash_one(x), hasher.hash_one(canon));
            assert_eq!(plus_p.to_le_bytes(), canon.to_le_bytes());
            assert_eq!(x.to_le_bytes(), canon.0.to_le_bytes());
            assert!(canon.0.cmp_u256(&P).is_lt(), "{x:?} canonicalised to ≥ p");
        }
        let (two_p, _) = P.adc(&P);
        assert!(Fe(P).is_zero());
        assert!(Fe(two_p).is_zero());
        assert_eq!(Fe(two_p), Fe::ZERO);
        assert!(!high_reps()[1].is_zero());
    }
}
