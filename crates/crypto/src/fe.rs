//! Arithmetic in the field GF(2^255 − 19) underlying Curve25519.

use crate::u256::{U256, U512};

/// The field prime p = 2^255 − 19, little-endian limbs.
pub const P: U256 = U256([
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
]);

/// An element of GF(2^255 − 19), kept in canonical form (`< p`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Fe(pub(crate) U256);

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

/// Reduces a 512-bit value modulo p in one pass: fold the high half with
/// 2^256 ≡ 38, fold everything above bit 255 with 2^255 ≡ 19, then one
/// conditional subtraction.
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
    // stays under 2^255 + 1520 < p + 2^11: one subtraction canonicalises.
    let top = ((carry as u64) << 1) | (r[3] >> 63);
    r[3] &= 0x7fff_ffff_ffff_ffff;
    let mut c = (top * 19) as u128;
    for limb in r.iter_mut() {
        let acc = *limb as u128 + c;
        *limb = acc as u64;
        c = acc >> 64;
    }
    let r = U256(r);
    match r.sbb(&P) {
        (reduced, false) => reduced,
        (_, true) => r,
    }
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

    /// Serializes to 32 little-endian bytes (canonical form).
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.0.to_le_bytes()
    }

    /// Returns `true` when this element is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Field addition.
    pub(crate) fn add(&self, other: &Fe) -> Fe {
        Fe(crate::u256::add_mod(&self.0, &other.0, &P))
    }

    /// Field subtraction.
    pub(crate) fn sub(&self, other: &Fe) -> Fe {
        Fe(crate::u256::sub_mod(&self.0, &other.0, &P))
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
}
