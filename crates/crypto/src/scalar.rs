//! Arithmetic modulo the Curve25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.

use crate::chacha::ChaChaRng;
use crate::u256::{U256, U512};

/// The group order L, little-endian limbs.
pub const L: U256 = U256([
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
]);

/// μ = ⌊2^512 / L⌋, the Barrett constant for reductions mod L (260 bits).
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

/// Reduces any 512-bit value mod L by Barrett's method (HAC 14.42 with
/// base 2^64 and k = 4): estimate q = ⌊⌊x / 2^192⌋·μ / 2^320⌋ and subtract
/// q·L, working on the low 320 bits mod 2^320. HAC bounds the estimate at
/// two below ⌊x / L⌋; for this L it is at most one below, because the
/// error is under (2^192 / L) + (2^512 / L − μ) + 1 < 2^-59 + 0.225 + 1.
/// So one conditional subtraction finishes.
fn reduce_wide(x: &U512) -> U256 {
    let x = &x.0;
    // q3 = ⌊q1·μ / 2^320⌋ with q1 = x[3..8]; only limbs ≥ 5 of the
    // product matter, but the carries out of the lower limbs do.
    let mut prod = [0u64; 10];
    for i in 0..5 {
        let mut carry = 0u128;
        for j in 0..5 {
            let acc = prod[i + j] as u128 + (x[i + 3] as u128) * (MU[j] as u128) + carry;
            prod[i + j] = acc as u64;
            carry = acc >> 64;
        }
        prod[i + 5] = carry as u64;
    }
    let q3 = &prod[5..10];
    // r2 = q3·L mod 2^320.
    let mut r2 = [0u64; 5];
    for i in 0..5 {
        let mut carry = 0u128;
        for j in 0..(5 - i).min(4) {
            let acc = r2[i + j] as u128 + (q3[i] as u128) * (L.0[j] as u128) + carry;
            r2[i + j] = acc as u64;
            carry = acc >> 64;
        }
        if i == 0 {
            r2[4] = carry as u64;
        }
    }
    // r = (x mod 2^320) − r2 (mod 2^320) < 2L, then one subtraction.
    let mut r = [0u64; 5];
    let mut borrow = false;
    for i in 0..5 {
        let (d1, b1) = x[i].overflowing_sub(r2[i]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        r[i] = d2;
        borrow = b1 | b2;
    }
    debug_assert!(r[4] == 0, "Barrett remainder must be below 2L < 2^256");
    let r = U256([r[0], r[1], r[2], r[3]]);
    let (reduced, borrow) = r.sbb(&L);
    let out = if borrow { r } else { reduced };
    debug_assert!(out.cmp_u256(&L).is_lt(), "Barrett needs one correction");
    out
}

/// A scalar modulo L, kept in canonical form (`< L`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Scalar(pub(crate) U256);

impl Scalar {
    /// The zero scalar.
    pub const ZERO: Scalar = Scalar(U256([0, 0, 0, 0]));
    /// The scalar one.
    pub const ONE: Scalar = Scalar(U256([1, 0, 0, 0]));

    /// Builds a scalar from a small integer.
    pub fn from_u64(v: u64) -> Scalar {
        Scalar(reduce_wide(&U512::from_u256(&U256::from_u64(v))))
    }

    /// Reduces 32 little-endian bytes modulo L.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Scalar {
        Scalar(reduce_wide(&U512::from_u256(&U256::from_le_bytes(bytes))))
    }

    /// Parses 32 little-endian bytes, refusing values ≥ L, so that every
    /// accepted scalar has exactly one encoding.
    pub(crate) fn from_canonical_le_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let raw = U256::from_le_bytes(bytes);
        raw.cmp_u256(&L).is_lt().then_some(Scalar(raw))
    }

    /// Reduces 64 little-endian bytes (e.g. a hash widened to 512 bits)
    /// modulo L — the standard way to map digests to scalars.
    pub fn from_le_bytes_wide(bytes: &[u8; 64]) -> Scalar {
        Scalar(reduce_wide(&U512::from_le_bytes(bytes)))
    }

    /// The seed reduction (binary long division), kept as the oracle for
    /// [`Scalar::from_le_bytes_wide`].
    pub fn from_le_bytes_wide_ref(bytes: &[u8; 64]) -> Scalar {
        Scalar(U512::from_le_bytes(bytes).reduce_mod(&L))
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 32] {
        self.0.to_le_bytes()
    }

    /// Returns `true` when the scalar is zero.
    pub fn is_zero(&self) -> bool {
        self.0.is_zero()
    }

    /// Samples a uniformly random nonzero scalar.
    pub fn random(rng: &mut ChaChaRng) -> Scalar {
        loop {
            let mut wide = [0u8; 64];
            rng.fill_bytes(&mut wide);
            let s = Scalar::from_le_bytes_wide(&wide);
            if !s.is_zero() {
                return s;
            }
        }
    }

    /// Scalar addition mod L.
    pub fn add(&self, other: &Scalar) -> Scalar {
        Scalar(crate::u256::add_mod(&self.0, &other.0, &L))
    }

    /// Scalar subtraction mod L.
    pub fn sub(&self, other: &Scalar) -> Scalar {
        Scalar(crate::u256::sub_mod(&self.0, &other.0, &L))
    }

    /// Scalar multiplication mod L.
    pub fn mul(&self, other: &Scalar) -> Scalar {
        Scalar(reduce_wide(&self.0.widening_mul(&other.0)))
    }

    /// The seed multiplication (product reduced by long division), kept
    /// as the oracle for [`Scalar::mul`].
    pub fn mul_ref(&self, other: &Scalar) -> Scalar {
        Scalar(crate::u256::mul_mod(&self.0, &other.0, &L))
    }

    /// Returns the bit at `index` of the canonical representation.
    pub fn bit(&self, index: usize) -> bool {
        self.0.bit(index)
    }

    /// Recodes the scalar into 64 signed radix-16 digits in [−8, 8], least
    /// significant first: `self = Σ digits[i]·16^i`. A canonical scalar is
    /// below 2^253, so the top nibble is at most 1 and the final carry
    /// cannot push it past 2.
    pub(crate) fn signed_radix16(&self) -> [i8; 64] {
        let mut digits = [0i8; 64];
        for (i, d) in digits.iter_mut().enumerate() {
            *d = ((self.0 .0[i / 16] >> (4 * (i % 16))) & 0xf) as i8;
        }
        for i in 0..63 {
            let carry = (digits[i] + 8) >> 4;
            digits[i] -= carry << 4;
            digits[i + 1] += carry;
        }
        digits
    }

    /// Index of the highest set bit, or `None` for zero.
    pub fn highest_bit(&self) -> Option<usize> {
        self.0.highest_bit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l_reduces_to_zero() {
        let bytes = L.to_le_bytes();
        assert!(Scalar::from_le_bytes(&bytes).is_zero());
    }

    #[test]
    fn l_minus_one_plus_one_wraps() {
        let (lm1, _) = L.sbb(&U256::ONE);
        let s = Scalar::from_le_bytes(&lm1.to_le_bytes());
        assert!(s.add(&Scalar::ONE).is_zero());
    }

    #[test]
    fn mul_distributes_over_add() {
        let a = Scalar::from_le_bytes(&[0x61; 32]);
        let b = Scalar::from_le_bytes(&[0x29; 32]);
        let c = Scalar::from_le_bytes(&[0x77; 32]);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn wide_reduction_is_uniform_on_known_value() {
        // 2^256 mod L, computed independently: 2^256 = 16·2^252; with
        // 2^252 ≡ -c (mod L) where c = L - 2^252, 2^256 ≡ -16c ≡ L·16 - 16c… we
        // simply check consistency: from_le_bytes_wide(2^256) ==
        // from(2)^256 via repeated doubling.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256.
        let direct = Scalar::from_le_bytes_wide(&wide);
        let mut doubled = Scalar::ONE;
        for _ in 0..256 {
            doubled = doubled.add(&doubled);
        }
        assert_eq!(direct, doubled);
    }

    #[test]
    fn barrett_constant_is_floor_of_2_512_over_l() {
        // L is odd, so ⌊2^512 / L⌋ = ⌊(2^512 − 1) / L⌋ and
        // μ·L = (2^512 − 1) − ((2^512 − 1) mod L) exactly, remainder by the
        // seed long division.
        let rem = U512([u64::MAX; 8]).reduce_mod(&L);
        let expected = U512([u64::MAX; 8]).checked_sub(&U512::from_u256(&rem));
        let mut prod = [0u64; 9];
        for (i, &m) in MU.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &l) in L.0.iter().enumerate() {
                let acc = prod[i + j] as u128 + (m as u128) * (l as u128) + carry;
                prod[i + j] = acc as u64;
                carry = acc >> 64;
            }
            prod[i + 4] = carry as u64;
        }
        assert_eq!(prod[8], 0);
        assert_eq!(prod[..8], expected.0);
    }

    #[test]
    fn random_scalars_differ() {
        let mut rng = ChaChaRng::from_u64(99);
        let a = Scalar::random(&mut rng);
        let b = Scalar::random(&mut rng);
        assert_ne!(a, b);
        assert!(!a.is_zero());
    }
}
