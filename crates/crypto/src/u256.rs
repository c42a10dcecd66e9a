//! Minimal fixed-width big integers (256/512-bit) backing the Curve25519
//! field and scalar arithmetic. Little-endian `u64` limbs throughout.
//!
//! Performance note: these routines favour obvious correctness over speed.
//! The hot curve paths do not run on them: the attestation facade performs
//! nine scalar multiplications per client handshake, so the field
//! arithmetic, the scalar reductions mod L and the point arithmetic have
//! dedicated fixed-width code in [`crate::fe`], [`crate::scalar`] and
//! [`crate::ed`]. What remains here backs scalar addition, parsing, and
//! the seed `*_ref` oracles (`U512::reduce_mod`'s binary long division
//! among them).

/// A 256-bit unsigned integer, little-endian limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256(pub [u64; 4]);

/// A 512-bit unsigned integer, little-endian limbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct U512(pub(crate) [u64; 8]);

impl U256 {
    /// The value zero.
    pub(crate) const ZERO: U256 = U256([0; 4]);
    /// The value one.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Constructs from a small integer.
    pub fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Parses 32 little-endian bytes.
    pub fn from_le_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        }
        U256(limbs)
    }

    /// Serializes to 32 little-endian bytes.
    pub fn to_le_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[8 * i..8 * i + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Returns `true` when the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Compares two values.
    pub(crate) fn cmp_u256(&self, other: &U256) -> core::cmp::Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Adds with carry out.
    pub fn adc(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            let (s1, c1) = a.overflowing_add(b);
            let (s2, c2) = s1.overflowing_add(carry);
            *o = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        (U256(out), carry != 0)
    }

    /// Subtracts with borrow out.
    pub fn sbb(&self, other: &U256) -> (U256, bool) {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (U256(out), borrow != 0)
    }

    /// Full 256×256 → 512-bit multiplication (schoolbook).
    #[inline]
    pub(crate) fn widening_mul(&self, other: &U256) -> U512 {
        let mut out = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let acc = out[i + j] as u128 + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                out[i + j] = acc as u64;
                carry = acc >> 64;
            }
            // Row i has not reached limb i + 4 yet, so the carry lands whole.
            out[i + 4] = carry as u64;
        }
        U512(out)
    }

    /// Returns the bit at `index` (0 = least significant).
    pub(crate) fn bit(&self, index: usize) -> bool {
        (self.0[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Index of the highest set bit, or `None` for zero.
    pub(crate) fn highest_bit(&self) -> Option<usize> {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return Some(64 * i + 63 - self.0[i].leading_zeros() as usize);
            }
        }
        None
    }
}

impl U512 {
    /// Constructs from a [`U256`] in the low half.
    pub(crate) fn from_u256(v: &U256) -> Self {
        let mut limbs = [0u64; 8];
        limbs[..4].copy_from_slice(&v.0);
        U512(limbs)
    }

    /// Parses 64 little-endian bytes.
    pub(crate) fn from_le_bytes(bytes: &[u8; 64]) -> Self {
        let mut limbs = [0u64; 8];
        for i in 0..8 {
            limbs[i] = u64::from_le_bytes(bytes[8 * i..8 * i + 8].try_into().unwrap());
        }
        U512(limbs)
    }

    /// Returns `true` when the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.0.iter().all(|&l| l == 0)
    }

    /// Index of the highest set bit, or `None` for zero.
    pub(crate) fn highest_bit(&self) -> Option<usize> {
        for i in (0..8).rev() {
            if self.0[i] != 0 {
                return Some(64 * i + 63 - self.0[i].leading_zeros() as usize);
            }
        }
        None
    }

    /// Shifts left by `n` bits (n < 512). Bits shifted past the top are lost.
    pub(crate) fn shl(&self, n: usize) -> U512 {
        let mut out = [0u64; 8];
        let limb_shift = n / 64;
        let bit_shift = n % 64;
        for i in (limb_shift..8).rev() {
            let mut v = self.0[i - limb_shift] << bit_shift;
            if bit_shift > 0 && i > limb_shift {
                v |= self.0[i - limb_shift - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        U512(out)
    }

    /// Compares two values.
    pub(crate) fn cmp_u512(&self, other: &U512) -> core::cmp::Ordering {
        for i in (0..8).rev() {
            match self.0[i].cmp(&other.0[i]) {
                core::cmp::Ordering::Equal => continue,
                ord => return ord,
            }
        }
        core::cmp::Ordering::Equal
    }

    /// Subtraction; caller guarantees `self >= other`.
    pub(crate) fn checked_sub(&self, other: &U512) -> U512 {
        let mut out = [0u64; 8];
        let mut borrow = 0u64;
        for (o, (&a, &b)) in out.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            let (d1, b1) = a.overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0, "checked_sub underflow");
        U512(out)
    }

    /// Reduces a 512-bit value modulo a 256-bit modulus via binary long
    /// division: O(512) limb subtractions. The seed reduction, kept as the
    /// oracle for the Barrett reduction mod L in [`crate::scalar`].
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub(crate) fn reduce_mod(&self, modulus: &U256) -> U256 {
        assert!(!modulus.is_zero(), "modulus must be nonzero");
        let mut rem = *self;
        let m512 = U512::from_u256(modulus);
        let m_high = modulus.highest_bit().expect("nonzero modulus");
        loop {
            let r_high = match rem.highest_bit() {
                None => return U256::ZERO,
                Some(h) => h,
            };
            if r_high < m_high {
                break;
            }
            let mut shift = r_high - m_high;
            let mut shifted = m512.shl(shift);
            if shifted.cmp_u512(&rem) == core::cmp::Ordering::Greater {
                if shift == 0 {
                    break;
                }
                shift -= 1;
                shifted = m512.shl(shift);
            }
            rem = rem.checked_sub(&shifted);
        }
        U256([rem.0[0], rem.0[1], rem.0[2], rem.0[3]])
    }
}

/// Modular addition of 256-bit values: `(a + b) mod m`, assuming `a, b < m`.
pub(crate) fn add_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    let (sum, carry) = a.adc(b);
    if carry || sum.cmp_u256(m) != core::cmp::Ordering::Less {
        let (reduced, _) = sum.sbb(m);
        reduced
    } else {
        sum
    }
}

/// Modular subtraction: `(a - b) mod m`, assuming `a, b < m`.
pub(crate) fn sub_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    let (diff, borrow) = a.sbb(b);
    if borrow {
        let (wrapped, _) = diff.adc(m);
        wrapped
    } else {
        diff
    }
}

/// Modular multiplication: `(a * b) mod m`.
pub(crate) fn mul_mod(a: &U256, b: &U256, m: &U256) -> U256 {
    a.widening_mul(b).reduce_mod(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = U256([u64::MAX, 5, 0, 1]);
        let b = U256([3, u64::MAX, 7, 0]);
        let (sum, _) = a.adc(&b);
        let (diff, borrow) = sum.sbb(&b);
        assert!(!borrow);
        assert_eq!(diff, a);
    }

    #[test]
    fn mul_small_values() {
        let a = U256::from_u64(1 << 40);
        let b = U256::from_u64(1 << 30);
        let prod = a.widening_mul(&b);
        assert_eq!(prod.0[1], 1 << 6); // 2^70 = limb1 bit 6.
        assert!(prod.0[2..].iter().all(|&l| l == 0));
    }

    #[test]
    fn reduce_mod_matches_u128_arithmetic() {
        // Cross-check against native arithmetic on values that fit in u128.
        let cases = [
            (12345678901234567890u128, 97u128),
            (u128::MAX, 1_000_000_007u128),
            (0u128, 13u128),
            (99u128, 100u128),
        ];
        for (x, m) in cases {
            let mut limbs = [0u64; 8];
            limbs[0] = x as u64;
            limbs[1] = (x >> 64) as u64;
            let big = U512(limbs);
            let modulus = U256([m as u64, (m >> 64) as u64, 0, 0]);
            let r = big.reduce_mod(&modulus);
            let expected = x % m;
            assert_eq!(r.0[0] as u128 | ((r.0[1] as u128) << 64), expected);
        }
    }

    #[test]
    fn mul_mod_agrees_with_fermat() {
        // p = 2^61 - 1 (Mersenne prime): a^(p-1) mod p == 1 for a != 0.
        let p = (1u64 << 61) - 1;
        let m = U256::from_u64(p);
        let mut acc = U256::ONE;
        let base = U256::from_u64(7);
        // Compute 7^(p-1) via square-and-multiply over the exponent bits.
        let exp = p - 1;
        let mut cur = base;
        for i in 0..63 {
            if (exp >> i) & 1 == 1 {
                acc = mul_mod(&acc, &cur, &m);
            }
            cur = mul_mod(&cur, &cur, &m);
        }
        assert_eq!(acc, U256::ONE);
    }

    #[test]
    fn shl_across_limbs() {
        let one = U512::from_u256(&U256::ONE);
        let shifted = one.shl(200);
        assert_eq!(shifted.0[3], 1 << 8);
        assert_eq!(shifted.highest_bit(), Some(200));
    }

    #[test]
    fn le_bytes_roundtrip() {
        let v = U256([1, 2, 3, 4]);
        assert_eq!(U256::from_le_bytes(&v.to_le_bytes()), v);
    }

    #[test]
    fn add_mod_wraps() {
        let m = U256::from_u64(100);
        let a = U256::from_u64(70);
        let b = U256::from_u64(50);
        assert_eq!(add_mod(&a, &b, &m), U256::from_u64(20));
        assert_eq!(sub_mod(&a, &b, &m), U256::from_u64(20));
        assert_eq!(sub_mod(&b, &a, &m), U256::from_u64(80));
    }
}
