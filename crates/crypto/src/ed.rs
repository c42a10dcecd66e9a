//! Curve25519 in twisted-Edwards form: −x² + y² = 1 + d·x²·y².
//!
//! Points use extended homogeneous coordinates (X : Y : Z : T) with
//! T = XY/Z (Hisil–Wong–Carter–Dawson). This is the group used for local
//! attestation ECDH and Schnorr attestation signatures (§VI).
//!
//! Encoding note: points serialize as 64 bytes (affine x ‖ y) rather than the
//! 32-byte compressed Ed25519 wire format; decompression would require a
//! field square root that nothing in the simulated protocol needs, and the
//! uncompressed form is validated on decode.

use crate::fe::Fe;
use crate::scalar::Scalar;
use crate::u256::U256;
use crate::CryptoError;

/// The curve constant d.
pub const D: Fe = Fe(U256([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]));

/// Base point affine x coordinate.
const BASE_X: Fe = Fe(U256([
    0xc956_2d60_8f25_d51a,
    0x692c_c760_9525_a7b2,
    0xc0a4_e231_fdd6_dc5c,
    0x2169_36d3_cd6e_53fe,
]));

/// Base point affine y coordinate (4/5 mod p).
const BASE_Y: Fe = Fe(U256([
    0x6666_6666_6666_6658,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
    0x6666_6666_6666_6666,
]));

/// 2·d, the constant in the addition law's T₁·T₂ term.
const D2: Fe = Fe(U256([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]));

/// A point on the twisted Edwards curve, in extended coordinates.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the right-hand operand of an addition:
/// (Y + X, Y − X, Z, 2d·T). With Z = 1 it is the affine "Niels" form the
/// fixed-base table stores.
#[derive(Debug, Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

impl Cached {
    /// −P: swap Y ± X and negate T.
    fn neg(&self) -> Cached {
        Cached {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z: self.z,
            t2d: self.t2d.neg(),
        }
    }
}

/// The largest digit magnitude of a signed radix-16 scalar, and so the
/// entries per window table: 1·P … 8·P.
const DIGIT_MAX: usize = 8;

/// Returns the fixed-base table, building it on first use: 64 rows, one
/// per radix-16 digit of a scalar, row `i` holding j·16^i·B for
/// j = 1…8 — 512 affine points of 128 bytes, 64 KiB. Rows are normalised
/// one batch at a time, so the build needs no second table-sized buffer.
fn base_table() -> &'static [[Cached; DIGIT_MAX]] {
    static TABLE: std::sync::OnceLock<Vec<[Cached; DIGIT_MAX]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut row_base = Point::base();
        for _ in 0..64 {
            let mut multiples = [row_base; DIGIT_MAX];
            for j in 1..DIGIT_MAX {
                multiples[j] = multiples[j - 1].add(&row_base);
            }
            Point::batch_normalize(&mut multiples);
            table.push(multiples.map(Point::to_cached));
            row_base = row_base.double_n(4);
        }
        table
    })
}

/// Selects `digit`·P from a table of 1·P … 8·P (`None` for digit 0).
fn select(table: &[Cached; DIGIT_MAX], digit: i8) -> Option<Cached> {
    match digit {
        0 => None,
        d if d > 0 => Some(table[d as usize - 1]),
        d => Some(table[d.unsigned_abs() as usize - 1].neg()),
    }
}

impl Point {
    /// The group identity (0, 1).
    pub fn identity() -> Point {
        Point {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// The standard base point B.
    pub fn base() -> Point {
        Point {
            x: BASE_X,
            y: BASE_Y,
            z: Fe::ONE,
            t: BASE_X.mul(&BASE_Y),
        }
    }

    /// Builds a point from affine coordinates, verifying the curve equation.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when (x, y) is not on the curve.
    pub fn from_affine(x: Fe, y: Fe) -> Result<Point, CryptoError> {
        // −x² + y² = 1 + d·x²·y².
        let xx = x.square();
        let yy = y.square();
        let lhs = yy.sub(&xx);
        let rhs = Fe::ONE.add(&D.mul(&xx).mul(&yy));
        if lhs == rhs {
            Ok(Point {
                x,
                y,
                z: Fe::ONE,
                t: x.mul(&y),
            })
        } else {
            Err(CryptoError::InvalidPoint)
        }
    }

    /// Returns the affine (x, y) coordinates; free when Z = 1.
    pub fn to_affine(&self) -> (Fe, Fe) {
        if self.z == Fe::ONE {
            return (self.x, self.y);
        }
        let zinv = self.z.invert();
        (self.x.mul(&zinv), self.y.mul(&zinv))
    }

    /// The same point with Z = 1, so later encodings skip the inversion.
    pub fn normalize(&self) -> Point {
        let (x, y) = self.to_affine();
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        }
    }

    /// Normalises a batch of points in place with one inversion
    /// (Montgomery's trick).
    fn batch_normalize(points: &mut [Point; DIGIT_MAX]) {
        // prefix[i] = z₀·…·z_{i−1}; walk back with the running inverse.
        let mut prefix = [Fe::ONE; DIGIT_MAX];
        let mut acc = Fe::ONE;
        for (pre, p) in prefix.iter_mut().zip(points.iter()) {
            *pre = acc;
            acc = acc.mul(&p.z);
        }
        let mut inv = acc.invert();
        for (p, pre) in points.iter_mut().zip(prefix).rev() {
            let zinv = inv.mul(&pre);
            inv = inv.mul(&p.z);
            let (x, y) = (p.x.mul(&zinv), p.y.mul(&zinv));
            *p = Point {
                x,
                y,
                z: Fe::ONE,
                t: x.mul(&y),
            };
        }
    }

    fn to_cached(self) -> Cached {
        Cached {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    /// Adds a prepared point (add-2008-hwcd-3, a = −1); one multiply fewer
    /// when the operand is affine.
    fn add_cached(&self, q: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.t2d);
        let zz = if q.z == Fe::ONE {
            self.z
        } else {
            self.z.mul(&q.z)
        };
        let d = zz.add(&zz);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point addition (add-2008-hwcd-3 formulas for a = −1 curves).
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.to_cached())
    }

    /// Point doubling (dbl-2008-hwcd, a = −1).
    pub fn double(&self) -> Point {
        self.double_n(1)
    }

    /// `2^n·self` for n ≥ 1. Doubling never reads T, so only the last
    /// step computes it.
    fn double_n(&self, n: u32) -> Point {
        let mut p = *self;
        for i in 1..=n {
            let a = p.x.square();
            let b = p.y.square();
            let zz = p.z.square();
            let c = zz.add(&zz);
            let d = a.neg();
            let e = p.x.add(&p.y).square().sub(&a).sub(&b);
            let g = d.add(&b);
            let f = g.sub(&c);
            let h = d.sub(&b);
            p = Point {
                x: e.mul(&f),
                y: g.mul(&h),
                z: f.mul(&g),
                t: if i == n { e.mul(&h) } else { p.t },
            };
        }
        p
    }

    /// Fixed-base multiplication k·B: one table addition per signed
    /// radix-16 digit of k, no doublings.
    pub fn mul_base(k: &Scalar) -> Point {
        let table = base_table();
        let mut acc = Point::identity();
        for (row, &digit) in table.iter().zip(k.signed_radix16().iter()) {
            if let Some(q) = select(row, digit) {
                acc = acc.add_cached(&q);
            }
        }
        acc
    }

    /// Variable-base multiplication k·P with a 4-bit signed window: a table
    /// of 1·P … 8·P, then four doublings and at most one addition per digit.
    pub fn mul(&self, k: &Scalar) -> Point {
        let p1 = self.to_cached();
        let mut table = [p1; DIGIT_MAX];
        let mut multiple = *self;
        for slot in table.iter_mut().skip(1) {
            multiple = multiple.add_cached(&p1);
            *slot = multiple.to_cached();
        }
        let digits = k.signed_radix16();
        let mut acc = Point::identity();
        for (i, &digit) in digits.iter().enumerate().rev() {
            if i != 63 {
                acc = acc.double_n(4);
            }
            if let Some(q) = select(&table, digit) {
                acc = acc.add_cached(&q);
            }
        }
        acc
    }

    /// The seed scalar multiplication (bit-serial double-and-add on the
    /// seed field multiply), kept as the differential oracle and benchmark
    /// baseline for [`Point::mul`] and [`Point::mul_base`].
    pub fn mul_ref(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        let top = match k.highest_bit() {
            None => return Point::identity(),
            Some(t) => t,
        };
        for i in (0..=top).rev() {
            acc = acc.double_ref();
            if k.bit(i) {
                acc = acc.add_ref(self);
            }
        }
        acc
    }

    /// Seed addition on [`Fe::mul_ref`], for [`Point::mul_ref`].
    fn add_ref(&self, other: &Point) -> Point {
        let a = self.y.sub(&self.x).mul_ref(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul_ref(&other.y.add(&other.x));
        let d2 = D.add(&D);
        let c = self.t.mul_ref(&d2).mul_ref(&other.t);
        let d = self.z.add(&self.z).mul_ref(&other.z);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul_ref(&f),
            y: g.mul_ref(&h),
            z: f.mul_ref(&g),
            t: e.mul_ref(&h),
        }
    }

    /// Seed doubling on [`Fe::mul_ref`], for [`Point::mul_ref`].
    fn double_ref(&self) -> Point {
        let a = self.x.mul_ref(&self.x);
        let b = self.y.mul_ref(&self.y);
        let c = self.z.mul_ref(&self.z).add(&self.z.mul_ref(&self.z));
        let d = a.neg();
        let xy = self.x.add(&self.y);
        let e = xy.mul_ref(&xy).sub(&a).sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        Point {
            x: e.mul_ref(&f),
            y: g.mul_ref(&h),
            z: f.mul_ref(&g),
            t: e.mul_ref(&h),
        }
    }

    /// Projective equality: X1·Z2 == X2·Z1 and Y1·Z2 == Y2·Z1.
    pub fn equals(&self, other: &Point) -> bool {
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }

    /// Returns `true` for the identity point.
    pub fn is_identity(&self) -> bool {
        self.equals(&Point::identity())
    }

    /// Serializes as 64 bytes: affine x (32 LE) ‖ affine y (32 LE).
    pub fn encode(&self) -> [u8; 64] {
        let (x, y) = self.to_affine();
        encode_affine(&x, &y)
    }

    /// The seed encoding (inversion on every call, via [`Fe::invert_ref`]),
    /// kept as the oracle for [`Point::encode`].
    pub fn encode_ref(&self) -> [u8; 64] {
        let zinv = self.z.invert_ref();
        encode_affine(&self.x.mul_ref(&zinv), &self.y.mul_ref(&zinv))
    }

    /// Deserializes a 64-byte encoding, verifying the curve equation.
    /// Each coordinate must be canonical (< p): `x + p` is not a second
    /// spelling of `x`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for off-curve or non-canonical
    /// encodings.
    pub fn decode(bytes: &[u8; 64]) -> Result<Point, CryptoError> {
        let coord = |half: &[u8]| {
            Fe::from_canonical_le_bytes(half.try_into().expect("32 bytes"))
                .ok_or(CryptoError::InvalidPoint)
        };
        Point::from_affine(coord(&bytes[..32])?, coord(&bytes[32..])?)
    }
}

fn encode_affine(x: &Fe, y: &Fe) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(&x.to_le_bytes());
    out[32..].copy_from_slice(&y.to_le_bytes());
    out
}

impl PartialEq for Point {
    fn eq(&self, other: &Self) -> bool {
        self.equals(other)
    }
}

impl Eq for Point {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_point_is_on_curve() {
        let (x, y) = Point::base().to_affine();
        assert!(Point::from_affine(x, y).is_ok());
    }

    #[test]
    fn identity_is_neutral() {
        let b = Point::base();
        assert_eq!(b.add(&Point::identity()), b);
        assert_eq!(Point::identity().add(&b), b);
    }

    #[test]
    fn double_matches_add() {
        let b = Point::base();
        assert_eq!(b.double(), b.add(&b));
        let b2 = b.double();
        assert_eq!(b2.double(), b2.add(&b2));
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = Point::base();
        assert_eq!(b.mul(&Scalar::from_u64(1)), b);
        assert_eq!(b.mul(&Scalar::from_u64(2)), b.double());
        assert_eq!(b.mul(&Scalar::from_u64(5)), b.double().double().add(&b));
        assert!(b.mul(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn order_annihilates_base() {
        // L·B = identity confirms both the order constant and the group law.
        let l_bytes = crate::scalar::L.to_le_bytes();
        // Scalar::from_le_bytes would reduce L to 0; multiply by L via
        // (L−1)·B + B instead.
        let (lm1, _) = crate::scalar::L.sbb(&U256::ONE);
        let s = Scalar::from_le_bytes(&lm1.to_le_bytes());
        let almost = Point::base().mul(&s);
        assert!(almost.add(&Point::base()).is_identity());
        let _ = l_bytes;
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = Point::base();
        let a = Scalar::from_u64(123456);
        let c = Scalar::from_u64(654321);
        assert_eq!(b.mul(&a).add(&b.mul(&c)), b.mul(&a.add(&c)));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = Point::base().mul(&Scalar::from_u64(777));
        let decoded = Point::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_rejects_off_curve() {
        let mut bytes = Point::base().encode();
        bytes[0] ^= 1; // Perturb x.
        assert_eq!(Point::decode(&bytes), Err(CryptoError::InvalidPoint));
    }
}
