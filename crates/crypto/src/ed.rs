//! Curve25519 in twisted-Edwards form: −x² + y² = 1 + d·x²·y².
//!
//! Points use extended homogeneous coordinates (X : Y : Z : T) with
//! T = XY/Z (Hisil–Wong–Carter–Dawson). This is the group used for local
//! attestation ECDH and Schnorr attestation signatures (§VI).
//!
//! Scalar multiplication takes one of two shapes:
//!
//! * [`Prepared`] is the one radix-16 table type. For a point P it holds
//!   j·16^i·P for 64 rows × 8 entries in the affine "Niels" form
//!   (y+x, y−x, 2d·xy), 48 KiB, and [`Prepared::mul`] is the one table
//!   walk: one addition per signed radix-16 digit, 64 in all, no Z
//!   multiply and no doublings.
//!   [`Point::mul_base`] walks B's table, built once per process;
//!   `sig` keeps the tables of verifying keys it sees more than once.
//! * [`Point::mul`] is the variable-base path for a point used once: a
//!   1·P … 8·P window, then four doublings and at most one addition per
//!   digit. Building a table costs a few such multiplications, so an
//!   ECDH peer's ephemeral point, and a verifying key's first use, take
//!   this path.
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
pub(crate) const D: Fe = Fe(U256([
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

/// A point in the affine "Niels" form a [`Prepared`] table stores:
/// (y + x, y − x, 2d·x·y), 96 bytes. Adding it needs no Z multiply.
#[derive(Debug, Clone, Copy)]
struct Niels {
    y_plus_x: Fe,
    y_minus_x: Fe,
    t2d: Fe,
}

impl Niels {
    /// The identity (0, 1): y ± x = 1 and 2d·x·y = 0.
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        t2d: Fe::ZERO,
    };
}

impl core::ops::Neg for Niels {
    type Output = Niels;

    /// −P: swap Y ± X and negate T.
    fn neg(self) -> Niels {
        Niels {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            t2d: self.t2d.neg(),
        }
    }
}

/// A projective point prepared as the right-hand operand of an addition:
/// (Y + X, Y − X, 2d·T) and Z.
#[derive(Debug, Clone, Copy)]
struct Cached {
    niels: Niels,
    z: Fe,
}

impl core::ops::Neg for Cached {
    type Output = Cached;

    fn neg(self) -> Cached {
        Cached {
            niels: -self.niels,
            z: self.z,
        }
    }
}

/// The largest digit magnitude of a signed radix-16 scalar, and so the
/// entries per window table: 1·P … 8·P.
const DIGIT_MAX: usize = 8;

/// Signed radix-16 digits per scalar, and so rows per [`Prepared`] table.
const DIGITS: usize = 64;

/// The window 1·P … 8·P, in projective form.
fn window(p: &Point) -> [Cached; DIGIT_MAX] {
    let p1 = p.to_cached();
    let mut table = [p1; DIGIT_MAX];
    let mut multiple = *p;
    for slot in table.iter_mut().skip(1) {
        multiple = multiple.add_cached(&p1);
        *slot = multiple.to_cached();
    }
    table
}

/// Selects `digit`·P from a table of 1·P … 8·P (`None` for digit 0).
fn select<T: Copy + core::ops::Neg<Output = T>>(table: &[T; DIGIT_MAX], digit: i8) -> Option<T> {
    match digit {
        0 => None,
        d if d > 0 => Some(table[d as usize - 1]),
        d => Some(-table[d.unsigned_abs() as usize - 1]),
    }
}

/// A point's radix-16 table: row `i` holds j·16^i·P for j = 1…8, so k·P
/// is one addition per signed radix-16 digit of k and no doublings.
/// 512 affine entries of 96 bytes, 48 KiB.
#[derive(Debug, Clone)]
pub struct Prepared {
    rows: Box<[[Niels; DIGIT_MAX]]>,
}

impl Prepared {
    /// Builds the table of `p`: each row's window in projective form, then
    /// all 512 entries normalised with one inversion (Montgomery's trick).
    /// Scaling a cached entry's Y ± X and 2d·T by 1/Z is its affine form.
    pub fn new(p: &Point) -> Prepared {
        let mut rows = Vec::with_capacity(DIGITS);
        let mut row_base = *p;
        for i in 0..DIGITS {
            rows.push(window(&row_base));
            if i + 1 < DIGITS {
                row_base = row_base.double_n(4);
            }
        }
        // prefix[i] = z₀·…·z_{i−1}; walk back with the running inverse.
        let mut prefix = Vec::with_capacity(DIGITS * DIGIT_MAX);
        let mut acc = Fe::ONE;
        for q in rows.iter().flatten() {
            prefix.push(acc);
            acc = acc.mul(&q.z);
        }
        // Prefix products are consumed back to front, so each entry's
        // affine form is written into the same slot, last entry first.
        let mut inv = acc.invert();
        let mut affine = vec![[Niels::IDENTITY; DIGIT_MAX]; DIGITS];
        for ((q, pre), out) in rows
            .iter()
            .flatten()
            .rev()
            .zip(prefix.into_iter().rev())
            .zip(affine.iter_mut().flatten().rev())
        {
            let zinv = inv.mul(&pre);
            inv = inv.mul(&q.z);
            *out = Niels {
                y_plus_x: q.niels.y_plus_x.mul(&zinv),
                y_minus_x: q.niels.y_minus_x.mul(&zinv),
                t2d: q.niels.t2d.mul(&zinv),
            };
        }
        Prepared {
            rows: affine.into_boxed_slice(),
        }
    }

    /// k·P: one table addition per signed radix-16 digit of k.
    pub fn mul(&self, k: &Scalar) -> Point {
        let mut acc = Point::identity();
        for (row, &digit) in self.rows.iter().zip(k.signed_radix16().iter()) {
            if let Some(q) = select(row, digit) {
                acc = acc.add_niels(&q, acc.z);
            }
        }
        acc
    }
}

/// B's table, built on first use.
fn base_table() -> &'static Prepared {
    static TABLE: std::sync::OnceLock<Prepared> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| Prepared::new(&Point::base()))
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
    pub(crate) fn to_affine(self) -> (Fe, Fe) {
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

    fn to_cached(self) -> Cached {
        Cached {
            niels: Niels {
                y_plus_x: self.y.add(&self.x),
                y_minus_x: self.y.sub(&self.x),
                t2d: self.t.mul(&D2),
            },
            z: self.z,
        }
    }

    /// Adds a projective prepared point.
    fn add_cached(&self, q: &Cached) -> Point {
        self.add_niels(&q.niels, self.z.mul(&q.z))
    }

    /// Adds Q given as its (Y + X, Y − X, 2d·T) and the product of the two
    /// Z coordinates (add-2008-hwcd-3, a = −1). An affine Q has Z = 1, so
    /// `zz` is just `self.z`.
    fn add_niels(&self, q: &Niels, zz: Fe) -> Point {
        let a = self.y.sub(&self.x).mul(&q.y_minus_x);
        let b = self.y.add(&self.x).mul(&q.y_plus_x);
        let c = self.t.mul(&q.t2d);
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

    /// Fixed-base multiplication k·B: a walk of B's [`Prepared`] table.
    pub fn mul_base(k: &Scalar) -> Point {
        base_table().mul(k)
    }

    /// Variable-base multiplication k·P with a 4-bit signed window: a table
    /// of 1·P … 8·P, then four doublings and at most one addition per digit.
    pub fn mul(&self, k: &Scalar) -> Point {
        let table = window(self);
        let digits = k.signed_radix16();
        let mut acc = Point::identity();
        for (i, &digit) in digits.iter().enumerate().rev() {
            if i != DIGITS - 1 {
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
    /// baseline for [`Point::mul`], [`Point::mul_base`] and
    /// [`Prepared::mul`].
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
    pub(crate) fn is_identity(&self) -> bool {
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
