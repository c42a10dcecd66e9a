//! Differential wall for the Curve25519 fast paths: every fast routine is
//! compared byte for byte against the seed algorithm kept beside it as a
//! `*_ref` oracle, on seeded random inputs and on fixed edge inputs
//! (0, 1, p − 1, 2^255 − 1, L − 1, L, 2^512 − 1, all-0xf nibbles, and the
//! window-boundary scalars 1, 2, 15, 16, 17).
//!
//! The limb arithmetic wraps silently in release builds where debug
//! builds panic on overflow, so this suite is meant to pass in both
//! (`cargo test -p hypertee-crypto` and `cargo test --release ...`).

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ed::Point;
use hypertee_crypto::fe::{Fe, P};
use hypertee_crypto::scalar::{Scalar, L};
use hypertee_crypto::sig::{Keypair, Signature};
use hypertee_crypto::u256::U256;

/// Seeded trials per random property.
const TRIALS: usize = 200;

fn random_fe(rng: &mut ChaChaRng) -> Fe {
    Fe::from_le_bytes(&rng.gen_bytes32())
}

fn random_scalar(rng: &mut ChaChaRng) -> Scalar {
    let mut wide = [0u8; 64];
    rng.fill_bytes(&mut wide);
    Scalar::from_le_bytes_wide(&wide)
}

fn minus(v: &U256, k: u64) -> U256 {
    v.sbb(&U256::from_u64(k)).0
}

/// Canonical field edge values: 0, 1, 2, p − 2, p − 1, 2^255 − 1 and
/// 2^256 − 1 (both reduced), 2^64 − 1 and a 0x0f/0xf0 nibble pattern.
fn edge_fes() -> Vec<Fe> {
    let mut out = vec![Fe::ZERO, Fe::ONE, Fe::from_u64(2), Fe::from_u64(u64::MAX)];
    for v in [minus(&P, 2), minus(&P, 1)] {
        out.push(Fe::from_le_bytes(&v.to_le_bytes()));
    }
    let mut top = [0xffu8; 32];
    top[31] = 0x7f; // 2^255 − 1
    out.push(Fe::from_le_bytes(&top));
    out.push(Fe::from_le_bytes(&[0xff; 32])); // 2^256 − 1
    out.push(Fe::from_le_bytes(&[0xf0; 32]));
    out.push(Fe::from_le_bytes(&[0x0f; 32]));
    out
}

/// Scalar edge values: the window boundaries, L − 1, the all-0xf nibble
/// pattern (reduced), all-8 nibbles (every signed digit at −8 before
/// carries) and 2^252 (L's top bit alone).
fn edge_scalars() -> Vec<Scalar> {
    let mut out: Vec<Scalar> = [0u64, 1, 2, 7, 8, 9, 15, 16, 17, 255, 256, u64::MAX]
        .iter()
        .map(|&v| Scalar::from_u64(v))
        .collect();
    out.push(Scalar::from_le_bytes(&minus(&L, 1).to_le_bytes()));
    out.push(Scalar::from_le_bytes(&[0xff; 32]));
    out.push(Scalar::from_le_bytes(&[0x88; 32]));
    let mut two_252 = [0u8; 32];
    two_252[31] = 0x10;
    out.push(Scalar::from_le_bytes(&two_252));
    out
}

/// Wide (64-byte) reduction inputs: 0, 1, L − 1, L, L + 1, 2L, 2^256,
/// 2^512 − 1 and a 0x0f nibble pattern.
fn edge_wides() -> Vec<[u8; 64]> {
    let widen = |v: &U256| {
        let mut w = [0u8; 64];
        w[..32].copy_from_slice(&v.to_le_bytes());
        w
    };
    let (two_l, _) = L.adc(&L);
    let mut out = vec![
        [0u8; 64],
        widen(&U256::ONE),
        widen(&minus(&L, 1)),
        widen(&L),
        widen(&L.adc(&U256::ONE).0),
        widen(&two_l),
        [0xff; 64],
        [0x0f; 64],
    ];
    let mut two_256 = [0u8; 64];
    two_256[32] = 1;
    out.push(two_256);
    out
}

#[test]
fn field_ops_match_seed_oracles() {
    let mut rng = ChaChaRng::from_u64(0xFE_0001);
    let mut values = edge_fes();
    values.extend((0..TRIALS).map(|_| random_fe(&mut rng)));
    for (i, a) in values.iter().enumerate() {
        let b = values[(i * 7 + 3) % values.len()];
        assert_eq!(a.mul(&b), a.mul_ref(&b), "mul {a:?} * {b:?}");
        assert_eq!(a.square(), a.mul_ref(a), "square {a:?}");
        if !a.is_zero() {
            assert_eq!(a.invert(), a.invert_ref(), "invert {a:?}");
        }
    }
}

#[test]
fn field_edge_products_are_canonical() {
    // (p − 1)² = 1 and (p − 1)·2 = p − 2: the one-pass reduction must land
    // exactly on the canonical representative, not on r + p.
    let pm1 = Fe::from_le_bytes(&minus(&P, 1).to_le_bytes());
    assert_eq!(pm1.square(), Fe::ONE);
    assert_eq!(
        pm1.mul(&Fe::from_u64(2)).to_le_bytes(),
        minus(&P, 2).to_le_bytes()
    );
    assert_eq!(pm1.invert(), pm1);
}

#[test]
fn scalar_reductions_match_long_division() {
    let mut rng = ChaChaRng::from_u64(0x5C_0002);
    let mut wides = edge_wides();
    wides.extend((0..TRIALS).map(|_| {
        let mut w = [0u8; 64];
        rng.fill_bytes(&mut w);
        w
    }));
    for w in &wides {
        assert_eq!(
            Scalar::from_le_bytes_wide(w),
            Scalar::from_le_bytes_wide_ref(w),
            "wide reduction of {w:02x?}"
        );
    }
    let mut scalars = edge_scalars();
    scalars.extend((0..TRIALS).map(|_| random_scalar(&mut rng)));
    for (i, a) in scalars.iter().enumerate() {
        let b = scalars[(i * 5 + 1) % scalars.len()];
        assert_eq!(a.mul(&b), a.mul_ref(&b), "mul {a:?} * {b:?}");
        assert_eq!(a.mul(a), a.mul_ref(a), "square {a:?}");
    }
}

#[test]
fn base_multiply_matches_double_and_add() {
    let mut rng = ChaChaRng::from_u64(0xBA_0003);
    let mut scalars = edge_scalars();
    scalars.extend((0..30).map(|_| random_scalar(&mut rng)));
    for k in &scalars {
        let fast = Point::mul_base(k);
        let oracle = Point::base().mul_ref(k);
        assert_eq!(fast.encode(), oracle.encode_ref(), "k = {k:?}");
    }
}

#[test]
fn variable_multiply_matches_double_and_add() {
    let mut rng = ChaChaRng::from_u64(0x7A_0004);
    // Bases with Z ≠ 1 (straight out of a multiply), Z = 1 (decoded), the
    // base point and the identity.
    let mut bases = vec![Point::base(), Point::identity()];
    for _ in 0..4 {
        let p = Point::mul_base(&random_scalar(&mut rng));
        bases.push(p);
        bases.push(Point::decode(&p.encode()).unwrap());
    }
    let mut scalars = edge_scalars();
    scalars.extend((0..6).map(|_| random_scalar(&mut rng)));
    for p in &bases {
        for k in &scalars {
            assert_eq!(
                p.mul(k).encode(),
                p.mul_ref(k).encode_ref(),
                "{p:?} * {k:?}"
            );
        }
    }
}

#[test]
fn encode_matches_seed_encoding() {
    let mut rng = ChaChaRng::from_u64(0xEC_0005);
    for _ in 0..TRIALS / 4 {
        let p = Point::mul_base(&random_scalar(&mut rng));
        let n = p.normalize();
        assert_eq!(p.encode(), p.encode_ref());
        assert_eq!(n.encode(), p.encode_ref());
        assert_eq!(n, p);
        // A small random combination so the inputs cover doubled and
        // added points, not only multiples from the table.
        let q = p.double().add(&n);
        assert_eq!(q.encode(), q.encode_ref());
    }
    assert_eq!(Point::identity().encode(), Point::identity().encode_ref());
}

#[test]
fn sign_and_verify_match_seed_path() {
    let mut rng = ChaChaRng::from_u64(0x51_0006);
    for i in 0..12u32 {
        let kp = if i % 2 == 0 {
            Keypair::generate(&mut rng)
        } else {
            Keypair::from_key_material(&rng.gen_bytes32())
        };
        let msg = format!("differential message #{i}");
        let sig = kp.sign(msg.as_bytes());
        let sig_ref = kp.sign_ref(msg.as_bytes());
        assert_eq!(sig.to_bytes(), sig_ref.to_bytes(), "signature #{i}");
        assert!(kp.public.verify(msg.as_bytes(), &sig));
        assert!(kp.public.verify_ref(msg.as_bytes(), &sig));
        // A tampered response must fail both ways.
        let bad = Signature {
            r: sig.r,
            s: sig.s.add(&Scalar::ONE),
        };
        assert!(!kp.public.verify(msg.as_bytes(), &bad));
        assert!(!kp.public.verify_ref(msg.as_bytes(), &bad));
    }
}
