//! Differential wall for the Curve25519 fast paths: every fast routine is
//! compared byte for byte against the seed algorithm kept beside it as a
//! `*_ref` oracle, on seeded random inputs and on fixed edge inputs
//! (0, 1, p − 1, 2^255 − 1, L − 1, L, 2^512 − 1, all-0xf nibbles, the
//! window-boundary scalars 1, 2, 15, 16, 17, and scalars whose signed
//! radix-16 digits sit at the −8 end of the table).
//!
//! `PublicKey::verify` keeps a per-thread memo of recent keys' tables, so
//! its arms verify each key several times: once cold, once while the
//! table is built, and then warm, against `verify_ref` every time.
//!
//! The field is reduced lazily: an `Fe` may hold any 256-bit value
//! congruent to its element, and only `to_le_bytes`, `is_zero`, `==` and
//! hashing take the canonical form (< p). The values built here come
//! through `from_le_bytes` and start canonical, but the sums, products and
//! inverses compared need not be, so every comparison goes through `==`
//! or an encoding: it holds the fast paths to the oracles per element, not
//! per limb. The representatives in [p, 2^256) that only the crate can
//! build (p, p + 1, 2p, 2p + 37, 2^256 − 1, seeded random limbs) are held
//! by `fe.rs`'s unit tests, which check every operation on them against
//! `u256`'s generic modular arithmetic and the `*_ref` oracles.
//!
//! The limb arithmetic wraps silently in release builds where debug
//! builds panic on overflow, so this suite is meant to pass in both
//! (`cargo test -p hypertee-crypto` and `cargo test --release ...`).

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ed::{Point, Prepared};
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
    out.extend(eight_digit_scalars());
    out
}

/// Scalars below 2^252 whose signed radix-16 digits 0…62 are all −8
/// (nibbles 8, 7, 7, …: each 8 + carry becomes −8 and carries again),
/// and alternate −8, 7 (nibbles 8, 6, 8, 6, …), with the last carry in
/// digit 63: every table row is read at its largest negated entry.
fn eight_digit_scalars() -> [Scalar; 2] {
    let mut minus_eights = [0x77u8; 32];
    minus_eights[0] = 0x78;
    minus_eights[31] = 0x07;
    let mut alternating = [0x68u8; 32];
    alternating[31] = 0x08;
    [
        Scalar::from_le_bytes(&minus_eights),
        Scalar::from_le_bytes(&alternating),
    ]
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
fn variable_and_prepared_multiply_match_double_and_add() {
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
        let table = Prepared::new(p);
        for k in &scalars {
            let oracle = p.mul_ref(k).encode_ref();
            assert_eq!(p.mul(k).encode(), oracle, "{p:?} * {k:?}");
            assert_eq!(table.mul(k).encode(), oracle, "table of {p:?} * {k:?}");
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

#[test]
fn warm_verify_matches_seed_verify_and_never_accepts_a_forgery() {
    let mut rng = ChaChaRng::from_u64(0x3E_0008);
    let keys: Vec<Keypair> = (0..3)
        .map(|_| Keypair::from_key_material(&rng.gen_bytes32()))
        .collect();
    for (i, kp) in keys.iter().enumerate() {
        let other_key = keys[(i + 1) % keys.len()].public;
        // Three valid verifies take the key cold, through its table build
        // and warm; every forgery then meets the warm table.
        for round in 0..4u32 {
            let msg = format!("warm message #{i}.{round}");
            let sig = kp.sign(msg.as_bytes());
            let other = kp.sign(b"another message");
            assert!(
                kp.public.verify(msg.as_bytes(), &sig),
                "key {i} round {round}"
            );
            assert!(kp.public.verify_ref(msg.as_bytes(), &sig));
            if round == 0 {
                continue;
            }
            let other_msg = format!("{msg}!");
            let forgeries = [
                (
                    kp.public,
                    msg.as_bytes(),
                    Signature {
                        r: sig.r,
                        s: sig.s.add(&Scalar::ONE),
                    },
                ),
                (
                    kp.public,
                    msg.as_bytes(),
                    Signature {
                        r: other.r,
                        s: sig.s,
                    },
                ),
                (kp.public, other_msg.as_bytes(), sig),
                (other_key, msg.as_bytes(), sig),
            ];
            for (j, (key, m, bad)) in forgeries.iter().enumerate() {
                assert!(!key.verify(m, bad), "key {i} round {round} forgery {j}");
                assert!(!key.verify_ref(m, bad), "key {i} round {round} forgery {j}");
            }
        }
    }
}

#[test]
fn cycling_more_keys_than_the_memo_holds_stays_correct() {
    let mut rng = ChaChaRng::from_u64(0xC7_0009);
    let ring: Vec<(Keypair, Signature)> = (0..7)
        .map(|i| {
            let kp = Keypair::from_key_material(&rng.gen_bytes32());
            let sig = kp.sign(format!("ring #{i}").as_bytes());
            (kp, sig)
        })
        .collect();
    let check = |i: usize| {
        let (kp, sig) = &ring[i];
        let msg = format!("ring #{i}");
        assert!(kp.public.verify(msg.as_bytes(), sig), "ring key {i}");
        let (wrong, _) = &ring[(i + 3) % ring.len()];
        assert!(
            !wrong.public.verify(msg.as_bytes(), sig),
            "ring key {i} under a wrong key"
        );
        assert!(
            !kp.public.verify(b"not the message", sig),
            "ring key {i} on another message"
        );
    };
    // Round robin: every key is evicted before it comes round again.
    for i in (0..ring.len()).cycle().take(3 * ring.len()) {
        check(i);
    }
    // One hot key between the others: its table must survive their churn,
    // and the others come and go beside it.
    for i in 1..4 * ring.len() {
        check(0);
        check(i % ring.len());
    }
    // Two keys back and forth, then the ring again over their tables.
    for i in 0..8 {
        check(i % 2 + 5);
    }
    for i in (0..ring.len()).rev() {
        check(i);
    }
}
