//! Negative-path coverage for the attestation evidence chain: malformed
//! quote wire bytes, cross-platform verification, and SIGMA handshake
//! tampering/replay — everything the fail-closed service facade leans on
//! must reject cleanly at this layer too. The curve decoders are strict:
//! a coordinate ≥ p or a signature scalar ≥ L is refused, so every
//! accepted quote, key and signature has exactly one byte form.

use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::crypto::ecdh::{EcdhPrivate, EcdhPublic};
use hypertee_repro::crypto::fe::P;
use hypertee_repro::crypto::scalar::L;
use hypertee_repro::crypto::sig::{Keypair, PublicKey, Signature};
use hypertee_repro::crypto::u256::U256;
use hypertee_repro::crypto::CryptoError;
use hypertee_repro::ems::attest::{Quote, SigmaInitiator};
use hypertee_repro::ems::error::EmsError;
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::sim::config::SocConfig;

fn manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 16M\nstack = 64K\nhost_shared = 64K").unwrap()
}

/// Boots a machine with one measured enclave and returns it with a fresh
/// quote over `challenge`.
fn quoted_machine(seed: u64, challenge: &[u8]) -> (Machine, u64, Quote) {
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(0, &manifest(), format!("attested #{seed}").as_bytes())
        .unwrap();
    m.enter(0, e).unwrap();
    let quote = m.attest(0, e, challenge).unwrap();
    (m, e.0, quote)
}

#[test]
fn quote_from_bytes_rejects_wrong_lengths() {
    let (_m, _eid, quote) = quoted_machine(1, b"length check");
    let bytes = quote.to_bytes();
    assert_eq!(bytes.len(), 384);
    // Truncated by one, extended by one, empty, and half a quote: all must
    // fail to parse — there is no sloppy prefix acceptance.
    assert_eq!(
        Quote::from_bytes(&bytes[..383]).unwrap_err(),
        EmsError::InvalidArgument
    );
    let mut long = bytes.clone();
    long.push(0);
    assert_eq!(
        Quote::from_bytes(&long).unwrap_err(),
        EmsError::InvalidArgument
    );
    assert_eq!(
        Quote::from_bytes(&[]).unwrap_err(),
        EmsError::InvalidArgument
    );
    assert_eq!(
        Quote::from_bytes(&bytes[..192]).unwrap_err(),
        EmsError::InvalidArgument
    );
}

#[test]
fn quote_survives_no_single_bit_flip() {
    let (m, _eid, quote) = quoted_machine(2, b"bit flip sweep");
    let ek = m.ek_public();
    let bytes = quote.to_bytes();
    assert!(Quote::from_bytes(&bytes).unwrap().verify(&ek));
    // Flip one bit in every byte of the wire image. Measurements and
    // report_data are covered by the certificate signatures; key and
    // signature bytes either fail point decoding or break verification.
    for i in 0..bytes.len() {
        let mut tampered = bytes.clone();
        tampered[i] ^= 1;
        let accepted = match Quote::from_bytes(&tampered) {
            Ok(q) => q.verify(&ek),
            Err(_) => false,
        };
        assert!(!accepted, "bit flip at byte {i} produced an accepted quote");
    }
}

#[test]
fn quote_rejects_foreign_endorsement_key() {
    let (m, _eid, quote) = quoted_machine(3, b"ek check");
    assert!(quote.verify(&m.ek_public()));
    // A different platform's eFuse EK must not endorse this quote, and
    // neither may an arbitrary key.
    let other = Machine::boot(SocConfig::default(), 0xD1FF).unwrap();
    assert!(!quote.verify(&other.ek_public()));
    let arbitrary = hypertee_repro::crypto::sig::Keypair::from_key_material(&[0x5au8; 32]).public;
    assert!(!quote.verify(&arbitrary));
}

#[test]
fn sigma_rejects_tampered_msg2() {
    let (mut m, eid, quote) = quoted_machine(4, b"");
    let expected = quote.enclave_measurement;
    let ek = m.ek_public();
    let mut rng = ChaChaRng::from_u64(0x00A7_7E57);

    let (init, msg1) = SigmaInitiator::start(&mut rng);
    let msg2 = m.ems.sigma_respond(eid, &msg1).unwrap();
    assert!(init.finish(&msg2, &ek, &expected).is_ok());

    // Tampered MAC: the transcript integrity check fails.
    let mut bad_mac = msg2.clone();
    bad_mac.mac[7] ^= 0x80;
    assert!(init.finish(&bad_mac, &ek, &expected).is_err());

    // Tampered report_data: the quote no longer binds this transcript
    // (and its enclave certificate breaks).
    let mut bad_binding = msg2.clone();
    bad_binding.quote.report_data[0] ^= 1;
    assert!(init.finish(&bad_binding, &ek, &expected).is_err());

    // Substituted responder key: the ECDH transcript diverges even though
    // the quote itself is untouched and genuine.
    let mut bad_key = msg2.clone();
    let other = m
        .ems
        .sigma_respond(eid, &SigmaInitiator::start(&mut rng).1)
        .unwrap();
    bad_key.enclave_pub = other.enclave_pub;
    assert!(init.finish(&bad_key, &ek, &expected).is_err());
}

#[test]
fn sigma_rejects_replayed_msg1() {
    let (mut m, eid, _quote) = quoted_machine(5, b"");
    let mut rng = ChaChaRng::from_u64(0x005E_9A11);
    let (_init, msg1) = SigmaInitiator::start(&mut rng);
    m.ems.sigma_respond(eid, &msg1).unwrap();
    // The responder's replay guard keys on the msg1 nonce: a byte-identical
    // resubmission must be refused rather than re-served.
    assert_eq!(
        m.ems.sigma_respond(eid, &msg1).unwrap_err(),
        EmsError::AccessDenied
    );
}

/// Adds `m` to the 32-byte little-endian integer at `bytes[at..at + 32]`;
/// the sum must still fit in 256 bits.
fn add_at(bytes: &mut [u8], at: usize, m: &U256) {
    let field: &mut [u8; 32] = (&mut bytes[at..at + 32]).try_into().unwrap();
    let (sum, carry) = U256::from_le_bytes(field).adc(m);
    assert!(!carry, "test value must fit in 256 bits");
    *field = sum.to_le_bytes();
}

/// Wire offsets inside the 384-byte quote.
const AK_PUB_X: usize = 128;
const ENCLAVE_SIG_S: usize = 288 + 64;

#[test]
fn quote_rejects_non_canonical_scalar_and_coordinate() {
    let (m, _eid, quote) = quoted_machine(6, b"canonical check");
    let ek = m.ek_public();
    let bytes = quote.to_bytes();
    assert!(Quote::from_bytes(&bytes).unwrap().verify(&ek));

    // s + L is the same residue mod L: before strict decoding it parsed
    // to the identical signature and verified.
    let mut s_plus_l = bytes.clone();
    add_at(&mut s_plus_l, ENCLAVE_SIG_S, &L);
    assert_eq!(
        Quote::from_bytes(&s_plus_l).unwrap_err(),
        EmsError::InvalidArgument
    );

    // x + p is the same field element: the AK would decode to the same
    // point and the EK certificate (over its canonical bytes) would hold.
    let mut x_plus_p = bytes.clone();
    add_at(&mut x_plus_p, AK_PUB_X, &P);
    assert_eq!(
        Quote::from_bytes(&x_plus_p).unwrap_err(),
        EmsError::InvalidArgument
    );
}

#[test]
fn curve_decoders_reject_non_canonical_forms() {
    let kp = Keypair::from_key_material(&[0x42; 32]);
    let sig = kp.sign(b"canonical");
    let mut bytes = sig.to_bytes();
    add_at(&mut bytes, 64, &L);
    assert_eq!(
        Signature::from_bytes(&bytes).unwrap_err(),
        CryptoError::InvalidScalar
    );
    for coord in [0, 32] {
        let mut key = kp.public.to_bytes();
        add_at(&mut key, coord, &P);
        assert_eq!(
            PublicKey::from_bytes(&key).unwrap_err(),
            CryptoError::InvalidPoint
        );
        assert_eq!(
            EcdhPublic::from_bytes(&key).unwrap_err(),
            CryptoError::InvalidPoint
        );
    }
}

/// Mutations of `genuine` for a decoder sweep: every single-bit flip,
/// every truncation and a few extensions, and seeded multi-byte
/// corruptions (including the top bytes that decide canonicity).
fn mutations(genuine: &[u8], rng: &mut ChaChaRng) -> Vec<Vec<u8>> {
    let mut out = vec![genuine.to_vec()];
    for bit in 0..genuine.len() * 8 {
        let mut v = genuine.to_vec();
        v[bit / 8] ^= 1 << (bit % 8);
        out.push(v);
    }
    for len in 0..genuine.len() {
        out.push(genuine[..len].to_vec());
    }
    for extra in [1usize, 2, 32] {
        let mut v = genuine.to_vec();
        v.extend(std::iter::repeat_n(0xa5, extra));
        out.push(v);
    }
    for _ in 0..256 {
        let mut v = genuine.to_vec();
        for _ in 0..1 + rng.gen_range(4) {
            let at = rng.gen_range(v.len() as u64) as usize;
            v[at] = if rng.gen_range(2) == 0 {
                rng.next_u32() as u8
            } else {
                0xff
            };
        }
        out.push(v);
    }
    out
}

/// Runs `decode` on every mutation that has the decoder's length: none may
/// panic, and every accepted input must re-encode to exactly its bytes.
fn sweep<const N: usize, T>(
    what: &str,
    genuine: &[u8; N],
    rng: &mut ChaChaRng,
    decode: impl Fn(&[u8; N]) -> Result<T, CryptoError>,
    encode: impl Fn(&T) -> [u8; N],
) {
    let (mut accepted, mut refused) = (0usize, 0usize);
    for input in mutations(genuine, rng) {
        let Ok(fixed) = <&[u8; N]>::try_from(input.as_slice()) else {
            refused += 1; // wrong length: the typed API cannot even be called
            continue;
        };
        match decode(fixed) {
            Ok(v) => {
                accepted += 1;
                assert_eq!(
                    encode(&v).as_slice(),
                    input.as_slice(),
                    "{what}: accepted input re-encodes differently"
                );
            }
            Err(_) => refused += 1,
        }
    }
    assert!(accepted > 0 && refused > 0, "{what}: degenerate sweep");
}

#[test]
fn curve_decoders_are_fail_closed_under_mutation() {
    let mut rng = ChaChaRng::from_u64(0xDEC0_DE55);
    let kp = Keypair::from_key_material(&[0x17; 32]);
    let sig = kp.sign(b"decoder sweep");
    let ecdh = EcdhPrivate::generate(&mut rng);
    sweep(
        "Signature",
        &sig.to_bytes(),
        &mut rng,
        Signature::from_bytes,
        Signature::to_bytes,
    );
    sweep(
        "PublicKey",
        &kp.public.to_bytes(),
        &mut rng,
        PublicKey::from_bytes,
        PublicKey::to_bytes,
    );
    sweep(
        "EcdhPublic",
        &ecdh.public.to_bytes(),
        &mut rng,
        EcdhPublic::from_bytes,
        EcdhPublic::to_bytes,
    );
}
