//! The wolfSSL workload (§VII-A): profile + a functional TLS-style kernel.
//!
//! "wolfSSL is an open-source SSL/TLS library that supports encryption,
//! digests, and signature verification." The kernel below performs exactly
//! those three things with the in-tree crypto: an ECDH handshake, transcript
//! digests, certificate signature verification, and AES record encryption —
//! the shape of a TLS session, runnable inside an enclave.

use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::ecdh::EcdhPrivate;
use hypertee_crypto::hmac::hmac_sha256;
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::sig::Keypair;
use hypertee_sim::perf::WorkloadProfile;

/// The wolfSSL profile (Table IV row: EMEAS 15.0% → image 3.10 MB).
pub fn profile() -> WorkloadProfile {
    WorkloadProfile {
        name: "wolfSSL".to_string(),
        host_cycles: 2.0e9,
        instructions: 2.0e9,
        mem_refs_per_kinst: 220.0,
        tlb_miss_rate: 0.0015,
        llc_miss_rate: 0.006,
        image_bytes: 3.0960e6,
        ealloc_calls: 8.0,
        ealloc_bytes: 128.0 * 1024.0,
        touched_pages: 900.0,
    }
}

/// Result of one simulated TLS session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionResult {
    /// Whether the peer certificate verified.
    pub cert_ok: bool,
    /// Number of application-data records exchanged.
    pub(crate) records: usize,
    /// Digest over all decrypted application data (correctness check).
    pub transcript: [u8; 32],
}

/// Runs a full TLS-style session: handshake (ECDH + certificate
/// verification), key derivation, and `records` encrypted record exchanges
/// of `record_len` bytes each.
pub fn run_session(seed: u64, records: usize, record_len: usize) -> SessionResult {
    session(seed, records, record_len, false)
}

/// [`run_session`] with the record cipher on [`Aes128::ctr_apply_ref`] (the
/// byte-for-byte spec baseline) instead of the optimized CTR kernels. Same
/// seed ⇒ bit-identical [`SessionResult`]; kept as the reference arm of the
/// `wolfssl_pass` benchmark row.
pub fn run_session_ref(seed: u64, records: usize, record_len: usize) -> SessionResult {
    session(seed, records, record_len, true)
}

fn session(seed: u64, records: usize, record_len: usize, ctr_ref: bool) -> SessionResult {
    let mut rng = ChaChaRng::from_u64(seed);
    // Server identity.
    let server_identity = Keypair::generate(&mut rng);
    // Handshake: ephemeral ECDH both sides.
    let client_ecdh = EcdhPrivate::generate(&mut rng);
    let server_ecdh = EcdhPrivate::generate(&mut rng);
    // Server signs its ephemeral key (certificate-style).
    let sig = server_identity.sign(&server_ecdh.public.to_bytes());
    let cert_ok = server_identity
        .public
        .verify(&server_ecdh.public.to_bytes(), &sig);
    // Shared keys.
    let client_key = client_ecdh.shared_key(&server_ecdh.public).expect("dh");
    let server_key = server_ecdh.shared_key(&client_ecdh.public).expect("dh");
    assert_eq!(client_key, server_key, "handshake must agree");
    let record_key: [u8; 16] = client_key[..16].try_into().expect("16");
    let cipher = Aes128::new(&record_key);
    let ctr = |iv: &[u8; 16], data: &mut [u8]| {
        if ctr_ref {
            cipher.ctr_apply_ref(iv, data);
        } else {
            cipher.ctr_apply(iv, data);
        }
    };
    // Record exchange with per-record MAC.
    let mut transcript = Vec::new();
    for r in 0..records {
        let mut payload = vec![0u8; record_len];
        rng.fill_bytes(&mut payload);
        let plain_digest = sha256(&payload);
        // Client encrypts…
        ctr(&ctr_iv(r as u64, 0), &mut payload);
        let mac = hmac_sha256(&client_key, &payload);
        // …server verifies and decrypts.
        let mac_ok = hmac_sha256(&server_key, &payload) == mac;
        ctr(&ctr_iv(r as u64, 0), &mut payload);
        assert!(mac_ok, "record MAC");
        assert_eq!(sha256(&payload), plain_digest, "record roundtrip");
        transcript.extend_from_slice(&plain_digest);
    }
    SessionResult {
        cert_ok,
        records,
        transcript: sha256(&transcript),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_completes_and_verifies() {
        let r = run_session(1, 4, 512);
        assert!(r.cert_ok);
        assert_eq!(r.records, 4);
    }

    #[test]
    fn ref_session_is_bit_identical() {
        assert_eq!(run_session(11, 3, 640), run_session_ref(11, 3, 640));
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        assert_eq!(run_session(7, 2, 128), run_session(7, 2, 128));
        assert_ne!(
            run_session(7, 2, 128).transcript,
            run_session(8, 2, 128).transcript
        );
    }
}
