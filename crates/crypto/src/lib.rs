//! Cryptographic primitives for the HyperTEE reproduction.
//!
//! The paper's Enclave Management Subsystem (EMS) performs measurement,
//! attestation, sealing, and memory encryption. Its runtime is described as
//! "3843 lines of code written in memory-safe Rust" (§VIII-A), so this crate
//! mirrors that spirit: every primitive is implemented in-tree, in safe Rust,
//! with no external cryptography dependencies. The single exception is the
//! three runtime-dispatched hardware backends (AVX-512 Keccak, AES-NI,
//! SHA-NI), whose intrinsics require `unsafe`; they sit behind the same
//! safe APIs, fall back to the portable paths on other hosts, and are
//! pinned against the safe reference implementations by KATs and
//! differential tests.
//!
//! Provided primitives:
//!
//! * [`aes`] — AES-128 block cipher with ECB and CTR modes (models the
//!   multi-key memory encryption engine of §IV-C and the crypto engine of
//!   Table III).
//! * [`sha256`] — SHA-256 (crypto-engine digest: measurement, KDF, HMAC,
//!   SIGMA transcripts).
//! * [`sha3`] — SHA3-256 / Keccak-f\[1600\] (memory-integrity MAC base, §IV-C).
//! * [`mac`] — the 28-bit truncated SHA-3 MAC used for enclave memory
//!   integrity, as employed by commercial TEEs (paper cites \[61\]).
//! * [`hmac`] — HMAC-SHA256 and an HKDF-style key-derivation function used by
//!   EMS key management (§VI).
//! * [`chacha`] — ChaCha20 block function and a deterministic random bit
//!   generator used wherever EMS needs randomness (pool thresholds, swap
//!   selection, salts).
//! * [`fnv`] — FNV-1a-64, the non-cryptographic fold behind the mailbox
//!   checksum and every replayable trace hash.
//! * [`ed`], [`ecdh`], [`sig`] — Curve25519 in twisted-Edwards form, an ECDH
//!   exchange for local attestation (§VI), and Schnorr signatures for remote
//!   attestation certificates (EK/AK signing, §VI).
//!
//! # Example
//!
//! ```
//! use hypertee_crypto::{sig::Keypair, chacha::ChaChaRng};
//!
//! let mut rng = ChaChaRng::from_seed([7u8; 32]);
//! let kp = Keypair::generate(&mut rng);
//! let sig = kp.sign(b"enclave measurement");
//! assert!(kp.public.verify(b"enclave measurement", &sig));
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod chacha;
pub mod ecdh;
pub mod ed;
pub mod fe;
pub mod fnv;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
pub(crate) mod keccak_avx512;
pub mod mac;
pub mod merkle;
pub mod scalar;
pub mod sha256;
pub mod sha3;
pub mod sig;
pub mod u256;
pub mod util;

/// The CPU features that runtime dispatch keys its kernels on, each with
/// whether this host has it: `aes` selects the AES-NI CTR path, `bmi2` (with
/// BMI1) the `andn`-scheduled Keccak, `avx512f` the eight-lane line MAC,
/// `sha` (with SSE4.1) the SHA-NI SHA-256 compression.
pub fn dispatched_kernels() -> [(&'static str, bool); 4] {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        [
            ("aes", has!("aes")),
            ("bmi2", has!("bmi2") && has!("bmi1")),
            ("avx512f", has!("avx512f")),
            ("sha", has!("sha") && has!("sse4.1")),
        ]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        [
            ("aes", false),
            ("bmi2", false),
            ("avx512f", false),
            ("sha", false),
        ]
    }
}

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoError {
    /// An encoded point was not on the curve or malformed.
    InvalidPoint,
    /// An encoded scalar was out of range.
    InvalidScalar,
    /// A signature failed verification.
    BadSignature,
    /// A MAC check failed (memory-integrity violation).
    BadMac,
    /// Input had an invalid length for the operation.
    BadLength,
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::InvalidPoint => write!(f, "encoded point is invalid"),
            CryptoError::InvalidScalar => write!(f, "encoded scalar is invalid"),
            CryptoError::BadSignature => write!(f, "signature verification failed"),
            CryptoError::BadMac => write!(f, "mac verification failed"),
            CryptoError::BadLength => write!(f, "input length is invalid"),
        }
    }
}

impl std::error::Error for CryptoError {}
