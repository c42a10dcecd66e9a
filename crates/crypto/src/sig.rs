//! Deterministic Schnorr signatures over the Curve25519 Edwards group.
//!
//! These back the paper's attestation certificates (§VI): the Endorsement
//! Key (EK) signs platform measurements and the Attestation Key (AK) signs
//! enclave measurements. The scheme is textbook Schnorr with a deterministic
//! nonce (hash of a per-key seed and the message), giving EdDSA-style
//! robustness against nonce reuse without needing an entropy source at
//! signing time.

use crate::chacha::ChaChaRng;
use crate::ed::Point;
use crate::scalar::Scalar;
use crate::sha256::Sha256;
use crate::CryptoError;

/// A public verification key (a curve point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PublicKey(pub Point);

/// A Schnorr signature: commitment point R and response scalar s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Commitment R = r·B.
    pub r: Point,
    /// Response s = r + e·a (mod L).
    pub s: Scalar,
}

impl Signature {
    /// Serializes to 96 bytes: enc(R) ‖ s.
    pub fn to_bytes(&self) -> [u8; 96] {
        let mut out = [0u8; 96];
        out[..64].copy_from_slice(&self.r.encode());
        out[64..].copy_from_slice(&self.s.to_le_bytes());
        out
    }

    /// Parses a 96-byte signature. `s` must be canonical (< L), so a
    /// signature has exactly one accepted byte form.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] when R is off-curve or
    /// non-canonical, and [`CryptoError::InvalidScalar`] when s ≥ L.
    pub fn from_bytes(bytes: &[u8; 96]) -> Result<Signature, CryptoError> {
        let r = Point::decode(&bytes[..64].try_into().expect("64 bytes"))?;
        let s = Scalar::from_canonical_le_bytes(&bytes[64..].try_into().expect("32 bytes"))
            .ok_or(CryptoError::InvalidScalar)?;
        Ok(Signature { r, s })
    }
}

/// A signing keypair.
#[derive(Clone)]
pub struct Keypair {
    /// Secret scalar.
    secret: Scalar,
    /// Deterministic-nonce seed.
    seed: [u8; 32],
    /// The public key a·B.
    pub public: PublicKey,
}

impl core::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Keypair {{ public: {:?}, secret: <redacted> }}",
            self.public
        )
    }
}

/// The curve and scalar arithmetic a signature runs on: the fast paths,
/// or the seed algorithms kept as oracles (`*_ref`).
#[derive(Clone, Copy)]
enum Arith {
    Fast,
    Ref,
}

impl Arith {
    fn mul_base(self, k: &Scalar) -> Point {
        match self {
            Arith::Fast => Point::mul_base(k),
            Arith::Ref => Point::base().mul_ref(k),
        }
    }

    fn mul(self, p: &Point, k: &Scalar) -> Point {
        match self {
            Arith::Fast => p.mul(k),
            Arith::Ref => p.mul_ref(k),
        }
    }

    fn encode(self, p: &Point) -> [u8; 64] {
        match self {
            Arith::Fast => p.encode(),
            Arith::Ref => p.encode_ref(),
        }
    }

    fn scalar_wide(self, wide: &[u8; 64]) -> Scalar {
        match self {
            Arith::Fast => Scalar::from_le_bytes_wide(wide),
            Arith::Ref => Scalar::from_le_bytes_wide_ref(wide),
        }
    }

    fn scalar_mul(self, a: &Scalar, b: &Scalar) -> Scalar {
        match self {
            Arith::Fast => a.mul(b),
            Arith::Ref => a.mul_ref(b),
        }
    }
}

fn challenge(arith: Arith, r: &Point, a: &Point, msg: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(b"hypertee-schnorr-v1");
    h.update(&arith.encode(r));
    h.update(&arith.encode(a));
    h.update(msg);
    let d1 = h.finalize();
    // Widen to 64 bytes with a second domain-separated digest so the scalar
    // reduction is statistically uniform.
    let mut h2 = Sha256::new();
    h2.update(b"hypertee-schnorr-v1-wide");
    h2.update(&d1);
    let d2 = h2.finalize();
    let mut wide = [0u8; 64];
    wide[..32].copy_from_slice(&d1);
    wide[32..].copy_from_slice(&d2);
    arith.scalar_wide(&wide)
}

impl Keypair {
    /// Generates a fresh keypair from the given RNG.
    pub fn generate(rng: &mut ChaChaRng) -> Keypair {
        let secret = Scalar::random(rng);
        let seed = rng.gen_bytes32();
        Keypair::new(secret, seed)
    }

    /// Derives a keypair deterministically from 32 bytes of key material —
    /// how EMS turns `kdf(SK, "attestation", salt)` output into an AK (§VI).
    pub fn from_key_material(material: &[u8; 32]) -> Keypair {
        let mut h = Sha256::new();
        h.update(b"hypertee-keygen-scalar");
        h.update(material);
        let d1 = h.finalize();
        let mut h2 = Sha256::new();
        h2.update(b"hypertee-keygen-wide");
        h2.update(material);
        let d2 = h2.finalize();
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d1);
        wide[32..].copy_from_slice(&d2);
        let mut secret = Scalar::from_le_bytes_wide(&wide);
        if secret.is_zero() {
            secret = Scalar::ONE; // Unreachable in practice; keeps the API total.
        }
        let mut h3 = Sha256::new();
        h3.update(b"hypertee-keygen-seed");
        h3.update(material);
        let seed = h3.finalize();
        Keypair::new(secret, seed)
    }

    /// Builds the keypair with its public point normalised once (Z = 1),
    /// so every signature's challenge encodes it without an inversion.
    fn new(secret: Scalar, seed: [u8; 32]) -> Keypair {
        Keypair {
            secret,
            seed,
            public: PublicKey(Point::mul_base(&secret).normalize()),
        }
    }

    /// Signs a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.sign_with(Arith::Fast, msg)
    }

    /// [`Keypair::sign`] on the seed arithmetic: the differential oracle.
    pub fn sign_ref(&self, msg: &[u8]) -> Signature {
        self.sign_with(Arith::Ref, msg)
    }

    fn sign_with(&self, arith: Arith, msg: &[u8]) -> Signature {
        // Deterministic nonce r = H(seed ‖ msg) widened mod L.
        let mut h = Sha256::new();
        h.update(b"hypertee-schnorr-nonce");
        h.update(&self.seed);
        h.update(msg);
        let d1 = h.finalize();
        let mut h2 = Sha256::new();
        h2.update(b"hypertee-schnorr-nonce-wide");
        h2.update(&d1);
        let d2 = h2.finalize();
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(&d1);
        wide[32..].copy_from_slice(&d2);
        let mut r = arith.scalar_wide(&wide);
        if r.is_zero() {
            r = Scalar::ONE;
        }
        // Normalised once: this challenge, the wire bytes and every
        // verifier's challenge all encode R.
        let big_r = arith.mul_base(&r).normalize();
        let e = challenge(arith, &big_r, &self.public.0, msg);
        let s = r.add(&arith.scalar_mul(&e, &self.secret));
        Signature { r: big_r, s }
    }
}

impl PublicKey {
    /// Verifies a signature over `msg`. Returns `true` on success.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_with(Arith::Fast, msg, sig)
    }

    /// [`PublicKey::verify`] on the seed arithmetic: the differential
    /// oracle and benchmark baseline.
    pub fn verify_ref(&self, msg: &[u8], sig: &Signature) -> bool {
        self.verify_with(Arith::Ref, msg, sig)
    }

    fn verify_with(&self, arith: Arith, msg: &[u8], sig: &Signature) -> bool {
        let e = challenge(arith, &sig.r, &self.0, msg);
        // s·B == R + e·A.
        let lhs = arith.mul_base(&sig.s);
        let rhs = sig.r.add(&arith.mul(&self.0, &e));
        lhs == rhs
    }

    /// Serializes to 64 bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0.encode()
    }

    /// Parses a 64-byte public key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] for off-curve or non-canonical
    /// encodings.
    pub fn from_bytes(bytes: &[u8; 64]) -> Result<PublicKey, CryptoError> {
        Ok(PublicKey(Point::decode(bytes)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let mut rng = ChaChaRng::from_u64(1);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"enclave measurement");
        assert!(kp.public.verify(b"enclave measurement", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = ChaChaRng::from_u64(2);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"original");
        assert!(!kp.public.verify(b"tampered", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = ChaChaRng::from_u64(3);
        let kp1 = Keypair::generate(&mut rng);
        let kp2 = Keypair::generate(&mut rng);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public.verify(b"msg", &sig));
    }

    #[test]
    fn signature_serialization_roundtrip() {
        let mut rng = ChaChaRng::from_u64(4);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"serialize me");
        let restored = Signature::from_bytes(&sig.to_bytes()).unwrap();
        assert!(kp.public.verify(b"serialize me", &restored));
    }

    #[test]
    fn deterministic_signing() {
        let kp = Keypair::from_key_material(&[0x17; 32]);
        let s1 = kp.sign(b"same message");
        let s2 = kp.sign(b"same message");
        assert_eq!(s1, s2, "deterministic nonce must give identical signatures");
    }

    #[test]
    fn tampered_s_rejected() {
        let mut rng = ChaChaRng::from_u64(5);
        let kp = Keypair::generate(&mut rng);
        let mut sig = kp.sign(b"msg");
        sig.s = sig.s.add(&Scalar::ONE);
        assert!(!kp.public.verify(b"msg", &sig));
    }

    #[test]
    fn key_material_derivation_is_stable() {
        let a = Keypair::from_key_material(&[9; 32]);
        let b = Keypair::from_key_material(&[9; 32]);
        assert_eq!(a.public, b.public);
        let c = Keypair::from_key_material(&[10; 32]);
        assert_ne!(a.public, c.public);
    }
}
