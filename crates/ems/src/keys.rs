//! The EMS key vault (§VI, "Key management").
//!
//! "HyperTEE derives all keys from the root keys, including Endorsement Key
//! (EK) issued by certificate authority and Sealed Key (SK) randomly
//! generated. Both EK and SK are burnt into the eFuse of EMS during
//! manufacturing… All key operations are carried out on EMS and are
//! invisible to CS. When keys are no longer useful, EMS erases them with
//! random values."

use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::hmac::{kdf, kdf_aes128};
use hypertee_crypto::sig::Keypair;

/// The one-time-programmable eFuse contents burnt at manufacturing.
#[derive(Clone)]
pub struct EFuse {
    /// Endorsement-key material (the CA-issued identity root).
    pub(crate) ek_material: [u8; 32],
    /// Sealed Key: the randomly generated symmetric root.
    pub(crate) sk: [u8; 32],
}

impl core::fmt::Debug for EFuse {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "EFuse {{ <one-time-programmable, redacted> }}")
    }
}

impl EFuse {
    /// "Burns" an eFuse at manufacturing time from a manufacturing RNG.
    pub fn burn(rng: &mut ChaChaRng) -> EFuse {
        EFuse {
            ek_material: rng.gen_bytes32(),
            sk: rng.gen_bytes32(),
        }
    }
}

/// The key vault living in EMS private memory.
pub(crate) struct KeyVault {
    efuse: EFuse,
    /// Endorsement keypair (platform identity).
    pub(crate) ek: Keypair,
    /// Attestation keypair, derived from SK and a random salt (§VI).
    pub(crate) ak: Keypair,
    /// The AK derivation salt (public, part of the platform certificate).
    pub(crate) ak_salt: [u8; 32],
}

impl core::fmt::Debug for KeyVault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "KeyVault {{ <EMS-private, redacted> }}")
    }
}

impl KeyVault {
    /// Opens the vault from the eFuse at EMS boot.
    pub(crate) fn open(efuse: EFuse, rng: &mut ChaChaRng) -> KeyVault {
        let ek = Keypair::from_key_material(&efuse.ek_material);
        let ak_salt = rng.gen_bytes32();
        let ak_material = kdf(&efuse.sk, b"attestation-key", &ak_salt);
        let ak = Keypair::from_key_material(&ak_material);
        KeyVault {
            efuse,
            ek,
            ak,
            ak_salt,
        }
    }

    /// The raw sealed key, crate-internal (CVM key derivations in `cvm.rs`).
    pub(crate) fn sk(&self) -> [u8; 32] {
        self.efuse.sk
    }

    /// Derives an enclave's private memory-encryption key (AES-128) and the
    /// matching integrity MAC key.
    pub(crate) fn enclave_memory_keys(
        &self,
        enclave_id: u64,
        nonce: &[u8; 32],
    ) -> ([u8; 16], [u8; 32]) {
        let mut ctx = Vec::with_capacity(40);
        ctx.extend_from_slice(&enclave_id.to_le_bytes());
        ctx.extend_from_slice(nonce);
        let aes = kdf_aes128(&self.efuse.sk, b"enclave-memory", &ctx);
        let mac = kdf(&self.efuse.sk, b"enclave-memory-mac", &ctx);
        (aes, mac)
    }

    /// Derives a shared-memory key from the initial sender's enclave ID and
    /// the ShmID assigned by EMS (§V-A: "derive keys using the initial
    /// sender EnclaveID and the shared memory identification").
    pub(crate) fn shm_keys(&self, sender_id: u64, shm_id: u64) -> ([u8; 16], [u8; 32]) {
        let mut ctx = [0u8; 16];
        ctx[..8].copy_from_slice(&sender_id.to_le_bytes());
        ctx[8..].copy_from_slice(&shm_id.to_le_bytes());
        let aes = kdf_aes128(&self.efuse.sk, b"shm-key", &ctx);
        let mac = kdf(&self.efuse.sk, b"shm-mac", &ctx);
        (aes, mac)
    }

    /// Derives the sealing key for an enclave measurement (§VI, "Data
    /// sealing": "based on the enclave measurement and the device-unique SK").
    pub(crate) fn sealing_key(&self, measurement: &[u8; 32]) -> [u8; 32] {
        kdf(&self.efuse.sk, b"sealing", measurement)
    }

    /// Derives the local-attestation report key from the *challenger's*
    /// measurement and SK (§VI, "Local attestation").
    pub(crate) fn report_key(&self, challenger_measurement: &[u8; 32]) -> [u8; 32] {
        kdf(&self.efuse.sk, b"report", challenger_measurement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vault() -> KeyVault {
        let mut rng = ChaChaRng::from_u64(2024);
        let efuse = EFuse::burn(&mut rng);
        KeyVault::open(efuse, &mut rng)
    }

    #[test]
    fn ek_is_stable_per_efuse() {
        let mut rng = ChaChaRng::from_u64(1);
        let efuse = EFuse::burn(&mut rng);
        let v1 = KeyVault::open(efuse.clone(), &mut ChaChaRng::from_u64(2));
        let v2 = KeyVault::open(efuse, &mut ChaChaRng::from_u64(3));
        assert_eq!(v1.ek.public, v2.ek.public, "EK is an eFuse-rooted identity");
        // AK differs because its salt is random per boot.
        assert_ne!(v1.ak.public, v2.ak.public);
    }

    #[test]
    fn per_enclave_keys_differ() {
        let v = vault();
        let (a1, m1) = v.enclave_memory_keys(1, &[0; 32]);
        let (a2, m2) = v.enclave_memory_keys(2, &[0; 32]);
        assert_ne!(a1, a2);
        assert_ne!(m1, m2);
        // Same enclave, different nonce → different keys (fresh per create).
        let (a3, _) = v.enclave_memory_keys(1, &[1; 32]);
        assert_ne!(a1, a3);
    }

    #[test]
    fn shm_keys_bind_sender_and_shmid() {
        let v = vault();
        let (k1, _) = v.shm_keys(1, 10);
        let (k2, _) = v.shm_keys(2, 10);
        let (k3, _) = v.shm_keys(1, 11);
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn sealing_key_binds_measurement() {
        let v = vault();
        assert_ne!(v.sealing_key(&[1; 32]), v.sealing_key(&[2; 32]));
        // Deterministic for the same measurement (unsealing works later).
        assert_eq!(v.sealing_key(&[1; 32]), v.sealing_key(&[1; 32]));
    }

    #[test]
    fn report_key_binds_challenger() {
        let v = vault();
        assert_ne!(v.report_key(&[1; 32]), v.report_key(&[2; 32]));
    }
}
