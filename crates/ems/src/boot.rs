//! Secure boot (§VI).
//!
//! "Upon power on, EMS is booted up after the chip original initialization
//! logic, and then followed by CS. Specifically, EMS BootROM is first
//! executed to verify the EMS Runtime, which is encrypted and stored in EMS
//! private flash. The hash value of Runtime is verified against
//! pre-calculated hash value stored in an on-chip EEPROM to avoid physical
//! tampering. Then, the hash of CS firmware and EMCall are verified
//! similarly to prevent tampering. Finally, the CS OS starts its booting
//! process."

use hypertee_crypto::aes::{ctr_iv, Aes128};
use hypertee_crypto::sha256::sha256;
use hypertee_crypto::util::ct_eq;

/// An image as stored at manufacturing time.
#[derive(Debug, Clone)]
pub struct FlashImage {
    /// Encrypted bytes in EMS private flash.
    pub(crate) ciphertext: Vec<u8>,
}

/// The on-chip EEPROM holding pre-calculated hashes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eeprom {
    /// Expected hash of the decrypted EMS runtime.
    pub(crate) runtime_hash: [u8; 32],
    /// Expected hash of the CS firmware (EMCall).
    pub emcall_hash: [u8; 32],
}

/// Stages of the boot chain, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootStage {
    /// Chip initialisation configured EMS/CS address spaces (§III-D ③).
    ChipInit,
    /// BootROM verified and started the EMS runtime.
    EmsRuntime,
    /// CS firmware (EMCall) verified.
    CsFirmware,
    /// CS OS released to boot.
    CsOs,
}

/// Why a boot failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BootError {
    /// EMS runtime hash mismatch (flash tampering).
    RuntimeTampered,
    /// EMCall/CS firmware hash mismatch.
    FirmwareTampered,
}

impl core::fmt::Display for BootError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BootError::RuntimeTampered => write!(f, "EMS runtime image failed verification"),
            BootError::FirmwareTampered => write!(f, "CS firmware (EMCall) failed verification"),
        }
    }
}

impl std::error::Error for BootError {}

/// Result of a successful boot: the decrypted runtime, the platform
/// measurement covering the software TCB, and the completed stage list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BootReport {
    /// Decrypted EMS runtime image (would be jumped into on real hardware).
    pub(crate) runtime_image: Vec<u8>,
    /// Platform measurement = H(runtime_hash ‖ emcall_hash), used in remote
    /// attestation certificates.
    pub platform_measurement: [u8; 32],
    /// Stages completed, in execution order.
    pub stages: Vec<BootStage>,
}

/// The flash-encryption key (derived from manufacturing key material; fixed
/// per device family in this model).
fn flash_cipher(flash_key: &[u8; 16]) -> Aes128 {
    Aes128::new(flash_key)
}

/// Encrypts a runtime image for flash storage (manufacturing-side helper).
pub fn provision_flash(flash_key: &[u8; 16], runtime: &[u8]) -> (FlashImage, Eeprom, [u8; 32]) {
    let mut data = runtime.to_vec();
    flash_cipher(flash_key).ctr_apply(&ctr_iv(0x0046_4c41_5348, 0), &mut data);
    let runtime_hash = sha256(runtime);
    (
        FlashImage { ciphertext: data },
        Eeprom {
            runtime_hash,
            emcall_hash: [0; 32],
        },
        runtime_hash,
    )
}

/// Runs the full boot chain.
///
/// # Errors
///
/// [`BootError::RuntimeTampered`] / [`BootError::FirmwareTampered`] when a
/// hash check fails — the chain stops and the CS OS is never released.
pub fn secure_boot(
    flash_key: &[u8; 16],
    flash: &FlashImage,
    eeprom: &Eeprom,
    emcall_firmware: &[u8],
) -> Result<BootReport, BootError> {
    let mut stages = vec![BootStage::ChipInit];
    // BootROM: decrypt the runtime and verify against the EEPROM hash.
    let mut runtime = flash.ciphertext.clone();
    flash_cipher(flash_key).ctr_apply(&ctr_iv(0x0046_4c41_5348, 0), &mut runtime);
    let runtime_hash = sha256(&runtime);
    if !ct_eq(&runtime_hash, &eeprom.runtime_hash) {
        return Err(BootError::RuntimeTampered);
    }
    stages.push(BootStage::EmsRuntime);
    // EMS verifies the CS firmware (EMCall) before releasing the CS.
    let emcall_hash = sha256(emcall_firmware);
    if !ct_eq(&emcall_hash, &eeprom.emcall_hash) {
        return Err(BootError::FirmwareTampered);
    }
    stages.push(BootStage::CsFirmware);
    stages.push(BootStage::CsOs);
    let mut m = Vec::with_capacity(64);
    m.extend_from_slice(&runtime_hash);
    m.extend_from_slice(&emcall_hash);
    Ok(BootReport {
        runtime_image: runtime,
        platform_measurement: sha256(&m),
        stages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLASH_KEY: [u8; 16] = [0x42; 16];

    fn provision() -> (FlashImage, Eeprom) {
        let runtime = b"EMS runtime v1: 3843 lines of memory-safe Rust";
        let emcall = b"EMCall firmware v1";
        let (flash, mut eeprom, _) = provision_flash(&FLASH_KEY, runtime);
        eeprom.emcall_hash = sha256(emcall);
        (flash, eeprom)
    }

    #[test]
    fn clean_boot_reaches_cs_os() {
        let (flash, eeprom) = provision();
        let report = secure_boot(&FLASH_KEY, &flash, &eeprom, b"EMCall firmware v1").unwrap();
        assert_eq!(
            report.stages,
            vec![
                BootStage::ChipInit,
                BootStage::EmsRuntime,
                BootStage::CsFirmware,
                BootStage::CsOs
            ]
        );
        assert_eq!(
            report.runtime_image,
            b"EMS runtime v1: 3843 lines of memory-safe Rust"
        );
    }

    #[test]
    fn tampered_flash_detected() {
        let (mut flash, eeprom) = provision();
        flash.ciphertext[3] ^= 0x01;
        assert_eq!(
            secure_boot(&FLASH_KEY, &flash, &eeprom, b"EMCall firmware v1"),
            Err(BootError::RuntimeTampered)
        );
    }

    #[test]
    fn tampered_emcall_detected() {
        let (flash, eeprom) = provision();
        assert_eq!(
            secure_boot(&FLASH_KEY, &flash, &eeprom, b"EMCall firmware vX"),
            Err(BootError::FirmwareTampered)
        );
    }

    #[test]
    fn platform_measurement_binds_both_hashes() {
        let (flash, eeprom) = provision();
        let r1 = secure_boot(&FLASH_KEY, &flash, &eeprom, b"EMCall firmware v1").unwrap();
        // A different (legitimately provisioned) firmware yields a different
        // platform measurement.
        let mut eeprom2 = eeprom.clone();
        eeprom2.emcall_hash = sha256(b"EMCall firmware v2");
        let r2 = secure_boot(&FLASH_KEY, &flash, &eeprom2, b"EMCall firmware v2").unwrap();
        assert_ne!(r1.platform_measurement, r2.platform_measurement);
    }

    #[test]
    fn flash_is_actually_encrypted() {
        let (flash, _) = provision();
        let needle = b"memory-safe";
        let hay = &flash.ciphertext;
        let found = hay.windows(needle.len()).any(|w| w == needle);
        assert!(!found, "plaintext must not appear in flash");
    }
}
