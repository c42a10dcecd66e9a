//! NIC controller workload (§VII-D scenario ②).
//!
//! "Our experiments show that network applications have less computation,
//! and the encryption and decryption operations occupy more than 98.0% of
//! the total transmission time. HyperTEE achieves 50× performance
//! improvement."
//!
//! The model: a user enclave streams packets to a driver enclave which
//! forwards them to the NIC via DMA. In conventional TEEs each byte is
//! software-encrypted into non-enclave memory and decrypted by the driver;
//! HyperTEE uses protected shared memory and the DMA whitelist instead.

use hypertee_sim::latency::{COPY_CPB_CS, SW_AES_CPB_CS};

/// Per-transfer cycle breakdown.
#[derive(Debug, Clone, Copy)]
pub struct TransferTime {
    /// Software encryption + decryption cycles.
    pub crypto: f64,
    /// Copy/descriptor/DMA-setup cycles.
    pub plumbing: f64,
}

impl TransferTime {
    /// Total cycles.
    pub fn total(&self) -> f64 {
        self.crypto + self.plumbing
    }

    /// Fraction of time in software crypto.
    pub fn crypto_share(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            self.crypto / self.total()
        }
    }
}

/// Fixed per-packet plumbing cost (descriptor setup, doorbell) in cycles.
pub const PER_PACKET_CYCLES: f64 = 300.0;

/// Per-byte driver processing (checksums, descriptor rings) in CS cycles —
/// calibrated with the copy cost so software crypto is 98.0% of the
/// conventional path and the HyperTEE speedup lands at ~50× (§VII-D ②).
pub const DRIVER_PROC_CPB: f64 = 0.55;

/// Conventional path: encrypt at the user enclave, decrypt at the driver
/// enclave, plus two copies through non-enclave memory.
pub fn conventional(bytes: u64, packets: u64) -> TransferTime {
    TransferTime {
        crypto: 2.0 * bytes as f64 * SW_AES_CPB_CS,
        plumbing: bytes as f64 * (2.0 * COPY_CPB_CS + DRIVER_PROC_CPB)
            + packets as f64 * PER_PACKET_CYCLES,
    }
}

/// HyperTEE path: one plaintext copy through shared enclave memory; the
/// NIC DMA reads the device-shared region directly.
pub fn hypertee(bytes: u64, packets: u64) -> TransferTime {
    TransferTime {
        crypto: 0.0,
        plumbing: bytes as f64 * (2.0 * COPY_CPB_CS + DRIVER_PROC_CPB)
            + packets as f64 * PER_PACKET_CYCLES,
    }
}

/// Fig. 12's NIC speedup for a bulk transfer.
pub fn speedup(bytes: u64, packets: u64) -> f64 {
    conventional(bytes, packets).total() / hypertee(bytes, packets).total()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_dominates_conventional_path() {
        // Paper: > 98.0% of transmission time is encryption/decryption.
        let t = conventional(64 << 20, 4096);
        assert!(t.crypto_share() > 0.98, "share {:.4}", t.crypto_share());
    }

    #[test]
    fn fig12_nic_speedup_about_50x() {
        let s = speedup(64 << 20, 4096);
        assert!(s > 45.0 && s < 55.0, "NIC speedup {s:.1} (paper: 50x)");
    }

    #[test]
    fn tiny_transfers_are_plumbing_bound() {
        // One 64-byte packet: fixed costs dominate, speedup collapses —
        // the crossover the shared-memory design implies.
        let s = speedup(64, 1);
        assert!(s < 12.0, "tiny-transfer speedup {s:.2}");
        assert!(s < speedup(64 << 20, 4096) / 4.0);
    }
}
