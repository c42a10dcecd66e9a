//! Enclave control structures, kept in EMS private memory.

use hypertee_crypto::sha256::Sha256;
use hypertee_mem::addr::{KeyId, Ppn, VirtAddr};
use hypertee_mem::ownership::EnclaveId;
use hypertee_mem::pagetable::PageTable;

/// Life-cycle state of an enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnclaveState {
    /// Created; pages may still be added (EADD).
    Building,
    /// Measurement finalised (EMEAS); ready to enter.
    Measured,
    /// Currently executing on a CS core.
    Running,
    /// Exited/interrupted but resumable.
    Stopped,
    /// KeyID released to relieve exhaustion; must be resumed by EMS.
    Suspended,
}

/// Virtual-address layout constants of the enclave address space.
pub mod layout {
    use hypertee_mem::addr::VirtAddr;

    /// Base of the code/data image region (EADD destination).
    pub const CODE_BASE: VirtAddr = VirtAddr(0x1000_0000);
    /// Base of the stack region (grows upward in the model).
    pub const STACK_BASE: VirtAddr = VirtAddr(0x1800_0000);
    /// Base of the heap region (EALLOC mappings).
    pub const HEAP_BASE: VirtAddr = VirtAddr(0x2000_0000);
    /// Base of the HostApp↔enclave shared window.
    pub const HOST_SHARED_BASE: VirtAddr = VirtAddr(0x3000_0000);
    /// Base of the enclave↔enclave shared-memory attach area.
    pub const SHM_BASE: VirtAddr = VirtAddr(0x4000_0000);
}

/// Resource declaration from the enclave configuration file (§III-B:
/// "a configuration file is needed to declare the resource requirements of
/// the enclave, including heap and stack memory sizes, etc.").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnclaveConfig {
    /// Maximum heap size in bytes.
    pub heap_max: u64,
    /// Stack size in bytes (statically allocated at creation).
    pub stack_bytes: u64,
    /// HostApp↔enclave shared window size in bytes.
    pub host_shared_bytes: u64,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            heap_max: 32 * 1024 * 1024,
            stack_bytes: 64 * 1024,
            host_shared_bytes: 64 * 1024,
        }
    }
}

/// Incremental measurement state (SHA-256 chain over ECREATE config and
/// every EADD chunk, finalised by EMEAS).
#[derive(Debug, Clone)]
pub(crate) enum Measurement {
    /// Still accumulating.
    InProgress(Sha256),
    /// Finalised digest.
    Final([u8; 32]),
}

impl Measurement {
    /// Finalised digest, if available.
    pub(crate) fn digest(&self) -> Option<[u8; 32]> {
        match self {
            Measurement::Final(d) => Some(*d),
            Measurement::InProgress(_) => None,
        }
    }
}

/// The per-enclave control structure.
#[derive(Debug)]
pub struct EnclaveControl {
    /// Unique enclave identifier.
    pub(crate) id: EnclaveId,
    /// Life-cycle state.
    pub(crate) state: EnclaveState,
    /// The dedicated enclave page table (§IV-A).
    pub(crate) page_table: PageTable,
    /// Frames holding the page table itself (enclave memory, EMS-owned).
    pub(crate) pt_frames: Vec<Ppn>,
    /// Memory-encryption KeyID (`None` while suspended).
    pub(crate) key: Option<KeyId>,
    /// The KeyID held before suspension (identifies which PTEs to rewrite
    /// on resume; shared-memory PTEs keep their own KeyIDs).
    pub(crate) prev_key: Option<KeyId>,
    /// Key-derivation nonce (lets EMS re-program the key after suspension).
    pub(crate) key_nonce: [u8; 32],
    /// Measurement state.
    pub(crate) measurement: Measurement,
    /// Resource configuration.
    pub(crate) config: EnclaveConfig,
    /// Entry point recorded at first EADD.
    pub(crate) entry: VirtAddr,
    /// Next free heap VA (bump allocation for EALLOC).
    pub(crate) heap_cursor: VirtAddr,
    /// Next free shm-attach VA.
    pub(crate) shm_cursor: VirtAddr,
    /// Private data pages (code + stack + heap), for destroy-time reclaim.
    pub(crate) data_frames: Vec<Ppn>,
    /// Context-switch count (timing input: each costs a TLB flush).
    pub(crate) switches: u64,
}

impl EnclaveControl {
    /// Creates a fresh control structure in the `Building` state.
    pub fn new(
        id: EnclaveId,
        page_table: PageTable,
        pt_frames: Vec<Ppn>,
        key: KeyId,
        key_nonce: [u8; 32],
        config: EnclaveConfig,
    ) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(b"hypertee-ecreate");
        hasher.update(&config.heap_max.to_le_bytes());
        hasher.update(&config.stack_bytes.to_le_bytes());
        hasher.update(&config.host_shared_bytes.to_le_bytes());
        EnclaveControl {
            id,
            state: EnclaveState::Building,
            page_table,
            pt_frames,
            key: Some(key),
            prev_key: None,
            key_nonce,
            measurement: Measurement::InProgress(hasher),
            config,
            entry: layout::CODE_BASE,
            heap_cursor: layout::HEAP_BASE,
            shm_cursor: layout::SHM_BASE,
            data_frames: Vec::new(),
            switches: 0,
        }
    }

    /// Extends the measurement with an EADD chunk (va, perms byte, data).
    ///
    /// # Panics
    ///
    /// Panics if the measurement was already finalised (callers must check
    /// state first; this is an internal invariant).
    pub fn extend_measurement(&mut self, va: VirtAddr, perm_bits: u8, data: &[u8]) {
        match &mut self.measurement {
            Measurement::InProgress(h) => {
                h.update(b"hypertee-eadd");
                h.update(&va.0.to_le_bytes());
                h.update(&[perm_bits]);
                h.update(&(data.len() as u64).to_le_bytes());
                h.update(data);
            }
            Measurement::Final(_) => panic!("measurement already finalised"),
        }
    }

    /// Finalises the measurement (EMEAS).
    pub fn finalize_measurement(&mut self) -> [u8; 32] {
        match &self.measurement {
            Measurement::InProgress(h) => {
                let digest = h.clone().finalize();
                self.measurement = Measurement::Final(digest);
                digest
            }
            Measurement::Final(d) => *d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn control() -> EnclaveControl {
        EnclaveControl::new(
            EnclaveId(1),
            PageTable { root: Ppn(100) },
            vec![Ppn(100)],
            KeyId(1),
            [7; 32],
            EnclaveConfig::default(),
        )
    }

    #[test]
    fn measurement_covers_config() {
        let mut a = control();
        let mut b = EnclaveControl::new(
            EnclaveId(2),
            PageTable { root: Ppn(200) },
            vec![Ppn(200)],
            KeyId(2),
            [7; 32],
            EnclaveConfig {
                heap_max: 1,
                ..EnclaveConfig::default()
            },
        );
        assert_ne!(a.finalize_measurement(), b.finalize_measurement());
    }

    #[test]
    fn measurement_covers_content_and_layout() {
        let mut a = control();
        let mut b = control();
        a.extend_measurement(VirtAddr(0x1000_0000), 0b101, b"code");
        b.extend_measurement(VirtAddr(0x1000_1000), 0b101, b"code");
        assert_ne!(
            a.finalize_measurement(),
            b.finalize_measurement(),
            "va is measured"
        );
        let mut c = control();
        let mut d = control();
        c.extend_measurement(VirtAddr(0x1000_0000), 0b101, b"code");
        d.extend_measurement(VirtAddr(0x1000_0000), 0b111, b"code");
        assert_ne!(
            c.finalize_measurement(),
            d.finalize_measurement(),
            "perms are measured"
        );
    }

    #[test]
    fn identical_builds_measure_identically() {
        let mut a = control();
        let mut b = control();
        for ctl in [&mut a, &mut b] {
            ctl.extend_measurement(VirtAddr(0x1000_0000), 0b101, b"the enclave image");
        }
        assert_eq!(a.finalize_measurement(), b.finalize_measurement());
    }

    #[test]
    fn finalize_is_idempotent() {
        let mut c = control();
        let d1 = c.finalize_measurement();
        let d2 = c.finalize_measurement();
        assert_eq!(d1, d2);
        assert_eq!(c.measurement.digest(), Some(d1));
    }

    #[test]
    #[should_panic(expected = "already finalised")]
    fn extend_after_finalize_panics() {
        let mut c = control();
        c.finalize_measurement();
        c.extend_measurement(VirtAddr(0x1000_0000), 0, b"late");
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        assert!(layout::CODE_BASE < layout::STACK_BASE);
        assert!(layout::STACK_BASE < layout::HEAP_BASE);
        assert!(layout::HEAP_BASE < layout::HOST_SHARED_BASE);
        assert!(layout::HOST_SHARED_BASE < layout::SHM_BASE);
    }
}
