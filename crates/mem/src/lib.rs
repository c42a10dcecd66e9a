//! Functional memory subsystem of the HyperTEE reproduction.
//!
//! Everything §IV of the paper describes in hardware is implemented here as
//! *functional* state machines operating on real bytes:
//!
//! * [`addr`] — physical/virtual address newtypes, the 56-bit front-side bus
//!   layout (low 40 bits physical address, high 16 bits KeyID).
//! * [`phys`] — sparse physical memory with a frame allocator.
//! * `bitmap` — the enclave-memory bitmap (one bit per physical page) used
//!   for hardware isolation checks (§IV-B, Fig. 5).
//! * [`ownership`] — the page ownership table EMS keeps in private memory,
//!   extended with shared-memory ownership (§IV-B, §V-B).
//! * [`pagetable`] — Sv39 three-level page tables, stored **inside** the
//!   simulated physical memory exactly like the real MMU sees them.
//! * [`tlb`] — a TLB with the "checked" bit of Fig. 5 and selective flush.
//! * `ptw` — the page-table walker with integrated bitmap checking.
//! * [`snapshot`] — the TLB-coherence predicate used by the lockstep
//!   reference model.
//! * [`mktme`] — the multi-key memory encryption engine with per-KeyID
//!   AES-CTR encryption and the 28-bit SHA-3 integrity MAC.
//! * [`system`] — [`system::MemorySystem`], the façade combining TLB, PTW,
//!   bitmap and encryption into load/store operations with event counters
//!   that the timing model prices.
//!
//! Security behaviour is real, not asserted: reading enclave memory through
//! the wrong KeyID really yields ciphertext and an integrity fault; accessing
//! an enclave page from non-enclave mode really takes the bitmap exception.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod audit;
pub(crate) mod bitmap;
pub mod mktme;
pub mod ownership;
pub mod pagetable;
pub mod phys;
pub(crate) mod ptw;
pub mod snapshot;
pub mod system;
pub mod tlb;
pub(crate) mod walkcache;

/// Faults the memory system can raise, mirroring the hardware exceptions in
/// the paper (§IV-B access exception, §IV-C integrity violation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFault {
    /// No valid translation for the virtual address (demand paging entry).
    PageFault {
        /// Faulting virtual address.
        va: u64,
    },
    /// Bitmap check failed: non-enclave access touched an enclave page.
    BitmapViolation {
        /// Offending physical page number.
        ppn: u64,
    },
    /// PTE permissions deny this access (write to read-only, etc.).
    PermissionDenied {
        /// Faulting virtual address.
        va: u64,
    },
    /// The 28-bit memory-integrity MAC did not verify.
    IntegrityViolation {
        /// Offending physical address (line base).
        pa: u64,
    },
    /// A physical access fell outside installed memory.
    BusError {
        /// Offending physical address.
        pa: u64,
    },
}

impl core::fmt::Display for MemFault {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemFault::PageFault { va } => write!(f, "page fault at va {va:#x}"),
            MemFault::BitmapViolation { ppn } => {
                write!(f, "bitmap violation: enclave page ppn {ppn:#x}")
            }
            MemFault::PermissionDenied { va } => write!(f, "permission denied at va {va:#x}"),
            MemFault::IntegrityViolation { pa } => {
                write!(f, "memory integrity violation at pa {pa:#x}")
            }
            MemFault::BusError { pa } => write!(f, "bus error at pa {pa:#x}"),
        }
    }
}

impl std::error::Error for MemFault {}
