//! Cross-structure consistency audit.
//!
//! The management plane keeps four views of who owns physical memory: the
//! enclave bitmap (hardware access control), the ownership table (EMS
//! bookkeeping), the per-enclave page tables (what software can actually
//! reach), and the pool accounting (free/used counters). A fault injected
//! between two mutations could make them disagree — this module checks the
//! containment chain after every injection:
//!
//! 1. bitmap-marked frames = owned frames ∪ pool-free frames (both ways);
//! 2. no frame is simultaneously owned and pool-free;
//! 3. pool `used` equals the ownership-table population (every pool take is
//!    paired with a claim);
//! 4. every enclave leaf PTE points at a frame the enclave may reach: the
//!    host window (KeyID 0) at non-enclave frames, everything else at
//!    frames owned by that enclave or by a shared region.

use crate::addr::{KeyId, Ppn, VirtAddr};
use crate::ownership::{EnclaveId, OwnershipTable, PageOwner};
use crate::pagetable::PageTable;
use crate::system::MemorySystem;
use crate::MemFault;
use std::collections::BTreeSet;

/// A violated invariant, pinpointing the first offending frame or PTE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditError {
    /// A frame is bitmap-marked enclave but neither owned nor pool-free.
    UntrackedEnclaveFrame {
        /// The offending frame.
        ppn: Ppn,
    },
    /// An owned or pool-free frame is missing its bitmap bit.
    MissingBitmapBit {
        /// The offending frame.
        ppn: Ppn,
    },
    /// A frame appears both in the ownership table and the pool free list.
    FreeButOwned {
        /// The offending frame.
        ppn: Ppn,
    },
    /// Pool `used` disagrees with the ownership-table population.
    PoolAccountingMismatch {
        /// The pool's used-frame counter.
        used: u64,
        /// The ownership table's entry count.
        owned: u64,
    },
    /// An enclave leaf PTE points at a frame the enclave does not own.
    DanglingPte {
        /// The enclave whose table holds the PTE.
        eid: EnclaveId,
        /// The mapped virtual address.
        va: VirtAddr,
    },
    /// A host-window (KeyID 0) PTE points at enclave-marked memory.
    HostWindowEnclaveFrame {
        /// The enclave whose table holds the PTE.
        eid: EnclaveId,
        /// The mapped virtual address.
        va: VirtAddr,
    },
    /// The audit itself could not read a structure.
    Fault(MemFault),
}

impl From<MemFault> for AuditError {
    fn from(f: MemFault) -> AuditError {
        AuditError::Fault(f)
    }
}

impl core::fmt::Display for AuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuditError::UntrackedEnclaveFrame { ppn } => {
                write!(f, "frame {ppn:?} bitmap-marked but untracked")
            }
            AuditError::MissingBitmapBit { ppn } => {
                write!(f, "frame {ppn:?} tracked but bitmap-unmarked")
            }
            AuditError::FreeButOwned { ppn } => {
                write!(f, "frame {ppn:?} both owned and pool-free")
            }
            AuditError::PoolAccountingMismatch { used, owned } => {
                write!(f, "pool used={used} but ownership holds {owned}")
            }
            AuditError::DanglingPte { eid, va } => {
                write!(f, "enclave {eid:?} maps {va:?} to a frame it does not own")
            }
            AuditError::HostWindowEnclaveFrame { eid, va } => {
                write!(
                    f,
                    "enclave {eid:?} host window {va:?} points at enclave memory"
                )
            }
            AuditError::Fault(m) => write!(f, "audit read fault: {m}"),
        }
    }
}

impl std::error::Error for AuditError {}

/// What a passing audit covered (observability for tests and reports).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsistencyAudit {
    /// Frames scanned in the bitmap sweep.
    pub frames_scanned: u64,
    /// Frames currently bitmap-marked as enclave memory.
    pub enclave_marked: u64,
    /// Entries in the ownership table.
    pub owned: u64,
    /// Frames on the pool free list.
    pub pool_free: u64,
    /// Leaf PTEs walked across all audited enclave tables.
    pub leaves_checked: u64,
}

impl ConsistencyAudit {
    /// Runs the full audit. `tables` carries the page tables of enclaves
    /// whose structures are supposed to be consistent (the EMS side excludes
    /// poisoned enclaves — their only legal future is EDESTROY).
    ///
    /// # Errors
    ///
    /// The first violated invariant, or [`AuditError::Fault`] when a
    /// structure could not be read.
    pub fn run(
        sys: &mut MemorySystem,
        ownership: &OwnershipTable,
        pool_free: &[Ppn],
        pool_used: u64,
        tables: &[(EnclaveId, PageTable)],
    ) -> Result<ConsistencyAudit, AuditError> {
        let mut audit = ConsistencyAudit::default();

        let owned: BTreeSet<u64> = ownership.iter().map(|(p, _)| p.0).collect();
        let free: BTreeSet<u64> = pool_free.iter().map(|p| p.0).collect();
        audit.owned = owned.len() as u64;
        audit.pool_free = free.len() as u64;

        // ② Disjointness first (cheap, and ① below assumes it).
        if let Some(&both) = owned.intersection(&free).next() {
            return Err(AuditError::FreeButOwned { ppn: Ppn(both) });
        }

        // ③ Every pool take pairs with an ownership claim.
        if pool_used != audit.owned {
            return Err(AuditError::PoolAccountingMismatch {
                used: pool_used,
                owned: audit.owned,
            });
        }

        // ① Bitmap sweep: marked ⇔ (owned ∪ pool-free).
        audit.frames_scanned = sys.bitmap.covered_frames;
        for ppn in 0..sys.bitmap.covered_frames {
            // The bitmap's own backing frames are enclave-marked by its
            // install-time self-protection; no table tracks them.
            if sys.bitmap.is_self_frame(Ppn(ppn)) {
                continue;
            }
            let marked = sys.bitmap.is_enclave(Ppn(ppn), &mut sys.phys)?;
            let tracked = owned.contains(&ppn) || free.contains(&ppn);
            if marked {
                audit.enclave_marked += 1;
                if !tracked {
                    return Err(AuditError::UntrackedEnclaveFrame { ppn: Ppn(ppn) });
                }
            } else if tracked {
                return Err(AuditError::MissingBitmapBit { ppn: Ppn(ppn) });
            }
        }
        // A tracked frame past the bitmap's reach has no bit at all; the
        // sweep above never visits it.
        let beyond = [owned.last(), free.last()]
            .into_iter()
            .flatten()
            .filter(|&&ppn| ppn >= sys.bitmap.covered_frames)
            .min();
        if let Some(&ppn) = beyond {
            return Err(AuditError::MissingBitmapBit { ppn: Ppn(ppn) });
        }

        // ④ Leaf PTEs reach only frames their enclave may reach.
        for (eid, table) in tables {
            for (va, pte) in table.mappings(&mut sys.phys)? {
                audit.leaves_checked += 1;
                let frame = pte.ppn();
                if pte.key() == KeyId::HOST {
                    // Host window / plaintext shared view: must NOT alias
                    // enclave-marked memory.
                    if sys.bitmap.is_enclave(frame, &mut sys.phys)? {
                        return Err(AuditError::HostWindowEnclaveFrame { eid: *eid, va });
                    }
                } else {
                    match ownership.owner(frame) {
                        Some(PageOwner::Enclave(e)) if e == *eid => {}
                        Some(PageOwner::Shared(_)) => {}
                        _ => return Err(AuditError::DanglingPte { eid: *eid, va }),
                    }
                }
            }
        }
        Ok(audit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::ownership::OwnershipTable;

    fn setup() -> (MemorySystem, OwnershipTable) {
        (
            MemorySystem::new(16 << 20, PhysAddr(0x4000)),
            OwnershipTable::new(),
        )
    }

    #[test]
    fn empty_state_passes() {
        let (mut sys, own) = setup();
        let audit = ConsistencyAudit::run(&mut sys, &own, &[], 0, &[]).unwrap();
        assert_eq!(audit.enclave_marked, 0);
        assert!(audit.frames_scanned > 0);
    }

    #[test]
    fn tracked_marked_frames_pass() {
        let (mut sys, mut own) = setup();
        sys.bitmap.set(Ppn(100), true, &mut sys.phys).unwrap();
        sys.bitmap.set(Ppn(101), true, &mut sys.phys).unwrap();
        own.claim(Ppn(100), PageOwner::EmsPrivate).unwrap();
        let audit = ConsistencyAudit::run(&mut sys, &own, &[Ppn(101)], 1, &[]).unwrap();
        assert_eq!(audit.enclave_marked, 2);
        assert_eq!(audit.owned, 1);
        assert_eq!(audit.pool_free, 1);
    }

    #[test]
    fn untracked_marked_frame_caught() {
        let (mut sys, own) = setup();
        sys.bitmap.set(Ppn(50), true, &mut sys.phys).unwrap();
        let err = ConsistencyAudit::run(&mut sys, &own, &[], 0, &[]).unwrap_err();
        assert_eq!(err, AuditError::UntrackedEnclaveFrame { ppn: Ppn(50) });
    }

    #[test]
    fn missing_bitmap_bit_caught() {
        let (mut sys, mut own) = setup();
        own.claim(Ppn(60), PageOwner::EmsPrivate).unwrap();
        let err = ConsistencyAudit::run(&mut sys, &own, &[], 1, &[]).unwrap_err();
        assert_eq!(err, AuditError::MissingBitmapBit { ppn: Ppn(60) });
    }

    #[test]
    fn tracked_frame_beyond_bitmap_caught() {
        let (mut sys, mut own) = setup();
        let past = Ppn(sys.bitmap.covered_frames + 5);
        let err = ConsistencyAudit::run(&mut sys, &own, &[past], 0, &[]).unwrap_err();
        assert_eq!(err, AuditError::MissingBitmapBit { ppn: past });
        own.claim(past, PageOwner::EmsPrivate).unwrap();
        let err = ConsistencyAudit::run(&mut sys, &own, &[], 1, &[]).unwrap_err();
        assert_eq!(err, AuditError::MissingBitmapBit { ppn: past });
    }

    #[test]
    fn owned_and_free_caught() {
        let (mut sys, mut own) = setup();
        sys.bitmap.set(Ppn(70), true, &mut sys.phys).unwrap();
        own.claim(Ppn(70), PageOwner::EmsPrivate).unwrap();
        let err = ConsistencyAudit::run(&mut sys, &own, &[Ppn(70)], 1, &[]).unwrap_err();
        assert_eq!(err, AuditError::FreeButOwned { ppn: Ppn(70) });
    }

    #[test]
    fn pool_accounting_mismatch_caught() {
        let (mut sys, own) = setup();
        let err = ConsistencyAudit::run(&mut sys, &own, &[], 3, &[]).unwrap_err();
        assert_eq!(
            err,
            AuditError::PoolAccountingMismatch { used: 3, owned: 0 }
        );
    }

    #[test]
    fn dangling_pte_caught() {
        use crate::pagetable::{FrameSource, Perms};
        struct Seq(u64);
        impl FrameSource for Seq {
            fn alloc_frame(&mut self) -> Option<Ppn> {
                self.0 += 1;
                Some(Ppn(self.0))
            }
        }
        let (mut sys, mut own) = setup();
        let mut frames = Seq(200);
        let table = PageTable::new(&mut frames, &mut sys.phys);
        // Map an encrypted page at a frame nobody owns.
        table
            .map(
                VirtAddr(0x2000_0000),
                Ppn(300),
                Perms::RW,
                KeyId(5),
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        let eid = EnclaveId(9);
        let err = ConsistencyAudit::run(&mut sys, &own, &[], 0, &[(eid, table)]).unwrap_err();
        assert_eq!(
            err,
            AuditError::DanglingPte {
                eid,
                va: VirtAddr(0x2000_0000)
            }
        );
        // Claiming the frame for the right enclave fixes it (bitmap too).
        own.claim(Ppn(300), PageOwner::Enclave(eid)).unwrap();
        sys.bitmap.set(Ppn(300), true, &mut sys.phys).unwrap();
        let audit = ConsistencyAudit::run(&mut sys, &own, &[], 1, &[(eid, table)]).unwrap();
        assert_eq!(audit.leaves_checked, 1);
    }

    #[test]
    fn host_window_alias_caught() {
        use crate::pagetable::{FrameSource, Perms};
        struct Seq(u64);
        impl FrameSource for Seq {
            fn alloc_frame(&mut self) -> Option<Ppn> {
                self.0 += 1;
                Some(Ppn(self.0))
            }
        }
        let (mut sys, own) = setup();
        let mut frames = Seq(400);
        let table = PageTable::new(&mut frames, &mut sys.phys);
        table
            .map(
                VirtAddr(0x3000_0000),
                Ppn(500),
                Perms::RW,
                KeyId::HOST,
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        // Plain host frame: fine.
        ConsistencyAudit::run(&mut sys, &own, &[], 0, &[(EnclaveId(1), table)]).unwrap();
        // Mark it enclave without tracking → host-window aliasing caught
        // before the bitmap sweep reaches it? No: sweep runs first, so track
        // it as pool-free to isolate invariant ④.
        sys.bitmap.set(Ppn(500), true, &mut sys.phys).unwrap();
        let err = ConsistencyAudit::run(&mut sys, &own, &[Ppn(500)], 0, &[(EnclaveId(1), table)])
            .unwrap_err();
        assert_eq!(
            err,
            AuditError::HostWindowEnclaveFrame {
                eid: EnclaveId(1),
                va: VirtAddr(0x3000_0000)
            }
        );
    }
}
