//! The model-facing TLB-coherence check.
//!
//! The lockstep reference model (`hypertee-model`) diffs the real machine
//! against its abstract state after every pipeline completion. This module
//! provides the predicate [`stale_tlb_entries`], which checks every
//! resident TLB entry against the page table it is supposed to cache (the
//! paper's stale-TLB prevention argument, §IV-A).

use crate::addr::{KeyId, Ppn, VirtAddr};
use crate::pagetable::{PageTable, Perms};
use crate::phys::PhysMemory;
use crate::tlb::{Tlb, TlbEntry};
use crate::MemFault;

/// Why a TLB entry disagrees with the page table it caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StaleReason {
    /// The page table no longer maps this virtual page at all.
    Unmapped,
    /// The page table maps the page at a different frame.
    FrameMismatch {
        /// The frame the table currently maps.
        mapped: Ppn,
    },
    /// Permissions differ between entry and PTE.
    PermsMismatch {
        /// The permissions the table currently grants.
        mapped: Perms,
    },
    /// The KeyID differs between entry and PTE.
    KeyMismatch {
        /// The KeyID the table currently carries.
        mapped: KeyId,
    },
}

/// A TLB entry that no longer agrees with the page table — evidence of a
/// missed shootdown.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaleTlbEntry {
    /// The stale cached translation.
    pub(crate) entry: TlbEntry,
    /// The virtual address the entry translates.
    pub va: VirtAddr,
    /// How it disagrees with the table.
    pub reason: StaleReason,
}

/// The TLB-coherence predicate: every resident entry must agree with a
/// side-effect-free walk of `table`. Returns all disagreements (empty means
/// coherent). Uses `Tlb::entries` so hit/miss statistics are untouched.
///
/// # Errors
///
/// Propagates bus faults from reading page-table memory; a mere missing
/// translation is reported as [`StaleReason::Unmapped`], not an error.
pub fn stale_tlb_entries(
    tlb: &Tlb,
    table: &PageTable,
    mem: &mut PhysMemory,
) -> Result<Vec<StaleTlbEntry>, MemFault> {
    let mut stale = Vec::new();
    for entry in tlb.entries() {
        let va = entry.vpn.base();
        let reason = match table.inspect(va, mem) {
            Ok(pte) if !pte.valid() || !pte.is_leaf() => Some(StaleReason::Unmapped),
            Ok(pte) if pte.ppn() != entry.ppn => {
                Some(StaleReason::FrameMismatch { mapped: pte.ppn() })
            }
            Ok(pte) if pte.key() != entry.key => {
                Some(StaleReason::KeyMismatch { mapped: pte.key() })
            }
            Ok(pte) if pte.perms() != entry.perms => Some(StaleReason::PermsMismatch {
                mapped: pte.perms(),
            }),
            Ok(_) => None,
            Err(MemFault::PageFault { .. }) => Some(StaleReason::Unmapped),
            Err(e) => return Err(e),
        };
        if let Some(reason) = reason {
            stale.push(StaleTlbEntry {
                entry: *entry,
                va,
                reason,
            });
        }
    }
    Ok(stale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PhysAddr;
    use crate::pagetable::FrameSource;
    use crate::system::MemorySystem;

    struct Seq(u64);
    impl FrameSource for Seq {
        fn alloc_frame(&mut self) -> Option<Ppn> {
            self.0 += 1;
            Some(Ppn(self.0))
        }
    }

    #[test]
    fn coherent_tlb_has_no_stale_entries() {
        let mut sys = MemorySystem::new(16 << 20, PhysAddr(0x4000));
        let mut frames = Seq(200);
        let table = PageTable::new(&mut frames, &mut sys.phys);
        let va = VirtAddr(0x2000_0000);
        table
            .map(
                va,
                Ppn(300),
                Perms::RW,
                KeyId(3),
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        let mut tlb = Tlb::new(8);
        tlb.insert(TlbEntry {
            vpn: va.vpn(),
            ppn: Ppn(300),
            perms: Perms::RW,
            key: KeyId(3),
            checked: true,
        });
        assert!(stale_tlb_entries(&tlb, &table, &mut sys.phys)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn unmapped_entry_is_reported_stale() {
        let mut sys = MemorySystem::new(16 << 20, PhysAddr(0x4000));
        let mut frames = Seq(200);
        let table = PageTable::new(&mut frames, &mut sys.phys);
        let va = VirtAddr(0x2000_0000);
        table
            .map(
                va,
                Ppn(300),
                Perms::RW,
                KeyId(3),
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        let mut tlb = Tlb::new(8);
        tlb.insert(TlbEntry {
            vpn: va.vpn(),
            ppn: Ppn(300),
            perms: Perms::RW,
            key: KeyId(3),
            checked: true,
        });
        // Unmap behind the TLB's back: the entry is now stale.
        table.unmap(va, &mut sys.phys).unwrap();
        let stale = stale_tlb_entries(&tlb, &table, &mut sys.phys).unwrap();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].reason, StaleReason::Unmapped);
        assert_eq!(stale[0].va, va);
    }

    #[test]
    fn remapped_frame_is_reported_stale() {
        let mut sys = MemorySystem::new(16 << 20, PhysAddr(0x4000));
        let mut frames = Seq(200);
        let table = PageTable::new(&mut frames, &mut sys.phys);
        let va = VirtAddr(0x2000_0000);
        table
            .map(
                va,
                Ppn(300),
                Perms::RW,
                KeyId(3),
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        let mut tlb = Tlb::new(8);
        tlb.insert(TlbEntry {
            vpn: va.vpn(),
            ppn: Ppn(301),
            perms: Perms::RW,
            key: KeyId(3),
            checked: true,
        });
        let stale = stale_tlb_entries(&tlb, &table, &mut sys.phys).unwrap();
        assert_eq!(stale.len(), 1);
        assert_eq!(
            stale[0].reason,
            StaleReason::FrameMismatch { mapped: Ppn(300) }
        );
    }
}
