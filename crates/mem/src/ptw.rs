//! The page-table walker with integrated bitmap checking (Fig. 5).
//!
//! "When a non-enclave memory access misses in TLB, PTW loads its PTE. Then,
//! the translated physical page number is used to retrieve the bitmap. If
//! the bitmap indicates it is not an enclave page, this access can be
//! performed correctly. Otherwise, an access exception is thrown."
//!
//! Enclave-mode accesses walk the EMS-maintained enclave page table and skip
//! the bitmap check (the enclave table is trusted by construction, and the
//! paper notes bitmap checking only affects non-enclave applications).

use crate::addr::VirtAddr;
use crate::bitmap::EnclaveBitmap;
use crate::pagetable::{AccessKind, PageTable};
use crate::phys::PhysMemory;
use crate::tlb::TlbEntry;
use crate::walkcache::WalkCache;
use crate::MemFault;

/// Walker event counters. Functional only: no cycle cost is charged from
/// them (the Fig. 10 bitmap-check cost is priced per profiled walk by
/// `sim::perf::bitmap_cycles`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PtwStats {
    /// Completed walks.
    pub(crate) walks: u64,
    /// Bitmap retrievals performed.
    pub(crate) bitmap_checks: u64,
    /// Bitmap violations raised.
    pub(crate) bitmap_faults: u64,
    /// Page faults raised.
    pub(crate) page_faults: u64,
}

/// Walks `pt` for `va` and applies the Fig. 5 bitmap check when
/// `enclave_mode` is false. On success returns a TLB entry ready for
/// insertion, with `checked` set according to the performed check.
///
/// The walk goes through `cache` (the per-core page-walk cache); a hit is
/// functionally and charge-wise identical to a full walk — see
/// [`crate::walkcache`].
///
/// # Errors
///
/// * [`MemFault::PageFault`] — no valid mapping.
/// * [`MemFault::BitmapViolation`] — non-enclave access to an enclave page.
/// * [`MemFault::BusError`] — walk left installed memory.
// The signature mirrors the hardware walker's inputs (table root, request,
// mode bit, bitmap, memory, counters, walk cache); bundling them into a
// struct would just move the argument list.
#[allow(clippy::too_many_arguments)]
pub(crate) fn translate(
    pt: &PageTable,
    va: VirtAddr,
    kind: AccessKind,
    enclave_mode: bool,
    bitmap: &EnclaveBitmap,
    mem: &mut PhysMemory,
    stats: &mut PtwStats,
    cache: &mut WalkCache,
) -> Result<TlbEntry, MemFault> {
    let tr = match pt.walk_cached(va, kind == AccessKind::Write, mem, cache) {
        Ok(tr) => tr,
        Err(e @ MemFault::PageFault { .. }) => {
            stats.page_faults += 1;
            return Err(e);
        }
        Err(e) => return Err(e),
    };
    stats.walks += 1;
    if !enclave_mode {
        stats.bitmap_checks += 1;
        if bitmap.is_enclave(tr.ppn, mem)? {
            stats.bitmap_faults += 1;
            return Err(MemFault::BitmapViolation { ppn: tr.ppn.0 });
        }
    }
    Ok(TlbEntry {
        vpn: va.vpn(),
        ppn: tr.ppn,
        perms: tr.perms,
        key: tr.key,
        checked: !enclave_mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{KeyId, PhysAddr, Ppn};
    use crate::pagetable::{Perms, Pte};
    use crate::phys::FrameAllocator;

    fn setup() -> (PhysMemory, FrameAllocator, PageTable, EnclaveBitmap) {
        let mut mem = PhysMemory::new(64 << 20);
        let bitmap = EnclaveBitmap::install(PhysAddr(0x4000), 16384, &mut mem).unwrap();
        let mut alloc = FrameAllocator::new(Ppn(16), Ppn(16000));
        let pt = PageTable::new(&mut alloc, &mut mem);
        (mem, alloc, pt, bitmap)
    }

    #[test]
    fn normal_page_passes_check() {
        let (mut mem, mut alloc, pt, bitmap) = setup();
        let va = VirtAddr(0x7000);
        pt.map(va, Ppn(2000), Perms::RW, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        let mut stats = PtwStats::default();
        let mut cache = WalkCache::new(8);
        let entry = translate(
            &pt,
            va,
            AccessKind::Read,
            false,
            &bitmap,
            &mut mem,
            &mut stats,
            &mut cache,
        )
        .unwrap();
        assert_eq!(entry.ppn, Ppn(2000));
        assert!(entry.checked);
        assert_eq!(stats.bitmap_checks, 1);
        assert_eq!(stats.bitmap_faults, 0);
    }

    #[test]
    fn enclave_page_faults_for_host() {
        // The core isolation property: a host mapping aimed at an enclave
        // frame is stopped by the bitmap check even though the PTE is valid.
        let (mut mem, mut alloc, pt, bitmap) = setup();
        let va = VirtAddr(0x8000);
        pt.map(va, Ppn(3000), Perms::RW, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        bitmap.set(Ppn(3000), true, &mut mem).unwrap();
        let mut stats = PtwStats::default();
        let mut cache = WalkCache::new(8);
        let err = translate(
            &pt,
            va,
            AccessKind::Read,
            false,
            &bitmap,
            &mut mem,
            &mut stats,
            &mut cache,
        )
        .unwrap_err();
        assert_eq!(err, MemFault::BitmapViolation { ppn: 3000 });
        assert_eq!(stats.bitmap_faults, 1);
    }

    #[test]
    fn enclave_mode_skips_check() {
        let (mut mem, mut alloc, pt, bitmap) = setup();
        let va = VirtAddr(0x9000);
        pt.map(va, Ppn(3001), Perms::RW, KeyId(5), &mut alloc, &mut mem)
            .unwrap();
        bitmap.set(Ppn(3001), true, &mut mem).unwrap();
        let mut stats = PtwStats::default();
        let mut cache = WalkCache::new(8);
        let entry = translate(
            &pt,
            va,
            AccessKind::Read,
            true,
            &bitmap,
            &mut mem,
            &mut stats,
            &mut cache,
        )
        .unwrap();
        assert_eq!(entry.key, KeyId(5));
        assert!(!entry.checked);
        assert_eq!(stats.bitmap_checks, 0);
    }

    #[test]
    fn unmapped_counts_page_fault() {
        let (mut mem, _alloc, pt, bitmap) = setup();
        let mut stats = PtwStats::default();
        let mut cache = WalkCache::new(8);
        let err = translate(
            &pt,
            VirtAddr(0x0dea_d000),
            AccessKind::Read,
            false,
            &bitmap,
            &mut mem,
            &mut stats,
            &mut cache,
        )
        .unwrap_err();
        assert!(matches!(err, MemFault::PageFault { .. }));
        assert_eq!(stats.page_faults, 1);
        assert_eq!(stats.walks, 0);
    }

    #[test]
    fn write_walk_sets_dirty() {
        let (mut mem, mut alloc, pt, bitmap) = setup();
        let va = VirtAddr(0xa000);
        pt.map(va, Ppn(2001), Perms::RW, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        let mut stats = PtwStats::default();
        let mut cache = WalkCache::new(8);
        translate(
            &pt,
            va,
            AccessKind::Write,
            false,
            &bitmap,
            &mut mem,
            &mut stats,
            &mut cache,
        )
        .unwrap();
        assert!(
            pt.inspect(va, &mut mem).unwrap().0 & Pte::D != 0,
            "D bit set"
        );
    }
}
