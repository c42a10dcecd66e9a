//! The memory-system façade: TLB → PTW (+bitmap) → encryption engine.
//!
//! [`MemorySystem`] owns the SoC-global pieces (physical memory, MKTME
//! engine, bitmap); each core owns a [`CoreMmu`] (its TLB, page-table base
//! register, and IS_ENCLAVE mode bit — the two registers of Fig. 5 that only
//! the highest privilege level may update, which the EMCall layer enforces).

use crate::addr::{PhysAddr, VirtAddr};
use crate::bitmap::EnclaveBitmap;
use crate::mktme::MktmeEngine;
use crate::pagetable::{AccessKind, PageTable};
use crate::phys::PhysMemory;
use crate::ptw::{self, PtwStats};
use crate::tlb::Tlb;
use crate::walkcache::WalkCache;
use crate::MemFault;

/// SoC-global memory state.
#[derive(Debug)]
pub struct MemorySystem {
    /// Raw physical memory (below the encryption engine).
    pub phys: PhysMemory,
    /// Multi-key encryption + integrity engine.
    pub engine: MktmeEngine,
    /// The enclave-memory bitmap.
    pub bitmap: EnclaveBitmap,
    /// Walker counters.
    pub(crate) ptw_stats: PtwStats,
}

impl MemorySystem {
    /// Creates a memory system with `bytes` installed and a bitmap at
    /// `bm_base` covering all of it. Integrity protection is always on, as
    /// in the paper's prototype.
    ///
    /// # Panics
    ///
    /// Panics if the bitmap cannot be installed.
    pub fn new(bytes: u64, bm_base: PhysAddr) -> Self {
        let mut phys = PhysMemory::new(bytes);
        let frames = phys.total_frames();
        let bitmap = EnclaveBitmap::install(bm_base, frames, &mut phys)
            .expect("bitmap region must fit in installed memory");
        MemorySystem {
            phys,
            engine: MktmeEngine::new(true),
            bitmap,
            ptw_stats: PtwStats::default(),
        }
    }
}

/// Entries in each core's page-walk cache (small, like silicon walkers).
pub(crate) const WALK_CACHE_ENTRIES: usize = 8;

/// Per-core MMU state.
#[derive(Debug)]
pub struct CoreMmu {
    /// The TLB.
    pub tlb: Tlb,
    /// The page-walk cache (intermediate-level PTE cache).
    pub walk_cache: WalkCache,
    /// Current page-table root (satp); `None` means bare/physical mode.
    pub table: Option<PageTable>,
    /// IS_ENCLAVE register: whether the core currently runs an enclave.
    pub enclave_mode: bool,
    /// Bench instrumentation: route loads and stores through the MKTME
    /// engine's byte-for-byte reference data plane
    /// ([`crate::mktme::MktmeEngine::read_ref`]/`write_ref`) instead of the
    /// optimized kernels. Bit-identical data either way; `bench_report`
    /// flips this to price the optimized data path against its spec
    /// baseline.
    pub data_path_ref: bool,
    /// Monotone counter bumped on every translation flush (address-space
    /// switch, EALLOC/EFREE/shm attach-detach) and on mapping teardown
    /// ([`CoreMmu::note_mapping_teardown`], the EDESTROY site). Consumers
    /// that cache anything derived from this core's translations — e.g. the
    /// decoded-instruction cache keyed by physical line — compare their
    /// epoch against this and drop everything on mismatch, inheriting the
    /// TLB/walk-cache flush discipline without new flush call sites.
    pub flush_epoch: u64,
}

impl CoreMmu {
    /// Creates a core MMU with a TLB of `tlb_entries`.
    pub fn new(tlb_entries: usize) -> Self {
        CoreMmu {
            tlb: Tlb::new(tlb_entries),
            walk_cache: WalkCache::new(WALK_CACHE_ENTRIES),
            table: None,
            enclave_mode: false,
            data_path_ref: false,
            flush_epoch: 0,
        }
    }

    /// Switches the address space (satp write) — flushes the TLB and the
    /// walk cache, as EMCall does on every enclave context switch (§IV-B).
    pub fn switch_table(&mut self, table: Option<PageTable>, enclave_mode: bool) {
        self.table = table;
        self.enclave_mode = enclave_mode;
        self.flush_translations();
    }

    /// Drops all cached translation state — TLB entries *and* walk-cache
    /// pointers. Mapping teardown (EFREE/EDESTROY, shm detach) must call
    /// this rather than flushing the TLB alone: a freed page-table frame
    /// can be reused for data, and a stale walk-cache pointer would then
    /// interpret attacker-controlled bytes as PTEs.
    pub fn flush_translations(&mut self) {
        self.tlb.flush_all();
        self.walk_cache.flush_all();
        self.flush_epoch += 1;
    }

    /// Mapping teardown that deliberately leaves the TLB alone: EDESTROY
    /// tears down an address space no hart has entered (the last exit
    /// already switched tables and flushed), so only the walk-cache
    /// pointers — which could interpret reused page-table frames as PTEs —
    /// must go. The flush epoch still advances so epoch-synced derived
    /// caches (decoded instructions) drop their lines too.
    pub fn note_mapping_teardown(&mut self) {
        self.walk_cache.flush_all();
        self.flush_epoch += 1;
    }

    fn translate(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
        kind: AccessKind,
    ) -> Result<crate::tlb::TlbEntry, MemFault> {
        let table = self.table.ok_or(MemFault::PageFault { va: va.0 })?;
        if let Some(entry) = self.tlb.lookup(va.vpn()) {
            if !entry.perms.allows(kind) {
                return Err(MemFault::PermissionDenied { va: va.0 });
            }
            return Ok(entry);
        }
        let entry = ptw::translate(
            &table,
            va,
            kind,
            self.enclave_mode,
            &sys.bitmap,
            &mut sys.phys,
            &mut sys.ptw_stats,
            &mut self.walk_cache,
        )?;
        if !entry.perms.allows(kind) {
            return Err(MemFault::PermissionDenied { va: va.0 });
        }
        self.tlb.insert(entry);
        Ok(entry)
    }

    /// Loads `buf.len()` bytes from virtual address `va`.
    ///
    /// The access may not cross a page boundary (split it at a higher layer,
    /// as real ISAs require for translated accesses).
    ///
    /// # Errors
    ///
    /// Translation faults ([`MemFault::PageFault`],
    /// [`MemFault::BitmapViolation`], [`MemFault::PermissionDenied`]) and
    /// data-path faults ([`MemFault::IntegrityViolation`],
    /// [`MemFault::BusError`]).
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a page boundary.
    pub fn load(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
        buf: &mut [u8],
    ) -> Result<(), MemFault> {
        assert_page_bounded(va, buf.len());
        let entry = self.translate(sys, va, AccessKind::Read)?;
        let pa = PhysAddr(entry.ppn.base().0 + va.offset());
        if self.data_path_ref {
            return sys.engine.read_ref(&mut sys.phys, pa, entry.key, buf);
        }
        sys.engine.read(&mut sys.phys, pa, entry.key, buf)
    }

    /// Stores `buf` to virtual address `va`.
    ///
    /// # Errors
    ///
    /// Same as [`CoreMmu::load`].
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a page boundary.
    pub fn store(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
        buf: &[u8],
    ) -> Result<(), MemFault> {
        self.store_traced(sys, va, buf).map(|_| ())
    }

    /// [`CoreMmu::store`] that also reports the physical address written —
    /// the hook store-side invalidation needs: a store into a line whose
    /// decoded form is cached must drop that line, and the cache is keyed
    /// physically.
    ///
    /// # Errors
    ///
    /// Same as [`CoreMmu::load`].
    ///
    /// # Panics
    ///
    /// Panics if the access crosses a page boundary.
    pub fn store_traced(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
        buf: &[u8],
    ) -> Result<PhysAddr, MemFault> {
        assert_page_bounded(va, buf.len());
        let entry = self.translate(sys, va, AccessKind::Write)?;
        let pa = PhysAddr(entry.ppn.base().0 + va.offset());
        if self.data_path_ref {
            sys.engine.write_ref(&mut sys.phys, pa, entry.key, buf)?;
        } else {
            sys.engine.write(&mut sys.phys, pa, entry.key, buf)?;
        }
        Ok(pa)
    }

    /// Translates `va` for an instruction fetch and returns the physical
    /// address, without touching data. Fetches check `AccessKind::Read`,
    /// exactly like the 4-byte fetch load in the seed interpreter, so the
    /// fault surface (page fault, bitmap violation, permission denial, and
    /// the reported faulting VA) is identical.
    ///
    /// # Errors
    ///
    /// Translation faults, as for [`CoreMmu::load`].
    pub fn translate_fetch(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
    ) -> Result<PhysAddr, MemFault> {
        let entry = self.translate(sys, va, AccessKind::Read)?;
        Ok(PhysAddr(entry.ppn.base().0 + va.offset()))
    }

    /// Loads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Same as [`CoreMmu::load`].
    pub fn load_u64(&mut self, sys: &mut MemorySystem, va: VirtAddr) -> Result<u64, MemFault> {
        let mut b = [0u8; 8];
        self.load(sys, va, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Stores a little-endian u64.
    ///
    /// # Errors
    ///
    /// Same as [`CoreMmu::store`].
    pub fn store_u64(
        &mut self,
        sys: &mut MemorySystem,
        va: VirtAddr,
        v: u64,
    ) -> Result<(), MemFault> {
        self.store(sys, va, &v.to_le_bytes())
    }
}

fn assert_page_bounded(va: VirtAddr, len: usize) {
    let end = va.offset() + len as u64;
    assert!(
        end <= crate::addr::PAGE_SIZE,
        "access at {va:?} + {len} crosses a page boundary; split it"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{KeyId, Ppn};
    use crate::pagetable::Perms;
    use crate::phys::FrameAllocator;

    /// Read-only user mapping.
    const RO: Perms = Perms {
        w: false,
        ..Perms::RW
    };

    fn setup() -> (MemorySystem, FrameAllocator, CoreMmu, PageTable) {
        let mut sys = MemorySystem::new(64 << 20, PhysAddr(0x4000));
        let mut alloc = FrameAllocator::new(Ppn(64), Ppn(16000));
        let pt = PageTable::new(&mut alloc, &mut sys.phys);
        let mut mmu = CoreMmu::new(32);
        mmu.switch_table(Some(pt), false);
        (sys, alloc, mmu, pt)
    }

    #[test]
    fn load_store_through_translation() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x40_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        mmu.store(&mut sys, VirtAddr(0x40_010), b"data").unwrap();
        let mut buf = [0u8; 4];
        mmu.load(&mut sys, VirtAddr(0x40_010), &mut buf).unwrap();
        assert_eq!(&buf, b"data");
    }

    #[test]
    fn tlb_caches_translation() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x40_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        mmu.store_u64(&mut sys, VirtAddr(0x40_000), 1).unwrap();
        let walks_after_first = sys.ptw_stats.walks;
        mmu.load_u64(&mut sys, VirtAddr(0x40_000)).unwrap();
        mmu.load_u64(&mut sys, VirtAddr(0x40_100)).unwrap();
        assert_eq!(
            sys.ptw_stats.walks, walks_after_first,
            "TLB hits avoid walks"
        );
        assert!(mmu.tlb.stats.hits >= 2);
    }

    #[test]
    fn write_to_readonly_denied() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x50_000),
            frame,
            RO,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        assert!(matches!(
            mmu.store(&mut sys, VirtAddr(0x50_000), &[1]),
            Err(MemFault::PermissionDenied { .. })
        ));
        // Read still works.
        let mut b = [0u8; 1];
        mmu.load(&mut sys, VirtAddr(0x50_000), &mut b).unwrap();
    }

    #[test]
    fn host_cannot_touch_enclave_frame() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        sys.bitmap.set(frame, true, &mut sys.phys).unwrap();
        pt.map(
            VirtAddr(0x60_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        let mut b = [0u8; 1];
        assert!(matches!(
            mmu.load(&mut sys, VirtAddr(0x60_000), &mut b),
            Err(MemFault::BitmapViolation { .. })
        ));
    }

    #[test]
    fn stale_tlb_cannot_bypass_bitmap_after_flush() {
        // Map + access a normal frame, then mark it enclave and flush the
        // TLB (as EMCall does on bitmap changes): the next access must fault.
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x70_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        let mut b = [0u8; 1];
        mmu.load(&mut sys, VirtAddr(0x70_000), &mut b).unwrap();
        sys.bitmap.set(frame, true, &mut sys.phys).unwrap();
        // Without a flush the stale entry would still hit — the exact attack
        // the paper closes by flushing on bitmap changes.
        mmu.tlb.flush_ppn(frame);
        assert!(matches!(
            mmu.load(&mut sys, VirtAddr(0x70_000), &mut b),
            Err(MemFault::BitmapViolation { .. })
        ));
    }

    #[test]
    fn enclave_mode_reads_encrypted_data() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        sys.engine.program_key(KeyId(3), &[1; 16], &[2; 32]);
        let frame = alloc.alloc().unwrap();
        sys.bitmap.set(frame, true, &mut sys.phys).unwrap();
        pt.map(
            VirtAddr(0x80_000),
            frame,
            Perms::RW,
            KeyId(3),
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        mmu.switch_table(Some(pt), true);
        mmu.store(&mut sys, VirtAddr(0x80_000), b"secret!!")
            .unwrap();
        let mut b = [0u8; 8];
        mmu.load(&mut sys, VirtAddr(0x80_000), &mut b).unwrap();
        assert_eq!(&b, b"secret!!");
        // Underlying physical bytes are ciphertext.
        let mut raw = [0u8; 8];
        sys.phys.read(frame.base(), &mut raw).unwrap();
        assert_ne!(&raw, b"secret!!");
    }

    #[test]
    fn bare_mode_faults() {
        let (mut sys, _alloc, mut mmu, _pt) = setup();
        mmu.switch_table(None, false);
        let mut b = [0u8; 1];
        assert!(matches!(
            mmu.load(&mut sys, VirtAddr(0x1000), &mut b),
            Err(MemFault::PageFault { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn page_crossing_panics() {
        let (mut sys, _alloc, mut mmu, _pt) = setup();
        let mut b = [0u8; 16];
        let _ = mmu.load(&mut sys, VirtAddr(0xff8), &mut b);
    }

    #[test]
    fn store_traced_reports_physical_address() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x40_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        let pa = mmu
            .store_traced(&mut sys, VirtAddr(0x40_120), b"traced")
            .unwrap();
        assert_eq!(pa, PhysAddr(frame.base().0 + 0x120));
        // translate_fetch agrees with the data path on the same mapping.
        let fetch_pa = mmu.translate_fetch(&mut sys, VirtAddr(0x40_120)).unwrap();
        assert_eq!(fetch_pa, pa);
    }

    #[test]
    fn flush_epoch_advances_on_every_teardown_path() {
        let (mut sys, mut alloc, mut mmu, pt) = setup();
        let e0 = mmu.flush_epoch;
        mmu.flush_translations();
        assert_eq!(mmu.flush_epoch, e0 + 1);
        mmu.switch_table(Some(pt), false);
        assert_eq!(mmu.flush_epoch, e0 + 2);
        // Teardown flushes the walk cache (and bumps the epoch) but leaves
        // TLB entries alone — the EDESTROY discipline.
        let frame = alloc.alloc().unwrap();
        pt.map(
            VirtAddr(0x40_000),
            frame,
            Perms::RW,
            KeyId::HOST,
            &mut alloc,
            &mut sys.phys,
        )
        .unwrap();
        mmu.store_u64(&mut sys, VirtAddr(0x40_000), 7).unwrap();
        let tlb_flushes = mmu.tlb.stats.flushes;
        let wc_flushes = mmu.walk_cache.stats.flushes;
        mmu.note_mapping_teardown();
        assert_eq!(mmu.flush_epoch, e0 + 3);
        assert_eq!(mmu.tlb.stats.flushes, tlb_flushes, "TLB untouched");
        assert_eq!(mmu.walk_cache.stats.flushes, wc_flushes + 1);
    }
}
