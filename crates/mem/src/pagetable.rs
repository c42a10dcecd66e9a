//! Sv39 page tables, stored inside simulated physical memory.
//!
//! §IV-A: "For each enclave, EMS maintains a dedicated enclave page table
//! separate from the original page table… The page table is stored in enclave
//! memory and inaccessible to both the enclave itself and any untrusted
//! software." §IV-C: "The KeyID is stored to the high bits of PTE by EMS."
//!
//! PTE layout used here (64-bit, little-endian):
//!
//! ```text
//! bit  0      V (valid)
//! bits 1..=3  R / W / X
//! bit  4      U (user accessible)
//! bit  6      A (accessed)    — the state controlled-channel attacks watch
//! bit  7      D (dirty)
//! bits 10..38 PPN (28 bits; the bus carries 40-bit physical addresses)
//! bits 48..64 KeyID (16 bits; paper §IV-C)
//! ```

use crate::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use crate::phys::PhysMemory;
use crate::walkcache::WalkCache;
use crate::MemFault;

/// Access permissions of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Perms {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
    /// User-mode accessible.
    pub u: bool,
}

impl Perms {
    /// Read-write user mapping.
    pub const RW: Perms = Perms {
        r: true,
        w: true,
        x: false,
        u: true,
    };
    /// Read-execute user mapping.
    pub const RX: Perms = Perms {
        r: true,
        w: false,
        x: true,
        u: true,
    };
    /// Read-write-execute (loader convenience).
    pub const RWX: Perms = Perms {
        r: true,
        w: true,
        x: true,
        u: true,
    };

    /// Whether these permissions allow the given access kind.
    pub(crate) fn allows(&self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::Read => self.r,
            AccessKind::Write => self.w,
        }
    }
}

/// The kind of memory access being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
}

/// A decoded page-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pte(pub u64);

impl Pte {
    const V: u64 = 1 << 0;
    const R: u64 = 1 << 1;
    const W: u64 = 1 << 2;
    const X: u64 = 1 << 3;
    const U: u64 = 1 << 4;
    const A: u64 = 1 << 6;
    pub(crate) const D: u64 = 1 << 7;

    /// Builds a leaf PTE.
    pub(crate) fn leaf(ppn: Ppn, perms: Perms, key: KeyId) -> Pte {
        let mut v = Pte::V;
        if perms.r {
            v |= Pte::R;
        }
        if perms.w {
            v |= Pte::W;
        }
        if perms.x {
            v |= Pte::X;
        }
        if perms.u {
            v |= Pte::U;
        }
        v |= (ppn.0 & ((1 << 28) - 1)) << 10;
        v |= (key.0 as u64) << 48;
        Pte(v)
    }

    /// Builds a non-leaf (pointer) PTE.
    pub(crate) fn branch(ppn: Ppn) -> Pte {
        Pte(Pte::V | ((ppn.0 & ((1 << 28) - 1)) << 10))
    }

    /// Valid bit.
    pub(crate) fn valid(&self) -> bool {
        self.0 & Pte::V != 0
    }

    /// Whether this is a leaf (any of R/W/X set).
    pub(crate) fn is_leaf(&self) -> bool {
        self.0 & (Pte::R | Pte::W | Pte::X) != 0
    }

    /// Physical page number.
    pub fn ppn(&self) -> Ppn {
        Ppn((self.0 >> 10) & ((1 << 28) - 1))
    }

    /// KeyID from the high bits.
    pub fn key(&self) -> KeyId {
        KeyId((self.0 >> 48) as u16)
    }

    /// Permission bits.
    pub fn perms(&self) -> Perms {
        Perms {
            r: self.0 & Pte::R != 0,
            w: self.0 & Pte::W != 0,
            x: self.0 & Pte::X != 0,
            u: self.0 & Pte::U != 0,
        }
    }

    /// Accessed bit (the state watched by page-table controlled channels).
    pub fn accessed(&self) -> bool {
        self.0 & Pte::A != 0
    }

    /// Returns a copy with A (and optionally D) set.
    pub(crate) fn touch(&self, write: bool) -> Pte {
        let mut v = self.0 | Pte::A;
        if write {
            v |= Pte::D;
        }
        Pte(v)
    }
}

/// A source of physical frames for page-table pages.
pub trait FrameSource {
    /// Allocates one frame, or `None` when exhausted.
    fn alloc_frame(&mut self) -> Option<Ppn>;
}

impl FrameSource for crate::phys::FrameAllocator {
    fn alloc_frame(&mut self) -> Option<Ppn> {
        self.alloc()
    }
}

/// An Sv39 page table rooted at a physical frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageTable {
    /// Root page-table frame (the satp PPN).
    pub root: Ppn,
}

/// Result of a successful table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// Target physical page.
    pub ppn: Ppn,
    /// Leaf permissions.
    pub(crate) perms: Perms,
    /// KeyID from the leaf PTE.
    pub(crate) key: KeyId,
    /// Number of memory accesses the walk performed (for timing).
    pub(crate) levels_touched: u32,
}

impl PageTable {
    /// Creates an empty table, allocating the root frame.
    ///
    /// # Panics
    ///
    /// Panics when the frame source is exhausted.
    pub fn new(frames: &mut dyn FrameSource, mem: &mut PhysMemory) -> PageTable {
        PageTable::try_new(frames, mem).expect("no frame for page-table root")
    }

    /// Fallible sibling of [`PageTable::new`] for request-path callers that
    /// must never panic: allocation failure surfaces as a fault instead.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] when the frame source is exhausted, or the
    /// fault from zeroing an out-of-range root frame.
    pub fn try_new(
        frames: &mut dyn FrameSource,
        mem: &mut PhysMemory,
    ) -> Result<PageTable, MemFault> {
        let root = frames.alloc_frame().ok_or(MemFault::BusError { pa: 0 })?;
        mem.zero_frame(root)?;
        Ok(PageTable { root })
    }

    fn pte_addr(table: Ppn, index: usize) -> PhysAddr {
        PhysAddr(table.base().0 + (index as u64) * 8)
    }

    /// Maps one page. Intermediate tables are allocated on demand from
    /// `frames` and zeroed.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if a frame cannot be allocated or addressed;
    /// [`MemFault::PermissionDenied`] if the VA is already mapped.
    pub fn map(
        &self,
        va: VirtAddr,
        ppn: Ppn,
        perms: Perms,
        key: KeyId,
        frames: &mut dyn FrameSource,
        mem: &mut PhysMemory,
    ) -> Result<(), MemFault> {
        let idx = va.sv39_indices();
        let mut table = self.root;
        for &index in idx.iter().take(2) {
            let addr = Self::pte_addr(table, index);
            let pte = Pte(mem.read_u64(addr)?);
            if pte.valid() {
                if pte.is_leaf() {
                    return Err(MemFault::PermissionDenied { va: va.0 });
                }
                table = pte.ppn();
            } else {
                let frame = frames
                    .alloc_frame()
                    .ok_or(MemFault::BusError { pa: addr.0 })?;
                mem.zero_frame(frame)?;
                mem.write_u64(addr, Pte::branch(frame).0)?;
                table = frame;
            }
        }
        let addr = Self::pte_addr(table, idx[2]);
        let existing = Pte(mem.read_u64(addr)?);
        if existing.valid() {
            return Err(MemFault::PermissionDenied { va: va.0 });
        }
        mem.write_u64(addr, Pte::leaf(ppn, perms, key).0)
    }

    /// Maps one page using only already-present intermediate tables (the
    /// KeyID-rewrite path of enclave resume, where the walk structure is
    /// known to exist).
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when an intermediate level is missing;
    /// [`MemFault::PermissionDenied`] when the VA is already mapped.
    pub fn map_raw(
        &self,
        va: VirtAddr,
        ppn: Ppn,
        perms: Perms,
        key: KeyId,
        mem: &mut PhysMemory,
    ) -> Result<(), MemFault> {
        let idx = va.sv39_indices();
        let mut table = self.root;
        for &index in idx.iter().take(2) {
            let pte = Pte(mem.read_u64(Self::pte_addr(table, index))?);
            if !pte.valid() || pte.is_leaf() {
                return Err(MemFault::PageFault { va: va.0 });
            }
            table = pte.ppn();
        }
        let addr = Self::pte_addr(table, idx[2]);
        if Pte(mem.read_u64(addr)?).valid() {
            return Err(MemFault::PermissionDenied { va: va.0 });
        }
        mem.write_u64(addr, Pte::leaf(ppn, perms, key).0)
    }

    /// Removes the mapping for `va`, returning the old leaf PTE.
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when `va` is not mapped.
    pub fn unmap(&self, va: VirtAddr, mem: &mut PhysMemory) -> Result<Pte, MemFault> {
        let (addr, pte) = self.leaf_slot(va, mem)?;
        mem.write_u64(addr, 0)?;
        Ok(pte)
    }

    /// Updates the permissions of an existing mapping.
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when `va` is not mapped.
    pub fn protect(
        &self,
        va: VirtAddr,
        perms: Perms,
        mem: &mut PhysMemory,
    ) -> Result<(), MemFault> {
        let (addr, pte) = self.leaf_slot(va, mem)?;
        mem.write_u64(addr, Pte::leaf(pte.ppn(), perms, pte.key()).0)
    }

    /// Walks the two upper levels, returning the leaf-table frame.
    fn leaf_table(&self, va: VirtAddr, mem: &mut PhysMemory) -> Result<Ppn, MemFault> {
        let idx = va.sv39_indices();
        let mut table = self.root;
        for &index in idx.iter().take(2) {
            let pte = Pte(mem.read_u64(Self::pte_addr(table, index))?);
            if !pte.valid() || pte.is_leaf() {
                return Err(MemFault::PageFault { va: va.0 });
            }
            table = pte.ppn();
        }
        Ok(table)
    }

    /// Finds the leaf-slot address and current PTE for `va`.
    fn leaf_slot(&self, va: VirtAddr, mem: &mut PhysMemory) -> Result<(PhysAddr, Pte), MemFault> {
        let table = self.leaf_table(va, mem)?;
        let addr = Self::pte_addr(table, va.sv39_indices()[2]);
        let pte = Pte(mem.read_u64(addr)?);
        if !pte.valid() {
            return Err(MemFault::PageFault { va: va.0 });
        }
        Ok((addr, pte))
    }

    /// Walks the table for `va`, setting A/D bits like hardware does.
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when no valid leaf exists.
    pub fn walk(
        &self,
        va: VirtAddr,
        set_dirty: bool,
        mem: &mut PhysMemory,
    ) -> Result<Translation, MemFault> {
        let (addr, pte) = self.leaf_slot(va, mem)?;
        // Hardware A/D update.
        mem.write_u64(addr, pte.touch(set_dirty).0)?;
        Ok(Translation {
            ppn: pte.ppn(),
            perms: pte.perms(),
            key: pte.key(),
            levels_touched: 3,
        })
    }

    /// [`PageTable::walk`] through a page-walk cache: a cached leaf-table
    /// pointer skips the two intermediate PTE reads.
    ///
    /// The result, the A/D side effects, the reported `levels_touched`, and
    /// the raw physical-access trajectory are all identical to an uncached
    /// walk — only host wall-clock differs (charge invariance).
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when no valid leaf exists.
    pub(crate) fn walk_cached(
        &self,
        va: VirtAddr,
        set_dirty: bool,
        mem: &mut PhysMemory,
        cache: &mut WalkCache,
    ) -> Result<Translation, MemFault> {
        let region = va.vpn().0 >> 9;
        let table = match cache.lookup(self.root, region) {
            Some(table) => {
                // Keep the raw-access counter on the uncached trajectory
                // (the two intermediate PTE reads the hit skipped).
                mem.access_count += 2;
                table
            }
            None => {
                let table = self.leaf_table(va, mem)?;
                cache.insert(self.root, region, table);
                table
            }
        };
        let addr = Self::pte_addr(table, va.sv39_indices()[2]);
        let pte = Pte(mem.read_u64(addr)?);
        if !pte.valid() {
            return Err(MemFault::PageFault { va: va.0 });
        }
        mem.write_u64(addr, pte.touch(set_dirty).0)?;
        Ok(Translation {
            ppn: pte.ppn(),
            perms: pte.perms(),
            key: pte.key(),
            levels_touched: 3,
        })
    }

    /// Reads the leaf PTE without side effects (used by management code and
    /// by attackers inspecting A/D bits in *their own* tables).
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when no valid leaf exists.
    pub fn inspect(&self, va: VirtAddr, mem: &mut PhysMemory) -> Result<Pte, MemFault> {
        Ok(self.leaf_slot(va, mem)?.1)
    }

    /// Clears the accessed/dirty bits of a mapping (the attacker move in
    /// page-table controlled channels).
    ///
    /// # Errors
    ///
    /// [`MemFault::PageFault`] when `va` is not mapped.
    pub fn clear_ad(&self, va: VirtAddr, mem: &mut PhysMemory) -> Result<(), MemFault> {
        let (addr, pte) = self.leaf_slot(va, mem)?;
        mem.write_u64(addr, pte.0 & !(Pte::A | Pte::D))
    }

    /// Enumerates all mapped leaf pages (va page base → PTE).
    ///
    /// # Errors
    ///
    /// Propagates bus errors while scanning.
    pub fn mappings(&self, mem: &mut PhysMemory) -> Result<Vec<(VirtAddr, Pte)>, MemFault> {
        let mut out = Vec::new();
        for i2 in 0..512usize {
            let pte2 = Pte(mem.read_u64(Self::pte_addr(self.root, i2))?);
            if !pte2.valid() {
                continue;
            }
            for i1 in 0..512usize {
                let pte1 = Pte(mem.read_u64(Self::pte_addr(pte2.ppn(), i1))?);
                if !pte1.valid() {
                    continue;
                }
                for i0 in 0..512usize {
                    let pte0 = Pte(mem.read_u64(Self::pte_addr(pte1.ppn(), i0))?);
                    if pte0.valid() {
                        let vpn = ((i2 as u64) << 18) | ((i1 as u64) << 9) | i0 as u64;
                        out.push((VirtAddr(vpn * PAGE_SIZE), pte0));
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phys::FrameAllocator;

    /// Read-only user mapping.
    const RO: Perms = Perms {
        w: false,
        ..Perms::RW
    };

    fn setup() -> (PhysMemory, FrameAllocator, PageTable) {
        let mut mem = PhysMemory::new(32 << 20);
        let mut alloc = FrameAllocator::new(Ppn(16), Ppn(8000));
        let pt = PageTable::new(&mut alloc, &mut mem);
        (mem, alloc, pt)
    }

    #[test]
    fn map_walk_roundtrip() {
        let (mut mem, mut alloc, pt) = setup();
        let va = VirtAddr(0x4000_0000);
        pt.map(va, Ppn(0x123), Perms::RW, KeyId(7), &mut alloc, &mut mem)
            .unwrap();
        let tr = pt.walk(va, false, &mut mem).unwrap();
        assert_eq!(tr.ppn, Ppn(0x123));
        assert_eq!(tr.key, KeyId(7));
        assert!(tr.perms.r && tr.perms.w && !tr.perms.x);
    }

    #[test]
    fn unmapped_va_faults() {
        let (mut mem, _alloc, pt) = setup();
        assert!(matches!(
            pt.walk(VirtAddr(0x1000), false, &mut mem),
            Err(MemFault::PageFault { va: 0x1000 })
        ));
    }

    #[test]
    fn double_map_rejected() {
        let (mut mem, mut alloc, pt) = setup();
        let va = VirtAddr(0x1000);
        pt.map(va, Ppn(1), RO, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        assert!(pt
            .map(va, Ppn(2), RO, KeyId::HOST, &mut alloc, &mut mem)
            .is_err());
    }

    #[test]
    fn unmap_then_fault() {
        let (mut mem, mut alloc, pt) = setup();
        let va = VirtAddr(0x20_0000);
        pt.map(va, Ppn(9), Perms::RW, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        let old = pt.unmap(va, &mut mem).unwrap();
        assert_eq!(old.ppn(), Ppn(9));
        assert!(pt.walk(va, false, &mut mem).is_err());
    }

    #[test]
    fn accessed_dirty_bits_behave_like_hardware() {
        let (mut mem, mut alloc, pt) = setup();
        let va = VirtAddr(0x5000);
        pt.map(va, Ppn(3), Perms::RW, KeyId::HOST, &mut alloc, &mut mem)
            .unwrap();
        assert!(!pt.inspect(va, &mut mem).unwrap().accessed());
        pt.walk(va, false, &mut mem).unwrap();
        let pte = pt.inspect(va, &mut mem).unwrap();
        assert!(pte.accessed() && pte.0 & Pte::D == 0);
        pt.walk(va, true, &mut mem).unwrap();
        assert!(pt.inspect(va, &mut mem).unwrap().0 & Pte::D != 0);
        pt.clear_ad(va, &mut mem).unwrap();
        let pte = pt.inspect(va, &mut mem).unwrap();
        assert!(!pte.accessed() && pte.0 & Pte::D == 0);
    }

    #[test]
    fn distinct_vas_share_intermediate_tables() {
        let (mut mem, mut alloc, pt) = setup();
        let before = alloc.allocated;
        pt.map(
            VirtAddr(0x1000),
            Ppn(1),
            RO,
            KeyId::HOST,
            &mut alloc,
            &mut mem,
        )
        .unwrap();
        let after_first = alloc.allocated;
        pt.map(
            VirtAddr(0x2000),
            Ppn(2),
            RO,
            KeyId::HOST,
            &mut alloc,
            &mut mem,
        )
        .unwrap();
        let after_second = alloc.allocated;
        // First map allocates two intermediate levels; second reuses them.
        assert_eq!(after_first - before, 2);
        assert_eq!(after_second, after_first);
    }

    #[test]
    fn protect_changes_perms() {
        let (mut mem, mut alloc, pt) = setup();
        let va = VirtAddr(0x9000);
        pt.map(va, Ppn(4), Perms::RW, KeyId(1), &mut alloc, &mut mem)
            .unwrap();
        pt.protect(va, RO, &mut mem).unwrap();
        let tr = pt.walk(va, false, &mut mem).unwrap();
        assert!(tr.perms.r && !tr.perms.w);
        assert_eq!(tr.key, KeyId(1), "protect must preserve the KeyID");
    }

    #[test]
    fn mappings_enumeration() {
        let (mut mem, mut alloc, pt) = setup();
        for i in 0..5u64 {
            pt.map(
                VirtAddr(0x100_0000 + i * PAGE_SIZE),
                Ppn(100 + i),
                RO,
                KeyId::HOST,
                &mut alloc,
                &mut mem,
            )
            .unwrap();
        }
        let maps = pt.mappings(&mut mem).unwrap();
        assert_eq!(maps.len(), 5);
        assert!(maps.iter().all(|(_, pte)| pte.valid()));
    }

    #[test]
    fn pte_encoding_roundtrip() {
        let pte = Pte::leaf(Ppn(0xabcde), Perms::RX, KeyId(0x1234));
        assert!(pte.valid() && pte.is_leaf());
        assert_eq!(pte.ppn(), Ppn(0xabcde));
        assert_eq!(pte.key(), KeyId(0x1234));
        assert!(pte.perms().x && !pte.perms().w);
    }
}
