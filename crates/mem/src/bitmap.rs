//! The enclave-memory bitmap (§IV-B, Fig. 5).
//!
//! "HyperTEE adopts a bitmap to record the state of every memory page, with
//! each bit indicating whether a page belongs to enclave memory. The memory
//! region of bitmap itself is marked as enclave memory for security."
//!
//! The bitmap lives at `BM_BASE` inside simulated physical memory, exactly
//! where the hardware checking logic of Fig. 5 would fetch it from, so the
//! PTW really issues an extra physical access per check.

use crate::addr::{PhysAddr, Ppn, PAGE_SIZE};
use crate::phys::PhysMemory;
use crate::MemFault;

/// The enclave bitmap and its in-memory region.
#[derive(Debug, Clone, Copy)]
pub struct EnclaveBitmap {
    /// Physical base address of the bitmap region (the BM_BASE register).
    pub(crate) bm_base: PhysAddr,
    /// Number of page frames the bitmap covers.
    pub(crate) covered_frames: u64,
}

impl EnclaveBitmap {
    /// Creates a bitmap at `bm_base` covering `covered_frames` frames and
    /// marks the bitmap's own pages as enclave memory (self-protection).
    ///
    /// # Errors
    ///
    /// Propagates bus errors when the region does not fit in memory.
    pub(crate) fn install(
        bm_base: PhysAddr,
        covered_frames: u64,
        mem: &mut PhysMemory,
    ) -> Result<EnclaveBitmap, MemFault> {
        assert_eq!(bm_base.offset(), 0, "BM_BASE must be page aligned");
        let bm = EnclaveBitmap {
            bm_base,
            covered_frames,
        };
        // Zero the whole region first.
        let bytes = bm.region_bytes();
        for off in (0..bytes).step_by(PAGE_SIZE as usize) {
            mem.zero_frame(PhysAddr(bm_base.0 + off).ppn())?;
        }
        // Self-protect: every frame of the bitmap region is enclave memory.
        for off in (0..bytes).step_by(PAGE_SIZE as usize) {
            bm.set(PhysAddr(bm_base.0 + off).ppn(), true, mem)?;
        }
        Ok(bm)
    }

    /// Whether `ppn` backs the bitmap region itself (these frames are
    /// enclave-marked by `install`'s self-protection, not by the pool).
    pub(crate) fn is_self_frame(&self, ppn: Ppn) -> bool {
        let base = self.bm_base.ppn().0;
        let frames = self.region_bytes() / PAGE_SIZE;
        ppn.0 >= base && ppn.0 < base + frames
    }

    /// Size of the bitmap region in bytes, rounded up to whole pages.
    pub(crate) fn region_bytes(&self) -> u64 {
        let bits = self.covered_frames;
        let bytes = bits.div_ceil(8);
        bytes.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }

    fn bit_location(&self, ppn: Ppn) -> (PhysAddr, u8) {
        let byte = ppn.0 / 8;
        let bit = (ppn.0 % 8) as u8;
        (PhysAddr(self.bm_base.0 + byte), bit)
    }

    /// Marks (or unmarks) a frame as enclave memory.
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the frame is outside the covered range.
    pub fn set(&self, ppn: Ppn, enclave: bool, mem: &mut PhysMemory) -> Result<(), MemFault> {
        if ppn.0 >= self.covered_frames {
            return Err(MemFault::BusError { pa: ppn.base().0 });
        }
        let (addr, bit) = self.bit_location(ppn);
        let mut byte = [0u8];
        mem.read(addr, &mut byte)?;
        if enclave {
            byte[0] |= 1 << bit;
        } else {
            byte[0] &= !(1 << bit);
        }
        mem.write(addr, &byte)
    }

    /// Tests whether a frame is enclave memory (the Fig. 5 retrieval).
    ///
    /// # Errors
    ///
    /// [`MemFault::BusError`] if the frame is outside the covered range.
    pub fn is_enclave(&self, ppn: Ppn, mem: &mut PhysMemory) -> Result<bool, MemFault> {
        if ppn.0 >= self.covered_frames {
            return Err(MemFault::BusError { pa: ppn.base().0 });
        }
        let (addr, bit) = self.bit_location(ppn);
        let mut byte = [0u8];
        mem.read(addr, &mut byte)?;
        Ok(byte[0] & (1 << bit) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PhysMemory, EnclaveBitmap) {
        let mut mem = PhysMemory::new(16 << 20);
        let bm = EnclaveBitmap::install(PhysAddr(0x10_000), 4096, &mut mem).unwrap();
        (mem, bm)
    }

    #[test]
    fn set_and_test() {
        let (mut mem, bm) = setup();
        assert!(!bm.is_enclave(Ppn(100), &mut mem).unwrap());
        bm.set(Ppn(100), true, &mut mem).unwrap();
        assert!(bm.is_enclave(Ppn(100), &mut mem).unwrap());
        bm.set(Ppn(100), false, &mut mem).unwrap();
        assert!(!bm.is_enclave(Ppn(100), &mut mem).unwrap());
    }

    #[test]
    fn bitmap_protects_itself() {
        let (mut mem, bm) = setup();
        // The bitmap's own frames must read as enclave memory.
        let own = bm.bm_base.ppn();
        assert!(bm.is_enclave(own, &mut mem).unwrap());
    }

    #[test]
    fn neighbouring_bits_independent() {
        let (mut mem, bm) = setup();
        bm.set(Ppn(8), true, &mut mem).unwrap();
        assert!(!bm.is_enclave(Ppn(7), &mut mem).unwrap());
        assert!(!bm.is_enclave(Ppn(9), &mut mem).unwrap());
        assert!(bm.is_enclave(Ppn(8), &mut mem).unwrap());
    }

    #[test]
    fn out_of_range_frame_rejected() {
        let (mut mem, bm) = setup();
        assert!(bm.is_enclave(Ppn(4096), &mut mem).is_err());
        assert!(bm.set(Ppn(9999), true, &mut mem).is_err());
    }

    #[test]
    fn region_size_rounds_to_pages() {
        let bm = EnclaveBitmap {
            bm_base: PhysAddr(0),
            covered_frames: 1,
        };
        assert_eq!(bm.region_bytes(), PAGE_SIZE);
        let bm2 = EnclaveBitmap {
            bm_base: PhysAddr(0),
            covered_frames: PAGE_SIZE * 8 + 1,
        };
        assert_eq!(bm2.region_bytes(), 2 * PAGE_SIZE);
    }
}
