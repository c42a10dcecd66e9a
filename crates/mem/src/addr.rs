//! Address types.
//!
//! §IV-C: "the width of CS core front-side memory bus is 56 bits, among which
//! the lowest 40 bits are used for the physical address, and the highest 16
//! bits are used for the KeyID." The simulator carries the address and the
//! KeyID as separate values and never packs them into a bus word.

/// Page size in bytes (RISC-V Sv39 base pages).
pub const PAGE_SIZE: u64 = 4096;

/// Bits in a page offset.
pub(crate) const PAGE_SHIFT: u32 = 12;

/// A physical byte address (its width is not checked against the 40-bit bus field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

/// A virtual byte address (Sv39: 39 significant bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

/// A physical page (frame) number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ppn(pub u64);

/// A virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Vpn(pub u64);

/// A memory-encryption key identifier carried in the high bus bits.
/// KeyID 0 means "no encryption" (ordinary host memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyId(pub u16);

impl KeyId {
    /// The host (unencrypted) KeyID.
    pub const HOST: KeyId = KeyId(0);

    /// Whether this KeyID selects an encryption key.
    pub fn is_encrypted(&self) -> bool {
        self.0 != 0
    }
}

impl PhysAddr {
    /// The page containing this address.
    pub fn ppn(&self) -> Ppn {
        Ppn(self.0 >> PAGE_SHIFT)
    }

    /// Offset within the page.
    pub(crate) fn offset(&self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }
}

impl VirtAddr {
    /// The virtual page containing this address.
    pub(crate) fn vpn(&self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Offset within the page.
    pub fn offset(&self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// Sv39 page-table indices (level 2, 1, 0), 9 bits each.
    pub(crate) fn sv39_indices(&self) -> [usize; 3] {
        let vpn = self.0 >> PAGE_SHIFT;
        [
            ((vpn >> 18) & 0x1ff) as usize,
            ((vpn >> 9) & 0x1ff) as usize,
            (vpn & 0x1ff) as usize,
        ]
    }
}

impl Ppn {
    /// Base physical address of this frame.
    pub fn base(&self) -> PhysAddr {
        PhysAddr(self.0 << PAGE_SHIFT)
    }
}

impl Vpn {
    /// Base virtual address of this page.
    pub(crate) fn base(&self) -> VirtAddr {
        VirtAddr(self.0 << PAGE_SHIFT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sv39_indices_decompose() {
        // vpn = (1 << 18) | (2 << 9) | 3 → indices [1, 2, 3].
        let va = VirtAddr(((1u64 << 18 | 2 << 9 | 3) << PAGE_SHIFT) | 0x123);
        assert_eq!(va.sv39_indices(), [1, 2, 3]);
        assert_eq!(va.offset(), 0x123);
    }

    #[test]
    fn page_math() {
        let pa = PhysAddr(0x5432);
        assert_eq!(pa.ppn(), Ppn(5));
        assert_eq!(pa.offset(), 0x432);
        assert_eq!(Ppn(5).base(), PhysAddr(0x5000));
        assert_eq!(Vpn(7).base().vpn(), Vpn(7));
    }

    #[test]
    fn host_keyid_is_plaintext() {
        assert!(!KeyId::HOST.is_encrypted());
        assert!(KeyId(3).is_encrypted());
    }
}
