//! EMS-managed IOMMU (§V-B, §IX).
//!
//! "For peripherals relying on IOMMU, it is EMS to manage the IOMMU page
//! tables to enhance security." §IX adds for GPUs: "IOMMU being managed by
//! EMS for security, including register configuration, IOTLB cache
//! invalidation, and address translation table maintenance. The address
//! translation table records memory regions accessible to GPU DMA and
//! protects enclave memory from unauthorized DMA accesses."
//!
//! Devices issue I/O virtual addresses (IOVAs); the IOMMU translates through
//! per-device tables that only EMS can edit (the [`crate::ihub`] capability
//! gates the mutating calls). The IOTLB caches translations and is
//! invalidated by EMS on remap and detach — the same stale-entry discipline
//! as the CS TLB and the bitmap.

use hypertee_mem::addr::{PhysAddr, Ppn, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};

use crate::dma::{DeviceId, DmaPerm};

/// An I/O virtual page number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IoVpn(pub u64);

/// One IOMMU mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IommuEntry {
    /// Target physical frame.
    pub ppn: Ppn,
    /// Allowed direction.
    pub perm: DmaPerm,
}

/// IOMMU event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IommuStats {
    /// IOTLB hits.
    pub(crate) iotlb_hits: u64,
    /// IOTLB misses (table walks).
    pub(crate) iotlb_misses: u64,
    /// Translation faults (unmapped IOVA or permission).
    pub(crate) faults: u64,
    /// IOTLB invalidations issued by EMS.
    pub(crate) invalidations: u64,
}

/// The IOMMU: per-device translation tables plus a shared IOTLB.
#[derive(Debug, Default)]
pub struct Iommu {
    tables: HashMap<DeviceId, HashMap<IoVpn, IommuEntry>>,
    iotlb: VecDeque<(DeviceId, IoVpn, IommuEntry)>,
    iotlb_capacity: usize,
    /// Counters.
    pub stats: IommuStats,
}

impl Iommu {
    /// Creates an IOMMU with an IOTLB of `iotlb_capacity` entries.
    pub(crate) fn new(iotlb_capacity: usize) -> Iommu {
        Iommu {
            iotlb_capacity: iotlb_capacity.max(1),
            ..Iommu::default()
        }
    }

    /// Installs one mapping for a device (EMS-only; called through the iHub
    /// gate). Replaces any existing mapping for the IOVA.
    pub(crate) fn map(&mut self, dev: DeviceId, iova: IoVpn, entry: IommuEntry) {
        self.tables.entry(dev).or_default().insert(iova, entry);
        // A remap must not leave a stale cached translation.
        self.invalidate(dev, iova);
    }

    /// Removes every mapping of a device (EMS-only; device teardown).
    pub(crate) fn detach(&mut self, dev: DeviceId) {
        self.tables.remove(&dev);
        self.iotlb.retain(|(d, _, _)| *d != dev);
        self.stats.invalidations += 1;
    }

    fn invalidate(&mut self, dev: DeviceId, iova: IoVpn) {
        let before = self.iotlb.len();
        self.iotlb.retain(|(d, v, _)| !(*d == dev && *v == iova));
        if self.iotlb.len() != before {
            self.stats.invalidations += 1;
        }
    }

    /// Translates a device access of `len` bytes at byte address
    /// `iova_addr`. Returns the physical address on success.
    ///
    /// Accesses may not cross an I/O page boundary (devices issue
    /// page-granular bursts; larger transfers are split by the DMA engine).
    pub(crate) fn translate(
        &mut self,
        dev: DeviceId,
        iova_addr: u64,
        len: u64,
        write: bool,
    ) -> Option<PhysAddr> {
        let iova = IoVpn(iova_addr / PAGE_SIZE);
        let offset = iova_addr % PAGE_SIZE;
        if len == 0 || offset + len > PAGE_SIZE {
            self.stats.faults += 1;
            return None;
        }
        let entry = match self
            .iotlb
            .iter()
            .find(|(d, v, _)| *d == dev && *v == iova)
            .map(|(_, _, e)| *e)
        {
            Some(e) => {
                self.stats.iotlb_hits += 1;
                e
            }
            None => {
                self.stats.iotlb_misses += 1;
                let looked_up = self.tables.get(&dev).and_then(|t| t.get(&iova)).copied();
                let Some(e) = looked_up else {
                    self.stats.faults += 1;
                    return None;
                };
                if self.iotlb.len() == self.iotlb_capacity {
                    self.iotlb.pop_front();
                }
                self.iotlb.push_back((dev, iova, e));
                e
            }
        };
        let perm_ok = match entry.perm {
            DmaPerm::ReadWrite => true,
            DmaPerm::ReadOnly => !write,
        };
        if !perm_ok {
            self.stats.faults += 1;
            return None;
        }
        Some(PhysAddr(entry.ppn.base().0 + offset))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> DeviceId {
        DeviceId(7)
    }

    #[test]
    fn translation_roundtrip() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(5),
            IommuEntry {
                ppn: Ppn(100),
                perm: DmaPerm::ReadWrite,
            },
        );
        let pa = iommu
            .translate(dev(), 5 * PAGE_SIZE + 0x30, 64, true)
            .unwrap();
        assert_eq!(pa, PhysAddr(100 * PAGE_SIZE + 0x30));
    }

    #[test]
    fn unmapped_iova_faults() {
        let mut iommu = Iommu::new(8);
        assert!(iommu.translate(dev(), 0x1000, 8, false).is_none());
        assert!(iommu.stats.iotlb_misses >= 1);
    }

    #[test]
    fn tables_are_per_device() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            DeviceId(1),
            IoVpn(0),
            IommuEntry {
                ppn: Ppn(10),
                perm: DmaPerm::ReadWrite,
            },
        );
        assert!(iommu.translate(DeviceId(2), 0, 8, false).is_none());
        assert!(iommu.translate(DeviceId(1), 0, 8, false).is_some());
    }

    #[test]
    fn readonly_mapping_blocks_writes() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(1),
            IommuEntry {
                ppn: Ppn(20),
                perm: DmaPerm::ReadOnly,
            },
        );
        assert!(iommu.translate(dev(), PAGE_SIZE, 8, false).is_some());
        assert!(iommu.translate(dev(), PAGE_SIZE, 8, true).is_none());
    }

    #[test]
    fn iotlb_caches_and_invalidation_works() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(3),
            IommuEntry {
                ppn: Ppn(30),
                perm: DmaPerm::ReadWrite,
            },
        );
        iommu.translate(dev(), 3 * PAGE_SIZE, 8, false).unwrap();
        iommu.translate(dev(), 3 * PAGE_SIZE + 8, 8, false).unwrap();
        assert_eq!(iommu.stats.iotlb_hits, 1);
        // EMS detaches the device: the cached translation must die with the
        // mapping — the stale-IOTLB attack the paper's invalidation
        // discipline stops.
        iommu.detach(dev());
        assert!(iommu.translate(dev(), 3 * PAGE_SIZE, 8, false).is_none());
    }

    #[test]
    fn remap_replaces_cached_entry() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(4),
            IommuEntry {
                ppn: Ppn(40),
                perm: DmaPerm::ReadWrite,
            },
        );
        iommu.translate(dev(), 4 * PAGE_SIZE, 8, false).unwrap();
        iommu.map(
            dev(),
            IoVpn(4),
            IommuEntry {
                ppn: Ppn(41),
                perm: DmaPerm::ReadWrite,
            },
        );
        let pa = iommu.translate(dev(), 4 * PAGE_SIZE, 8, false).unwrap();
        assert_eq!(
            pa.ppn(),
            Ppn(41),
            "stale IOTLB entry must not survive a remap"
        );
    }

    #[test]
    fn page_crossing_access_faults() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(0),
            IommuEntry {
                ppn: Ppn(10),
                perm: DmaPerm::ReadWrite,
            },
        );
        iommu.map(
            dev(),
            IoVpn(1),
            IommuEntry {
                ppn: Ppn(11),
                perm: DmaPerm::ReadWrite,
            },
        );
        assert!(iommu.translate(dev(), PAGE_SIZE - 8, 16, false).is_none());
    }

    #[test]
    fn detach_clears_everything() {
        let mut iommu = Iommu::new(8);
        iommu.map(
            dev(),
            IoVpn(0),
            IommuEntry {
                ppn: Ppn(10),
                perm: DmaPerm::ReadWrite,
            },
        );
        iommu.translate(dev(), 0, 8, false).unwrap();
        iommu.detach(dev());
        assert!(iommu.translate(dev(), 0, 8, false).is_none());
    }

    #[test]
    fn iotlb_capacity_evicts_fifo() {
        let mut iommu = Iommu::new(2);
        for i in 0..3u64 {
            iommu.map(
                dev(),
                IoVpn(i),
                IommuEntry {
                    ppn: Ppn(50 + i),
                    perm: DmaPerm::ReadWrite,
                },
            );
            iommu.translate(dev(), i * PAGE_SIZE, 8, false).unwrap();
        }
        // Entry 0 was evicted: next access misses but still translates.
        let misses = iommu.stats.iotlb_misses;
        iommu.translate(dev(), 0, 8, false).unwrap();
        assert_eq!(iommu.stats.iotlb_misses, misses + 1);
    }
}
