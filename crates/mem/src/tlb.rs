//! TLB model with the "checked" bit of Fig. 5.
//!
//! "Once verified, the TLB is updated to indicate that this page has been
//! checked. Subsequent memory accesses hit in the TLB can thus proceed. To
//! prevent circumvention of bitmap checking via stale TLB entries, EMCall
//! flushes related TLB entries while encountering enclave context switches
//! and bitmap changes."

use crate::addr::{KeyId, Ppn, Vpn};
use crate::pagetable::Perms;
use std::collections::VecDeque;

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page.
    pub vpn: Vpn,
    /// Physical page.
    pub ppn: Ppn,
    /// Mapping permissions.
    pub perms: Perms,
    /// KeyID travelling with the translation.
    pub key: KeyId,
    /// Whether the bitmap check has been performed for this entry (Fig. 5).
    pub checked: bool,
}

/// Event counters the timing model prices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Full flushes.
    pub flushes: u64,
    /// Single-entry invalidations.
    pub single_invalidations: u64,
}

/// A finite-capacity TLB with FIFO replacement.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: VecDeque<TlbEntry>,
    capacity: usize,
    /// Counters.
    pub stats: TlbStats,
}

impl Tlb {
    /// Creates a TLB with the given entry capacity.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be positive");
        Tlb {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            stats: TlbStats::default(),
        }
    }

    /// Looks up a virtual page, counting hit/miss.
    pub fn lookup(&mut self, vpn: Vpn) -> Option<TlbEntry> {
        match self.entries.iter().find(|e| e.vpn == vpn) {
            Some(&e) => {
                self.stats.hits += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inserts an entry after a walk (evicting FIFO if full). An existing
    /// entry for the same vpn is replaced.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.entries.retain(|e| e.vpn != entry.vpn);
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(entry);
    }

    /// Flushes the whole TLB (enclave context switch).
    pub fn flush_all(&mut self) {
        self.entries.clear();
        self.stats.flushes += 1;
    }

    /// Invalidates the entry for one virtual page (bitmap change).
    pub fn flush_vpn(&mut self, vpn: Vpn) {
        let before = self.entries.len();
        self.entries.retain(|e| e.vpn != vpn);
        if self.entries.len() != before {
            self.stats.single_invalidations += 1;
        }
    }

    /// Invalidates every entry translating to a physical page (bitmap-bit
    /// change is keyed by frame, not VA).
    pub fn flush_ppn(&mut self, ppn: Ppn) {
        let before = self.entries.len();
        self.entries.retain(|e| e.ppn != ppn);
        if self.entries.len() != before {
            self.stats.single_invalidations += 1;
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the resident entries without disturbing hit/miss stats
    /// (observability for external coherence checkers; [`Tlb::lookup`]
    /// counts every probe as a hit or miss).
    pub fn entries(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry {
            vpn: Vpn(vpn),
            ppn: Ppn(ppn),
            perms: Perms::RW,
            key: KeyId::HOST,
            checked: true,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        assert!(tlb.lookup(Vpn(1)).is_none());
        tlb.insert(entry(1, 100));
        let e = tlb.lookup(Vpn(1)).unwrap();
        assert_eq!(e.ppn, Ppn(100));
        assert_eq!(tlb.stats.hits, 1);
        assert_eq!(tlb.stats.misses, 1);
    }

    #[test]
    fn fifo_eviction() {
        let mut tlb = Tlb::new(2);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.insert(entry(3, 3));
        assert!(tlb.lookup(Vpn(1)).is_none(), "oldest entry evicted");
        assert!(tlb.lookup(Vpn(2)).is_some());
        assert!(tlb.lookup(Vpn(3)).is_some());
    }

    #[test]
    fn reinsert_replaces() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 100));
        tlb.insert(entry(1, 200));
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(Vpn(1)).unwrap().ppn, Ppn(200));
    }

    #[test]
    fn flush_all_counts() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.flush_all();
        assert!(tlb.is_empty());
        assert_eq!(tlb.stats.flushes, 1);
        assert!(tlb.lookup(Vpn(1)).is_none());
    }

    #[test]
    fn selective_flush_by_ppn() {
        // Bitmap changes are per physical frame; all aliases must go.
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 50));
        tlb.insert(entry(2, 50));
        tlb.insert(entry(3, 60));
        tlb.flush_ppn(Ppn(50));
        assert!(tlb.lookup(Vpn(1)).is_none());
        assert!(tlb.lookup(Vpn(2)).is_none());
        assert!(tlb.lookup(Vpn(3)).is_some());
    }

    #[test]
    fn flush_vpn_only_target() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(1, 1));
        tlb.insert(entry(2, 2));
        tlb.flush_vpn(Vpn(1));
        assert!(tlb.lookup(Vpn(1)).is_none());
        assert!(tlb.lookup(Vpn(2)).is_some());
        assert_eq!(tlb.stats.single_invalidations, 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Tlb::new(0);
    }
}
