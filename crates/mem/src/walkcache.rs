//! A small page-walk cache: intermediate-level PTE cache for the PTW.
//!
//! Real walkers cache the upper levels of the radix walk so repeated
//! translations in the same region only read the leaf level. This models
//! that structure for the functional path: the cache maps
//! `(page-table root, VPN[2..1])` to the physical frame of the *leaf* page
//! table, skipping the two intermediate PTE reads on a hit.
//!
//! Security discipline mirrors the TLB's (the stale-TLB argument of §IV-B
//! applies unchanged): the cache is flushed on every address-space switch
//! and whenever enclave memory is torn down (EFREE/EDESTROY), because a
//! freed page-table frame may be reused for data and a stale intermediate
//! pointer would then treat attacker bytes as PTEs.
//!
//! Charge invariance: a hit changes *host* wall-clock only. The walk still
//! reports `levels_touched = 3` and the raw physical-access counter is kept
//! on the uncached trajectory, so the timing model prices cached and
//! uncached walks identically.

use crate::addr::Ppn;

/// Hit/miss counters (observability only — not a timing-model input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCacheStats {
    /// Lookups that found a cached leaf-table pointer.
    pub hits: u64,
    /// Lookups that fell through to a full walk.
    pub misses: u64,
    /// Explicit flushes (context switches + enclave teardown).
    pub flushes: u64,
}

/// One cached upper-level walk: root frame + upper 18 VPN bits → leaf-table
/// frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WalkCacheEntry {
    root: Ppn,
    /// `vpn >> 9`: the two upper Sv39 indices, which select the leaf table.
    region: u64,
    leaf_table: Ppn,
}

/// FIFO walk cache, deliberately small like its silicon counterpart.
#[derive(Debug)]
pub struct WalkCache {
    entries: Vec<WalkCacheEntry>,
    capacity: usize,
    next_victim: usize,
    /// Counters.
    pub stats: WalkCacheStats,
    /// Bench instrumentation: when set, every lookup misses and nothing is
    /// inserted, restoring the pre-walk-cache trajectory (all three levels
    /// read on every walk) so `bench_report` can measure the cache's real
    /// wall-clock contribution instead of comparing two warm paths.
    pub bypass: bool,
}

impl WalkCache {
    /// Creates a cache with room for `capacity` leaf-table pointers.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub(crate) fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "walk cache needs at least one entry");
        WalkCache {
            entries: Vec::with_capacity(capacity),
            capacity,
            next_victim: 0,
            stats: WalkCacheStats::default(),
            bypass: false,
        }
    }

    /// Looks up the leaf-table frame for `(root, vpn >> 9)`, counting the
    /// hit or miss.
    pub(crate) fn lookup(&mut self, root: Ppn, region: u64) -> Option<Ppn> {
        if self.bypass {
            self.stats.misses += 1;
            return None;
        }
        match self
            .entries
            .iter()
            .find(|e| e.root == root && e.region == region)
        {
            Some(e) => {
                self.stats.hits += 1;
                Some(e.leaf_table)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records the leaf-table frame discovered by a full walk, evicting
    /// FIFO when full.
    pub(crate) fn insert(&mut self, root: Ppn, region: u64, leaf_table: Ppn) {
        if self.bypass {
            return;
        }
        let entry = WalkCacheEntry {
            root,
            region,
            leaf_table,
        };
        if let Some(existing) = self
            .entries
            .iter_mut()
            .find(|e| e.root == root && e.region == region)
        {
            *existing = entry;
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push(entry);
        } else {
            self.entries[self.next_victim] = entry;
            self.next_victim = (self.next_victim + 1) % self.capacity;
        }
    }

    /// Drops every cached pointer (context switch / enclave teardown).
    pub(crate) fn flush_all(&mut self) {
        self.entries.clear();
        self.next_victim = 0;
        self.stats.flushes += 1;
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_insert() {
        let mut wc = WalkCache::new(4);
        assert_eq!(wc.lookup(Ppn(1), 7), None);
        wc.insert(Ppn(1), 7, Ppn(42));
        assert_eq!(wc.lookup(Ppn(1), 7), Some(Ppn(42)));
        assert_eq!(wc.stats.hits, 1);
        assert_eq!(wc.stats.misses, 1);
    }

    #[test]
    fn keyed_by_root_and_region() {
        let mut wc = WalkCache::new(4);
        wc.insert(Ppn(1), 7, Ppn(42));
        assert_eq!(wc.lookup(Ppn(2), 7), None, "different root must miss");
        assert_eq!(wc.lookup(Ppn(1), 8), None, "different region must miss");
    }

    #[test]
    fn fifo_eviction() {
        let mut wc = WalkCache::new(2);
        wc.insert(Ppn(1), 0, Ppn(10));
        wc.insert(Ppn(1), 1, Ppn(11));
        wc.insert(Ppn(1), 2, Ppn(12)); // evicts region 0
        assert_eq!(wc.lookup(Ppn(1), 0), None);
        assert_eq!(wc.lookup(Ppn(1), 1), Some(Ppn(11)));
        assert_eq!(wc.lookup(Ppn(1), 2), Some(Ppn(12)));
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut wc = WalkCache::new(2);
        wc.insert(Ppn(1), 0, Ppn(10));
        wc.insert(Ppn(1), 0, Ppn(20));
        assert_eq!(wc.entries.len(), 1);
        assert_eq!(wc.lookup(Ppn(1), 0), Some(Ppn(20)));
    }

    #[test]
    fn flush_empties_and_counts() {
        let mut wc = WalkCache::new(4);
        wc.insert(Ppn(1), 0, Ppn(10));
        wc.flush_all();
        assert!(wc.is_empty());
        assert_eq!(wc.stats.flushes, 1);
        assert_eq!(wc.lookup(Ppn(1), 0), None);
    }
}
