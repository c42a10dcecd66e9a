//! A functional set-associative cache model for the Table III hierarchy.
//!
//! The analytic model in [`crate::perf`] consumes *miss rates*; this module
//! lets those rates be measured instead of assumed: drive an address trace
//! through an L1→L2 hierarchy built from a [`crate::config::CoreConfig`]
//! and read the counters. Used to validate the MemStream model (working
//! sets ≥ 4× LLC really do miss ~100% of the time) and available for trace
//! experiments.

use crate::config::CoreConfig;

/// Cache line size in bytes (matching the MKTME line granularity).
const LINE_BYTES: u64 = 64;

/// Hit/miss counters for one cache level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct CacheStats {
    /// Accesses that hit.
    hits: u64,
    /// Accesses that missed.
    misses: u64,
}

/// One set-associative cache level with LRU replacement.
#[derive(Debug)]
struct Cache {
    sets: Vec<Vec<u64>>, // tags, most-recent last
    ways: usize,
    set_shift: u32,
    set_mask: u64,
    /// Counters.
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache of `size_bytes` with `ways` associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `size_bytes / (ways × 64)` is a nonzero power of two.
    fn new(size_bytes: u64, ways: usize) -> Cache {
        let sets = size_bytes / (ways as u64 * LINE_BYTES);
        assert!(
            sets.is_power_of_two() && sets > 0,
            "set count must be a power of two"
        );
        Cache {
            sets: (0..sets).map(|_| Vec::with_capacity(ways)).collect(),
            ways,
            set_shift: LINE_BYTES.trailing_zeros(),
            set_mask: sets - 1,
            stats: CacheStats::default(),
        }
    }

    /// Accesses one address; returns `true` on hit. Misses fill with LRU
    /// eviction.
    fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.set_shift;
        let set_idx = (line & self.set_mask) as usize;
        let tag = line >> self.set_mask.count_ones();
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.push(t);
            self.stats.hits += 1;
            true
        } else {
            if set.len() == self.ways {
                set.remove(0);
            }
            set.push(tag);
            self.stats.misses += 1;
            false
        }
    }

    /// Flushes all contents (context-switch modelling).
    fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }
}

/// An L1-D → L2 hierarchy built from a core configuration.
#[derive(Debug)]
struct Hierarchy {
    /// Level-1 data cache.
    l1d: Cache,
    /// Unified level-2 cache.
    l2: Cache,
}

impl Hierarchy {
    /// Builds the hierarchy from Table III parameters (L1-D 8-way,
    /// L2 16-way, typical BOOM organisation).
    fn from_config(config: &CoreConfig) -> Hierarchy {
        Hierarchy {
            l1d: Cache::new(config.l1_kib.1 as u64 * 1024, 8),
            l2: Cache::new(config.l2_kib as u64 * 1024, 16),
        }
    }

    /// One data access through the hierarchy; returns which level hit.
    fn access(&mut self, addr: u64) -> HitLevel {
        if self.l1d.access(addr) {
            HitLevel::L1
        } else if self.l2.access(addr) {
            HitLevel::L2
        } else {
            HitLevel::Memory
        }
    }

    /// Fraction of accesses that went to DRAM.
    fn dram_rate(&self) -> f64 {
        let total = self.l1d.stats.hits + self.l1d.stats.misses;
        if total == 0 {
            0.0
        } else {
            self.l2.stats.misses as f64 / total as f64
        }
    }
}

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HitLevel {
    /// Level-1 hit.
    L1,
    /// Level-2 hit.
    L2,
    /// Went to DRAM.
    Memory,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(64 * 1024, 8);
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1008), "same line");
        assert!(!c.access(0x1040), "next line misses");
    }

    #[test]
    fn lru_within_a_set() {
        // Direct-mapped-ish scenario: 2-way set, three conflicting lines.
        let mut c = Cache::new(2 * 64, 2); // 1 set, 2 ways
        let a = 0u64;
        let b = 64;
        let d = 128;
        c.access(a);
        c.access(b);
        c.access(a); // a becomes MRU
        c.access(d); // evicts b (LRU)
        assert!(c.access(a), "a survived");
        assert!(!c.access(b), "b was evicted");
    }

    #[test]
    fn flush_empties() {
        let mut c = Cache::new(4 * 1024, 4);
        c.access(0x40);
        c.flush();
        assert!(!c.access(0x40));
    }

    #[test]
    fn hierarchy_levels_fill_in_order() {
        let mut h = Hierarchy::from_config(&CoreConfig::cs());
        assert_eq!(h.access(0x1000), HitLevel::Memory);
        assert_eq!(h.access(0x1000), HitLevel::L1);
    }

    #[test]
    fn memstream_working_sets_behave_like_fig8b_assumes() {
        // A pointer chase over a working set ≥ 4× LLC misses almost always;
        // one that fits in L2 almost never reaches DRAM — the premise of
        // the Fig. 8(b) model.
        let config = CoreConfig::cs(); // 1 MiB L2.
        let chase = |bytes: u64| {
            let mut h = Hierarchy::from_config(&config);
            let lines = bytes / LINE_BYTES;
            // Two passes with a large stride to defeat spatial locality;
            // measure only the second pass (steady state).
            for pass in 0..2 {
                if pass == 1 {
                    h.l1d.stats = CacheStats::default();
                    h.l2.stats = CacheStats::default();
                }
                let mut idx = 0u64;
                for _ in 0..lines {
                    h.access(idx * LINE_BYTES);
                    idx = (idx + 9973) % lines; // co-prime stride walk
                }
            }
            h.dram_rate()
        };
        let big = chase(4 << 20);
        let small = chase(256 << 10);
        assert!(big > 0.9, "4MiB working set DRAM rate {big:.3}");
        assert!(small < 0.05, "256KiB working set DRAM rate {small:.3}");
    }
}
