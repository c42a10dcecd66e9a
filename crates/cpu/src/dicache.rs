//! The decoded-instruction cache: `decode()` results keyed by physical line.
//!
//! Fetching one instruction through the MMU costs a full 64-byte MKTME line
//! round trip (AES-CTR decrypt + per-line MAC verify — one Keccak
//! permutation per fetch). The cache amortizes that: a whole line is
//! fetched and decoded once, and straight-line execution then dispatches
//! over the decoded slots without touching memory at all
//! ([`crate::hart::Cpu::run_block`]).
//!
//! Coherence discipline mirrors the PTW's walk cache in `hypertee_mem`:
//!
//! * **Epoch sync** — [`hypertee_mem::system::CoreMmu::flush_epoch`] advances
//!   on every translation flush (world switch, EALLOC/EFREE, shm
//!   attach/detach) and on mapping teardown (EDESTROY). The dispatch loop
//!   calls `DecodeCache::sync_epoch` before running, dropping every line
//!   on mismatch — the cache inherits the TLB/walk-cache flush sites
//!   without new plumbing.
//! * **Store-side invalidation** — every store through the interpreter (and
//!   the host-side `vm_store`/window paths at the machine layer) reports
//!   its physical address; [`DecodeCache::invalidate_range`] drops any
//!   cached line it overlaps, so self-modifying code refetches new bytes
//!   exactly like the uncached oracle.
//!
//! Correctness is differential, not architectural: cached dispatch must be
//! bit-identical — registers, PC, memory, counters, cycle charges — to the
//! seed fetch-decode-execute path kept verbatim as
//! [`crate::hart::Cpu::step_ref`] (see `tests/interp_diff.rs`).

use crate::hart::instr_cost;
use crate::isa::{decode, Instr};
use std::collections::HashMap;

/// Bytes per cached line — the MKTME integrity line size, so one cache fill
/// is exactly one engine line round trip.
pub(crate) const LINE_BYTES: u64 = 64;

/// Instruction slots per line.
pub(crate) const LINE_SLOTS: usize = (LINE_BYTES / 4) as usize;

/// Default capacity in lines (256 KiB of decoded code — far beyond any
/// enclave program in the suite, so steady state never evicts).
pub const DEFAULT_LINES: usize = 4096;

/// Hit/miss counters (observability only — not a timing-model input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DicacheStats {
    /// Block entries that found their line decoded.
    pub hits: u64,
    /// Block entries that had to fetch and decode the line.
    pub misses: u64,
    /// Lines dropped by store-side invalidation.
    pub invalidations: u64,
    /// Whole-cache flushes (epoch bumps + capacity resets).
    pub(crate) flushes: u64,
}

/// One decoded 64-byte line: per-slot decode results (the raw word is kept
/// for illegal encodings so the trap can report it) and per-slot timing
/// cost, precomputed so block dispatch charges with one add per slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DecodedLine {
    /// Decoded instructions, or the raw undecodable word.
    pub(crate) slots: [Result<Instr, u32>; LINE_SLOTS],
    /// [`instr_cost`] per slot (0 for illegal slots).
    pub(crate) cost: [u8; LINE_SLOTS],
}

impl DecodedLine {
    /// Decodes all slots of a raw 64-byte line.
    pub(crate) fn decode_line(bytes: &[u8; LINE_BYTES as usize]) -> DecodedLine {
        let mut slots = [Err(0u32); LINE_SLOTS];
        let mut cost = [0u8; LINE_SLOTS];
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let word = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
            slots[i] = decode(word).map_err(|_| word);
            if let Ok(instr) = &slots[i] {
                cost[i] = instr_cost(instr) as u8;
            }
        }
        DecodedLine { slots, cost }
    }
}

/// The per-hart decoded-instruction cache, keyed by 64-byte-aligned
/// physical line address.
#[derive(Debug)]
pub struct DecodeCache {
    lines: HashMap<u64, DecodedLine>,
    capacity: usize,
    epoch: u64,
    /// Counters.
    pub stats: DicacheStats,
}

impl DecodeCache {
    /// A cache holding up to `capacity` decoded lines.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn new(capacity: usize) -> DecodeCache {
        assert!(capacity > 0, "decode cache needs at least one line");
        DecodeCache {
            lines: HashMap::with_capacity(capacity.min(DEFAULT_LINES)),
            capacity,
            epoch: 0,
            stats: DicacheStats::default(),
        }
    }

    /// Adopts the MMU's flush epoch, dropping every line if it moved since
    /// the last sync (the EALLOC/EFREE/EDESTROY/world-switch discipline).
    pub(crate) fn sync_epoch(&mut self, mmu_epoch: u64) {
        if self.epoch != mmu_epoch {
            self.flush_all();
            self.epoch = mmu_epoch;
        }
    }

    /// Looks up the decoded line at 64-byte-aligned `line_pa`, counting the
    /// hit or miss. Returns a copy: lines are small and dispatch must keep
    /// executing its snapshot while stores invalidate the cache underneath.
    pub(crate) fn get(&mut self, line_pa: u64) -> Option<DecodedLine> {
        debug_assert_eq!(line_pa % LINE_BYTES, 0);
        match self.lines.get(&line_pa) {
            Some(line) => {
                self.stats.hits += 1;
                Some(*line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Decodes and caches the raw line bytes fetched at `line_pa`,
    /// returning the decoded form. When the cache is full it resets
    /// wholesale (coarse but epoch-cheap; capacity is sized to never evict
    /// in practice).
    pub(crate) fn fill(&mut self, line_pa: u64, bytes: &[u8; LINE_BYTES as usize]) -> DecodedLine {
        debug_assert_eq!(line_pa % LINE_BYTES, 0);
        let line = DecodedLine::decode_line(bytes);
        if self.lines.len() >= self.capacity && !self.lines.contains_key(&line_pa) {
            self.flush_all();
        }
        self.lines.insert(line_pa, line);
        line
    }

    /// Drops every line overlapping `[pa, pa + len)` — the store-side
    /// invalidation hook. Counts only lines actually present.
    pub fn invalidate_range(&mut self, pa: u64, len: u64) {
        if len == 0 || self.lines.is_empty() {
            return;
        }
        let first = pa & !(LINE_BYTES - 1);
        let last = (pa + len - 1) & !(LINE_BYTES - 1);
        let mut line = first;
        loop {
            if self.lines.remove(&line).is_some() {
                self.stats.invalidations += 1;
            }
            if line == last {
                break;
            }
            line += LINE_BYTES;
        }
    }

    /// Drops every cached line.
    pub(crate) fn flush_all(&mut self) {
        self.lines.clear();
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_with(words: &[u32]) -> [u8; LINE_BYTES as usize] {
        let mut bytes = [0u8; LINE_BYTES as usize];
        for (i, w) in words.iter().enumerate() {
            bytes[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    #[test]
    fn fill_then_hit() {
        let mut c = DecodeCache::new(8);
        assert!(c.get(0x1000).is_none());
        let line = c.fill(0x1000, &line_with(&[0x0050_0093])); // addi x1, x0, 5
        assert!(line.slots[0].is_ok());
        assert_eq!(line.cost[0], 1);
        assert!(c.get(0x1000).is_some());
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn illegal_slots_keep_the_raw_word() {
        let mut c = DecodeCache::new(8);
        let line = c.fill(0x0, &line_with(&[0xffff_ffff]));
        assert_eq!(line.slots[0], Err(0xffff_ffff));
        assert_eq!(line.cost[0], 0);
        // All-zero padding decodes illegal too (word 0).
        assert_eq!(line.slots[1], Err(0));
    }

    #[test]
    fn store_invalidation_drops_overlapping_lines_only() {
        let mut c = DecodeCache::new(8);
        c.fill(0x1000, &line_with(&[0x0050_0093]));
        c.fill(0x1040, &line_with(&[0x0050_0093]));
        c.fill(0x1080, &line_with(&[0x0050_0093]));
        // An 8-byte store straddling nothing: only its line goes.
        c.invalidate_range(0x1048, 8);
        assert!(c.get(0x1040).is_none());
        assert!(c.get(0x1000).is_some());
        assert!(c.get(0x1080).is_some());
        assert_eq!(c.stats.invalidations, 1);
        // A span crossing two lines drops both.
        c.invalidate_range(0x1030, 0x60);
        assert!(c.get(0x1000).is_none());
        assert!(c.get(0x1080).is_none());
        assert_eq!(c.stats.invalidations, 3);
    }

    #[test]
    fn epoch_mismatch_flushes() {
        let mut c = DecodeCache::new(8);
        c.fill(0x1000, &line_with(&[0x0050_0093]));
        c.sync_epoch(0); // matches the initial epoch: nothing happens
        assert_eq!(c.lines.len(), 1);
        c.sync_epoch(3);
        assert!(c.lines.is_empty());
        assert_eq!(c.stats.flushes, 1);
        c.sync_epoch(3); // idempotent
        assert_eq!(c.stats.flushes, 1);
    }

    #[test]
    fn capacity_overflow_resets_wholesale() {
        let mut c = DecodeCache::new(2);
        c.fill(0x0, &line_with(&[0x0050_0093]));
        c.fill(0x40, &line_with(&[0x0050_0093]));
        c.fill(0x80, &line_with(&[0x0050_0093]));
        assert_eq!(c.lines.len(), 1, "reset then refilled with the new line");
        assert_eq!(c.stats.flushes, 1);
        assert!(c.get(0x80).is_some());
    }

    #[test]
    fn million_word_sweep_bit_equals_fresh_decode() {
        // The exhaustive satellite: a seeded 1M-word sweep asserting cached
        // lookups bit-equal fresh `decode()` results, including refetch
        // after invalidation.
        let mut c = DecodeCache::new(DEFAULT_LINES);
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        const WORDS: usize = 1 << 20;
        const LINES: usize = WORDS / LINE_SLOTS;
        let mut images: Vec<[u8; LINE_BYTES as usize]> = Vec::with_capacity(LINES);
        for _ in 0..LINES {
            let mut bytes = [0u8; LINE_BYTES as usize];
            for chunk in bytes.chunks_exact_mut(8) {
                chunk.copy_from_slice(&rng().to_le_bytes());
            }
            images.push(bytes);
        }
        // Pass 1: fill + verify every slot against a fresh decode().
        for (i, bytes) in images.iter().enumerate() {
            let pa = i as u64 * LINE_BYTES;
            let line = match c.get(pa) {
                Some(line) => line,
                None => c.fill(pa, bytes),
            };
            for (slot, chunk) in bytes.chunks_exact(4).enumerate() {
                let word = u32::from_le_bytes(chunk.try_into().unwrap());
                assert_eq!(line.slots[slot], decode(word).map_err(|_| word));
                let expect_cost = decode(word).map(|i| instr_cost(&i)).unwrap_or(0);
                assert_eq!(line.cost[slot] as u64, expect_cost);
            }
        }
        // Pass 2: revisit a seeded sample through the cache; mutate some
        // lines in "memory", invalidate, and check the refetch decodes the
        // new bytes (not the stale cached ones).
        for _ in 0..50_000 {
            let idx = (rng() % LINES as u64) as usize;
            let pa = idx as u64 * LINE_BYTES;
            if rng() % 8 == 0 {
                // Store over the line: new word at a random slot.
                let slot = (rng() % LINE_SLOTS as u64) as usize;
                let new_word = rng() as u32;
                images[idx][slot * 4..slot * 4 + 4].copy_from_slice(&new_word.to_le_bytes());
                c.invalidate_range(pa + slot as u64 * 4, 4);
                assert!(c.get(pa).is_none(), "invalidated line must miss");
            }
            let line = match c.get(pa) {
                Some(line) => line,
                None => c.fill(pa, &images[idx]),
            };
            let slot = (rng() % LINE_SLOTS as u64) as usize;
            let word = u32::from_le_bytes(images[idx][slot * 4..slot * 4 + 4].try_into().unwrap());
            assert_eq!(line.slots[slot], decode(word).map_err(|_| word));
        }
        assert!(c.stats.hits > 0 && c.stats.invalidations > 0);
    }
}
