//! The calibration book: every cycle cost charged by the timing models.
//!
//! The paper measured its prototype on an FPGA; this reproduction replaces
//! the FPGA with the constants below. Each constant is annotated with the
//! paper anchor it was calibrated against (see DESIGN.md §4). All values are
//! **CS-core cycles** (2.5 GHz domain) unless stated otherwise; fractional
//! values represent amortised/overlapped costs.

use crate::clock::ClockDomains;

/// Cycle-cost calibration table.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyBook {
    /// Clock domains used for EMS→CS conversions.
    pub clocks: ClockDomains,

    // ---- Memory hierarchy -------------------------------------------------
    /// Effective cost of a last-level-cache miss (DRAM access) as seen by a
    /// dependent load. Anchor: typical FPGA-prototype DRAM latency.
    pub dram_access: f64,
    /// Extra latency the multi-key AES engine adds on a DRAM access. The
    /// counter stream is computed in parallel with the fetch, so only the
    /// final XOR plus pipeline fill shows. Anchor: Fig. 8(b), 3.1% average
    /// MemStream overhead together with [`Self::integrity_extra`].
    pub mktme_extra: f64,
    /// Extra latency of the 28-bit SHA-3 MAC check on a DRAM access
    /// (verified off the critical path, optimistically forwarded).
    pub integrity_extra: f64,
    /// Cost of a page-table walk (three levels, upper levels usually cached).
    pub ptw_walk: f64,
    /// Extra cost of the bitmap check after a walk: one bitmap line fetch,
    /// overlapped with the original permission check. Anchor: Fig. 10,
    /// 1.9% average / 4.6% xalancbmk (TLB miss rate 0.8%).
    pub bitmap_check_extra: f64,
    /// Fixed cost of one TLB flush operation.
    pub tlb_flush_op: f64,
    /// Per-page refill cost after a flush (one walk per touched page).
    pub post_flush_walk: f64,

    // ---- EMCall / mailbox transmission ------------------------------------
    /// EMCall trap + privilege check + request packet assembly.
    pub emcall_pack: f64,
    /// One fabric hop CS→iHub mailbox (and the symmetric response hop).
    pub fabric_hop: f64,
    /// Mailbox interrupt delivery and EMS-side fetch into its Rx queue.
    pub ems_notify: f64,
    /// EMS runtime dispatch of one primitive (EMS cycles, converted).
    pub ems_dispatch_ems_cycles: f64,
    /// EMCall response polling including the timing-obfuscation delay the
    /// paper adds against side-channel observation (§III-C).
    pub emcall_poll: f64,
    /// Base back-off before the first retry of a lost or aborted EMCall;
    /// attempt *n* waits `retry_backoff * 2^(n-1)` CS cycles. Only charged on
    /// the recovery path, so fault-free timing figures are unaffected.
    pub retry_backoff: f64,

    // ---- Enclave memory management ----------------------------------------
    /// Host `malloc` fixed cost (syscall + allocator metadata). Anchor:
    /// Fig. 8(a), 49.7% overhead at 128 KiB.
    pub host_malloc_base: f64,
    /// Host per-page cost (page fault + zeroing) for `malloc` first touch.
    pub host_page_cost: f64,
    /// EMS-side EALLOC handler base cost (EMS cycles, converted).
    pub ealloc_base_ems_cycles: f64,
    /// Extra per-page cost of EALLOC over host malloc (pool bookkeeping,
    /// bitmap and PTE updates on the EMS core). Anchor: Fig. 8(a), 6.3%
    /// overhead at 2 MiB.
    pub ealloc_page_extra: f64,
    /// EADD per-byte cost: copy into enclave memory plus page-table and
    /// bitmap setup on the EMS core. Anchor: Table IV "others" share.
    pub eadd_copy_per_byte: f64,
    /// Fixed management cost of a whole enclave lifecycle (ECREATE +
    /// EENTER/EEXIT pair + EDESTROY), excluding per-byte work.
    pub lifecycle_fixed: f64,

    // ---- Crypto engine (Table III) -----------------------------------------
    /// Engine AES throughput in bytes per CS cycle (1.24 Gbps @ 2.5 GHz).
    pub engine_aes_bytes_per_cycle: f64,
    /// Engine SHA-256 throughput in bytes per CS cycle (16.1 Gbps @ 2.5 GHz).
    pub engine_sha_bytes_per_cycle: f64,
    /// Engine signature cost (RSA sign: 123 ops/s → cycles per op).
    pub engine_sign_cycles: f64,
    /// Engine verify cost (10 K ops/s).
    pub engine_verify_cycles: f64,
    /// Software SHA-256 on the EMS core, cycles per byte (EMS cycles).
    /// Anchor: Table IV, EMEAS share 7.8% → 0.10% with the engine (~78×).
    pub sw_sha_cpb_ems: f64,
    /// Software AES on the EMS core, cycles per byte (EMS cycles).
    pub sw_aes_cpb_ems: f64,
    /// Software signature on the EMS core (cycles, EMS domain).
    pub sw_sign_ems_cycles: f64,
    /// Software AES on a CS core, cycles per byte — the conventional
    /// design's data-path encryption in Fig. 12.
    pub sw_aes_cpb_cs: f64,
    /// Plain memory copy on a CS core, cycles per byte (shared-memory path).
    pub copy_cpb_cs: f64,

    // ---- Context switches ---------------------------------------------------
    /// EENTER/ERESUME/EEXIT round trip through EMCall (atomic register
    /// update, control-structure update on EMS).
    pub ctx_switch: f64,
}

impl Default for LatencyBook {
    fn default() -> Self {
        let clocks = ClockDomains::default();
        LatencyBook {
            clocks,
            dram_access: 120.0,
            mktme_extra: 2.0,
            integrity_extra: 1.7,
            ptw_walk: 40.0,
            bitmap_check_extra: 20.0,
            tlb_flush_op: 200.0,
            post_flush_walk: 40.0,
            emcall_pack: 900.0,
            fabric_hop: 300.0,
            ems_notify: 2600.0,
            ems_dispatch_ems_cycles: 1200.0,
            emcall_poll: 1370.0,
            retry_backoff: 4_000.0,
            host_malloc_base: 6459.0,
            host_page_cost: 600.0,
            ealloc_base_ems_cycles: 2782.0,
            ealloc_page_extra: 14.6,
            eadd_copy_per_byte: 30.0,
            lifecycle_fixed: 2_000_000.0,
            engine_aes_bytes_per_cycle: 1.24e9 / 8.0 / 2.5e9,
            engine_sha_bytes_per_cycle: 16.1e9 / 8.0 / 2.5e9,
            engine_sign_cycles: 2.5e9 / 123.0,
            engine_verify_cycles: 2.5e9 / 10_000.0,
            sw_sha_cpb_ems: 29.0,
            sw_aes_cpb_ems: 60.0,
            sw_sign_ems_cycles: 2.5e9 / 123.0 / (2.5 / 0.75) * 1.35,
            sw_aes_cpb_cs: 20.0,
            copy_cpb_cs: 0.12,
            ctx_switch: 3500.0,
        }
    }
}

impl LatencyBook {
    /// Fixed cost of one primitive round trip CS → mailbox → EMS → mailbox →
    /// CS, excluding the primitive's own service time.
    pub fn mailbox_round_trip(&self) -> f64 {
        self.emcall_pack
            + self.fabric_hop
            + self.ems_notify
            + self.ems_cycles(self.ems_dispatch_ems_cycles)
            + self.fabric_hop
            + self.emcall_poll
    }

    /// Converts EMS-domain cycles to CS-domain cycles.
    pub fn ems_cycles(&self, ems: f64) -> f64 {
        ems * self.clocks.cs_ghz / self.clocks.ems_ghz
    }

    /// Cycles to hash `bytes` for measurement (EMEAS), with or without the
    /// crypto engine.
    pub fn measure_cost(&self, bytes: u64, engine: bool) -> f64 {
        if engine {
            bytes as f64 / self.engine_sha_bytes_per_cycle
        } else {
            self.ems_cycles(bytes as f64 * self.sw_sha_cpb_ems)
        }
    }

    /// Cycles to AES-process `bytes` on the EMS side (sealing, EWB page
    /// encryption), with or without the engine.
    pub fn ems_aes_cost(&self, bytes: u64, engine: bool) -> f64 {
        if engine {
            bytes as f64 / self.engine_aes_bytes_per_cycle
        } else {
            self.ems_cycles(bytes as f64 * self.sw_aes_cpb_ems)
        }
    }

    /// Size-dependent cost of loading an enclave image of `bytes`, as
    /// `(EADD copy, EMEAS measurement)` cycles, with or without the crypto
    /// engine.
    pub fn image_load(&self, bytes: u64, engine: bool) -> (f64, f64) {
        (
            bytes as f64 * self.eadd_copy_per_byte,
            self.measure_cost(bytes, engine),
        )
    }

    /// Cycles for one attestation signature, with or without the engine.
    pub fn sign_cost(&self, engine: bool) -> f64 {
        if engine {
            self.engine_sign_cycles
        } else {
            self.ems_cycles(self.sw_sign_ems_cycles)
        }
    }

    /// Host `malloc` latency for an allocation of `bytes` (Fig. 8(a) baseline).
    pub fn host_malloc(&self, bytes: u64) -> f64 {
        let pages = bytes.div_ceil(4096) as f64;
        self.host_malloc_base + pages * self.host_page_cost
    }

    /// Average cost of one memory access in a MemStream-style pointer chase,
    /// with or without memory encryption + integrity (Fig. 8(b)).
    pub fn stream_access(&self, encrypted: bool) -> f64 {
        if encrypted {
            self.dram_access + self.mktme_extra + self.integrity_extra
        } else {
            self.dram_access
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_stable() {
        let book = LatencyBook::default();
        let rtt = book.mailbox_round_trip();
        assert!(rtt > 5_000.0 && rtt < 20_000.0, "rtt = {rtt}");
    }

    #[test]
    fn engine_rates_match_table3() {
        let book = LatencyBook::default();
        // 1.24 Gbps at 2.5 GHz = 0.062 bytes per cycle.
        assert!((book.engine_aes_bytes_per_cycle - 0.062).abs() < 1e-9);
        // 16.1 Gbps = 0.805 bytes per cycle.
        assert!((book.engine_sha_bytes_per_cycle - 0.805).abs() < 1e-9);
        // 123 RSA signs per second.
        assert!((book.engine_sign_cycles - 20_325_203.25).abs() < 1.0);
    }

    #[test]
    fn measurement_speedup_matches_table4() {
        // Table IV: EMEAS drops from 7.8% to 0.10% of runtime → ~78×.
        let book = LatencyBook::default();
        let sw = book.measure_cost(1 << 20, false);
        let hw = book.measure_cost(1 << 20, true);
        let ratio = sw / hw;
        assert!((ratio - 78.0).abs() < 4.0, "EMEAS speedup ratio = {ratio}");
    }

    #[test]
    fn engine_costs_beat_software_fallback() {
        let book = LatencyBook::default();
        for n in [4096u64, 1 << 20, 16 << 20] {
            assert!(
                book.measure_cost(n, true) < book.measure_cost(n, false),
                "engine must accelerate SHA at {n} bytes"
            );
        }
        // 1 MiB at 0.062 B/cycle ≈ 16.9M cycles.
        let aes = book.ems_aes_cost(1 << 20, true);
        assert!((aes - (1u64 << 20) as f64 / 0.062).abs() < 1.0);
        // Signing is expensive either way, and worse in software.
        assert!(book.sign_cost(true) > 1e7);
        assert!(book.sign_cost(false) > book.sign_cost(true));
    }

    #[test]
    fn fig8b_encryption_overhead() {
        // Fig. 8(b): average 3.1% MemStream latency overhead.
        let book = LatencyBook::default();
        let ov = (book.stream_access(true) - book.stream_access(false)) / book.stream_access(false);
        assert!((ov - 0.031).abs() < 0.005, "stream overhead = {ov}");
    }

    #[test]
    fn ems_cycles_conversion() {
        let book = LatencyBook::default();
        assert!((book.ems_cycles(3.0) - 10.0).abs() < 1e-9);
    }
}
