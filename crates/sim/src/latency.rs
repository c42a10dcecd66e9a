//! The calibration: every cycle cost charged by the timing models.
//!
//! The paper measured its prototype on an FPGA; this reproduction replaces
//! the FPGA with the constants below. Each constant is annotated with the
//! paper anchor it was calibrated against (see DESIGN.md §4). All values are
//! **CS-core cycles** (2.5 GHz domain) unless stated otherwise; fractional
//! values represent amortised/overlapped costs.

// ---- Clock domains (§VII-E) ------------------------------------------------
/// CS core frequency in GHz (paper: 2.5).
pub const CS_GHZ: f64 = 2.5;
/// EMS core frequency in GHz (paper: 0.75).
pub const EMS_GHZ: f64 = 0.75;

// ---- Memory hierarchy -------------------------------------------------------
/// Effective cost of a last-level-cache miss (DRAM access) as seen by a
/// dependent load. Anchor: typical FPGA-prototype DRAM latency.
pub const DRAM_ACCESS: f64 = 120.0;
/// Extra latency the multi-key AES engine adds on a DRAM access. The
/// counter stream is computed in parallel with the fetch, so only the
/// final XOR plus pipeline fill shows. Anchor: Fig. 8(b), 3.1% average
/// MemStream overhead together with [`INTEGRITY_EXTRA`].
pub const MKTME_EXTRA: f64 = 2.0;
/// Extra latency of the 28-bit SHA-3 MAC check on a DRAM access
/// (verified off the critical path, optimistically forwarded).
pub const INTEGRITY_EXTRA: f64 = 1.7;
/// Extra cost of the bitmap check after a walk: one bitmap line fetch,
/// overlapped with the original permission check. Anchor: Fig. 10,
/// 1.9% average / 4.6% xalancbmk (TLB miss rate 0.8%).
pub const BITMAP_CHECK_EXTRA: f64 = 20.0;
/// Fixed cost of one TLB flush operation.
pub const TLB_FLUSH_OP: f64 = 200.0;
/// Per-page refill cost after a flush (one walk per touched page).
pub const POST_FLUSH_WALK: f64 = 40.0;

// ---- EMCall / mailbox transmission ------------------------------------------
/// EMCall trap + privilege check + request packet assembly.
pub const EMCALL_PACK: f64 = 900.0;
/// One fabric hop CS→iHub mailbox (and the symmetric response hop).
pub const FABRIC_HOP: f64 = 300.0;
/// Mailbox interrupt delivery and EMS-side fetch into its Rx queue.
pub const EMS_NOTIFY: f64 = 2600.0;
/// EMS runtime dispatch of one primitive (EMS cycles, converted).
pub const EMS_DISPATCH_EMS_CYCLES: f64 = 1200.0;
/// EMCall response polling including the timing-obfuscation delay the
/// paper adds against side-channel observation (§III-C).
pub const EMCALL_POLL: f64 = 1370.0;
/// Base back-off before the first retry of a lost or aborted EMCall;
/// attempt *n* waits `RETRY_BACKOFF * 2^(n-1)` CS cycles. Only charged on
/// the recovery path, so fault-free timing figures are unaffected.
pub const RETRY_BACKOFF: f64 = 4_000.0;

// ---- Enclave memory management ----------------------------------------------
/// Host `malloc` fixed cost (syscall + allocator metadata). Anchor:
/// Fig. 8(a), 49.7% overhead at 128 KiB.
pub const HOST_MALLOC_BASE: f64 = 6459.0;
/// Host per-page cost (page fault + zeroing) for `malloc` first touch.
pub const HOST_PAGE_COST: f64 = 600.0;
/// EMS-side EALLOC handler base cost (EMS cycles, converted).
pub const EALLOC_BASE_EMS_CYCLES: f64 = 2782.0;
/// Extra per-page cost of EALLOC over host malloc (pool bookkeeping,
/// bitmap and PTE updates on the EMS core). Anchor: Fig. 8(a), 6.3%
/// overhead at 2 MiB.
pub const EALLOC_PAGE_EXTRA: f64 = 14.6;
/// EADD per-byte cost: copy into enclave memory plus page-table and
/// bitmap setup on the EMS core. Anchor: Table IV "others" share.
pub const EADD_COPY_PER_BYTE: f64 = 30.0;
/// Fixed management cost of a whole enclave lifecycle (ECREATE +
/// EENTER/EEXIT pair + EDESTROY), excluding per-byte work.
pub const LIFECYCLE_FIXED: f64 = 2_000_000.0;

// ---- Crypto engine (Table III) ------------------------------------------------
/// Engine SHA-256 throughput in bytes per CS cycle (16.1 Gbps @ 2.5 GHz).
pub const ENGINE_SHA_BYTES_PER_CYCLE: f64 = 16.1e9 / 8.0 / 2.5e9;
/// Engine signature cost (RSA sign: 123 ops/s → cycles per op).
pub const ENGINE_SIGN_CYCLES: f64 = 2.5e9 / 123.0;
/// Software SHA-256 on the EMS core, cycles per byte (EMS cycles).
/// Anchor: Table IV, EMEAS share 7.8% → 0.10% with the engine (~78×).
pub const SW_SHA_CPB_EMS: f64 = 29.0;
/// Software signature on the EMS core (cycles, EMS domain).
pub const SW_SIGN_EMS_CYCLES: f64 = 2.5e9 / 123.0 / (2.5 / 0.75) * 1.35;
/// Software AES on a CS core, cycles per byte — the conventional
/// design's data-path encryption in Fig. 12.
pub const SW_AES_CPB_CS: f64 = 20.0;
/// Plain memory copy on a CS core, cycles per byte (shared-memory path).
pub const COPY_CPB_CS: f64 = 0.12;

// ---- Context switches -----------------------------------------------------------
/// EENTER/ERESUME/EEXIT round trip through EMCall (atomic register
/// update, control-structure update on EMS).
pub const CTX_SWITCH: f64 = 3500.0;

/// Fixed cost of one primitive round trip CS → mailbox → EMS → mailbox →
/// CS, excluding the primitive's own service time.
pub const MAILBOX_ROUND_TRIP: f64 = EMCALL_PACK
    + FABRIC_HOP
    + EMS_NOTIFY
    + ems_cycles(EMS_DISPATCH_EMS_CYCLES)
    + FABRIC_HOP
    + EMCALL_POLL;

/// Converts EMS-domain cycles to CS-domain cycles.
pub const fn ems_cycles(ems: f64) -> f64 {
    ems * CS_GHZ / EMS_GHZ
}

/// Cycles to hash `bytes` for measurement (EMEAS), with or without the
/// crypto engine.
pub fn measure_cost(bytes: u64, engine: bool) -> f64 {
    if engine {
        bytes as f64 / ENGINE_SHA_BYTES_PER_CYCLE
    } else {
        ems_cycles(bytes as f64 * SW_SHA_CPB_EMS)
    }
}

/// Size-dependent cost of loading an enclave image of `bytes`, as
/// `(EADD copy, EMEAS measurement)` cycles, with or without the crypto
/// engine.
pub fn image_load(bytes: u64, engine: bool) -> (f64, f64) {
    (
        bytes as f64 * EADD_COPY_PER_BYTE,
        measure_cost(bytes, engine),
    )
}

/// Cycles for one attestation signature, with or without the engine.
pub fn sign_cost(engine: bool) -> f64 {
    if engine {
        ENGINE_SIGN_CYCLES
    } else {
        ems_cycles(SW_SIGN_EMS_CYCLES)
    }
}

/// Host `malloc` latency for an allocation of `bytes` (Fig. 8(a) baseline).
pub fn host_malloc(bytes: u64) -> f64 {
    let pages = bytes.div_ceil(4096) as f64;
    HOST_MALLOC_BASE + pages * HOST_PAGE_COST
}

/// Average cost of one memory access in a MemStream-style pointer chase,
/// with or without memory encryption + integrity (Fig. 8(b)).
pub fn stream_access(encrypted: bool) -> f64 {
    if encrypted {
        DRAM_ACCESS + MKTME_EXTRA + INTEGRITY_EXTRA
    } else {
        DRAM_ACCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_is_stable() {
        let rtt = MAILBOX_ROUND_TRIP;
        assert!(rtt > 5_000.0 && rtt < 20_000.0, "rtt = {rtt}");
    }

    #[test]
    fn engine_rates_match_table3() {
        // 16.1 Gbps = 0.805 bytes per cycle.
        assert!((ENGINE_SHA_BYTES_PER_CYCLE - 0.805).abs() < 1e-9);
        // 123 RSA signs per second.
        assert!((ENGINE_SIGN_CYCLES - 20_325_203.25).abs() < 1.0);
    }

    #[test]
    fn measurement_speedup_matches_table4() {
        // Table IV: EMEAS drops from 7.8% to 0.10% of runtime → ~78×.
        let sw = measure_cost(1 << 20, false);
        let hw = measure_cost(1 << 20, true);
        let ratio = sw / hw;
        assert!((ratio - 78.0).abs() < 4.0, "EMEAS speedup ratio = {ratio}");
    }

    #[test]
    fn engine_costs_beat_software_fallback() {
        for n in [4096u64, 1 << 20, 16 << 20] {
            assert!(
                measure_cost(n, true) < measure_cost(n, false),
                "engine must accelerate SHA at {n} bytes"
            );
        }
        // Signing is expensive either way, and worse in software.
        assert!(sign_cost(true) > 1e7);
        assert!(sign_cost(false) > sign_cost(true));
    }

    #[test]
    fn fig8b_encryption_overhead() {
        // Fig. 8(b): average 3.1% MemStream latency overhead.
        let ov = (stream_access(true) - stream_access(false)) / stream_access(false);
        assert!((ov - 0.031).abs() < 0.005, "stream overhead = {ov}");
    }

    #[test]
    fn ems_cycles_conversion() {
        // 750 MHz EMS cycle = 10/3 CS cycles at 2.5 GHz.
        assert!((ems_cycles(3.0) - 10.0).abs() < 1e-9);
    }
}
