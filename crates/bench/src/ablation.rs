//! Ablation studies for HyperTEE's individual design choices.
//!
//! The paper argues for several mechanisms without isolating each one's
//! contribution; these experiments switch them off one at a time:
//!
//! * **Enclave memory pool** (§IV-A) — without it, every EALLOC is an
//!   OS-visible event and the allocation controlled channel reopens.
//! * **Randomized pool threshold** (§IV-A) — with a fixed threshold, growth
//!   events become predictable.
//! * **Randomized EWB count** (§IV-A) — with exact counts, swap requests
//!   echo the OS's ask, a correlatable signal.
//! * **Obfuscated response polling** (§III-C) — without it, primitive
//!   latency is exactly observable.
//! * **Bitmap vs. range-register isolation** (§IV-B) — range registers
//!   cannot represent fragmented enclave memory; the bitmap can.

use hypertee::attacks;
use hypertee::machine::Machine;
use hypertee_sim::perf::primitive_cycles;

/// Result of one ablation arm.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Mechanism under study.
    pub mechanism: &'static str,
    /// Metric with the mechanism ON.
    pub with_mechanism: f64,
    /// Metric with the mechanism OFF.
    pub without_mechanism: f64,
    /// What the metric is.
    pub metric: &'static str,
}

/// Pool ablation: allocation-channel recovery accuracy with the pool (real
/// HyperTEE) vs. without (per-request OS visibility).
pub fn pool_ablation() -> AblationRow {
    let secret = attacks::test_secret(32, 0xab1);
    let mut with_pool = Machine::boot_default();
    let on = attacks::allocation_channel(&mut with_pool, &secret);
    let mut without_pool = Machine::boot_default();
    let off = attacks::allocation_channel_insecure(&mut without_pool, &secret);
    AblationRow {
        mechanism: "enclave memory pool",
        with_mechanism: on.accuracy,
        without_mechanism: off.accuracy,
        metric: "allocation-channel bit recovery accuracy",
    }
}

/// Threshold-randomization ablation: distinct growth thresholds observed
/// over a run (more = harder to reverse-engineer). The "off" arm models the
/// fixed-threshold policy by construction: one threshold forever.
pub fn threshold_ablation() -> AblationRow {
    use hypertee_crypto::chacha::ChaChaRng;
    use hypertee_ems::mempool::MemPool;
    use hypertee_mem::addr::PhysAddr;
    use hypertee_mem::phys::FrameAllocator;
    use hypertee_mem::system::MemorySystem;

    let mut sys = MemorySystem::new(128 << 20, PhysAddr(0x8000));
    let mut os = FrameAllocator::new(hypertee_mem::addr::Ppn(64), hypertee_mem::addr::Ppn(30000));
    let mut pool = MemPool::new(32, ChaChaRng::from_u64(1));
    let mut thresholds = std::collections::BTreeSet::new();
    for _ in 0..400 {
        pool.take(&mut os, &mut sys).unwrap();
        thresholds.insert(pool.threshold());
    }
    AblationRow {
        mechanism: "randomized pool threshold",
        with_mechanism: thresholds.len() as f64,
        without_mechanism: 1.0,
        metric: "distinct growth thresholds over 400 allocations",
    }
}

/// EWB-count ablation: variance of the number of returned pages across
/// identical requests (zero variance = perfectly correlatable).
pub fn swap_jitter_ablation() -> AblationRow {
    let mut m = Machine::boot_default();
    let _e = m
        .create_enclave(
            0,
            &hypertee::manifest::EnclaveManifest::default(),
            b"ablation enclave",
        )
        .unwrap();
    let mut counts = Vec::new();
    for _ in 0..8 {
        counts.push(m.ewb(0, 8).unwrap().len() as f64);
    }
    let mean = counts.iter().sum::<f64>() / counts.len() as f64;
    let var = counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
    AblationRow {
        mechanism: "randomized EWB page count",
        with_mechanism: var,
        without_mechanism: 0.0,
        metric: "variance of returned-page count (8 identical requests)",
    }
}

/// Polling-obfuscation ablation: distinct per-request poll costs observed
/// (1 distinct value = latency fully exposed).
pub fn polling_ablation() -> AblationRow {
    let mut m = Machine::boot_default();
    let e = m
        .create_enclave(
            0,
            &hypertee::manifest::EnclaveManifest::default(),
            b"poller",
        )
        .unwrap();
    m.enter(0, e).unwrap();
    let mut distinct = std::collections::BTreeSet::new();
    for _ in 0..16 {
        let before = m.emcall.stats.polls;
        m.ealloc(0, 4096).unwrap();
        distinct.insert(m.emcall.stats.polls - before);
    }
    AblationRow {
        mechanism: "obfuscated response polling",
        with_mechanism: distinct.len() as f64,
        without_mechanism: 1.0,
        metric: "distinct poll costs across 16 identical primitives",
    }
}

/// Isolation-mechanism ablation: enclaves placeable under memory
/// fragmentation. Range registers (CURE/Sanctum-style, N contiguous region
/// pairs) fail once free memory fragments; the bitmap places enclaves in
/// arbitrary scattered frames.
///
/// Model: memory is fragmented into `chunks` disjoint free runs of
/// `run_pages` pages each; every enclave needs `enclave_pages`. Range
/// registers hold at most `registers` regions *total across all enclaves*;
/// an enclave needs one register per contiguous run it occupies.
pub fn isolation_ablation() -> AblationRow {
    let chunks = 64u64;
    let run_pages = 8u64;
    let enclave_pages = 16u64; // spans 2 fragments
    let registers = 16u64; // typical range-register file size
    let bitmap_placed = (chunks * run_pages) / enclave_pages;
    let runs_per_enclave = enclave_pages.div_ceil(run_pages);
    let range_placed = (registers / runs_per_enclave).min(bitmap_placed);
    AblationRow {
        mechanism: "bitmap isolation (vs range registers)",
        with_mechanism: bitmap_placed as f64,
        without_mechanism: range_placed as f64,
        metric: "enclaves placeable in fragmented memory (64x8-page runs)",
    }
}

/// Crypto-engine ablation (the paper's own Table IV, distilled): average
/// primitive share with vs without the engine.
pub fn engine_ablation() -> AblationRow {
    let workloads = crate::enclave_workloads();
    let avg = |engine: bool| {
        workloads
            .iter()
            .map(|(p, ealloc)| primitive_cycles(p, engine, *ealloc).total() / p.host_cycles)
            .sum::<f64>()
            / workloads.len() as f64
    };
    AblationRow {
        mechanism: "EMS crypto engine",
        with_mechanism: avg(true),
        without_mechanism: avg(false),
        metric: "mean primitive-time share of Host-Native runtime",
    }
}

/// Runs every ablation.
pub fn run_all() -> Vec<AblationRow> {
    vec![
        pool_ablation(),
        threshold_ablation(),
        swap_jitter_ablation(),
        polling_ablation(),
        isolation_ablation(),
        engine_ablation(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_closes_the_channel() {
        let row = pool_ablation();
        assert!(row.with_mechanism < 0.75, "with pool: {row:?}");
        assert!(row.without_mechanism > 0.95, "without pool: {row:?}");
    }

    #[test]
    fn threshold_randomization_varies() {
        assert!(threshold_ablation().with_mechanism > 2.0);
    }

    #[test]
    fn swap_counts_vary() {
        assert!(swap_jitter_ablation().with_mechanism > 0.0);
    }

    #[test]
    fn polling_costs_vary() {
        assert!(polling_ablation().with_mechanism > 1.0);
    }

    #[test]
    fn bitmap_beats_range_registers_under_fragmentation() {
        let row = isolation_ablation();
        assert!(row.with_mechanism >= 4.0 * row.without_mechanism, "{row:?}");
    }

    #[test]
    fn engine_pays_off() {
        let row = engine_ablation();
        assert!(row.with_mechanism < row.without_mechanism / 3.0, "{row:?}");
    }
}
