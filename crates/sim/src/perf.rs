//! Analytic core-performance model: workload profiles × execution
//! environment → cycle counts.
//!
//! This is the engine behind Figs. 7–11 and Table IV. A workload is
//! described by the microarchitectural rates the paper's evaluation hinges
//! on (instruction count, memory-reference density, TLB and LLC miss rates,
//! enclave image size, allocation behaviour); the model then prices each of
//! HyperTEE's mechanisms on top of the Host-Native baseline.

use crate::config::CoreConfig;
use crate::latency::{
    image_load, BITMAP_CHECK_EXTRA, CS_GHZ, INTEGRITY_EXTRA, LIFECYCLE_FIXED, MKTME_EXTRA,
    POST_FLUSH_WALK, TLB_FLUSH_OP,
};

/// Description of one benchmark workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Benchmark name as the paper prints it.
    pub name: String,
    /// Host-Native runtime in CS cycles (the evaluation baseline).
    pub host_cycles: f64,
    /// Dynamic instruction count.
    pub instructions: f64,
    /// Memory references per 1000 instructions.
    pub mem_refs_per_kinst: f64,
    /// Fraction of memory references missing the TLB (drives PTW rate).
    pub tlb_miss_rate: f64,
    /// Fraction of memory references missing the LLC (drives DRAM rate).
    pub llc_miss_rate: f64,
    /// Enclave image size in bytes (EMEAS / EADD work).
    pub image_bytes: f64,
    /// Number of dynamic EALLOC calls during the run.
    pub ealloc_calls: f64,
    /// Bytes per EALLOC call.
    pub ealloc_bytes: f64,
    /// Resident working-set pages (TLB-flush refill population).
    pub touched_pages: f64,
}

impl WorkloadProfile {
    /// DRAM accesses over the whole run.
    pub(crate) fn dram_accesses(&self) -> f64 {
        self.instructions * self.mem_refs_per_kinst / 1000.0 * self.llc_miss_rate
    }

    /// Page-table walks over the whole run.
    pub(crate) fn ptw_walks(&self) -> f64 {
        self.instructions * self.mem_refs_per_kinst / 1000.0 * self.tlb_miss_rate
    }

    /// Runtime in seconds at the CS clock.
    pub(crate) fn runtime_secs(&self) -> f64 {
        self.host_cycles / (CS_GHZ * 1e9)
    }
}

/// Cost breakdown of the enclave primitives for one workload run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrimitiveBreakdown {
    /// EMEAS (measurement) cycles.
    pub emeas: f64,
    /// All other primitives (ECREATE, EADD, EENTER/EEXIT, EALLOC, EATTEST).
    pub(crate) others: f64,
}

impl PrimitiveBreakdown {
    /// Total primitive cycles.
    pub fn total(&self) -> f64 {
        self.emeas + self.others
    }
}

/// Computes the primitive cost breakdown (Table IV) for a workload.
///
/// `engine` selects whether the crypto engine accelerates measurement and
/// attestation. `ealloc_cycles` is the price of one of the profile's
/// EALLOC calls (`ealloc_bytes` each) as measured on the live machine;
/// this model has no EALLOC formula of its own. All EMS-executed costs are
/// valued at the *medium* EMS core that [`crate::latency`] is calibrated
/// for; scale with [`CoreConfig::ems_scale`] for other configurations.
pub fn primitive_cycles(
    profile: &WorkloadProfile,
    engine: bool,
    ealloc_cycles: f64,
) -> PrimitiveBreakdown {
    let (eadd, emeas) = image_load(profile.image_bytes as u64, engine);
    let allocs = profile.ealloc_calls * ealloc_cycles;
    // Attestation (EATTEST) is once-per-launch and amortised out of the
    // paper's per-run shares; price it separately with
    // `latency::sign_cost` when a flow actually attests.
    let others = LIFECYCLE_FIXED + eadd + allocs;
    PrimitiveBreakdown { emeas, others }
}

/// Memory-encryption + integrity overhead cycles for a run (charged on each
/// DRAM access — Fig. 8(b) §IV-C mechanisms).
pub fn encryption_cycles(profile: &WorkloadProfile) -> f64 {
    profile.dram_accesses() * (MKTME_EXTRA + INTEGRITY_EXTRA)
}

/// Bitmap-check overhead cycles for a *non-enclave* run (Fig. 10): one extra
/// bitmap fetch per page-table walk.
pub(crate) fn bitmap_cycles(profile: &WorkloadProfile) -> f64 {
    profile.ptw_walks() * BITMAP_CHECK_EXTRA
}

/// TLB-flush overhead cycles (Fig. 11) at a given enclave context-switch
/// frequency. Each flush forces the touched working set to be re-walked.
pub fn tlb_flush_cycles(profile: &WorkloadProfile, switch_hz: f64) -> f64 {
    let flushes = profile.runtime_secs() * switch_hz;
    flushes * (TLB_FLUSH_OP + profile.touched_pages * POST_FLUSH_WALK)
}

/// Full enclave-mode runtime for a workload (Fig. 7 and Fig. 9): baseline
/// plus primitives (scaled to the EMS core), memory encryption/integrity,
/// and context-switch TLB refills; minus the static-allocation credit the
/// paper notes (enclave creation pre-faults the image, shortening run time
/// relative to demand paging — §VII-B, Table IV footnote).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnclaveRun {
    /// Host-Native baseline cycles.
    pub(crate) baseline: f64,
    /// Enclave-mode cycles.
    pub(crate) enclave: f64,
}

impl EnclaveRun {
    /// Relative overhead.
    pub fn overhead(&self) -> f64 {
        (self.enclave - self.baseline) / self.baseline
    }
}

/// Fraction of primitive cost recovered by static allocation at creation.
/// The Table IV footnote explains Fig. 7's 2.0% average despite the 2.5%
/// primitive share: "static memory allocation during enclave creation
/// shortens the execution time of enclaves in addition to primitive
/// acceleration" (no demand-paging faults during the run). Calibrated so
/// the medium-core Fig. 7 average lands on the paper's 2.0% with the
/// encryption and TLB-flush contributions included.
pub(crate) const STATIC_ALLOC_CREDIT: f64 = 0.39;

/// Prices a full enclave run; `ealloc_cycles` is as for
/// [`primitive_cycles`].
pub fn enclave_run(
    profile: &WorkloadProfile,
    ems_core: &CoreConfig,
    engine: bool,
    mem_encryption: bool,
    switch_hz: f64,
    ealloc_cycles: f64,
) -> EnclaveRun {
    let prims = primitive_cycles(profile, engine, ealloc_cycles);
    let scale = ems_core.ems_scale();
    let mut extra = prims.total() * scale * (1.0 - STATIC_ALLOC_CREDIT);
    if mem_encryption {
        extra += encryption_cycles(profile);
    }
    extra += tlb_flush_cycles(profile, switch_hz);
    EnclaveRun {
        baseline: profile.host_cycles,
        enclave: profile.host_cycles + extra,
    }
}

/// Prices a non-enclave run with bitmap checking enabled (Host-Bitmap).
pub fn host_bitmap_run(profile: &WorkloadProfile) -> EnclaveRun {
    EnclaveRun {
        baseline: profile.host_cycles,
        enclave: profile.host_cycles + bitmap_cycles(profile),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Live-machine price of one 2 MiB EALLOC (Fig. 8(a), medium core).
    const TOY_EALLOC: f64 = 333_419.0;

    fn toy_profile() -> WorkloadProfile {
        WorkloadProfile {
            name: "toy".into(),
            host_cycles: 2.0e9,
            instructions: 2.0e9,
            mem_refs_per_kinst: 300.0,
            tlb_miss_rate: 0.002,
            llc_miss_rate: 0.01,
            image_bytes: 1.6e6,
            ealloc_calls: 10.0,
            ealloc_bytes: 2.0 * 1024.0 * 1024.0,
            touched_pages: 1000.0,
        }
    }

    #[test]
    fn emeas_dominates_without_engine() {
        // Table IV: ~three quarters of primitive time is EMEAS when no
        // engine is present.
        let p = toy_profile();
        let b = primitive_cycles(&p, false, TOY_EALLOC);
        assert!(
            b.emeas / b.total() > 0.6,
            "emeas share = {}",
            b.emeas / b.total()
        );
        let b_eng = primitive_cycles(&p, true, TOY_EALLOC);
        assert!(b_eng.emeas / b_eng.total() < 0.1);
        assert!(b_eng.total() < b.total());
    }

    #[test]
    fn weak_core_scales_overhead_up() {
        let p = toy_profile();
        let run = |core| enclave_run(&p, &core, true, true, 100.0, TOY_EALLOC);
        let medium = run(CoreConfig::ems_medium());
        let weak = run(CoreConfig::ems_weak());
        let strong = run(CoreConfig::ems_strong());
        assert!(weak.overhead() > medium.overhead());
        assert!(strong.overhead() <= medium.overhead());
        // Fig. 7 spread: weak ≈ 2.85× medium on the primitive component.
        let ratio = weak.overhead() / medium.overhead();
        assert!(ratio > 2.0 && ratio < 3.2, "ratio = {ratio}");
    }

    #[test]
    fn bitmap_cost_tracks_tlb_miss_rate() {
        let mut hot = toy_profile();
        hot.tlb_miss_rate = 0.008; // xalancbmk-like.
        let mut cold = toy_profile();
        cold.tlb_miss_rate = 0.001;
        assert!(bitmap_cycles(&hot) > 4.0 * bitmap_cycles(&cold));
    }

    #[test]
    fn tlb_flush_cost_scales_with_frequency_and_pages() {
        let p = toy_profile();
        let base = tlb_flush_cycles(&p, 100.0);
        assert!((tlb_flush_cycles(&p, 400.0) / base - 4.0).abs() < 1e-9);
        let mut big = p.clone();
        big.touched_pages *= 4.0;
        assert!(tlb_flush_cycles(&big, 100.0) > 3.0 * base);
    }

    #[test]
    fn fig11_anchor_1_81_percent() {
        // miniz, 32 MiB working set (0.345 touch fraction), 400 Hz switches:
        // the paper reports ≤1.81% overhead.
        let pages_32m = 32.0 * 1024.0 * 1024.0 / 4096.0;
        let p = WorkloadProfile {
            touched_pages: pages_32m * 0.345,
            ..toy_profile()
        };
        let ov = tlb_flush_cycles(&p, 400.0) / p.host_cycles;
        assert!(ov <= 0.0185, "overhead = {ov}");
        assert!(
            ov > 0.015,
            "overhead should approach the 1.81% bound, got {ov}"
        );
    }
}
