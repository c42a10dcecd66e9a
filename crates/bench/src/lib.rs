//! Experiment harness reproducing every table and figure of the HyperTEE
//! evaluation (§VII). Each `figN_*`/`tableN_*` function returns structured
//! rows; the `src/bin/*` binaries print them in the paper's shape, and the
//! crate's tests assert the headline numbers.
//!
//! | Paper artifact | Function | Binary |
//! |---|---|---|
//! | Fig. 6 (SLO)            | [`fig6`]  | `fig6_slo` |
//! | Fig. 7 (EMS configs)    | [`fig7`]  | `fig7_ems_configs` |
//! | Table IV (primitives)   | [`table4`]| `table4_primitives` |
//! | Fig. 8(a) (EALLOC)      | [`fig8a`] | `fig8a_alloc` |
//! | Fig. 8(b) (MemStream)   | [`fig8b`] | `fig8b_memstream` |
//! | Fig. 9 (wolfSSL mm)     | [`fig9`]  | `fig9_wolfssl` |
//! | Fig. 10 (bitmap/SPEC)   | [`fig10`] | `fig10_bitmap` |
//! | Fig. 11 (TLB flush)     | [`fig11`] | `fig11_tlbflush` |
//! | Fig. 12 (communication) | [`fig12`] | `fig12_comm` |
//! | Table V (area)          | [`table5`]| `table5_area` |
//! | Table VI (defence)      | [`table6`]| `table6_defense` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod microbench;
pub mod report;

use hypertee::attacks::{self, AttackReport};
use hypertee::baselines::{table6_policies, Defense};
use hypertee::machine::Machine;
use hypertee_sim::area::{table5 as area_table5, AreaRow};
use hypertee_sim::config::{CoreConfig, EmsCluster};
use hypertee_sim::latency::host_malloc;
use hypertee_sim::perf::{
    enclave_run, encryption_cycles, host_bitmap_run, primitive_cycles, tlb_flush_cycles,
    WorkloadProfile,
};
use hypertee_workloads::{dnn, memstream, nic, rv8, spec, wolfssl};
use std::collections::{BTreeMap, BTreeSet};

/// Multiples of the baseline latency at which Fig. 6 reads its SLO curves.
const FIG6_MULTIPLES: [f64; 11] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
];

/// The paper's Fig. 6 allocation size: EALLOC(2 MiB).
const FIG6_ALLOC_BYTES: u64 = 2 * 1024 * 1024;

/// One Fig. 6 curve, measured through the live submit/pump pipeline.
#[derive(Debug, Clone)]
pub struct SloCurve {
    /// "{cs} CS / {n} {in-order|OoO} EMS" configuration.
    pub label: String,
    /// CS core count.
    pub cs_cores: u32,
    /// Median EALLOC latency (CS cycles).
    pub p50: f64,
    /// 99th-percentile EALLOC latency (CS cycles).
    pub p99: f64,
    /// The non-enclave baseline: the 99%-SLO latency of a host `malloc` of
    /// the same size (host mallocs have low variance, so p99 ≈ mean × 1.02).
    pub baseline: f64,
    /// Curve points: (multiple of baseline latency, fraction resolved).
    pub points: Vec<(f64, f64)>,
    /// Pipeline counters at the end of the run.
    pub stats: hypertee::pipeline::PipelineStats,
}

/// Fig. 6: the paper's CS × EMS matrix (CS ∈ {4, 16, 32, 64}; EMS ∈
/// {1 in-order, 2 in-order, 2 OoO, 4 OoO}), each configuration replaying
/// `allocs` × EALLOC(2 MiB) through `fig6_point`. The iterator is lazy
/// and yields CS-major, so callers can print each curve as it lands or
/// `take` the leading rows.
pub fn fig6(allocs: u32) -> impl Iterator<Item = SloCurve> {
    [4u32, 16, 32, 64].into_iter().flat_map(move |cs| {
        [
            EmsCluster::single_inorder(),
            EmsCluster::dual_inorder(),
            EmsCluster::dual_ooo(),
            EmsCluster::quad_ooo(),
        ]
        .into_iter()
        .map(move |ems| fig6_point(cs, ems, allocs, FIG6_ALLOC_BYTES))
    })
}

/// One Fig. 7 row.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Workload name.
    pub name: String,
    /// Enclave overhead under the weak / medium / strong EMS cores.
    pub weak: f64,
    /// Medium-core overhead.
    pub medium: f64,
    /// Strong-core overhead.
    pub strong: f64,
}

/// All enclave workloads of Fig. 7 / Table IV (the RV8 suite, then
/// wolfSSL), each with the live price of one of its EALLOC calls.
pub(crate) fn enclave_workloads() -> Vec<(WorkloadProfile, f64)> {
    let mut v = rv8::suite();
    v.push(wolfssl::profile());
    let prices = live_ealloc_cycles(v.iter().map(|p| p.ealloc_bytes as u64));
    v.into_iter()
        .map(|p| {
            let price = prices[&(p.ealloc_bytes as u64)];
            (p, price)
        })
        .collect()
}

/// Fig. 7: enclave overhead for the three EMS core configurations.
pub fn fig7() -> Vec<Fig7Row> {
    let cores = [
        CoreConfig::ems_weak(),
        CoreConfig::ems_medium(),
        CoreConfig::ems_strong(),
    ];
    enclave_workloads()
        .into_iter()
        .map(|(p, ealloc)| {
            let ov = |core| enclave_run(&p, core, true, true, 100.0, ealloc).overhead();
            Fig7Row {
                name: p.name.clone(),
                weak: ov(&cores[0]),
                medium: ov(&cores[1]),
                strong: ov(&cores[2]),
            }
        })
        .collect()
}

/// Average of a per-row metric.
pub fn average(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// One Table IV row: primitive-time shares relative to Host-Native.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Workload name.
    pub name: String,
    /// All primitives, no crypto engine.
    pub all_noncrypto: f64,
    /// EMEAS share, no crypto engine.
    pub emeas_noncrypto: f64,
    /// All primitives with the engine.
    pub all_crypto: f64,
    /// EMEAS share with the engine.
    pub emeas_crypto: f64,
}

/// Table IV: execution time of enclave primitives vs Host-Native.
pub fn table4() -> Vec<Table4Row> {
    enclave_workloads()
        .into_iter()
        .map(|(p, ealloc)| {
            let nc = primitive_cycles(&p, false, ealloc);
            let c = primitive_cycles(&p, true, ealloc);
            Table4Row {
                name: p.name,
                all_noncrypto: nc.total() / p.host_cycles,
                emeas_noncrypto: nc.emeas / p.host_cycles,
                all_crypto: c.total() / p.host_cycles,
                emeas_crypto: c.emeas / p.host_cycles,
            }
        })
        .collect()
}

/// One Fig. 8(a) row.
#[derive(Debug, Clone)]
pub struct Fig8aRow {
    /// Allocation size in bytes.
    pub bytes: u64,
    /// Host `malloc` latency in CS cycles.
    pub malloc_cycles: f64,
    /// EALLOC latency in CS cycles.
    pub ealloc_cycles: f64,
}

impl Fig8aRow {
    /// Relative EALLOC overhead.
    pub fn overhead(&self) -> f64 {
        (self.ealloc_cycles - self.malloc_cycles) / self.malloc_cycles
    }
}

/// Fig. 8(a): malloc vs EALLOC latency, 128 KiB – 2 MiB. The EALLOC line
/// is measured on the live machine; host `malloc` is not simulated, so its
/// line is the [`host_malloc`] baseline.
pub fn fig8a() -> Vec<Fig8aRow> {
    let sizes = [128u64, 256, 512, 1024, 2048].map(|kib| kib * 1024);
    let prices = live_ealloc_cycles(sizes);
    sizes
        .into_iter()
        .map(|bytes| Fig8aRow {
            bytes,
            malloc_cycles: host_malloc(bytes),
            ealloc_cycles: prices[&bytes],
        })
        .collect()
}

/// The only EALLOC price: CS cycles for each distinct size in `sizes`
/// (bytes, probed smallest first), read off the live machine's clock around
/// [`Machine::ealloc`] in one enclave built from the default manifest
/// (32 MiB heap). Panics if the machine rejects a probe.
pub(crate) fn live_ealloc_cycles(sizes: impl IntoIterator<Item = u64>) -> BTreeMap<u64, f64> {
    let sizes: BTreeSet<u64> = sizes.into_iter().collect();
    let mut m = Machine::boot_default();
    let manifest = hypertee::manifest::EnclaveManifest::default();
    let e = m
        .create_enclave(0, &manifest, b"ealloc price")
        .expect("a fresh machine creates the default enclave");
    m.enter(0, e).expect("a fresh enclave enters");
    sizes
        .into_iter()
        .map(|bytes| {
            let before = m.clock;
            m.ealloc(0, bytes).expect("the heap holds every probe size");
            (bytes, (m.clock - before).0 as f64)
        })
        .collect()
}

/// One Fig. 8(b) row: working-set size and encryption overhead.
#[derive(Debug, Clone)]
pub struct Fig8bRow {
    /// Working-set size in bytes.
    pub bytes: u64,
    /// Native average access latency (cycles).
    pub native: f64,
    /// Encrypted + integrity-protected latency (cycles).
    pub encrypted: f64,
}

impl Fig8bRow {
    /// Relative overhead.
    pub fn overhead(&self) -> f64 {
        (self.encrypted - self.native) / self.native
    }
}

/// Fig. 8(b): MemStream latency with memory encryption + integrity.
pub fn fig8b() -> Vec<Fig8bRow> {
    memstream::sweep_sizes()
        .into_iter()
        .map(|bytes| Fig8bRow {
            bytes,
            native: memstream::access_latency(bytes, false),
            encrypted: memstream::access_latency(bytes, true),
        })
        .collect()
}

/// Fig. 9 breakdown for wolfSSL: per-mechanism overhead contributions.
#[derive(Debug, Clone)]
pub struct Fig9Breakdown {
    /// Memory-encryption + integrity contribution.
    pub encryption: f64,
    /// Dynamic-allocation (EALLOC round trips) contribution.
    pub allocation: f64,
    /// Context-switch TLB-flush contribution.
    pub tlb_flush: f64,
}

impl Fig9Breakdown {
    /// Total memory-management overhead (paper: 0.9%).
    pub fn total(&self) -> f64 {
        self.encryption + self.allocation + self.tlb_flush
    }
}

/// Fig. 9: performance impact of enclave memory management on wolfSSL.
pub fn fig9() -> Fig9Breakdown {
    let (p, ealloc) = enclave_workloads().pop().expect("wolfSSL comes last");
    let allocation = p.ealloc_calls * ealloc;
    Fig9Breakdown {
        encryption: encryption_cycles(&p) / p.host_cycles,
        allocation: allocation / p.host_cycles,
        tlb_flush: tlb_flush_cycles(&p, 100.0) / p.host_cycles,
    }
}

/// One Fig. 10 row.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// SPEC benchmark name.
    pub name: String,
    /// Bitmap-check overhead on the non-enclave run.
    pub overhead: f64,
    /// The benchmark's TLB miss rate (the driver of the overhead).
    pub tlb_miss_rate: f64,
}

/// Fig. 10: bitmap-check overhead on SPEC CPU2017 Integer.
pub fn fig10() -> Vec<Fig10Row> {
    spec::suite()
        .iter()
        .map(|p| Fig10Row {
            name: p.name.clone(),
            overhead: host_bitmap_run(p).overhead(),
            tlb_miss_rate: p.tlb_miss_rate,
        })
        .collect()
}

/// One Fig. 11 cell.
#[derive(Debug, Clone)]
pub struct Fig11Cell {
    /// miniz working-set size in bytes.
    pub mem_bytes: u64,
    /// Enclave context-switch frequency in Hz.
    pub switch_hz: f64,
    /// TLB-flush overhead.
    pub overhead: f64,
}

/// Fig. 11: TLB-flush overhead on enclaves (miniz, 2–32 MiB, 100–400 Hz).
pub fn fig11() -> Vec<Fig11Cell> {
    let mut cells = Vec::new();
    for &mb in &[2u64, 4, 8, 16, 32] {
        let p = rv8::miniz_with_memory(mb << 20);
        for &hz in &[100.0f64, 150.0, 200.0, 400.0] {
            cells.push(Fig11Cell {
                mem_bytes: mb << 20,
                switch_hz: hz,
                overhead: tlb_flush_cycles(&p, hz) / p.host_cycles,
            });
        }
    }
    cells
}

/// One Fig. 12 row.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Workload name (DNN model or NIC).
    pub name: String,
    /// Crypto share of the conventional design's execution time.
    pub conventional_crypto_share: f64,
    /// HyperTEE speedup over the conventional design.
    pub speedup: f64,
}

/// Fig. 12: enclave-communication performance (Gemmini DNNs + NIC).
pub fn fig12() -> Vec<Fig12Row> {
    let mut rows: Vec<Fig12Row> = dnn::models()
        .iter()
        .map(|m| Fig12Row {
            name: m.name.to_string(),
            conventional_crypto_share: dnn::conventional(m).crypto_share(),
            speedup: dnn::speedup(m),
        })
        .collect();
    rows.push(Fig12Row {
        name: "NIC (64 MiB stream)".to_string(),
        conventional_crypto_share: nic::conventional(64 << 20, 4096).crypto_share(),
        speedup: nic::speedup(64 << 20, 4096),
    });
    rows
}

/// Table V rows (re-exported from the area model).
pub fn table5() -> Vec<AreaRow> {
    area_table5()
}

/// One Table VI row: the policy-derived cells plus (for HyperTEE) the
/// empirical attack battery outcome.
#[derive(Debug, Clone)]
pub struct Table6Row {
    /// TEE name.
    pub name: String,
    /// Cells in column order: allocation, page table, swapping,
    /// communication management, microarchitectural.
    pub cells: [Defense; 5],
}

/// Table VI: defence capability matrix.
pub fn table6() -> Vec<Table6Row> {
    table6_policies()
        .into_iter()
        .map(|p| Table6Row {
            name: p.name.to_string(),
            cells: p.row(),
        })
        .collect()
}

/// Runs the live attack battery against a freshly booted HyperTEE machine —
/// the empirical evidence behind the HyperTEE row of Table VI.
pub fn empirical_attacks() -> Vec<AttackReport> {
    let mut machine = Machine::boot_default();
    attacks::run_all(&mut machine)
}

/// One Fig. 6 configuration: replays the paper workload (per-hart enclave
/// creation + closed-loop EALLOC of `bytes`) through the machine's
/// asynchronous pipeline. Every request crosses the EMCall gate, the
/// mailbox and the multi-core EMS scheduler onto real page tables. Every
/// hart keeps one request outstanding (alternating EALLOC/EFREE so physical
/// memory stays bounded), so up to `cs_cores` requests contend for the EMS
/// cluster concurrently; [`hypertee::machine::Machine::pump`] services them
/// and charges queueing delay to the per-hart clocks that the sampled
/// latencies read.
///
/// The paper point is 2 MiB, as [`fig6`] runs it; smaller sizes keep the
/// functional page-table work cheap (service time scales with the pages
/// actually mapped) and are normalised against a same-size baseline.
///
/// # Panics
///
/// Panics when the machine rejects the workload (enclave creation or an
/// EALLOC/EFREE failing), which indicates a machine bug, not a measurement.
pub(crate) fn fig6_point(cs_cores: u32, ems: EmsCluster, allocs: u32, bytes: u64) -> SloCurve {
    use hypertee::machine::EnclaveHandle;
    use hypertee::pipeline::PendingCall;
    use hypertee_ems::control::layout;
    use hypertee_fabric::message::Primitive;
    use hypertee_sim::config::{PipelineKind, SocConfig};
    use hypertee_sim::stats::Samples;

    let label = format!(
        "{} CS / {} {} EMS",
        cs_cores,
        ems.cores,
        match ems.core.pipeline {
            PipelineKind::InOrder => "in-order",
            PipelineKind::OutOfOrder => "OoO",
        }
    );

    let config = SocConfig {
        cs_cores,
        ems,
        crypto_engine: true,
        phys_mem_bytes: 256 * 1024 * 1024 + u64::from(cs_cores) * 16 * 1024 * 1024,
    };
    let mut m = Machine::boot(config, 0x4859_5045).expect("pristine firmware boots");
    let manifest =
        hypertee::manifest::EnclaveManifest::parse("heap = 256M\nstack = 32K\nhost_shared = 16K")
            .expect("static manifest parses");
    let image = b"fig6 live workload image";

    /// What a hart's outstanding call is doing.
    enum Op {
        Alloc,
        Free,
    }
    struct HartLoop {
        enclave: EnclaveHandle,
        eid: u64,
        pending: Option<(PendingCall, Op)>,
        allocs_done: u32,
        allocs_in_enclave: u32,
    }

    // EALLOCs bump through the enclave heap VA window and EFREE never
    // rewinds the cursor. Once a hart has walked the whole window its
    // enclave is rotated (destroyed and recreated), which is also faithful
    // to the paper workload's "necessary enclave creation primitives".
    let heap_window = layout::HOST_SHARED_BASE.0 - layout::HEAP_BASE.0;
    let allocs_per_enclave = (heap_window / bytes.max(1)).max(1) as u32;
    let per_hart = (allocs / cs_cores).max(1);
    let harts = cs_cores as usize;
    let mut loops: Vec<HartLoop> = (0..harts)
        .map(|h| {
            let e = m
                .create_enclave(h, &manifest, image)
                .expect("enclave creation");
            m.enter(h, e).expect("enter");
            HartLoop {
                enclave: e,
                eid: e.0,
                pending: None,
                allocs_done: 0,
                allocs_in_enclave: 0,
            }
        })
        .collect();

    let mut samples = Samples::new();
    loop {
        let mut idle = true;
        for (h, hl) in loops.iter_mut().enumerate() {
            if hl.pending.is_some() {
                idle = false;
                continue;
            }
            if hl.allocs_done >= per_hart {
                continue;
            }
            if hl.allocs_in_enclave >= allocs_per_enclave {
                // Heap VA window exhausted: rotate the enclave (synchronous
                // lifecycle primitives; the pipeline keeps servicing the
                // other harts' outstanding requests while these pump).
                let old = hl.enclave;
                m.exit(h).expect("exit for rotation");
                m.destroy(h, old).expect("destroy for rotation");
                let e = m
                    .create_enclave(h, &manifest, image)
                    .expect("rotated enclave");
                m.enter(h, e).expect("re-enter");
                hl.enclave = e;
                hl.eid = e.0;
                hl.allocs_in_enclave = 0;
            }
            let call = m
                .submit(h, Primitive::Ealloc, vec![hl.eid, bytes], vec![])
                .expect("EALLOC submit");
            hl.pending = Some((call, Op::Alloc));
            idle = false;
        }
        if idle {
            break;
        }
        m.pump();
        for done in m.drain_completions() {
            let h = done.hart_id;
            let Some((call, op)) = loops[h].pending.take() else {
                continue;
            };
            assert_eq!(call, done.call, "one outstanding call per hart");
            let resp = done.result.expect("fault-free workload completes");
            match op {
                Op::Alloc => {
                    samples.push(done.latency.0 as f64);
                    loops[h].allocs_done += 1;
                    loops[h].allocs_in_enclave += 1;
                    // Free it right back so physical memory stays bounded;
                    // the EFREE round trip is part of the closed loop but
                    // not of the sampled allocation latency.
                    let va = resp.mapped_va().expect("EALLOC maps");
                    let call = m
                        .submit(h, Primitive::Efree, vec![loops[h].eid, va, bytes], vec![])
                        .expect("EFREE submit");
                    loops[h].pending = Some((call, Op::Free));
                }
                Op::Free => {}
            }
        }
    }

    let baseline = host_malloc(bytes) * 1.02;
    SloCurve {
        label,
        cs_cores,
        p50: samples.percentile(0.50),
        p99: samples.percentile(0.99),
        baseline,
        points: FIG6_MULTIPLES
            .iter()
            .map(|&x| (x, samples.fraction_within(x * baseline)))
            .collect(),
        stats: m.pipeline_stats(),
    }
}

/// Formats a ratio as a percentage string.
pub fn pct(v: f64) -> String {
    format!("{:.2}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_headline_numbers() {
        let rows = fig7();
        let weak = average(rows.iter().map(|r| r.weak));
        let medium = average(rows.iter().map(|r| r.medium));
        let strong = average(rows.iter().map(|r| r.strong));
        // Paper: 5.7% / 2.0% / 1.9%.
        assert!((medium - 0.020).abs() < 0.006, "medium {medium:.4}");
        assert!((weak - 0.057).abs() < 0.015, "weak {weak:.4}");
        assert!((strong - 0.019).abs() < 0.006, "strong {strong:.4}");
        assert!(weak > medium && medium >= strong);
        // Medium ≈ strong (paper: 0.1% apart), weak much worse (3.7% apart).
        assert!(medium - strong < 0.004);
        assert!(weak - medium > 0.02);
    }

    #[test]
    fn table4_headline_numbers() {
        let rows = table4();
        let all_nc = average(rows.iter().map(|r| r.all_noncrypto));
        let emeas_nc = average(rows.iter().map(|r| r.emeas_noncrypto));
        let all_c = average(rows.iter().map(|r| r.all_crypto));
        let emeas_c = average(rows.iter().map(|r| r.emeas_crypto));
        // Paper averages: 10.4% / 7.8% / 2.5% / 0.10%.
        assert!((all_nc - 0.104).abs() < 0.012, "all_nc {all_nc:.4}");
        assert!((emeas_nc - 0.078).abs() < 0.008, "emeas_nc {emeas_nc:.4}");
        assert!((all_c - 0.025).abs() < 0.006, "all_c {all_c:.4}");
        assert!(emeas_c < 0.002, "emeas_c {emeas_c:.5}");
        // About three quarters of the non-engine total is EMEAS.
        assert!((emeas_nc / all_nc - 0.75).abs() < 0.05);
    }

    #[test]
    fn table4_wolfssl_row() {
        let (p, ealloc) = enclave_workloads().pop().unwrap();
        assert_eq!(p.name, wolfssl::profile().name);
        let nc = primitive_cycles(&p, false, ealloc);
        // Paper: EMEAS 15.0%, all primitives 19.9% without the engine.
        let emeas_share = nc.emeas / p.host_cycles;
        let all_share = nc.total() / p.host_cycles;
        assert!(
            (emeas_share - 0.150).abs() < 0.006,
            "emeas {emeas_share:.3}"
        );
        assert!((all_share - 0.199).abs() < 0.02, "all {all_share:.3}");
        // With the engine: 4.7% all, 0.19% EMEAS.
        let c = primitive_cycles(&p, true, ealloc);
        assert!((c.emeas / p.host_cycles) < 0.004);
        assert!((c.total() / p.host_cycles - 0.047).abs() < 0.012);
    }

    #[test]
    fn fig8a_endpoints() {
        let rows = fig8a();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        assert_eq!(first.bytes, 128 * 1024);
        assert_eq!(last.bytes, 2 * 1024 * 1024);
        assert!(
            (first.overhead() - 0.497).abs() < 0.05,
            "{}",
            first.overhead()
        );
        assert!(
            (last.overhead() - 0.063).abs() < 0.015,
            "{}",
            last.overhead()
        );
        // Monotonically amortising.
        for w in rows.windows(2) {
            assert!(w[0].overhead() > w[1].overhead());
        }
    }

    #[test]
    fn fig8b_average() {
        let rows = fig8b();
        let avg = average(rows.iter().map(|r| r.overhead()));
        assert!((avg - 0.031).abs() < 0.005, "avg {avg:.4}");
    }

    #[test]
    fn fig9_headline() {
        let b = fig9();
        // Paper: 0.9% total memory-management overhead for wolfSSL.
        assert!((b.total() - 0.009).abs() < 0.004, "total {:.4}", b.total());
    }

    #[test]
    fn fig10_headline() {
        let rows = fig10();
        let avg = average(rows.iter().map(|r| r.overhead));
        assert!((avg - 0.019).abs() < 0.004, "avg {avg:.4}");
        let xalanc = rows.iter().find(|r| r.name == "xalancbmk").unwrap();
        assert!((xalanc.overhead - 0.046).abs() < 0.006);
    }

    #[test]
    fn fig11_bound() {
        let cells = fig11();
        for c in &cells {
            assert!(c.overhead <= 0.0185, "cell {c:?} exceeds the 1.81% bound");
        }
        // The worst case is the largest memory at the highest frequency.
        let worst = cells
            .iter()
            .max_by(|a, b| a.overhead.partial_cmp(&b.overhead).unwrap())
            .unwrap();
        assert_eq!(worst.mem_bytes, 32 << 20);
        assert!((worst.switch_hz - 400.0).abs() < 1e-9);
        assert!(worst.overhead > 0.015);
    }

    #[test]
    fn fig12_headlines() {
        let rows = fig12();
        let resnet = rows.iter().find(|r| r.name == "ResNet50").unwrap();
        assert!(resnet.speedup > 4.0);
        assert!(resnet.conventional_crypto_share > 0.747);
        let mobilenet = rows.iter().find(|r| r.name == "MobileNet").unwrap();
        assert!(mobilenet.speedup > 3.3);
        for mlp in rows.iter().filter(|r| r.name.starts_with("MLP")) {
            assert!(mlp.speedup > 27.7, "{}: {}", mlp.name, mlp.speedup);
        }
        let nic_row = rows.iter().find(|r| r.name.starts_with("NIC")).unwrap();
        assert!(nic_row.speedup > 45.0);
    }

    #[test]
    fn table5_headline() {
        for row in table5() {
            assert!(row.overhead() < 0.01, "{row:?}");
        }
    }

    #[test]
    fn table6_hypertee_row_full_marks() {
        let rows = table6();
        let ht = rows.iter().find(|r| r.name == "HyperTEE").unwrap();
        assert!(ht.cells.iter().all(|c| *c == Defense::Yes));
        let sgx = rows.iter().find(|r| r.name == "SGX").unwrap();
        assert!(sgx.cells.iter().all(|c| *c == Defense::No));
    }

    // The Fig. 6 tests use 16 KiB allocations: the functional page-table
    // work stays cheap in debug builds while the queueing behaviour (what
    // Fig. 6 is about) keeps its shape. `fig6_slo` runs the 2 MiB workload.
    const KIB16: u64 = 16 * 1024;

    fn frac_at(curve: &SloCurve, x: f64) -> f64 {
        curve
            .points
            .iter()
            .find(|(m, _)| (*m - x).abs() < 1e-9)
            .map(|(_, f)| *f)
            .unwrap()
    }

    #[test]
    fn fig6_single_inorder_core_handles_four_cs() {
        let curve = fig6_point(4, EmsCluster::single_inorder(), 64, KIB16);
        assert_eq!(curve.stats.timeouts, 0, "{:?}", curve.stats);
        assert_eq!(curve.stats.retries, 0, "fault-free run must not retry");
        assert!(
            curve.stats.in_flight_hwm >= 2,
            "harts must overlap: {:?}",
            curve.stats
        );
        assert!(frac_at(&curve, 64.0) > 0.95, "{curve:?}");
    }

    #[test]
    fn fig6_single_inorder_p99_grows_with_cs() {
        let small = fig6_point(4, EmsCluster::single_inorder(), 64, KIB16);
        let big = fig6_point(16, EmsCluster::single_inorder(), 64, KIB16);
        assert!(
            big.p99 > small.p99,
            "one EMS core must queue harder under more CS cores: {} vs {}",
            big.p99,
            small.p99
        );
    }

    #[test]
    fn fig6_more_ems_cores_move_the_curve_left_at_64_cs() {
        let single = fig6_point(64, EmsCluster::single_inorder(), 128, KIB16);
        let quad = fig6_point(64, EmsCluster::quad_ooo(), 128, KIB16);
        for (s, q) in single.points.iter().zip(&quad.points) {
            assert!(q.1 >= s.1, "quad OoO below one in-order at {}x", q.0);
        }
        assert!(
            quad.p99 < single.p99,
            "a quad OoO cluster must beat one in-order core: {} vs {}",
            quad.p99,
            single.p99
        );
    }
}
