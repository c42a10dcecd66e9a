//! The five workloads. Each is a set-up (boot the SoC, provision fixed
//! state) and a round of timed work on that state; the runner sets up a
//! fresh state for every round, outside the round's timer, so a round's
//! result depends only on its seed.

use crate::trace::{Counters, Tracer};
use hypertee::machine::Machine;
use hypertee::manifest::EnclaveManifest;
use hypertee_sim::config::SocConfig;

pub mod alloc;
pub mod attest_storm;
pub mod chaos_fleet;
pub mod enclave_compute;

/// A workload the runner can time.
pub trait Workload {
    /// What a set-up provisions and a round works on.
    type State;

    /// Rounds every run completes; the simulated metrics come from exactly
    /// these rounds, so they do not depend on how fast the host is.
    fn min_rounds(&self) -> u32;

    /// Counter samples (see [`Counters::sample`]) holding the simulated
    /// latency of each op, for `sim_p50_kcycles` / `sim_p99_kcycles`.
    fn latency_samples(&self) -> &'static [&'static str] {
        &[]
    }

    /// Largest share of ops the system may refuse before the run fails its
    /// checks (0 for fault-free workloads).
    fn max_refused(&self) -> f64;

    /// Boots the SoC and provisions the state one round needs.
    fn setup(&self, seed: u64, tr: &mut Tracer) -> Self::State;

    /// One round of timed work.
    fn round(&self, state: &mut Self::State, seed: u64, tr: &mut Tracer) -> Round;
}

/// What one round did.
#[derive(Debug, Default)]
pub struct Round {
    /// Operations attempted, in the workload's unit (completions, RPCs,
    /// retired instructions).
    pub ops: u64,
    /// Operations the system refused cleanly: a failed status, a shed or
    /// expired call. Fail-closed outcomes, counted in `fail_ratio`.
    pub refused: u64,
    /// Operations whose outcome failed one of the benchmark's checks.
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    /// Final simulated clock of the round's machine, in cycles (`None` when
    /// the workload does not advance simulated time).
    pub sim_cycles: Option<u64>,
    /// Guest instructions retired and the hart cycles charged for them.
    pub guest: Option<(u64, u64)>,
    /// Per-layer counters.
    pub counters: Counters,
}

impl Round {
    /// Records a failed check that invalidates `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.errors.push(why);
    }
}

/// Boots a SoC inside a `core.boot` span.
pub(crate) fn boot(config: SocConfig, seed: u64, tr: &mut Tracer) -> Machine {
    tr.span("core.boot", || Machine::boot(config, seed))
        .expect("pristine firmware boots")
}

/// Creates one enclave per image on harts `0..images.len()` and enters it,
/// inside `core.sdk` spans. Returns the enclave ids in hart order.
pub(crate) fn enter_enclaves(
    m: &mut Machine,
    manifest: &str,
    images: &[&[u8]],
    tr: &mut Tracer,
) -> Vec<u64> {
    let manifest = EnclaveManifest::parse(manifest).expect("static manifest parses");
    images
        .iter()
        .enumerate()
        .map(|(hart, image)| {
            tr.span("core.sdk", || {
                let e = m
                    .create_enclave(hart, &manifest, image)
                    .expect("fault-free enclave creation");
                m.enter(hart, e).expect("fault-free enter");
                e.0
            })
        })
        .collect()
}

/// The machine's summed counters at one instant, read from the public
/// stats of every layer.
pub(crate) struct Snapshot {
    sums: Vec<(&'static str, f64)>,
    serviced_per_core: Vec<u64>,
}

impl Snapshot {
    pub(crate) fn take(m: &Machine) -> Snapshot {
        let p = m.pipeline_stats();
        let mb = &m.hub.mailbox.stats;
        let ec = &m.emcall.stats;
        let mk = &m.sys.engine.stats;
        let ems = &m.ems.stats;
        let harts = 0..m.harts.len();
        let hart_sum = |f: &dyn Fn(usize) -> u64| harts.clone().map(f).sum::<u64>() as f64;
        let tlb = |h: usize| m.harts[h].mmu.tlb.stats;
        let walk = |h: usize| m.harts[h].mmu.walk_cache.stats;
        let sums = vec![
            ("core.pipeline.rounds", p.rounds as f64),
            ("core.pipeline.retries", p.retries as f64),
            ("core.pipeline.timeouts", p.timeouts as f64),
            ("core.pipeline.shed", p.shed as f64),
            ("core.pipeline.expired", p.expired as f64),
            ("fabric.mailbox.requests", mb.requests as f64),
            ("fabric.mailbox.responses", mb.responses as f64),
            ("fabric.mailbox.empty_polls", mb.empty_polls as f64),
            (
                "fabric.mailbox.lost",
                (mb.dropped_requests + mb.dropped_responses) as f64,
            ),
            ("emcall.forwarded", ec.forwarded as f64),
            ("emcall.polls", ec.polls as f64),
            ("emcall.resubmissions", ec.resubmissions as f64),
            ("emcall.tlb_flushes", ec.tlb_flushes as f64),
            ("emcall.context_switches", ec.context_switches as f64),
            ("mem.mktme.enc_bytes", mk.bytes_encrypted as f64),
            ("mem.mktme.dec_bytes", mk.bytes_decrypted as f64),
            ("mem.mktme.mac_checks", mk.mac_checks as f64),
            (
                "mem.mktme.full_line_bytes",
                (mk.full_line_writes * 64) as f64,
            ),
            ("ems.served", ems.served as f64),
            ("ems.sanity_rejects", ems.sanity_rejects as f64),
            ("ems.privilege_rejects", ems.privilege_rejects as f64),
            ("ems.crash_restarts", ems.crash_restarts as f64),
            ("mem.tlb.hits", hart_sum(&|h| tlb(h).hits)),
            ("mem.tlb.misses", hart_sum(&|h| tlb(h).misses)),
            (
                "mem.tlb.lookups",
                hart_sum(&|h| tlb(h).hits + tlb(h).misses),
            ),
            ("mem.walkcache.hits", hart_sum(&|h| walk(h).hits)),
            (
                "mem.walkcache.lookups",
                hart_sum(&|h| walk(h).hits + walk(h).misses),
            ),
            ("cpu.dicache.hits", hart_sum(&|h| m.icache_stats(h).hits)),
            (
                "cpu.dicache.lookups",
                hart_sum(&|h| m.icache_stats(h).hits + m.icache_stats(h).misses),
            ),
            (
                "cpu.dicache.invalidations",
                hart_sum(&|h| m.icache_stats(h).invalidations),
            ),
            ("faults.injected", m.fault_stats().total() as f64),
        ];
        Snapshot {
            sums,
            serviced_per_core: p.serviced_per_core,
        }
    }

    /// Adds what `m` did since this snapshot to `c`.
    pub(crate) fn record_since(&self, m: &Machine, c: &mut Counters) {
        let now = Snapshot::take(m);
        for ((name, before), (_, after)) in self.sums.iter().zip(&now.sums) {
            c.add(name, after - before);
        }
        let p = m.pipeline_stats();
        c.max("core.pipeline.in_flight_hwm", p.in_flight_hwm as f64);
        c.max("core.pipeline.queue_depth_hwm", p.queue_depth_hwm as f64);
        c.max("faults.kinds", m.fault_stats().distinct_kinds() as f64);
        // Load skew across EMS cores: the busiest core over the mean.
        let served: Vec<f64> = now
            .serviced_per_core
            .iter()
            .zip(&self.serviced_per_core)
            .map(|(a, b)| (a - b) as f64)
            .collect();
        let mean = served.iter().sum::<f64>() / served.len().max(1) as f64;
        if mean > 0.0 {
            c.add(
                "ems.core_skew",
                served.iter().copied().fold(0.0, f64::max) / mean,
            );
        }
    }
}
