//! `alloc_churn` and `ealloc_2m`: one EALLOC/EFREE closed loop through the
//! async pipeline (submit, pump, drain), used two ways.
//!
//! * `alloc_churn` keeps many small calls in flight under live faults, so
//!   the control plane (submit, pump, mailbox, timer wheel, EMS dispatch)
//!   dominates and the per-call service work is small.
//! * `ealloc_2m` is the paper's Fig. 6 shape: one 2 MiB EALLOC + EFREE in
//!   flight per hart, fault-free, dominated by EMS memory management and
//!   the MKTME writes that zero 512 pages per request.

use super::{boot, enter_enclaves, Round, Snapshot, Workload};
use crate::trace::Tracer;
use hypertee::machine::Machine;
use hypertee_chaos::ChaosConfig;
use hypertee_fabric::message::Primitive;
use hypertee_faults::FaultPlan;
use hypertee_sim::config::{CoreConfig, EmsCluster, SocConfig};
use std::collections::BTreeMap;

/// Pumps without a single completion after which a round is declared
/// stalled (the retry budget bounds every call far below this).
const STALL_PUMPS: u32 = 1_000_000;

/// `alloc_churn`: `harts` entered harts each keep `depth` EALLOC 4 KiB /
/// EFREE pairs in flight, `pairs` pairs per slot, under the chaos fault mix.
#[derive(Debug, Clone)]
pub struct AllocChurn {
    /// Entered harts.
    pub harts: usize,
    /// Calls each hart keeps in flight.
    pub depth: usize,
    /// EALLOC/EFREE pairs each in-flight slot runs per round.
    pub pairs: u32,
    /// See [`Workload::min_rounds`].
    pub rounds: u32,
}

impl Default for AllocChurn {
    /// 8 harts x 128 in flight x 49 pairs: ~100k completions per round,
    /// 8 rounds.
    fn default() -> Self {
        AllocChurn {
            harts: 8,
            depth: 128,
            pairs: 49,
            rounds: 8,
        }
    }
}

/// `ealloc_2m`: `harts` harts each run `pairs` closed-loop EALLOC 2 MiB +
/// EFREE pairs on a 4-core out-of-order EMS, fault-free.
#[derive(Debug, Clone)]
pub struct Ealloc2m {
    /// CS harts, one in-flight call each.
    pub harts: usize,
    /// EALLOC/EFREE pairs per hart per round.
    pub pairs: u32,
    /// See [`Workload::min_rounds`].
    pub rounds: u32,
}

impl Default for Ealloc2m {
    /// 32 harts x 5 pairs per round, 8 rounds: the 1,280 EALLOCs of a
    /// 32 x 40 Fig. 6 run.
    fn default() -> Self {
        Ealloc2m {
            harts: 32,
            pairs: 5,
            rounds: 8,
        }
    }
}

/// A booted machine with one entered enclave per hart.
#[derive(Debug)]
pub struct Loaded {
    m: Machine,
    eids: Vec<u64>,
}

const CHURN_BYTES: u64 = 4096;
const EALLOC_2M_BYTES: u64 = 2 * 1024 * 1024;

impl Workload for AllocChurn {
    type State = Loaded;

    fn min_rounds(&self) -> u32 {
        self.rounds
    }

    /// Every completion is an op.
    fn latency_samples(&self) -> &'static [&'static str] {
        &["core.lat.ealloc", "core.lat.efree"]
    }

    fn max_refused(&self) -> f64 {
        // The chaos fault mix refuses ~2% of calls (retry budget exhausted,
        // transient EMS exhaustion); a run refusing more has regressed.
        0.05
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Loaded {
        // The product campaign's SoC: 8 harts, 4 medium EMS cores.
        let config = SocConfig {
            cs_cores: self.harts as u32,
            ems: EmsCluster {
                cores: 4,
                core: CoreConfig::ems_medium(),
            },
            crypto_engine: true,
            phys_mem_bytes: 256 << 20,
        };
        let mut m = boot(config, seed, tr);
        let images = vec![b"alloc_churn tenant".as_slice(); self.harts];
        let eids = enter_enclaves(
            &mut m,
            "heap = 64M\nstack = 16K\nhost_shared = 4K",
            &images,
            tr,
        );
        // Faults go live after provisioning: only the timed loop sees them.
        m.arm_faults(&FaultPlan::new(seed, ChaosConfig::chaos_faults()));
        Loaded { m, eids }
    }

    fn round(&self, s: &mut Loaded, _seed: u64, tr: &mut Tracer) -> Round {
        closed_loop(s, self.depth, self.pairs, CHURN_BYTES, tr)
    }
}

impl Workload for Ealloc2m {
    type State = Loaded;

    fn min_rounds(&self) -> u32 {
        self.rounds
    }

    /// The Fig. 6 SLO is over EALLOC latency.
    fn latency_samples(&self) -> &'static [&'static str] {
        &["core.lat.ealloc"]
    }

    fn max_refused(&self) -> f64 {
        0.0
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Loaded {
        let harts = self.harts as u32;
        let config = SocConfig {
            cs_cores: harts,
            ems: EmsCluster::quad_ooo(),
            crypto_engine: true,
            phys_mem_bytes: (256 << 20) + u64::from(harts) * (16 << 20),
        };
        let mut m = boot(config, seed, tr);
        let images = vec![b"ealloc_2m tenant".as_slice(); self.harts];
        let eids = enter_enclaves(
            &mut m,
            "heap = 256M\nstack = 32K\nhost_shared = 16K",
            &images,
            tr,
        );
        Loaded { m, eids }
    }

    fn round(&self, s: &mut Loaded, _seed: u64, tr: &mut Tracer) -> Round {
        closed_loop(s, 1, self.pairs, EALLOC_2M_BYTES, tr)
    }
}

/// What a slot has in flight.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Alloc { slot: usize },
    Free { slot: usize },
}

/// The slots of one closed loop and the calls they have in flight.
struct Slots {
    /// Per slot: hart, enclave id, EALLOC/EFREE pairs left to start.
    slots: Vec<(usize, u64, u32)>,
    /// Call id -> the slot waiting on it.
    pending: BTreeMap<u64, Pending>,
    bytes: u64,
}

impl Slots {
    /// Submits the EFREE of `free_va` for `slot`, or else its next EALLOC if
    /// it has a pair left.
    fn submit(
        &mut self,
        m: &mut Machine,
        tr: &mut Tracer,
        round: &mut Round,
        slot: usize,
        free_va: Option<u64>,
    ) {
        let (hart, eid, left) = &mut self.slots[slot];
        let (prim, args, op) = match free_va {
            Some(va) => (
                Primitive::Efree,
                vec![*eid, va, self.bytes],
                Pending::Free { slot },
            ),
            None if *left > 0 => {
                *left -= 1;
                (
                    Primitive::Ealloc,
                    vec![*eid, self.bytes],
                    Pending::Alloc { slot },
                )
            }
            None => return,
        };
        let hart = *hart;
        match tr.span("core.submit", || m.submit(hart, prim, args, vec![])) {
            Ok(call) => {
                self.pending.insert(call.id, op);
            }
            Err(e) => round.fail(
                1,
                format!("{prim:?} submit on hart {hart} refused at the gate: {e}"),
            ),
        }
    }
}

/// Runs `depth` in-flight slots per entered hart, each cycling EALLOC
/// `bytes` then EFREE of the returned VA for `pairs` pairs, then drains and
/// audits. A refused EALLOC ends its pair; a refused EFREE leaves the
/// region mapped, which the audit must still find consistent.
fn closed_loop(s: &mut Loaded, depth: usize, pairs: u32, bytes: u64, tr: &mut Tracer) -> Round {
    let m = &mut s.m;
    let mut round = Round::default();
    let before = Snapshot::take(m);
    let mut slots = Slots {
        slots: s
            .eids
            .iter()
            .enumerate()
            .flat_map(|(hart, &eid)| std::iter::repeat_n((hart, eid, pairs), depth))
            .collect(),
        pending: BTreeMap::new(),
        bytes,
    };
    for slot in 0..slots.slots.len() {
        slots.submit(m, tr, &mut round, slot, None);
    }
    let mut idle_pumps = 0u32;
    while !slots.pending.is_empty() {
        tr.span("core.pump", || m.pump());
        let done = tr.span("core.drain", || m.drain_completions());
        idle_pumps = if done.is_empty() { idle_pumps + 1 } else { 0 };
        if idle_pumps > STALL_PUMPS {
            let stuck = slots.pending.len();
            round.fail(
                stuck as u64,
                format!("pipeline stalled with {stuck} calls in flight"),
            );
            break;
        }
        for c in done {
            let Some(p) = slots.pending.remove(&c.call.id) else {
                round.fail(1, format!("completion for unknown call {}", c.call.id));
                continue;
            };
            round.ops += 1;
            match p {
                Pending::Alloc { slot } => {
                    round.counters.sample("core.lat.ealloc", c.latency.0);
                    match c.result.map(|r| r.mapped_va()) {
                        Ok(Some(va)) => slots.submit(m, tr, &mut round, slot, Some(va)),
                        Ok(None) => round.fail(1, "EALLOC answered without a VA".into()),
                        Err(_) => {
                            round.refused += 1;
                            slots.submit(m, tr, &mut round, slot, None);
                        }
                    }
                }
                Pending::Free { slot } => {
                    round.counters.sample("core.lat.efree", c.latency.0);
                    if c.result.is_err() {
                        round.refused += 1;
                    }
                    slots.submit(m, tr, &mut round, slot, None);
                }
            }
        }
    }
    let in_flight = m.pipeline_stats().in_flight;
    if in_flight != 0 {
        round.fail(0, format!("{in_flight} calls still in flight after drain"));
    }
    if let Err(e) = tr.span("core.audit", || m.audit()) {
        round.fail(round.ops, format!("consistency audit failed: {e}"));
    }
    before.record_since(m, &mut round.counters);
    round.sim_cycles = Some(m.clock.0);
    round
}
