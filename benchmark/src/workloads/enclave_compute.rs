//! `enclave_compute`: guest code on the functional core. A pointer chase
//! whose 1 MiB ring is 8x the reach of the 32-entry TLB (the data plane's
//! load path) and an in-place record XOR (its read-modify-write path), each
//! in its own enclave. Almost no EMS traffic.

use super::{boot, enter_enclaves, Round, Snapshot, Workload};
use crate::trace::Tracer;
use hypertee::exec::RunOutcome;
use hypertee::machine::Machine;
use hypertee_sim::config::SocConfig;
use hypertee_sim::rng;
use hypertee_workloads::programs;

/// Step budget per program, far above what either needs.
const MAX_STEPS: u64 = 1 << 30;

/// Program sizes; the seed adds up to 1/64 more hops and 1/16 more passes.
#[derive(Debug, Clone)]
pub struct EnclaveCompute {
    /// Chase ring nodes (64 bytes each).
    pub chase_nodes: u16,
    /// Chase hops before the seed's share.
    pub chase_hops: u32,
    /// Record-XOR 1 KiB records.
    pub xor_records: u16,
    /// Record-XOR passes before the seed's share.
    pub xor_passes: u16,
    /// See [`Workload::min_rounds`].
    pub rounds: u32,
}

impl Default for EnclaveCompute {
    /// `chase(16384, ~1M)` and `record_xor(16, ~128)`, 7 rounds.
    fn default() -> Self {
        EnclaveCompute {
            chase_nodes: 16384,
            chase_hops: 1 << 20,
            xor_records: 16,
            xor_passes: 128,
            rounds: 7,
        }
    }
}

/// A fresh machine with both programs loaded, one entered enclave per hart,
/// and the exit codes their native mirrors compute.
#[derive(Debug)]
pub struct Loaded {
    m: Machine,
    expected: [u64; 2],
}

impl Workload for EnclaveCompute {
    type State = Loaded;

    fn min_rounds(&self) -> u32 {
        self.rounds
    }

    fn max_refused(&self) -> f64 {
        0.0
    }

    fn setup(&self, seed: u64, tr: &mut Tracer) -> Loaded {
        let x = rng::mix(seed);
        let hops = self.chase_hops + (x % (u64::from(self.chase_hops) / 64 + 1)) as u32;
        let passes = self.xor_passes + ((x >> 32) % (u64::from(self.xor_passes) / 16 + 1)) as u16;
        let chase = programs::chase(self.chase_nodes, hops);
        let xor = programs::record_xor(self.xor_records, passes);
        let mut m = boot(SocConfig::default(), seed, tr);
        enter_enclaves(
            &mut m,
            "heap = 2M\nstack = 64K\nhost_shared = 16K",
            &[&chase, &xor],
            tr,
        );
        Loaded {
            m,
            expected: [
                programs::chase_reference(self.chase_nodes, hops),
                programs::record_xor_reference(self.xor_records, passes),
            ],
        }
    }

    fn round(&self, s: &mut Loaded, _seed: u64, tr: &mut Tracer) -> Round {
        let m = &mut s.m;
        let mut round = Round::default();
        let before = Snapshot::take(m);
        let (mut retired_sum, mut cycles) = (0, 0);
        for (hart, expected) in s.expected.into_iter().enumerate() {
            let start = m.hart_clock(hart);
            let outcome = tr.span("core.exec", || m.run_enclave_program(hart, MAX_STEPS));
            cycles += (m.hart_clock(hart) - start).0;
            match outcome {
                Ok(RunOutcome::Exited { code, retired }) => {
                    round.ops += retired;
                    retired_sum += retired;
                    if code != expected {
                        round.fail(
                            retired,
                            format!("hart {hart} exited {code:#x}, expected {expected:#x}"),
                        );
                    }
                }
                other => round.fail(0, format!("hart {hart} did not exit: {other:?}")),
            }
        }
        before.record_since(m, &mut round.counters);
        round.counters.add("cpu.retired", retired_sum as f64);
        round.guest = Some((retired_sum, cycles));
        round.sim_cycles = Some(m.clock.0);
        round
    }
}
