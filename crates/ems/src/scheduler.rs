//! Multi-core EMS request scheduling (§III-C).
//!
//! "As multiple requests may be invoked concurrently, EMS creates multiple
//! threads to perform the management tasks… Different enclave primitives
//! sent to EMS are scheduled randomly… they are handled concurrently across
//! multiple cores, stripping attackers of any influence over the execution
//! order or timing."
//!
//! [`EmsScheduler`] realises that policy deterministically (the simulator
//! must replay): requests keep their per-enclave program order, the
//! interleaving *across* enclaves is randomized per batch, and work spreads
//! evenly over the EMS cores. [`Ems::service_round`] is the one EMS service
//! loop: the machine's pipeline calls it once per pump round, and folds the
//! placements it returns into its per-core timing model. This module
//! provides the functional ordering discipline and its security property
//! (an attacker cannot steer where or when a victim's primitive runs).

use crate::runtime::{Ems, EmsContext};
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_fabric::message::{Primitive, Response};
use hypertee_faults::FaultKind;
use hypertee_mem::ownership::EnclaveId;

/// Where and in which order one request of a batch executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the request in the submitted batch.
    pub request_index: usize,
    /// EMS core chosen.
    pub core: u32,
    /// Execution slot on that core (0 = first).
    pub slot: u64,
}

/// The batch scheduler.
#[derive(Debug)]
pub struct EmsScheduler {
    cores: u32,
    rng: ChaChaRng,
}

impl EmsScheduler {
    /// A scheduler for `cores` EMS cores, seeded deterministically.
    ///
    /// # Panics
    ///
    /// Panics on zero cores.
    pub fn new(cores: u32, seed: u64) -> EmsScheduler {
        assert!(cores > 0, "EMS needs at least one core");
        EmsScheduler {
            cores,
            rng: ChaChaRng::from_u64(seed),
        }
    }

    /// Plans one batch. `callers[i]` is the enclave identity stamped on
    /// request `i` (`None` for OS requests). Guarantees:
    ///
    /// * requests of the same caller keep their relative order;
    /// * the interleaving across callers is randomized;
    /// * per-core load is balanced to within one request.
    pub fn plan(&mut self, callers: &[Option<EnclaveId>]) -> Vec<Assignment> {
        // Group request indices per caller, preserving order.
        let mut groups: Vec<(Option<EnclaveId>, Vec<usize>)> = Vec::new();
        for (i, caller) in callers.iter().enumerate() {
            match groups.iter_mut().find(|(c, _)| c == caller) {
                Some((_, v)) => v.push(i),
                None => groups.push((*caller, vec![i])),
            }
        }
        // Random merge: repeatedly pick a random nonempty group and take its
        // next request — order within a group survives, order across groups
        // is attacker-uncontrollable.
        let mut cursors = vec![0usize; groups.len()];
        let mut merged = Vec::with_capacity(callers.len());
        let mut remaining = callers.len();
        while remaining > 0 {
            let live: Vec<usize> = groups
                .iter()
                .enumerate()
                .filter(|(g, (_, v))| cursors[*g] < v.len())
                .map(|(g, _)| g)
                .collect();
            let pick = live[self.rng.gen_range(live.len() as u64) as usize];
            merged.push(groups[pick].1[cursors[pick]]);
            cursors[pick] += 1;
            remaining -= 1;
        }
        // Least-loaded core assignment.
        let mut load = vec![0u64; self.cores as usize];
        merged
            .into_iter()
            .map(|request_index| {
                let core = load
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| **l)
                    .map(|(c, _)| c)
                    .expect("at least one core");
                let slot = load[core];
                load[core] += 1;
                Assignment {
                    request_index,
                    core: core as u32,
                    slot,
                }
            })
            .collect()
    }
}

/// One request serviced in a scheduling round (observability for the
/// machine's pipeline: where the request ran and what it answered).
#[derive(Debug, Clone)]
pub struct ServiceRecord {
    /// The serviced request's identification.
    pub req_id: u64,
    /// The primitive executed.
    pub primitive: Primitive,
    /// EMS core the scheduler placed the request on.
    pub core: u32,
    /// The response pushed back through the mailbox (a copy: the live one
    /// crosses the fabric and may be dropped/corrupted by injected faults).
    pub response: Response,
}

impl Ems {
    /// One scheduling round of the multi-core EMS. In draw order:
    ///
    /// 1. the round's fault rolls — an injected firmware crash
    ///    warm-restarts and loses the round, a core stall skips it, and
    ///    (after staging pending mailbox requests into the Rx task queue) a
    ///    ring stall wedges one pop;
    /// 2. up to `max_requests` are popped as this round's batch and
    ///    [`EmsScheduler::plan`] places it across the cores;
    /// 3. each request is handled in plan order, then every response is
    ///    pushed back through the mailbox.
    ///
    /// Anything not drained stays queued for the next round. A zero budget
    /// is a no-op that draws nothing. Each shard is a whole machine, so its
    /// rounds draw only from that shard's own streams.
    pub fn service_round(
        &mut self,
        ctx: &mut EmsContext<'_>,
        scheduler: &mut EmsScheduler,
        max_requests: usize,
    ) -> Vec<ServiceRecord> {
        if max_requests == 0 {
            return Vec::new();
        }
        if self.injector.roll(FaultKind::EmsCrash) {
            self.crash_restart();
            return Vec::new();
        }
        if self.injector.roll(FaultKind::EmsStall) {
            return Vec::new();
        }
        while !self.rx.is_full() {
            let Some(req) = ctx.hub.ems_fetch_request(&self.cap) else {
                break;
            };
            let _ = self.rx.push(req); // cannot fail: checked not-full above
        }
        if self.injector.roll(FaultKind::RingStall) {
            self.rx.stall(1);
        }
        let mut batch = Vec::new();
        let mut callers = Vec::new();
        while batch.len() < max_requests {
            let Some(req) = self.rx.pop() else { break };
            callers.push(req.caller.enclave);
            batch.push(Some(req));
        }
        let plan = scheduler.plan(&callers);
        let mut records = Vec::with_capacity(plan.len());
        for a in &plan {
            let req = batch[a.request_index]
                .take()
                .expect("the plan visits each request once");
            let (req_id, primitive) = (req.req_id, req.primitive);
            let response = self.handle(ctx, req);
            records.push(ServiceRecord {
                req_id,
                primitive,
                core: a.core,
                response,
            });
        }
        for r in &records {
            ctx.hub.ems_push_response(&self.cap, r.response.clone());
        }
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn callers(spec: &[u64]) -> Vec<Option<EnclaveId>> {
        spec.iter()
            .map(|&e| if e == 0 { None } else { Some(EnclaveId(e)) })
            .collect()
    }

    #[test]
    fn per_caller_order_is_preserved() {
        let mut sched = EmsScheduler::new(2, 7);
        let batch = callers(&[1, 2, 1, 2, 1, 3, 3, 2]);
        let plan = sched.plan(&batch);
        // Execution order is the order assignments were produced; verify by
        // position in `plan`.
        let position_of = |idx: usize| plan.iter().position(|a| a.request_index == idx).unwrap();
        // Enclave 1's requests are indices 0, 2, 4 — must appear in order.
        assert!(position_of(0) < position_of(2));
        assert!(position_of(2) < position_of(4));
        // Enclave 2's: 1, 3, 7.
        assert!(position_of(1) < position_of(3));
        assert!(position_of(3) < position_of(7));
    }

    #[test]
    fn cross_caller_interleaving_varies() {
        let batch = callers(&[1, 2, 1, 2, 1, 2, 1, 2]);
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..8u64 {
            let mut sched = EmsScheduler::new(2, seed);
            let plan = sched.plan(&batch);
            let sequence: Vec<usize> = plan.iter().map(|a| a.request_index).collect();
            seen.insert(sequence);
        }
        assert!(
            seen.len() > 2,
            "interleavings must vary across seeds: {}",
            seen.len()
        );
    }

    #[test]
    fn load_is_balanced() {
        let mut sched = EmsScheduler::new(3, 1);
        let batch = callers(&[1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6]);
        let plan = sched.plan(&batch);
        let mut load = [0u64; 3];
        for a in &plan {
            load[a.core as usize] += 1;
        }
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        assert!(max - min <= 1, "load {load:?}");
    }

    #[test]
    fn slots_are_dense_per_core() {
        let mut sched = EmsScheduler::new(2, 9);
        let plan = sched.plan(&callers(&[1, 2, 3, 4, 5, 6]));
        for core in 0..2u32 {
            let mut slots: Vec<u64> = plan
                .iter()
                .filter(|a| a.core == core)
                .map(|a| a.slot)
                .collect();
            slots.sort_unstable();
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i as u64);
            }
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let mut sched = EmsScheduler::new(4, 3);
        assert!(sched.plan(&[]).is_empty());
    }
}
