//! The asynchronous request pipeline: submit / pump / complete.
//!
//! [`crate::machine::Machine::invoke`] used to be a synchronous monolith —
//! submit, spin-poll, retry — which meant the whole SoC could only ever
//! have one primitive in flight, and the multi-core EMS scheduler was dead
//! weight. This module decouples the path into a per-request state machine:
//!
//! * [`Machine::submit`] passes the request through the EMCall gate and
//!   records an in-flight entry (ticket, attempt counter, issue timestamp)
//!   — the hart is immediately free to submit more;
//! * [`Machine::pump`] advances the whole SoC one scheduling round;
//! * [`Machine::take_completion`] / [`Machine::drain_completions`] collect
//!   finished calls and *land* them: EMCall's CS-side half of the primitive
//!   (context switch, translation flush, walk-cache teardown) is applied
//!   exactly once, at collection.
//!
//! # Event-driven rounds (DESIGN.md §15)
//!
//! `pump` is event-driven: a round only touches *actionable* calls. The
//! sources of actionability are
//!
//! * the EMS **wake-list** — requests serviced this round (their response
//!   just landed, or was dropped/delayed in flight, which starts the
//!   serviced-loss clock);
//! * delayed responses released by [`hypertee_fabric::mailbox::Mailbox::
//!   advance_round`];
//! * the **loss timers**, a `BTreeSet<(round, call)>` holding one entry per
//!   (re)submission (unserviced-loss round) and one per service observation
//!   (serviced-loss round) — due entries are lazily re-validated against
//!   live call state, so retries never need timer cancellation;
//! * the per-hart **deadline index**, a `BTreeSet<(hart, expiry, call)>`
//!   swept at round start and again whenever a processed call raises its
//!   hart clock mid-round. A call's expiry is fixed at submission by the
//!   [`crate::machine::DegradePolicy::deadline`] then in force.
//!
//! All wake sources merge into one `BTreeSet` work set popped in ascending
//! call-id order, so the event path visits side-effecting calls in exactly
//! the order the O(n) scan would. The scan survives as [`Machine::
//! pump_ref`]: it shares the round prologue and the [`Machine::
//! try_advance`] transition function, differing *only* in visiting every
//! in-flight call instead of the work set. Because `try_advance` is
//! side-effect-free for non-actionable calls, the two pumps produce
//! bit-identical completions, cycle charges, RNG draws, and chaos trace
//! hashes — enforced by the differential suite in
//! `tests/pump_equivalence.rs` and the replay gate in `scripts/verify.sh`.
//!
//! `invoke` survives as a thin submit + pump-to-completion wrapper, so the
//! synchronous SDK keeps working unchanged on top of the pipeline.

use crate::machine::{Machine, MachineError, MachineResult};
use hypertee_ems::runtime::EmsContext;
use hypertee_ems::scheduler::{EmsScheduler, ServiceRecord};
use hypertee_fabric::mailbox::RequestTicket;
use hypertee_fabric::message::{Primitive, Privilege, Response, Status};
use hypertee_mem::addr::Ppn;
use hypertee_mem::ownership::EnclaveId;
use hypertee_sim::clock::Cycles;
use hypertee_sim::latency::{
    ems_cycles, sign_cost, CTX_SWITCH, EALLOC_BASE_EMS_CYCLES, EALLOC_PAGE_EXTRA, EMCALL_POLL,
    EMS_DISPATCH_EMS_CYCLES, HOST_PAGE_COST, LIFECYCLE_FIXED, MAILBOX_ROUND_TRIP, RETRY_BACKOFF,
};
use hypertee_sim::rng;
use std::collections::{BTreeMap, BTreeSet};

/// Poll rounds per attempt before a request is declared lost. A fault-free
/// round trip completes within one or two polls, so the budget only bites
/// when a packet was dropped, corrupted, or delayed by an injected fault.
const POLL_BUDGET: u32 = 32;

/// Resubmissions after the first attempt before a call gives up with
/// [`MachineError::Timeout`]. Each one charges an exponentially growing
/// back-off to the hart's clock.
const MAX_RETRIES: u32 = 6;

/// Handle to a submitted-but-not-yet-completed primitive call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PendingCall {
    /// Machine-unique call identifier.
    pub id: u64,
    /// The CS hart the call was submitted from.
    pub hart_id: usize,
}

/// A finished pipeline call, ready for collection.
#[derive(Debug)]
pub struct Completion {
    /// The handle returned by [`Machine::submit`].
    pub call: PendingCall,
    /// The submitting hart.
    pub hart_id: usize,
    /// The primitive the call carried.
    pub primitive: Primitive,
    /// The enclave the call targets: its first argument (0 when it has
    /// none). Landing an EENTER/ERESUME stamps it on the hart.
    pub eid: u64,
    /// The outcome, exactly as `invoke` would have returned it.
    pub result: MachineResult<Response>,
    /// Modelled response latency on the submitting hart's clock, from
    /// submission to collection (includes queueing, retries, back-off).
    pub latency: Cycles,
    /// Retry attempts the call needed (0 = first submission succeeded). An
    /// `Ok` completion with `attempts > 0` is a *recovered* request.
    pub attempts: u32,
}

/// Pipeline observability counters, reachable via
/// [`Machine::pipeline_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Calls accepted by [`Machine::submit`].
    pub submitted: u64,
    /// Calls finished (collectable or collected).
    pub completed: u64,
    /// Calls currently in flight.
    pub in_flight: usize,
    /// High-water mark of simultaneously in-flight calls.
    pub in_flight_hwm: usize,
    /// Scheduling rounds pumped so far (either pump flavour).
    pub rounds: u64,
    /// Requests serviced per EMS core (scheduler placement).
    pub serviced_per_core: Vec<u64>,
    /// High-water mark of the request backlog (mailbox + EMS Rx ring)
    /// observed at pump time.
    pub queue_depth_hwm: usize,
    /// Resubmissions and abort-restarts driven by the pipeline.
    pub retries: u64,
    /// Calls that exhausted the retry budget.
    pub timeouts: u64,
    /// Submissions shed at the gate by
    /// [`crate::machine::DegradePolicy::shed_backlog_limit`].
    pub shed: u64,
    /// Calls expired by the
    /// [`crate::machine::DegradePolicy::deadline`] watchdog.
    pub expired: u64,
}

/// One in-flight request's state machine.
///
/// Poll/age counters of the scan-based pipeline are replaced by *round
/// anchors* from which the event-driven core derives them on demand:
/// `age(r) = r - base_round` while unserviced, `polls(r) = r -
/// serviced_round + 1` once serviced. The loss round is therefore a pure
/// function of this struct, which is what lets a loss timer predict it at
/// (re)submission time.
#[derive(Debug)]
struct InFlight {
    call: PendingCall,
    /// The mailbox ticket of the current submission: the only handle that
    /// can poll or resubmit it, dropped when the call finishes.
    ticket: RequestTicket,
    primitive: Primitive,
    args: Vec<u64>,
    payload: Vec<u8>,
    /// Privilege the call was gated under at first submission. Retries
    /// must re-gate under the same privilege, not whatever mode the hart
    /// happens to be in when the fault surfaces.
    privilege: Privilege,
    /// Completed poll-budget cycles (mirrors `invoke`'s attempt counter).
    attempt: u32,
    /// Round of the current (re)submission.
    base_round: u64,
    /// Backlog slack snapshotted at (re)submission: one round of grace per
    /// other in-flight call (plus one), since an unserviced request may be
    /// queued behind all of them. Snapshotting (rather than re-reading the
    /// live backlog every round) is what makes the loss round a constant
    /// a loss timer can hold.
    slack: u32,
    /// Round the current submission was seen serviced by EMS (`None` =
    /// unserviced; a miss past the poll budget then means it was lost).
    serviced_round: Option<u64>,
    /// EMS-side completion time of the current submission (`None` until it
    /// is serviced, or when a cache replay carries no fresh service time).
    service_done: Option<Cycles>,
    /// Hart clock at first submission (latency base).
    issued_at: Cycles,
    /// Earliest time the current submission can reach the EMS (half the
    /// mailbox round trip after the hart clock at submission).
    arrive: Cycles,
    /// Key this call holds in the deadline index: `issued_at + deadline`
    /// under the policy in force at submission (`None` when no deadline
    /// watchdog was armed then).
    deadline_key: Option<Cycles>,
}

impl InFlight {
    /// First round at which the current submission counts as lost: the
    /// serviced-loss round `serviced_round + POLL_BUDGET - 1` (the derived
    /// poll count reaches the budget) or the unserviced-loss round
    /// `base_round + POLL_BUDGET + slack` (the derived age exceeds budget
    /// plus backlog grace).
    fn loss_round(&self) -> u64 {
        match self.serviced_round {
            Some(sr) => sr + u64::from(POLL_BUDGET) - 1,
            None => self.base_round + u64::from(POLL_BUDGET) + u64::from(self.slack),
        }
    }
}

/// Outcome of [`Machine::try_advance`] on one call.
enum Step {
    /// Nothing to do — the call was absent, waiting, or consumed a corrupt
    /// packet. No charge, no state transition.
    Idle,
    /// The call retried (abort restart or loss resubmission): its hart was
    /// charged, so its deadline neighbourhood needs a re-sweep.
    Progress(usize),
    /// The call finished (delivered, expired, timed out, or gate-refused).
    Completed(usize),
}

/// Pipeline state owned by the machine.
#[derive(Debug)]
pub(crate) struct Pipeline {
    next_call: u64,
    in_flight: BTreeMap<u64, InFlight>,
    completed: BTreeMap<u64, Completion>,
    scheduler: EmsScheduler,
    /// Absolute time each EMS core is busy until (hart-clock timeline).
    ems_busy_until: Vec<Cycles>,
    /// Scheduling rounds pumped (shared by both pump flavours).
    round: u64,
    /// Live req_id → call id (the EMS wake-list: a service record or a
    /// released delayed response resolves to its caller in O(log n)).
    req_index: BTreeMap<u64, u64>,
    /// Loss timers, `(absolute round, call)`.
    timers: BTreeSet<(u64, u64)>,
    /// `(hart, issued_at + deadline, call)` — range-swept per hart against
    /// the hart clock instead of checking every call every round.
    deadline_index: BTreeSet<(usize, Cycles, u64)>,
    /// Running counters; the live fields (`in_flight`, `rounds`) are filled
    /// in by [`Machine::pipeline_stats`].
    stats: PipelineStats,
    /// Seed for the deterministic retry-back-off jitter.
    jitter_seed: u64,
}

impl Pipeline {
    pub(crate) fn new(ems_cores: u32, seed: u64) -> Pipeline {
        Pipeline {
            next_call: 0,
            in_flight: BTreeMap::new(),
            completed: BTreeMap::new(),
            scheduler: EmsScheduler::new(ems_cores, seed ^ 0x7363_6865_6475_6c65),
            ems_busy_until: vec![Cycles::ZERO; ems_cores as usize],
            round: 0,
            req_index: BTreeMap::new(),
            timers: BTreeSet::new(),
            deadline_index: BTreeSet::new(),
            stats: PipelineStats {
                serviced_per_core: vec![0; ems_cores as usize],
                ..PipelineStats::default()
            },
            jitter_seed: seed ^ 0x6a69_7474_6572,
        }
    }
}

impl Machine {
    /// Half the fixed mailbox round trip: the request (or response) leg of
    /// the CS ↔ EMS transmission.
    fn half_round_trip(&self) -> Cycles {
        Cycles((MAILBOX_ROUND_TRIP / 2.0).round() as u64)
    }

    /// EMS service time (in CS cycles) implied by a completed primitive's
    /// response — the Fig. 8(a)-calibrated cost the EMS core was busy for,
    /// scaled by the configured core's `CoreConfig::ems_scale` (its
    /// management IPC relative to the medium core the `sim::latency`
    /// constants are calibrated against). Failed primitives bail out in the
    /// sanity checks and cost (to first order) nothing beyond the round trip.
    fn primitive_service_cycles(&self, primitive: Primitive, resp: &Response) -> f64 {
        if resp.status != Status::Ok {
            return 0.0;
        }
        let engine = self.config.crypto_engine;
        let base = match primitive {
            Primitive::Ealloc => {
                let pages = resp.pages_mapped().unwrap_or(0) as f64;
                ems_cycles(EALLOC_BASE_EMS_CYCLES) + pages * (HOST_PAGE_COST + EALLOC_PAGE_EXTRA)
            }
            Primitive::Efree | Primitive::Eshmdt => ems_cycles(EALLOC_BASE_EMS_CYCLES),
            Primitive::Ewb => {
                let count = resp.pages_written_back().unwrap_or(0) as f64;
                count * (HOST_PAGE_COST + EALLOC_PAGE_EXTRA)
            }
            Primitive::Ecreate | Primitive::Edestroy => LIFECYCLE_FIXED / 2.0,
            Primitive::Eadd => 0.0,  // charged per byte by the SDK wrapper
            Primitive::Emeas => 0.0, // likewise (needs the image size)
            Primitive::Eenter | Primitive::Eresume | Primitive::Eexit => CTX_SWITCH,
            Primitive::Eshmget | Primitive::Eshmat => ems_cycles(EALLOC_BASE_EMS_CYCLES),
            Primitive::Eshmshr | Primitive::Eshmdes => ems_cycles(EMS_DISPATCH_EMS_CYCLES),
            Primitive::Eattest => sign_cost(engine),
        };
        base * self.config.ems.core.ems_scale()
    }

    /// Adds `cycles` to a hart's clock and max-merges into the machine
    /// clock.
    pub(crate) fn charge_hart(&mut self, hart_id: usize, cycles: Cycles) {
        self.hart_clock[hart_id] += cycles;
        if self.hart_clock[hart_id] > self.clock {
            self.clock = self.hart_clock[hart_id];
        }
    }

    /// Raises a hart's clock to an absolute timestamp (never backwards) and
    /// max-merges into the machine clock.
    fn raise_hart(&mut self, hart_id: usize, to: Cycles) {
        if to > self.hart_clock[hart_id] {
            self.hart_clock[hart_id] = to;
        }
        if self.hart_clock[hart_id] > self.clock {
            self.clock = self.hart_clock[hart_id];
        }
    }

    /// A hart's own simulated clock (the machine clock is the max-merge
    /// over all harts).
    pub fn hart_clock(&self, hart_id: usize) -> Cycles {
        self.hart_clock[hart_id]
    }

    /// Runs `f` with `hart_id`'s privilege register temporarily set to
    /// `privilege`, restoring it before returning. EMCall still reads the
    /// privilege from the hart, never from a caller argument; the override
    /// only lives for the one gate pass inside `f`.
    pub(crate) fn with_privilege<R>(
        &mut self,
        hart_id: usize,
        privilege: Privilege,
        f: impl FnOnce(&mut Machine) -> R,
    ) -> R {
        let old = std::mem::replace(&mut self.harts[hart_id].privilege, privilege);
        let out = f(self);
        self.harts[hart_id].privilege = old;
        out
    }

    /// [`Machine::submit`] with a temporary privilege override on the hart.
    ///
    /// EMCall stamps the caller's identity and privilege into the request at
    /// submission time, so the override never outlives this call — the hart
    /// is restored before returning. Drivers that interleave OS-privileged
    /// and user-mode primitives on the same hart (the lockstep harness, the
    /// differential tests) use this instead of reaching into `harts`.
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`Machine::submit`].
    pub fn submit_as(
        &mut self,
        hart_id: usize,
        privilege: Privilege,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> MachineResult<PendingCall> {
        self.with_privilege(hart_id, privilege, |m| {
            m.submit(hart_id, primitive, args, payload)
        })
    }

    /// Submits one primitive from `hart_id` into the pipeline and returns a
    /// handle. The hart may hold any number of calls in flight; each call
    /// holds its own mailbox ticket, so a response can only ever reach the
    /// call that submitted it. Drive the machine with [`Machine::pump`] and
    /// collect with [`Machine::take_completion`].
    ///
    /// # Errors
    ///
    /// [`MachineError::Gate`] when EMCall blocks the request;
    /// [`MachineError::Backpressure`] when the request backlog is at or
    /// above the configured shed limit (graceful degradation — nothing was
    /// enqueued, resubmit later).
    pub fn submit(
        &mut self,
        hart_id: usize,
        primitive: Primitive,
        args: Vec<u64>,
        payload: Vec<u8>,
    ) -> MachineResult<PendingCall> {
        if let Some(limit) = self.degrade.shed_backlog_limit {
            let backlog = self.hub.mailbox.pending_requests() + self.ems.rx_backlog();
            if backlog >= limit {
                self.pipeline.stats.shed += 1;
                return Err(MachineError::Backpressure);
            }
        }
        let ticket = self.emcall.submit(
            &self.harts[hart_id],
            &mut self.hub,
            primitive,
            args.clone(),
            payload.clone(),
        )?;
        let call = PendingCall {
            id: self.pipeline.next_call,
            hart_id,
        };
        self.pipeline.next_call += 1;
        let issued_at = self.hart_clock[hart_id];
        let arrive = issued_at + self.half_round_trip();
        let privilege = self.harts[hart_id].privilege;
        let base_round = self.pipeline.round;
        let slack = self.pipeline.in_flight.len() as u32 + 1;
        let deadline_key = self.degrade.deadline.map(|d| issued_at + d);
        if let Some(key) = deadline_key {
            self.pipeline.deadline_index.insert((hart_id, key, call.id));
        }
        self.pipeline.req_index.insert(ticket.req_id(), call.id);
        self.pipeline.in_flight.insert(
            call.id,
            InFlight {
                call,
                ticket,
                primitive,
                args,
                payload,
                privilege,
                attempt: 0,
                base_round,
                slack,
                serviced_round: None,
                service_done: None,
                issued_at,
                arrive,
                deadline_key,
            },
        );
        self.pipeline.timers.insert((
            base_round + u64::from(POLL_BUDGET) + u64::from(slack),
            call.id,
        ));
        self.pipeline.stats.submitted += 1;
        let depth = self.pipeline.in_flight.len();
        if depth > self.pipeline.stats.in_flight_hwm {
            self.pipeline.stats.in_flight_hwm = depth;
        }
        Ok(call)
    }

    /// Advances the whole SoC one scheduling round, touching only the
    /// actionable calls gathered by the round prologue (service wake-list,
    /// released delayed responses, matured timers, expired deadlines).
    /// Returns the number of calls completed this round.
    ///
    /// Bit-identical in every observable effect to the retained O(n) scan
    /// [`Machine::pump_ref`]; the two may even be interleaved on one
    /// machine.
    pub fn pump(&mut self) -> usize {
        if self.scan_scheduler {
            return self.pump_ref();
        }
        let mut work = self.begin_round();
        let mut delivered = 0;
        let mut next = 0u64;
        while let Some(&id) = work.range(next..).next() {
            next = id + 1;
            match self.try_advance(id) {
                Step::Idle => {}
                Step::Progress(hart_id) => {
                    for wake in self.expired_deadline_ids(hart_id, next) {
                        work.insert(wake);
                    }
                }
                Step::Completed(hart_id) => {
                    delivered += 1;
                    for wake in self.expired_deadline_ids(hart_id, next) {
                        work.insert(wake);
                    }
                }
            }
        }
        delivered
    }

    /// The scan-based scheduler, retained as the differential oracle for
    /// [`Machine::pump`]: identical round prologue, identical
    /// `try_advance` transition on every call — but applied to
    /// *all* in-flight calls in ascending id order rather than the event
    /// work set. Since `try_advance` has no effect on non-actionable calls,
    /// both pumps produce bit-identical traces; this one just pays O(n) per
    /// round doing it.
    pub fn pump_ref(&mut self) -> usize {
        let _work = self.begin_round();
        let ids: Vec<u64> = self.pipeline.in_flight.keys().copied().collect();
        let mut delivered = 0;
        for id in ids {
            if matches!(self.try_advance(id), Step::Completed(_)) {
                delivered += 1;
            }
        }
        delivered
    }

    /// The shared per-round prologue of both pump flavours: advances the
    /// round counter, runs one EMS scheduling round (skipped entirely when
    /// nothing is queued — the wake-list fast path), folds service timing,
    /// releases delayed mailbox responses, pops due loss timers, and sweeps
    /// expired deadlines. Returns the round's initial work set.
    fn begin_round(&mut self) -> BTreeSet<u64> {
        self.pipeline.round += 1;
        // Observability: request backlog before this round services any.
        let backlog = self.hub.mailbox.pending_requests() + self.ems.rx_backlog();
        if backlog > self.pipeline.stats.queue_depth_hwm {
            self.pipeline.stats.queue_depth_hwm = backlog;
        }

        // One scheduling round of the EMS cluster. An idle cluster (no
        // queued work anywhere) skips the round entirely, including its
        // fault rolls — the EMS only wakes for a non-empty ready set.
        let cores = self.pipeline.ems_busy_until.len();
        let budget = if backlog > 0 { cores } else { 0 };
        let records = {
            let mut ctx = EmsContext {
                sys: &mut self.sys,
                hub: &mut self.hub,
                os_frames: &mut self.os,
            };
            self.ems
                .service_round(&mut ctx, &mut self.pipeline.scheduler, budget)
        };
        let mut work = BTreeSet::new();
        self.apply_service_timing(&records, &mut work);

        // The fabric's round tick: delayed responses whose hold-down
        // expired become pollable and wake their callers.
        for req_id in self.hub.mailbox.advance_round() {
            if let Some(&id) = self.pipeline.req_index.get(&req_id) {
                work.insert(id);
            }
        }

        // Due loss timers. An entry may be stale (the call completed or was
        // re-anchored by a retry since arming); it is re-validated against
        // live call state in `try_advance`.
        while let Some(&(due, id)) = self.pipeline.timers.first() {
            if due > self.pipeline.round {
                break;
            }
            self.pipeline.timers.pop_first();
            work.insert(id);
        }

        // Deadline watchdog: per-hart range sweep of the expiry index.
        if !self.pipeline.deadline_index.is_empty() {
            for hart_id in 0..self.hart_clock.len() {
                for id in self.expired_deadline_ids(hart_id, 0) {
                    work.insert(id);
                }
            }
        }
        work
    }

    /// Calls on `hart_id` whose deadline expired under the hart's current
    /// clock, with id ≥ `min_id`. Mid-round sweeps pass the work cursor as
    /// `min_id`: a charge can only expire *later* calls this round (the
    /// scan oracle already passed the earlier ones), earlier ids are caught
    /// by the next round's start sweep.
    fn expired_deadline_ids(&self, hart_id: usize, min_id: u64) -> Vec<u64> {
        if self.pipeline.deadline_index.is_empty() {
            return Vec::new();
        }
        let clock = self.hart_clock[hart_id];
        self.pipeline
            .deadline_index
            .range((hart_id, Cycles::ZERO, 0)..(hart_id, clock, 0))
            .map(|&(_, _, id)| id)
            .filter(|&id| id >= min_id)
            .collect()
    }

    /// Folds one service round into the timing model: each serviced request
    /// starts when both its packet has arrived and its assigned EMS core is
    /// free, and occupies the core for its modelled service time. Serviced
    /// calls join the round's work set (their response — if it survived the
    /// fabric — must be polled this round) and arm their serviced-loss
    /// timer.
    fn apply_service_timing(&mut self, records: &[ServiceRecord], work: &mut BTreeSet<u64>) {
        let round = self.pipeline.round;
        for r in records {
            let Some(&id) = self.pipeline.req_index.get(&r.req_id) else {
                continue; // stale replay of an already-collected call
            };
            let core = r.core as usize;
            let svc = Cycles(
                self.primitive_service_cycles(r.primitive, &r.response)
                    .round() as u64,
            );
            let Some(inf) = self.pipeline.in_flight.get_mut(&id) else {
                continue;
            };
            let done = self.pipeline.ems_busy_until[core].max(inf.arrive) + svc;
            inf.serviced_round = Some(round);
            inf.service_done = Some(done);
            self.pipeline.ems_busy_until[core] = done;
            self.pipeline.stats.serviced_per_core[core] += 1;
            work.insert(id);
            self.pipeline
                .timers
                .insert((round + u64::from(POLL_BUDGET) - 1, id));
        }
    }

    /// The shared transition function: advances one call if it is
    /// actionable (expired, pollable, or lost), and does nothing otherwise.
    /// Both pump flavours funnel through here, which is what makes them
    /// trace-equivalent by construction.
    fn try_advance(&mut self, id: u64) -> Step {
        let Some(inf) = self.pipeline.in_flight.get(&id) else {
            return Step::Idle; // completed earlier this round (stale wake)
        };
        let hart_id = inf.call.hart_id;
        let req_id = inf.ticket.req_id();
        // Deadline watchdog first: a call that outlived its total lifetime
        // budget is expired terminally — even if a response is waiting —
        // with no further retries; its ticket goes with it, so a late
        // response is never delivered.
        let clock = self.hart_clock[hart_id];
        if inf.deadline_key.is_some_and(|key| clock > key) {
            let inf = self.pipeline.in_flight.remove(&id).expect("checked above");
            self.pipeline.stats.expired += 1;
            self.finish_call(inf, Err(MachineError::DeadlineExpired));
            return Step::Completed(hart_id);
        }
        // Poll only when a response is actually deliverable: the poll's
        // obfuscation stream and counters then advance identically in both
        // pump flavours. (A corrupt packet is consumed here and discarded
        // as a miss — the call falls through to the loss evaluation.)
        let polled = if self.hub.mailbox.has_response(req_id) {
            self.emcall.poll(&mut self.hub, &inf.ticket)
        } else {
            None
        };
        match polled {
            Some(resp) if resp.status != Status::Aborted => {
                // Response delivered: the hart observes it half a round trip
                // after the EMS finished (or after the full uncontended
                // round trip for cache replays with no fresh service time).
                let inf = self.pipeline.in_flight.remove(&id).expect("checked above");
                let finish = inf.service_done.unwrap_or(inf.arrive) + self.half_round_trip();
                self.raise_hart(hart_id, finish);
                let result = if resp.status == Status::Ok {
                    Ok(resp)
                } else {
                    Err(MachineError::Primitive(resp.status))
                };
                self.finish_call(inf, result);
                Step::Completed(hart_id)
            }
            Some(_aborted) => {
                // Aborted mid-primitive: EMS rolled back and cached nothing,
                // so a fresh submission (new req_id) is safe. The abort
                // response itself still crossed the fabric.
                let mut inf = self.pipeline.in_flight.remove(&id).expect("checked above");
                inf.attempt += 1;
                if inf.attempt > MAX_RETRIES {
                    self.pipeline.stats.timeouts += 1;
                    self.finish_call(inf, Err(MachineError::Timeout));
                    return Step::Completed(hart_id);
                }
                let backoff = self.backoff(inf.attempt, id);
                self.charge_hart(
                    hart_id,
                    Cycles((MAILBOX_ROUND_TRIP + backoff).round() as u64),
                );
                let resubmitted = self.with_privilege(hart_id, inf.privilege, |m| {
                    m.emcall.submit(
                        &m.harts[hart_id],
                        &mut m.hub,
                        inf.primitive,
                        inf.args.clone(),
                        inf.payload.clone(),
                    )
                });
                match resubmitted {
                    Ok(ticket) => {
                        self.pipeline.req_index.remove(&req_id);
                        self.pipeline.req_index.insert(ticket.req_id(), id);
                        inf.ticket = ticket;
                        self.rearm_resubmission(&mut inf, hart_id);
                        self.pipeline.in_flight.insert(id, inf);
                        Step::Progress(hart_id)
                    }
                    Err(e) => {
                        self.finish_call(inf, Err(MachineError::Gate(e)));
                        Step::Completed(hart_id)
                    }
                }
            }
            None => {
                // No deliverable response. Lost only if this round reached
                // the submission's precomputed loss round (the condition the
                // armed timer predicts; a stale timer fails it and drops
                // out here with no side effects).
                let lost = self.pipeline.round >= inf.loss_round();
                if !lost {
                    return Step::Idle;
                }
                let mut inf = self.pipeline.in_flight.remove(&id).expect("checked above");
                inf.attempt += 1;
                if inf.attempt > MAX_RETRIES {
                    self.pipeline.stats.timeouts += 1;
                    self.finish_call(inf, Err(MachineError::Timeout));
                    return Step::Completed(hart_id);
                }
                // The hart spent the loss window polling: the derived
                // serviced poll count (= the full budget) or unserviced age
                // (= budget + slack), whichever applies.
                let waited_polls = match inf.serviced_round {
                    Some(sr) => u64::from(POLL_BUDGET).max(sr - 1 - inf.base_round),
                    None => u64::from(POLL_BUDGET) + u64::from(inf.slack),
                };
                let waited = waited_polls as f64 * EMCALL_POLL;
                let backoff = self.backoff(inf.attempt, id);
                self.charge_hart(hart_id, Cycles((waited + backoff).round() as u64));
                // Resubmit under the same req_id: if EMS in fact completed
                // the request, its response cache replays the completion
                // instead of re-executing the primitive.
                let resubmitted = self.with_privilege(hart_id, inf.privilege, |m| {
                    m.emcall.resubmit(
                        &m.harts[hart_id],
                        &mut m.hub,
                        &inf.ticket,
                        inf.primitive,
                        inf.args.clone(),
                        inf.payload.clone(),
                    )
                });
                match resubmitted {
                    Ok(()) => {
                        self.rearm_resubmission(&mut inf, hart_id);
                        self.pipeline.in_flight.insert(id, inf);
                        Step::Progress(hart_id)
                    }
                    Err(e) => {
                        self.finish_call(inf, Err(MachineError::Gate(e)));
                        Step::Completed(hart_id)
                    }
                }
            }
        }
    }

    /// Re-anchors a call after a retry submission: fresh base round, fresh
    /// backlog-slack snapshot, unserviced state (no service time), new
    /// arrival estimate — and arms the new unserviced-loss timer. The caller has already removed
    /// the call from the in-flight map (so the slack snapshot counts only
    /// the *other* live calls, plus one) and re-inserts it afterwards.
    fn rearm_resubmission(&mut self, inf: &mut InFlight, hart_id: usize) {
        inf.base_round = self.pipeline.round;
        inf.slack = self.pipeline.in_flight.len() as u32 + 1;
        inf.serviced_round = None;
        inf.service_done = None;
        inf.arrive = self.hart_clock[hart_id] + self.half_round_trip();
        self.pipeline.timers.insert((
            inf.base_round + u64::from(POLL_BUDGET) + u64::from(inf.slack),
            inf.call.id,
        ));
        self.pipeline.stats.retries += 1;
    }

    /// Exponential back-off for retry `attempt` (1-based) with seeded
    /// deterministic jitter. The base doubles per attempt as the old
    /// synchronous loop charged it; the jitter scales it by a factor in
    /// [0.5, 1.5) hashed from `(seed, call id, attempt)`, so concurrent
    /// harts whose requests fail in the same round back off to *different*
    /// points instead of retrying in lockstep (retry storms), while the
    /// same seed still replays the exact same trace.
    fn backoff(&self, attempt: u32, call_id: u64) -> f64 {
        let base = RETRY_BACKOFF * f64::from(1u32 << (attempt - 1).min(16));
        // splitmix64 finalizer (shared via `hypertee_sim::rng`): stateless,
        // so the jitter draw can never perturb any other random stream, and
        // a shard's machine boots from its own splitmix-derived seed, so the
        // jitter stays thread-count-invariant.
        let x = rng::mix(
            self.pipeline.jitter_seed
                ^ call_id.wrapping_mul(rng::GOLDEN_GAMMA)
                ^ u64::from(attempt).wrapping_mul(0xd1b5_4a32_d192_ed03),
        );
        base * (0.5 + rng::unit(x))
    }

    /// Moves a call into the completed set, releasing its wake-list and
    /// deadline-index entries. The call's mailbox ticket is dropped here:
    /// this is the one place a request ends.
    fn finish_call(&mut self, inf: InFlight, result: MachineResult<Response>) {
        let hart_id = inf.call.hart_id;
        self.pipeline.req_index.remove(&inf.ticket.req_id());
        if let Some(key) = inf.deadline_key {
            self.pipeline
                .deadline_index
                .remove(&(hart_id, key, inf.call.id));
        }
        let latency = self.hart_clock[hart_id] - inf.issued_at;
        self.pipeline.stats.completed += 1;
        self.pipeline.completed.insert(
            inf.call.id,
            Completion {
                call: inf.call,
                hart_id,
                primitive: inf.primitive,
                eid: inf.args.first().copied().unwrap_or(0),
                result,
                latency,
                attempts: inf.attempt,
            },
        );
    }

    /// Collects the completion for `call`, if it has finished, and lands
    /// its CS-side effect on the harts (DESIGN.md §8).
    pub fn take_completion(&mut self, call: PendingCall) -> Option<Completion> {
        let done = self.pipeline.completed.remove(&call.id)?;
        self.land(&done);
        Some(done)
    }

    /// Collects and lands every finished call (submission order).
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        let done = std::mem::take(&mut self.pipeline.completed);
        for c in done.values() {
            self.land(c);
        }
        done.into_values().collect()
    }

    /// EMCall's CS-side half of a primitive (§III-B ④), applied exactly
    /// once per completion as it is collected (the table is in DESIGN.md
    /// §8). An unknown outcome (`Timeout`, `DeadlineExpired`) may still
    /// have changed the mappings, so it flushes too. Landing runs here and
    /// not in `pump`, so a same-round resubmission is still stamped with
    /// the hart's identity at submission time.
    fn land(&mut self, c: &Completion) {
        let h = c.hart_id;
        match (c.primitive, &c.result) {
            (Primitive::Eenter | Primitive::Eresume, Ok(resp)) => {
                if let Some((root, entry, _key)) = resp.entry_context() {
                    let (hart, eid, root) = (&mut self.harts[h], EnclaveId(c.eid), Ppn(root));
                    if c.primitive == Primitive::Eenter {
                        self.emcall.enter_enclave(hart, eid, root, entry);
                    } else {
                        self.emcall.resume_enclave(hart, eid, root, entry);
                    }
                }
            }
            (Primitive::Eexit, Ok(_)) => self.emcall.exit_enclave(&mut self.harts[h]),
            (
                Primitive::Ealloc | Primitive::Efree | Primitive::Eshmat | Primitive::Eshmdt,
                Ok(_) | Err(MachineError::Timeout | MachineError::DeadlineExpired),
            ) => self.harts[h].mmu.flush_translations(),
            (Primitive::Edestroy, Ok(_)) => {
                for hart in &mut self.harts {
                    hart.mmu.note_mapping_teardown();
                }
            }
            _ => {}
        }
    }

    /// Live pipeline observability counters.
    pub fn pipeline_stats(&self) -> PipelineStats {
        PipelineStats {
            in_flight: self.pipeline.in_flight.len(),
            rounds: self.pipeline.round,
            ..self.pipeline.stats.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee_faults::{FaultConfig, FaultPlan};

    #[test]
    fn a_call_whose_every_request_is_dropped_spends_the_retry_budget() {
        let mut m = Machine::boot_default();
        m.arm_faults(&FaultPlan::new(
            0x10_57,
            FaultConfig {
                drop_request_pm: 1_000_000,
                ..FaultConfig::disabled()
            },
        ));
        let retries = m.pipeline_stats().retries;
        let call = m
            .submit_as(0, Privilege::Os, Primitive::Ewb, vec![1], vec![])
            .unwrap();
        for _ in 0..10_000 {
            if m.pipeline_stats().in_flight == 0 {
                break;
            }
            m.pump();
        }
        let done = m.take_completion(call).expect("the call completed");
        assert_eq!(done.result.unwrap_err(), MachineError::Timeout);
        assert_eq!(done.attempts, MAX_RETRIES + 1);
        assert_eq!(m.pipeline_stats().retries - retries, u64::from(MAX_RETRIES));
    }

    /// Submits two EMEAS calls on hart 0 under `before`, switches the
    /// deadline policy to `after`, and drains both in order. The first
    /// delivery raises the hart clock a full round trip, which strands the
    /// second past a one-cycle deadline.
    fn two_calls_across_a_policy_change(
        before: Option<Cycles>,
        after: Option<Cycles>,
    ) -> [MachineResult<Response>; 2] {
        let mut m = Machine::boot_default();
        m.degrade.deadline = before;
        let calls = [(); 2].map(|()| {
            m.submit_as(0, Privilege::Os, Primitive::Emeas, vec![999], vec![])
                .unwrap()
        });
        m.degrade.deadline = after;
        calls.map(|call| loop {
            m.pump();
            if let Some(done) = m.take_completion(call) {
                break done.result;
            }
        })
    }

    #[test]
    fn a_calls_deadline_is_the_policy_in_force_at_submission() {
        // Armed after submission: neither call is expired.
        for result in two_calls_across_a_policy_change(None, Some(Cycles(1))) {
            assert!(
                matches!(result, Err(MachineError::Primitive(_))),
                "{result:?}"
            );
        }
        // Cleared after submission: the stranded second call still expires.
        let [first, second] = two_calls_across_a_policy_change(Some(Cycles(1)), None);
        assert!(
            matches!(first, Err(MachineError::Primitive(_))),
            "{first:?}"
        );
        assert!(
            matches!(second, Err(MachineError::DeadlineExpired)),
            "{second:?}"
        );
    }
}
