//! The lockstep driver: replays a [`Command`] trace against a freshly
//! booted [`Machine`] through the asynchronous `submit`/`pump`/
//! `take_completion` pipeline while updating the [`RefModel`] in parallel,
//! diffing every completion (status, response values, per-enclave view) and
//! periodically the whole memory plane (the consistency audit, ownership,
//! page-table/TLB coherence, ticket leaks) against the model.
//!
//! # Concurrency discipline
//!
//! Commands *start* strictly in trace order, but a command only occupies its
//! issuing hart — while it is in flight, later commands on other harts start
//! and overlap with it, so the EMS cluster genuinely services interleaved
//! requests from multiple harts. Soundness of the per-completion predictions
//! rests on two rules:
//!
//! * a command locks its target slot until it completes, so no two in-flight
//!   commands race on one enclave's lifecycle state;
//! * whole-machine diffs run only at *quiescent* checkpoints (no command in
//!   flight), where the model is exactly in sync.
//!
//! # Fault campaigns
//!
//! With a [`FaultConfig`] armed, injected faults make two observations
//! legitimately ambiguous: any primitive may answer `Exhausted` (injected
//! transient exhaustion, no state change — the harness retries a few times),
//! and a call may exhaust its retry budget and surface
//! [`MachineError::Timeout`], after which the target enclave's real state is
//! unknowable. The harness then *taints* the slot: per-slot checks are
//! suspended until an EDESTROY retires it, and whole-machine accounting
//! drops to self-consistency-only (`Machine::audit`). Everything else —
//! statuses, digests, cursors, views — stays strictly checked even mid-storm.

use crate::model::{RefModel, SlotState};
use crate::ops::{image_byte, Command, LifecycleOp};
use hypertee::machine::{Machine, MachineError};
use hypertee::pipeline::PendingCall;
use hypertee_ems::control::{layout, EnclaveState};
use hypertee_fabric::message::{Primitive, Privilege, Response, Status};
use hypertee_faults::{FaultConfig, FaultPlan};
use hypertee_mem::addr::{Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::ownership::{EnclaveId, PageOwner};
use hypertee_mem::snapshot::stale_tlb_entries;
use hypertee_mem::tlb::Tlb;
use hypertee_sim::config::SocConfig;
use std::collections::BTreeSet;

/// An enclave id that the EMS never assigns (its ids count up from one),
/// used to probe NOT-FOUND paths when a command targets a vacant slot.
const DEAD_EID: u64 = u64::MAX;

/// How often an injected-looking `Exhausted` answer is retried before the
/// command is abandoned (injection leaves no state behind, so abandoning is
/// model-neutral).
const EXHAUSTED_RETRIES: u32 = 8;

/// Consecutive pump rounds without a completion before the harness declares
/// the pipeline stalled (comfortably above the worst-case retry budget).
const STALL_PUMPS: u32 = 50_000;

/// An intentionally planted bug, used to prove the oracle catches real
/// divergences (and that the shrinker reduces the trace that exposes them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No mutation: the campaign must run divergence-free.
    #[default]
    None,
    /// After the first successful EWB, re-mark the first written-back frame
    /// as enclave memory — simulating an EMS that forgot to clear the
    /// bitmap bit when evicting the frame to the OS.
    RemarkWritebackFrame,
    /// Undo the post-EFREE TLB shootdown on the issuing hart — the TLB
    /// snapshotted at submission is put back after the completion lands,
    /// simulating a missed coherence flush after pages were unmapped.
    SkipFreeTlbFlush,
}

/// Configuration of one lockstep campaign. The command trace itself is
/// passed separately to [`run_campaign`] so the shrinker can replay subsets
/// under an identical configuration.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Boot seed for the machine and (when faults are armed) the fault plan.
    pub seed: u64,
    /// CS harts the trace uses (must not exceed the SoC's core count).
    pub harts: usize,
    /// Fault campaign to arm, if any.
    pub faults: Option<FaultConfig>,
    /// Quiesce and run the whole-machine diff every this many commands
    /// (`0` = only at the end of the trace).
    pub checkpoint_every: usize,
    /// Intentionally planted bug, for oracle-sensitivity tests.
    pub mutation: Mutation,
}

impl Campaign {
    /// A fault-free multi-hart campaign with default check cadence.
    pub fn new(seed: u64) -> Campaign {
        Campaign {
            seed,
            harts: 4,
            faults: None,
            checkpoint_every: 8,
            mutation: Mutation::None,
        }
    }
}

/// The first point where the real machine and the reference model disagree.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the command trace (for checkpoint divergences, the number
    /// of commands started when the checkpoint ran).
    pub cmd_index: usize,
    /// The command being executed, if the divergence is tied to one.
    pub command: Option<Command>,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.command {
            Some(cmd) => write!(f, "command {} [{}]: {}", self.cmd_index, cmd, self.detail),
            None => write!(
                f,
                "checkpoint after {} commands: {}",
                self.cmd_index, self.detail
            ),
        }
    }
}

/// Aggregate result of one campaign run.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Commands fully executed (including local no-ops).
    pub executed: usize,
    /// Commands resolved locally without a primitive round trip (e.g.
    /// SDK-mirrored `WrongMode` rejections).
    pub local_noops: usize,
    /// Pipeline completions collected.
    pub completions: usize,
    /// Completions whose response was `Ok`.
    pub ok_responses: usize,
    /// Completions that answered with the *predicted* non-`Ok` status.
    pub rejections: usize,
    /// Whole-machine checkpoints executed.
    pub checkpoints: usize,
    /// Calls that exhausted the retry budget (possible only under faults).
    pub timeouts: usize,
    /// Faults actually injected by the armed plan.
    pub faults_injected: u64,
    /// First divergence found, if any.
    pub divergence: Option<Divergence>,
}

impl CampaignOutcome {
    /// Whether the campaign found any divergence.
    pub fn diverged(&self) -> bool {
        self.divergence.is_some()
    }
}

/// What the harness predicted for an in-flight primitive and what to do
/// with the response once it arrives.
#[derive(Debug, Clone)]
enum Apply {
    /// Nothing to apply (predicted rejections, probes).
    Nothing,
    /// ECREATE step of a `Create` flow: learn the eid, seed the model slot.
    CreateEid,
    /// EADD: extend the model measurement mirror at `base_va`.
    AddImage { base_va: u64 },
    /// EMEAS: finalise the mirror; the response payload must equal it.
    Measure,
    /// EENTER/ERESUME: the hart is now inside the slot's enclave.
    EnterCtx,
    /// EEXIT: the hart is back in the host context.
    ExitCtx,
    /// EALLOC: the response must map `pages` at exactly `va`.
    Alloc { va: u64, pages: u64 },
    /// EFREE of the slot's most recent allocation.
    Free { pages: u64 },
    /// EWB: returned frames must be unowned and bitmap-clear.
    Writeback { requested: u64 },
    /// EDESTROY: drop the slot; the enclave view must be gone.
    Destroy,
}

/// Prediction attached to a submitted call.
#[derive(Debug, Clone)]
struct Pred {
    /// Exact status the unfaulted machine must answer.
    status: Status,
    /// Additional statuses accepted for this call (EWB's jitter-driven
    /// `Exhausted`, a tainted destroy's `NotFound`).
    also: Vec<Status>,
    apply: Apply,
}

impl Pred {
    fn exact(status: Status, apply: Apply) -> Pred {
        Pred {
            status,
            also: Vec::new(),
            apply,
        }
    }
}

/// Stage of a multi-step `Create` flow; single-primitive commands go
/// straight to `Single`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Ecreate,
    Eadd,
    Emeas,
    Single,
}

/// One in-flight command and everything needed to finish or retry it.
#[derive(Debug)]
struct Active {
    idx: usize,
    cmd: Command,
    hart: usize,
    step: Step,
    pending: PendingCall,
    pred: Pred,
    /// Last submission, kept for injected-`Exhausted` retries.
    last: (Privilege, Primitive, Vec<u64>),
    /// Learned enclave id (Create flow) or probe target.
    eid: u64,
    /// Image bytes staged for ECREATE/EADD flows.
    image: Vec<u8>,
    /// Host frames staging the image: `(base, pages)`.
    stage: Option<(Ppn, u64)>,
    exhausted_retries: u32,
}

/// Outcome of processing one completion for an active command.
enum CmdProgress {
    /// Command still running (next step submitted, or a retry).
    Continue(Box<Active>),
    /// Command finished (successfully or as a predicted rejection).
    Done,
}

struct Driver<'a> {
    campaign: &'a Campaign,
    m: Machine,
    model: RefModel,
    /// Mirror of each hart's enclave context (which slot it is inside).
    inside: Vec<Option<usize>>,
    locked: BTreeSet<usize>,
    active: Vec<Option<Active>>,
    faulted: bool,
    /// Whole-machine model diffs remain sound (no orphaned creations).
    strict_global: bool,
    mutation_done: bool,
    /// Per hart, the TLB as it stood when its EFREE was submitted (only
    /// under [`Mutation::SkipFreeTlbFlush`]).
    tlb_before_free: Vec<Option<Tlb>>,
    executed: usize,
    local_noops: usize,
    completions: usize,
    ok_responses: usize,
    rejections: usize,
    checkpoints: usize,
    timeouts: usize,
    divergence: Option<Divergence>,
}

/// Runs `commands` against a freshly booted machine in lockstep with the
/// reference model and returns the aggregate outcome, including the first
/// divergence if one was found.
///
/// The run is fully deterministic in (`campaign`, `commands`): the machine
/// boots from `campaign.seed`, the fault plan (if any) derives from the
/// same seed, and the driver itself uses no randomness — which is what
/// makes [`crate::shrink::shrink`] sound.
///
/// # Panics
///
/// Panics if `campaign.harts` is zero or exceeds the default SoC's CS core
/// count.
pub fn run_campaign(campaign: &Campaign, commands: &[Command]) -> CampaignOutcome {
    let config = SocConfig::default();
    assert!(
        campaign.harts > 0 && campaign.harts <= config.cs_cores as usize,
        "campaign.harts must be in 1..={}",
        config.cs_cores
    );
    let mut m = Machine::boot(config, campaign.seed).expect("machine boot");
    let faulted = campaign.faults.is_some();
    if let Some(cfg) = &campaign.faults {
        let plan = FaultPlan::new(campaign.seed, cfg.clone());
        m.arm_faults(&plan);
    }
    let mut d = Driver {
        campaign,
        m,
        model: RefModel::new(),
        inside: vec![None; campaign.harts],
        locked: BTreeSet::new(),
        active: (0..campaign.harts).map(|_| None).collect(),
        faulted,
        strict_global: true,
        mutation_done: false,
        tlb_before_free: (0..campaign.harts).map(|_| None).collect(),
        executed: 0,
        local_noops: 0,
        completions: 0,
        ok_responses: 0,
        rejections: 0,
        checkpoints: 0,
        timeouts: 0,
        divergence: None,
    };
    d.run(commands);
    let faults_injected = d.m.fault_stats().total();
    CampaignOutcome {
        executed: d.executed,
        local_noops: d.local_noops,
        completions: d.completions,
        ok_responses: d.ok_responses,
        rejections: d.rejections,
        checkpoints: d.checkpoints,
        timeouts: d.timeouts,
        faults_injected,
        divergence: d.divergence,
    }
}

impl Driver<'_> {
    fn run(&mut self, commands: &[Command]) {
        let mut started = 0usize;
        let mut last_checkpoint = 0usize;
        let mut idle_pumps = 0u32;
        loop {
            if self.divergence.is_some() {
                return;
            }
            // Start as many commands as the order/hart/slot disciplines
            // allow. A due checkpoint must see a quiescent machine first.
            while started < commands.len() && self.divergence.is_none() {
                let every = self.campaign.checkpoint_every;
                let due = every > 0 && started > 0 && started.is_multiple_of(every);
                if due && last_checkpoint != started {
                    if self.active.iter().any(Option::is_some) {
                        break; // drain in-flight commands first
                    }
                    self.checkpoint(started);
                    last_checkpoint = started;
                    if self.divergence.is_some() {
                        return;
                    }
                }
                let cmd = commands[started];
                let hart = cmd.hart % self.campaign.harts;
                if self.active[hart].is_some() {
                    break;
                }
                if let Some(slot) = target_slot(cmd.op) {
                    if self.locked.contains(&slot) {
                        break;
                    }
                }
                match self.start(started, cmd, hart) {
                    Some(active) => {
                        if let Some(slot) = target_slot(cmd.op) {
                            self.locked.insert(slot);
                        }
                        self.active[hart] = Some(active);
                    }
                    None => {
                        self.local_noops += 1;
                        self.executed += 1;
                    }
                }
                started += 1;
            }
            if self.divergence.is_some() {
                return;
            }
            if started >= commands.len() && self.active.iter().all(Option::is_none) {
                break;
            }
            self.m.pump();
            if self.poll_active() {
                idle_pumps = 0;
            } else {
                idle_pumps += 1;
                if idle_pumps > STALL_PUMPS {
                    self.diverge(started, None, "pipeline stalled: no completion delivered");
                    return;
                }
            }
        }
        self.checkpoint(commands.len());
    }

    /// Collects completions for every active command. Returns whether any
    /// call completed this round.
    fn poll_active(&mut self) -> bool {
        let mut progressed = false;
        for hart in 0..self.active.len() {
            let Some(act) = self.active[hart].take() else {
                continue;
            };
            let Some(comp) = self.m.take_completion(act.pending) else {
                self.active[hart] = Some(act);
                continue;
            };
            progressed = true;
            self.completions += 1;
            match self.handle_completion(act, comp.result) {
                CmdProgress::Continue(next) => self.active[hart] = Some(*next),
                CmdProgress::Done => {}
            }
        }
        progressed
    }

    fn diverge(&mut self, idx: usize, command: Option<Command>, detail: impl Into<String>) {
        if self.divergence.is_none() {
            self.divergence = Some(Divergence {
                cmd_index: idx,
                command,
                detail: detail.into(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Command start: compute the prediction and submit the first primitive.
    // ------------------------------------------------------------------

    /// Starts `cmd`. Returns `None` when the command resolves locally
    /// without a primitive round trip (mirroring the SDK's host-side
    /// `WrongMode` rejections and slot-occupancy no-ops).
    fn start(&mut self, idx: usize, cmd: Command, hart: usize) -> Option<Active> {
        // Commands against a tainted slot are skipped — its real state is
        // unknowable — except EDESTROY, which retires the taint.
        if let Some(slot) = target_slot(cmd.op) {
            let tainted = self.model.slots.get(&slot).is_some_and(|s| s.tainted);
            if tainted && !matches!(cmd.op, LifecycleOp::Destroy { .. }) {
                return None;
            }
        }
        match cmd.op {
            LifecycleOp::Create {
                slot,
                heap_bytes,
                stack_bytes,
                window_bytes,
                image_len,
            } => self.start_create(
                idx,
                cmd,
                hart,
                slot,
                heap_bytes,
                stack_bytes,
                window_bytes,
                image_len,
            ),
            LifecycleOp::AddImage { slot, len } => self.start_add_image(idx, cmd, hart, slot, len),
            LifecycleOp::Enter { slot } => self.start_enter(idx, cmd, hart, slot, false),
            LifecycleOp::Resume { slot } => self.start_enter(idx, cmd, hart, slot, true),
            LifecycleOp::Exit { slot } => self.start_exit(idx, cmd, hart, slot),
            LifecycleOp::Alloc { slot, bytes } => self.start_alloc(idx, cmd, hart, slot, bytes),
            LifecycleOp::Free { slot } => self.start_free(idx, cmd, hart, slot),
            LifecycleOp::Writeback { frames } => self.start_writeback(idx, cmd, hart, frames),
            LifecycleOp::Destroy { slot } => self.start_destroy(idx, cmd, hart, slot),
        }
    }

    fn submit(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        privilege: Privilege,
        primitive: Primitive,
        args: Vec<u64>,
    ) -> Option<PendingCall> {
        match self.m.submit_as(hart, privilege, primitive, args, vec![]) {
            Ok(call) => Some(call),
            Err(e) => {
                self.diverge(
                    idx,
                    Some(cmd),
                    format!("submission rejected at the gate: {e:?}"),
                );
                None
            }
        }
    }

    /// The enclave id to put on the wire for `slot`: the live slot's real
    /// id, or a never-assigned probe id for vacant slots.
    fn wire_eid(&self, slot: usize) -> u64 {
        self.model.slots.get(&slot).map_or(DEAD_EID, |s| s.eid)
    }

    #[allow(clippy::too_many_arguments)]
    fn start_create(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        slot: usize,
        heap_bytes: u64,
        stack_bytes: u64,
        window_bytes: u64,
        image_len: u64,
    ) -> Option<Active> {
        if self.model.slots.contains_key(&slot) || self.inside[hart].is_some() {
            return None; // slot occupied, or hart busy inside an enclave
        }
        let (window, _) = self.m.stage_host_frames(window_bytes, &[]).ok()?;
        let image: Vec<u8> = (0..image_len as usize)
            .map(|i| image_byte(idx, i))
            .collect();
        // The EMS reads EADD sources from CS memory.
        let stage = self.m.stage_host_frames(image_len, &image).ok()?;
        let call = self.submit(
            idx,
            cmd,
            hart,
            Privilege::Os,
            Primitive::Ecreate,
            vec![heap_bytes, stack_bytes, window_bytes, window.base().0],
        )?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Ecreate,
            pending: call,
            pred: Pred::exact(Status::Ok, Apply::CreateEid),
            last: (
                Privilege::Os,
                Primitive::Ecreate,
                vec![heap_bytes, stack_bytes, window_bytes, window.base().0],
            ),
            eid: 0,
            image,
            stage: Some(stage),
            exhausted_retries: 0,
        })
    }

    fn start_add_image(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        slot: usize,
        len: u64,
    ) -> Option<Active> {
        if self.inside[hart].is_some() {
            return None;
        }
        let eid = self.wire_eid(slot);
        let image: Vec<u8> = (0..len as usize).map(|i| image_byte(idx, i)).collect();
        let stage = self.m.stage_host_frames(len, &image).ok()?;
        // A slot is never observably `Building` between commands on the
        // happy path (Create measures before releasing the slot), but an
        // abandoned mid-create flow under faults can leave one; appending
        // then still succeeds and extends the measurement.
        let (pred, base_va) = match self.model.slots.get(&slot) {
            None => (Pred::exact(Status::NotFound, Apply::Nothing), 0),
            Some(s) if s.state == SlotState::Building => {
                let base_va = layout::CODE_BASE.0 + s.image_pages * PAGE_SIZE;
                (
                    Pred::exact(Status::Ok, Apply::AddImage { base_va }),
                    base_va,
                )
            }
            Some(_) => (Pred::exact(Status::BadState, Apply::Nothing), 0),
        };
        let _ = base_va;
        let args = vec![
            eid,
            match &pred.apply {
                Apply::AddImage { base_va } => *base_va,
                _ => layout::CODE_BASE.0,
            },
            stage.0.base().0,
            len,
            0b111,
        ];
        let call = self.submit(idx, cmd, hart, Privilege::Os, Primitive::Eadd, args.clone())?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::Os, Primitive::Eadd, args),
            eid,
            image,
            stage: Some(stage),
            exhausted_retries: 0,
        })
    }

    fn start_enter(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        slot: usize,
        resume: bool,
    ) -> Option<Active> {
        if self.inside[hart].is_some() {
            return None; // SDK mirrors this as a host-side WrongMode
        }
        let eid = self.wire_eid(slot);
        let pred = match self.model.slots.get(&slot).map(|s| s.state) {
            None => Pred::exact(Status::NotFound, Apply::Nothing),
            Some(SlotState::Measured) if !resume => Pred::exact(Status::Ok, Apply::EnterCtx),
            Some(SlotState::Stopped) => Pred::exact(Status::Ok, Apply::EnterCtx),
            Some(_) => Pred::exact(Status::BadState, Apply::Nothing),
        };
        let primitive = if resume {
            Primitive::Eresume
        } else {
            Primitive::Eenter
        };
        let call = self.submit(idx, cmd, hart, Privilege::Os, primitive, vec![eid])?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::Os, primitive, vec![eid]),
            eid,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    fn start_exit(&mut self, idx: usize, cmd: Command, hart: usize, slot: usize) -> Option<Active> {
        let eid = self.wire_eid(slot);
        // Only the enclave itself may exit itself: anything but "this hart
        // is inside exactly this slot" is an identity mismatch.
        let pred = if self.inside[hart] == Some(slot) {
            Pred::exact(Status::Ok, Apply::ExitCtx)
        } else {
            Pred::exact(Status::AccessDenied, Apply::Nothing)
        };
        let call = self.submit(idx, cmd, hart, Privilege::User, Primitive::Eexit, vec![eid])?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::User, Primitive::Eexit, vec![eid]),
            eid,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    fn start_alloc(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        slot: usize,
        bytes: u64,
    ) -> Option<Active> {
        let eid = self.wire_eid(slot);
        let pred = if self.inside[hart] == Some(slot) {
            let s = &self.model.slots[&slot];
            let pages = bytes.div_ceil(PAGE_SIZE);
            let heap_end = layout::HEAP_BASE.0 + s.heap_max;
            if s.heap_cursor + pages * PAGE_SIZE > heap_end {
                Pred::exact(Status::InvalidArgument, Apply::Nothing)
            } else {
                Pred::exact(
                    Status::Ok,
                    Apply::Alloc {
                        va: s.heap_cursor,
                        pages,
                    },
                )
            }
        } else {
            Pred::exact(Status::AccessDenied, Apply::Nothing)
        };
        let call = self.submit(
            idx,
            cmd,
            hart,
            Privilege::User,
            Primitive::Ealloc,
            vec![eid, bytes],
        )?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::User, Primitive::Ealloc, vec![eid, bytes]),
            eid,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    fn start_free(&mut self, idx: usize, cmd: Command, hart: usize, slot: usize) -> Option<Active> {
        let eid = self.wire_eid(slot);
        let (pred, args) = if self.inside[hart] == Some(slot) {
            match self.model.slots[&slot].allocs.last().copied() {
                Some((va, pages)) => (
                    Pred::exact(Status::Ok, Apply::Free { pages }),
                    vec![eid, va, pages * PAGE_SIZE],
                ),
                // Nothing live to free: a deliberately illegal zero-byte
                // range, which the EMS must reject as InvalidArgument.
                None => (
                    Pred::exact(Status::InvalidArgument, Apply::Nothing),
                    vec![eid, layout::HEAP_BASE.0, 0],
                ),
            }
        } else {
            (
                Pred::exact(Status::AccessDenied, Apply::Nothing),
                vec![eid, layout::HEAP_BASE.0, PAGE_SIZE],
            )
        };
        self.tlb_before_free[hart] = (self.campaign.mutation == Mutation::SkipFreeTlbFlush)
            .then(|| self.m.harts[hart].mmu.tlb.clone());
        let call = self.submit(
            idx,
            cmd,
            hart,
            Privilege::User,
            Primitive::Efree,
            args.clone(),
        )?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::User, Primitive::Efree, args),
            eid,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    fn start_writeback(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        frames: u64,
    ) -> Option<Active> {
        if self.inside[hart].is_some() {
            return None;
        }
        // EWB's evicted count is jittered by the pool's RNG; with too few
        // pooled frames the whole batch legitimately rolls back Exhausted.
        let pred = Pred {
            status: Status::Ok,
            also: vec![Status::Exhausted],
            apply: Apply::Writeback { requested: frames },
        };
        let call = self.submit(idx, cmd, hart, Privilege::Os, Primitive::Ewb, vec![frames])?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::Os, Primitive::Ewb, vec![frames]),
            eid: 0,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    fn start_destroy(
        &mut self,
        idx: usize,
        cmd: Command,
        hart: usize,
        slot: usize,
    ) -> Option<Active> {
        if self.inside[hart].is_some() {
            return None;
        }
        let eid = self.wire_eid(slot);
        let pred = match self.model.slots.get(&slot) {
            None => Pred::exact(Status::NotFound, Apply::Nothing),
            Some(s) if s.tainted => Pred {
                // A tainted slot's create definitely happened, but a lost
                // earlier destroy may already have retired it.
                status: Status::Ok,
                also: vec![Status::NotFound],
                apply: Apply::Destroy,
            },
            Some(_) => Pred::exact(Status::Ok, Apply::Destroy),
        };
        let call = self.submit(
            idx,
            cmd,
            hart,
            Privilege::Os,
            Primitive::Edestroy,
            vec![eid],
        )?;
        Some(Active {
            idx,
            cmd,
            hart,
            step: Step::Single,
            pending: call,
            pred,
            last: (Privilege::Os, Primitive::Edestroy, vec![eid]),
            eid,
            image: Vec::new(),
            stage: None,
            exhausted_retries: 0,
        })
    }

    // ------------------------------------------------------------------
    // Completion handling: check the response against the prediction and
    // apply the model transition.
    // ------------------------------------------------------------------

    fn handle_completion(
        &mut self,
        mut act: Active,
        result: Result<Response, MachineError>,
    ) -> CmdProgress {
        let status = match result {
            Ok(resp) => {
                debug_assert_eq!(resp.status, Status::Ok);
                return self.handle_ok(act, resp);
            }
            Err(MachineError::Primitive(status)) => status,
            Err(MachineError::Timeout) => return self.handle_timeout(act),
            Err(other) => {
                self.diverge(
                    act.idx,
                    Some(act.cmd),
                    format!("unexpected machine error: {other:?}"),
                );
                self.finish(act);
                return CmdProgress::Done;
            }
        };
        if status == act.pred.status || act.pred.also.contains(&status) {
            // The predicted rejection (or an accepted alternative like
            // EWB's Exhausted): command over, nothing to apply.
            self.rejections += 1;
            self.finish(act);
            return CmdProgress::Done;
        }
        if self.faulted && status == Status::Exhausted && act.exhausted_retries < EXHAUSTED_RETRIES
        {
            // Injected transient exhaustion leaves no state behind; retry
            // the same step under a fresh request id.
            act.exhausted_retries += 1;
            let (privilege, primitive, args) = act.last.clone();
            match self
                .m
                .submit_as(act.hart, privilege, primitive, args, vec![])
            {
                Ok(call) => {
                    act.pending = call;
                    return CmdProgress::Continue(Box::new(act));
                }
                Err(e) => {
                    self.diverge(
                        act.idx,
                        Some(act.cmd),
                        format!("retry gate-rejected: {e:?}"),
                    );
                    self.finish(act);
                    return CmdProgress::Done;
                }
            }
        }
        if self.faulted && status == Status::Exhausted {
            // Persistent injected exhaustion: abandon the command. Injection
            // happens before dispatch, so neither machine nor model moved.
            self.finish(act);
            return CmdProgress::Done;
        }
        self.diverge(
            act.idx,
            Some(act.cmd),
            format!(
                "predicted {:?}, machine answered {status:?}",
                act.pred.status
            ),
        );
        self.finish(act);
        CmdProgress::Done
    }

    /// A retry budget ran out: only legitimate under an armed fault plan.
    /// The target slot's real state is now unknowable — taint it and drop
    /// whole-machine strictness.
    fn handle_timeout(&mut self, act: Active) -> CmdProgress {
        self.timeouts += 1;
        if !self.faulted {
            self.diverge(
                act.idx,
                Some(act.cmd),
                "call timed out without faults armed",
            );
            self.finish(act);
            return CmdProgress::Done;
        }
        self.strict_global = false;
        self.m.harts[act.hart].mmu.tlb.flush_all();
        match act.step {
            Step::Ecreate => {
                // The EMS may or may not hold an enclave whose id the model
                // never learned; only `Machine::audit` stays meaningful.
                self.model.orphan_creates += 1;
            }
            _ => {
                if let Some(slot) = target_slot(act.cmd.op) {
                    self.model.taint(slot);
                }
            }
        }
        self.finish(act);
        CmdProgress::Done
    }

    fn handle_ok(&mut self, mut act: Active, resp: Response) -> CmdProgress {
        if act.pred.status != Status::Ok {
            self.diverge(
                act.idx,
                Some(act.cmd),
                format!("predicted {:?}, machine answered Ok", act.pred.status),
            );
            self.finish(act);
            return CmdProgress::Done;
        }
        self.ok_responses += 1;
        let apply = act.pred.apply.clone();
        match apply {
            Apply::Nothing => {}
            Apply::CreateEid => return self.apply_create(act, &resp),
            Apply::AddImage { base_va } => {
                let slot = target_slot(act.cmd.op).expect("add-image has a slot");
                let image = std::mem::take(&mut act.image);
                self.model.extend_image(slot, base_va, &image, 0b111);
                self.check_view(act.idx, act.cmd, slot);
                // Inside a Create flow, EADD is followed by the EMEAS step.
                if act.step == Step::Eadd && self.divergence.is_none() {
                    let args = vec![act.eid];
                    match self.m.submit_as(
                        act.hart,
                        Privilege::Os,
                        Primitive::Emeas,
                        args.clone(),
                        vec![],
                    ) {
                        Ok(call) => {
                            act.step = Step::Emeas;
                            act.pending = call;
                            act.pred = Pred::exact(Status::Ok, Apply::Measure);
                            act.last = (Privilege::Os, Primitive::Emeas, args);
                            act.exhausted_retries = 0;
                            return CmdProgress::Continue(Box::new(act));
                        }
                        Err(e) => {
                            self.diverge(
                                act.idx,
                                Some(act.cmd),
                                format!("EMEAS gate-rejected: {e:?}"),
                            );
                        }
                    }
                }
            }
            Apply::Measure => {
                let slot = target_slot(act.cmd.op).expect("measure has a slot");
                let digest = self.model.measure(slot);
                if resp.payload != digest {
                    self.diverge(
                        act.idx,
                        Some(act.cmd),
                        format!(
                            "measurement mismatch: model {:02x?}.., machine {:02x?}..",
                            &digest[..4],
                            &resp.payload.get(..4).unwrap_or(&[])
                        ),
                    );
                }
                self.check_view(act.idx, act.cmd, slot);
            }
            Apply::EnterCtx => self.apply_enter(&act, &resp),
            Apply::ExitCtx => {
                let slot = target_slot(act.cmd.op).expect("exit has a slot");
                self.inside[act.hart] = None;
                self.model.exit(slot);
                self.check_view(act.idx, act.cmd, slot);
            }
            Apply::Alloc { va, pages } => self.apply_alloc(&act, &resp, va, pages),
            Apply::Free { pages } => self.apply_free(&act, pages),
            Apply::Writeback { requested } => self.apply_writeback(&act, &resp, requested),
            Apply::Destroy => self.apply_destroy(&act),
        }
        self.finish(act);
        CmdProgress::Done
    }

    /// ECREATE answered: learn the (must-be-fresh) enclave id, seed the
    /// model slot, and move on to the EADD step.
    fn apply_create(&mut self, mut act: Active, resp: &Response) -> CmdProgress {
        let LifecycleOp::Create {
            slot,
            heap_bytes,
            stack_bytes,
            window_bytes,
            image_len,
        } = act.cmd.op
        else {
            unreachable!("CreateEid apply outside a Create command");
        };
        let Some(eid) = resp.new_enclave_id() else {
            self.diverge(act.idx, Some(act.cmd), "ECREATE Ok carried no enclave id");
            self.finish(act);
            return CmdProgress::Done;
        };
        if self.model.eids_seen.contains(&eid) {
            self.diverge(
                act.idx,
                Some(act.cmd),
                format!("enclave id {eid} reused (ids must be fresh)"),
            );
            self.finish(act);
            return CmdProgress::Done;
        }
        self.model
            .create(slot, eid, heap_bytes, stack_bytes, window_bytes);
        act.eid = eid;
        self.check_view(act.idx, act.cmd, slot);
        if self.divergence.is_some() {
            self.finish(act);
            return CmdProgress::Done;
        }
        let stage_pa = act.stage.expect("create staged its image").0.base().0;
        let args = vec![eid, layout::CODE_BASE.0, stage_pa, image_len, 0b111];
        match self.m.submit_as(
            act.hart,
            Privilege::Os,
            Primitive::Eadd,
            args.clone(),
            vec![],
        ) {
            Ok(call) => {
                act.step = Step::Eadd;
                act.pending = call;
                act.pred = Pred::exact(
                    Status::Ok,
                    Apply::AddImage {
                        base_va: layout::CODE_BASE.0,
                    },
                );
                act.last = (Privilege::Os, Primitive::Eadd, args);
                act.exhausted_retries = 0;
                CmdProgress::Continue(Box::new(act))
            }
            Err(e) => {
                self.diverge(act.idx, Some(act.cmd), format!("EADD gate-rejected: {e:?}"));
                self.finish(act);
                CmdProgress::Done
            }
        }
    }

    fn apply_enter(&mut self, act: &Active, resp: &Response) {
        let slot = target_slot(act.cmd.op).expect("enter has a slot");
        if resp.entry_context().is_none() {
            self.diverge(
                act.idx,
                Some(act.cmd),
                "EENTER/ERESUME Ok carried no entry context",
            );
            return;
        }
        self.inside[act.hart] = Some(slot);
        self.model.enter(slot, act.hart);
        self.check_view(act.idx, act.cmd, slot);
    }

    fn apply_alloc(&mut self, act: &Active, resp: &Response, va: u64, pages: u64) {
        let slot = target_slot(act.cmd.op).expect("alloc has a slot");
        let (got_va, got_pages) = (resp.mapped_va(), resp.pages_mapped());
        if got_va != Some(va) || got_pages != Some(pages) {
            self.diverge(
                act.idx,
                Some(act.cmd),
                format!(
                    "EALLOC mapped {got_va:?} x {got_pages:?} pages, model expected {va:#x} x {pages}"
                ),
            );
            return;
        }
        self.model.alloc(slot, pages);
        // Landing flushed the hart's translations; touch the fresh pages as
        // the enclave would, which both
        // verifies the memory is usable end-to-end (translate + encrypt +
        // integrity) and warms the TLB so coherence bugs become visible.
        for i in 0..pages.min(4) {
            let addr = VirtAddr(va + i * PAGE_SIZE);
            let m = &mut self.m;
            let (harts, sys) = (&mut m.harts, &mut m.sys);
            if let Err(f) = harts[act.hart].mmu.store_u64(sys, addr, act.idx as u64) {
                self.diverge(
                    act.idx,
                    Some(act.cmd),
                    format!("freshly EALLOCed page at {addr:?} unusable: {f:?}"),
                );
                return;
            }
        }
        self.check_tlb(act.idx, Some(act.cmd), act.hart);
        self.check_view(act.idx, act.cmd, slot);
    }

    fn apply_free(&mut self, act: &Active, pages: u64) {
        let slot = target_slot(act.cmd.op).expect("free has a slot");
        if let Some(s) = self.model.slots.get_mut(&slot) {
            s.allocs.pop();
        }
        self.model.free(slot, pages);
        // Landing flushed the hart's translations; the planted mutation
        // puts the pre-EFREE TLB back to prove the oracle notices.
        if let Some(tlb) = self.tlb_before_free[act.hart].take() {
            self.m.harts[act.hart].mmu.tlb = tlb;
        }
        self.check_tlb(act.idx, Some(act.cmd), act.hart);
        self.check_view(act.idx, act.cmd, slot);
    }

    fn apply_writeback(&mut self, act: &Active, resp: &Response, requested: u64) {
        let frames = resp.written_back_frames();
        let count = resp.pages_written_back().unwrap_or(0);
        if count != frames.len() as u64 || count < requested {
            self.diverge(
                act.idx,
                Some(act.cmd),
                format!(
                    "EWB answered count {count} with {} frames for a request of {requested}",
                    frames.len()
                ),
            );
            return;
        }
        // Planted bug: "forget" the bitmap clear on the first evicted frame.
        // The OS cannot reuse a frame still marked as enclave memory, so it
        // stays leaked until the consistency audit at a quiescent checkpoint
        // flags it.
        let mutate =
            if self.campaign.mutation == Mutation::RemarkWritebackFrame && !self.mutation_done {
                frames.first().map(|pa| Ppn(pa / PAGE_SIZE))
            } else {
                None
            };
        for pa in frames {
            let ppn = Ppn(pa / PAGE_SIZE);
            let owned = self.m.ems.ownership().iter().any(|(p, _)| p == ppn);
            if owned {
                self.diverge(
                    act.idx,
                    Some(act.cmd),
                    format!("EWB returned frame {ppn:?} that is still owned"),
                );
                return;
            }
            let sys = &mut self.m.sys;
            match sys.bitmap.is_enclave(ppn, &mut sys.phys) {
                Ok(false) => {}
                Ok(true) => {
                    self.diverge(
                        act.idx,
                        Some(act.cmd),
                        format!("EWB returned frame {ppn:?} still bitmap-marked as enclave memory"),
                    );
                    return;
                }
                Err(f) => {
                    self.diverge(act.idx, Some(act.cmd), format!("bitmap read failed: {f:?}"));
                    return;
                }
            }
            if mutate == Some(ppn) {
                let sys = &mut self.m.sys;
                let _ = sys.bitmap.set(ppn, true, &mut sys.phys);
                self.mutation_done = true;
            } else {
                // Mirror the SDK: written-back frames return to the OS
                // allocator.
                self.m.os.free(ppn);
            }
        }
    }

    fn apply_destroy(&mut self, act: &Active) {
        let slot = target_slot(act.cmd.op).expect("destroy has a slot");
        // If the enclave was running, its hart still holds the enclave
        // context; restore the host context exactly as an OS would after
        // tearing the enclave down.
        if let Some(h) = (0..self.inside.len()).find(|&h| self.inside[h] == Some(slot)) {
            self.m.emcall.exit_enclave(&mut self.m.harts[h]);
            self.inside[h] = None;
        }
        self.model.destroy(slot);
        if self.m.ems.enclave_view(act.eid).is_some() {
            self.diverge(
                act.idx,
                Some(act.cmd),
                format!("enclave {} survived a successful EDESTROY", act.eid),
            );
        }
    }

    /// Command over: release its slot lock and staging frames.
    fn finish(&mut self, act: Active) {
        if let Some(slot) = target_slot(act.cmd.op) {
            self.locked.remove(&slot);
        }
        if let Some((base, pages)) = act.stage {
            let _ = self.m.release_host_frames(base, pages);
        }
        self.executed += 1;
    }

    // ------------------------------------------------------------------
    // Oracles.
    // ------------------------------------------------------------------

    /// Diffs the EMS's view of one enclave against the model slot. Skipped
    /// for tainted slots.
    fn check_view(&mut self, idx: usize, cmd: Command, slot: usize) {
        let Some(s) = self.model.slots.get(&slot) else {
            return;
        };
        if s.tainted {
            return;
        }
        let Some(view) = self.m.ems.enclave_view(s.eid) else {
            self.diverge(
                idx,
                Some(cmd),
                format!("no EMS view for live enclave {}", s.eid),
            );
            return;
        };
        let state_ok = matches!(
            (s.state, view.state),
            (SlotState::Building, EnclaveState::Building)
                | (SlotState::Measured, EnclaveState::Measured)
                | (SlotState::Running, EnclaveState::Running)
                | (SlotState::Stopped, EnclaveState::Stopped)
        );
        let mut problems = Vec::new();
        if !state_ok {
            problems.push(format!("state {:?} vs model {:?}", view.state, s.state));
        }
        if view.heap_cursor != s.heap_cursor {
            problems.push(format!(
                "heap cursor {:#x} vs model {:#x}",
                view.heap_cursor, s.heap_cursor
            ));
        }
        if view.data_frames as u64 != s.data_pages() {
            problems.push(format!(
                "{} data frames vs model {}",
                view.data_frames,
                s.data_pages()
            ));
        }
        if view.switches != s.switches {
            problems.push(format!(
                "{} switches vs model {}",
                view.switches, s.switches
            ));
        }
        if !view.has_key {
            problems.push("memory key missing".to_string());
        }
        if view.measurement != s.digest {
            problems.push("measurement digest mismatch".to_string());
        }
        if view.poisoned {
            problems.push("unexpectedly poisoned".to_string());
        }
        if !problems.is_empty() {
            self.diverge(
                idx,
                Some(cmd),
                format!("enclave {} view diverged: {}", s.eid, problems.join("; ")),
            );
        }
    }

    /// TLB-coherence predicate for one hart: every resident entry must
    /// agree with a side-effect-free walk of its current page table.
    fn check_tlb(&mut self, idx: usize, cmd: Option<Command>, hart: usize) {
        if let Some(slot) = self.inside[hart] {
            if self.model.slots.get(&slot).is_some_and(|s| s.tainted) {
                return;
            }
        }
        let m = &mut self.m;
        let (harts, sys) = (&m.harts, &mut m.sys);
        let Some(table) = harts[hart].mmu.table else {
            return;
        };
        match stale_tlb_entries(&harts[hart].mmu.tlb, &table, &mut sys.phys) {
            Ok(stale) if stale.is_empty() => {}
            Ok(stale) => {
                let first = &stale[0];
                self.diverge(
                    idx,
                    cmd,
                    format!(
                        "hart {hart} holds {} stale TLB entr{} (first: {:?} at {:?})",
                        stale.len(),
                        if stale.len() == 1 { "y" } else { "ies" },
                        first.reason,
                        first.va,
                    ),
                );
            }
            Err(f) => self.diverge(idx, cmd, format!("TLB walk failed on hart {hart}: {f:?}")),
        }
    }

    /// The quiescent whole-machine diff: cross-structure audit (bitmap,
    /// ownership and pool), ownership against the model, per-slot views, no
    /// call left in flight, TLB coherence on every hart, and the
    /// hart-context mirror.
    fn checkpoint(&mut self, at: usize) {
        if self.divergence.is_some() {
            return;
        }
        self.checkpoints += 1;
        if let Err(e) = self.m.audit() {
            self.diverge(at, None, format!("consistency audit failed: {e:?}"));
            return;
        }
        if self.strict_global {
            // The audit above already matched the bitmap against the pool
            // free list and the ownership table. Here every owned frame
            // must belong to an enclave the model knows.
            let known = self.model.known_eids();
            let ownership = self.m.ems.ownership();
            let unknown = ownership.iter().find_map(|(ppn, owner)| match owner {
                PageOwner::Enclave(e) if !known.contains(&e.0) => Some((ppn.0, e.0)),
                _ => None,
            });
            if let Some((ppn, eid)) = unknown {
                self.diverge(
                    at,
                    None,
                    format!("frame {ppn} owned by unknown enclave {eid}"),
                );
                return;
            }
            // Ownership-table frame counts per untainted slot.
            for (&slot, s) in &self.model.slots {
                if s.tainted {
                    continue;
                }
                let owned = self.m.ems.ownership().pages_of(EnclaveId(s.eid)).len() as u64;
                if owned != s.data_pages() {
                    self.diverge(
                        at,
                        None,
                        format!(
                            "slot {slot} (enclave {}): ownership table holds {owned} frames, \
                             model expects {}",
                            s.eid,
                            s.data_pages()
                        ),
                    );
                    return;
                }
            }
            // Every live EMS enclave is one the model knows about.
            for view in self.m.enclave_views() {
                if !known.contains(&view.eid) {
                    self.diverge(at, None, format!("EMS holds unknown enclave {}", view.eid));
                    return;
                }
            }
        }
        let slots: Vec<usize> = self.model.slots.keys().copied().collect();
        for slot in slots {
            // Re-diff every live slot's view with a synthetic "checkpoint"
            // command context.
            if let Some(s) = self.model.slots.get(&slot) {
                if !s.tainted {
                    let cmd = Command {
                        hart: 0,
                        op: LifecycleOp::Destroy { slot },
                    };
                    self.check_view(at, cmd, slot);
                    if self.divergence.is_some() {
                        // Re-attribute: this is a checkpoint finding.
                        if let Some(d) = &mut self.divergence {
                            d.command = None;
                        }
                        return;
                    }
                }
            }
        }
        // Each call holds its mailbox ticket until it finishes, so a call
        // still in flight at a quiescent point is a leaked ticket.
        let in_flight = self.m.pipeline_stats().in_flight;
        if in_flight != 0 {
            self.diverge(at, None, format!("{in_flight} call(s) still in flight"));
            return;
        }
        for hart in 0..self.campaign.harts {
            self.check_tlb(at, None, hart);
            if self.divergence.is_some() {
                return;
            }
            // Hart-context mirror: EMCall's notion of "inside which enclave"
            // must match the harness's replay of its own context switches.
            let real = self.m.current_enclave(hart);
            let mirrored = self.inside[hart].map(|s| self.model.slots[&s].eid);
            let tainted = self.inside[hart]
                .is_some_and(|s| self.model.slots.get(&s).is_some_and(|m| m.tainted));
            if !tainted && real != mirrored {
                self.diverge(
                    at,
                    None,
                    format!("hart {hart} context: machine in {real:?}, mirror says {mirrored:?}"),
                );
                return;
            }
        }
    }
}

/// The slot a lifecycle op targets (`None` for EWB, which is slot-free).
fn target_slot(op: LifecycleOp) -> Option<usize> {
    match op {
        LifecycleOp::Create { slot, .. }
        | LifecycleOp::AddImage { slot, .. }
        | LifecycleOp::Enter { slot }
        | LifecycleOp::Resume { slot }
        | LifecycleOp::Exit { slot }
        | LifecycleOp::Alloc { slot, .. }
        | LifecycleOp::Free { slot }
        | LifecycleOp::Destroy { slot } => Some(slot),
        LifecycleOp::Writeback { .. } => None,
    }
}
