//! The chaos campaign driver: open-loop sessions against the live machine.
//!
//! A campaign boots one [`Machine`], arms a seeded fault plan, and replays
//! a pre-generated arrival schedule. Each arrived session walks the full
//! enclave lifecycle through the *asynchronous* pipeline — ECREATE, EADD,
//! EMEAS, EENTER, EALLOC/EFREE rounds, EEXIT, EDESTROY — with at most one
//! primitive in flight per session, exactly like a HostApp thread. The
//! driver never blocks: every tick it admits arrivals, submits whatever is
//! ready, pumps the SoC once, and collects completions. Faults, scripted
//! EMS crash-restarts, and live CVM migrations happen *to* that traffic,
//! and the driver's only obligations are the ones the paper's availability
//! story implies: keep the consistency audit green, degrade by shedding and
//! expiring instead of hanging, and recover everything the fault plan
//! merely delayed.
//!
//! Determinism: the machine, fault plan, arrival schedule, and every
//! driver-side choice derive from [`ChaosConfig::seed`]. Two runs with the
//! same config produce bit-identical [`ChaosOutcome::trace_hash`]es.

use std::collections::{BTreeMap, VecDeque};

use hypertee::machine::{DegradePolicy, Machine, MachineError};
use hypertee::pipeline::Completion;
use hypertee_crypto::chacha::ChaChaRng;
use hypertee_crypto::fnv::{self, fold};
use hypertee_ems::control::layout;
use hypertee_fabric::message::{Primitive, Privilege, Response, Status};
use hypertee_faults::{FaultConfig, FaultPlan};
use hypertee_mem::addr::Ppn;
use hypertee_model::harness::{run_campaign, Campaign};
use hypertee_model::ops::generate;
use hypertee_sim::clock::Cycles;
use hypertee_sim::config::{CoreConfig, EmsCluster, SocConfig};
use hypertee_sim::latency::MAILBOX_ROUND_TRIP;

use crate::migration::MigrationEngine;
use crate::storm::{StormConfig, StormDriver, StormOutcome};
use crate::traffic::{schedule, TrafficConfig, TENANTS};

/// Bytes each entered session allocates (and frees) per EALLOC round.
const ALLOC_BYTES: u64 = 64 * 1024;
/// Ticks a shed submission backs off before retrying.
const SHED_BACKOFF_TICKS: u64 = 25;
/// Shed retries before the session gives up (it never entered the machine).
const SHED_GIVE_UP: u32 = 60;
/// Transient (`Exhausted`) rejections tolerated per step.
const STEP_RETRY_MAX: u32 = 4;
/// EDESTROY attempts before declaring the enclave leaked.
const DESTROY_TRY_MAX: u32 = 12;
/// Host-frame allocation retries before the session gives up.
const ALLOC_RETRY_MAX: u32 = 25;
/// CS harts the campaign machine boots with.
const HARTS: usize = 8;
/// SLO CDF abscissae, in multiples of the clean mailbox round trip.
const SLO_MULTIPLES: [u32; 8] = [1, 4, 16, 64, 256, 1024, 4096, 16384];

/// Everything one chaos campaign needs, derived from one seed.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: machine boot, fault plan, schedule, scripted events.
    pub seed: u64,
    /// Mode label that lands in the report (`"fleet"` / `"smoke"` / ...).
    pub label: &'static str,
    /// The offered load.
    pub traffic: TrafficConfig,
    /// Live fault campaign armed on the machine (`None` = clean run).
    pub faults: Option<FaultConfig>,
    /// Per-request lifetime budget ([`DegradePolicy::deadline`]).
    pub deadline_cycles: Option<u64>,
    /// Backlog shed limit ([`DegradePolicy::shed_backlog_limit`]).
    pub shed_backlog_limit: Option<usize>,
    /// Scripted EMS crash-restarts spread across the campaign.
    pub scripted_crashes: u32,
    /// Live CVM migrations executed mid-campaign.
    pub migrations: u32,
    /// Consistency-audit cadence in ticks (`0` = only at the end).
    pub audit_every_ticks: u64,
    /// Background EWB cadence in ticks (`0` = none).
    pub ewb_every_ticks: u64,
    /// Lockstep reference-model rounds appended to the campaign.
    pub lockstep_rounds: u32,
    /// Commands per lockstep round.
    pub lockstep_commands: usize,
    /// Hard tick ceiling (a stuck campaign reports `stalled` instead of
    /// spinning forever).
    pub max_ticks: u64,
    /// Attestation storm riding on top of the session traffic (`None` =
    /// no service facade in the campaign).
    pub storm: Option<StormConfig>,
    /// Drive every scheduling round through the retained O(n) scan
    /// scheduler (`Machine::pump_ref`) instead of the event-driven core.
    /// The trace is bit-identical either way — this is the campaign-scale
    /// differential oracle behind the verify.sh replay gate.
    pub ref_pump: bool,
}

impl ChaosConfig {
    /// The fault mix for live chaos: every site armed at sub-percent rates
    /// plus organic EMS crashes, tuned so the fleet stays saturated with
    /// recoveries rather than collapsing.
    pub fn chaos_faults() -> FaultConfig {
        FaultConfig {
            drop_request_pm: 8,
            drop_response_pm: 8,
            duplicate_response_pm: 10,
            delay_response_pm: 15,
            corrupt_response_pm: 8,
            ring_stall_pm: 10,
            dma_flap_pm: 10,
            abort_pm: 15,
            abort_step_max: 6,
            exhausted_pm: 10,
            ems_stall_pm: 10,
            crash_pm: 1,
            delay_polls_max: 6,
            ..FaultConfig::disabled()
        }
    }

    /// [`ChaosConfig::chaos_faults`] with the service-transport sites armed
    /// at [`FaultConfig::service_storm`] rates on top.
    pub fn serving_faults() -> FaultConfig {
        let service = FaultConfig::service_storm();
        FaultConfig {
            rpc_drop_pm: service.rpc_drop_pm,
            rpc_duplicate_pm: service.rpc_duplicate_pm,
            rpc_delay_pm: service.rpc_delay_pm,
            rpc_replay_pm: service.rpc_replay_pm,
            stale_quote_pm: service.stale_quote_pm,
            token_forge_pm: service.token_forge_pm,
            ..ChaosConfig::chaos_faults()
        }
    }

    /// The full acceptance campaign: ≥ 10,000 requests across ≥ 1,000
    /// enclaves with live faults, scripted crashes, and migrations.
    pub fn fleet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            label: "fleet",
            traffic: TrafficConfig::fleet(1400),
            faults: Some(ChaosConfig::chaos_faults()),
            deadline_cycles: Some(8_000_000),
            shed_backlog_limit: Some(10),
            scripted_crashes: 4,
            migrations: 6,
            audit_every_ticks: 800,
            ewb_every_ticks: 160,
            lockstep_rounds: 2,
            lockstep_commands: 96,
            max_ticks: 600_000,
            storm: None,
            ref_pump: false,
        }
    }

    /// A seconds-scale slice of the fleet campaign for CI smoke.
    pub fn smoke(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            label: "smoke",
            traffic: TrafficConfig::smoke(120),
            faults: Some(ChaosConfig::chaos_faults()),
            deadline_cycles: Some(8_000_000),
            shed_backlog_limit: Some(6),
            scripted_crashes: 2,
            migrations: 1,
            audit_every_ticks: 200,
            ewb_every_ticks: 120,
            lockstep_rounds: 1,
            lockstep_commands: 48,
            max_ticks: 200_000,
            storm: None,
            ref_pump: false,
        }
    }

    /// The serving acceptance campaign: the fleet campaign with the
    /// service-transport fault sites armed and an attestation storm
    /// hammering the facade for the whole run — through every scripted
    /// crash-restart and migration.
    pub fn serving_fleet(seed: u64) -> ChaosConfig {
        ChaosConfig {
            label: "serving-fleet",
            faults: Some(ChaosConfig::serving_faults()),
            storm: Some(StormConfig::fleet()),
            ..ChaosConfig::fleet(seed)
        }
    }

    /// A seconds-scale serving campaign for CI smoke.
    pub fn serving_smoke(seed: u64) -> ChaosConfig {
        ChaosConfig {
            label: "serving-smoke",
            faults: Some(ChaosConfig::serving_faults()),
            storm: Some(StormConfig::smoke()),
            ..ChaosConfig::smoke(seed)
        }
    }
}

/// What a finished campaign measured. Every field is deterministic in the
/// config; [`ChaosOutcome::trace_hash`] folds the full event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosOutcome {
    /// Campaign seed (replays the run).
    pub seed: u64,
    /// Mode label from the config.
    pub label: &'static str,
    /// Driver ticks the campaign ran for.
    pub ticks: u64,
    /// Pipeline submissions accepted.
    pub requests: u64,
    /// Pipeline completions collected.
    pub completions: u64,
    /// Session completions that answered `Ok`.
    pub ok_responses: u64,
    /// `Ok` completions that needed at least one retry — requests the
    /// fault plan hit but the pipeline recovered.
    pub recovered: u64,
    /// Clean primitive rejections (non-`Ok` status).
    pub rejections: u64,
    /// Calls that exhausted the retry budget.
    pub timeouts: u64,
    /// Submissions shed at the gate by backpressure.
    pub shed: u64,
    /// Calls expired by the deadline watchdog.
    pub expired: u64,
    /// Pipeline-driven resubmissions / abort restarts.
    pub retries: u64,
    /// Sessions offered by the schedule.
    pub sessions: usize,
    /// Sessions that finished their whole lifecycle.
    pub sessions_done: usize,
    /// Sessions that gave up (shed out, timed out, or rejected).
    pub sessions_failed: usize,
    /// ECREATEs acknowledged `Ok`.
    pub enclaves_created: u64,
    /// EDESTROYs acknowledged `Ok`.
    pub enclaves_destroyed: u64,
    /// Enclaves (or suspected orphans) the driver had to abandon.
    pub leaked_enclaves: u64,
    /// Leaked enclaves the post-drain reaper recovered with resumable
    /// EDESTROY retries. Leaks with a known enclave id must all come back;
    /// only deliberate taints (id never learned) stay unreclaimed.
    pub reclaimed_enclaves: u64,
    /// Faults the armed plan actually injected.
    pub faults_injected: u64,
    /// EMS crash-restarts (scripted + organic).
    pub crash_restarts: u64,
    /// Rx-staged requests dropped by scripted crashes (each recovered by
    /// the pipeline's loss-detection resubmit).
    pub crash_dropped_requests: u64,
    /// Backlog high-water mark observed at pump time.
    pub queue_depth_hwm: usize,
    /// In-flight high-water mark.
    pub in_flight_hwm: usize,
    /// Consistency audits executed.
    pub audits: u64,
    /// Whether every audit passed.
    pub audit_ok: bool,
    /// First audit violation, if any.
    pub first_audit_error: Option<String>,
    /// Lockstep rounds executed against the reference model.
    pub lockstep_rounds: u32,
    /// Whether every lockstep round matched the reference model.
    pub lockstep_ok: bool,
    /// First lockstep divergence, if any.
    pub first_divergence: Option<String>,
    /// CVM migrations that completed with state verified intact.
    pub migrations_completed: u32,
    /// CVM migrations that failed.
    pub migrations_failed: u32,
    /// Migration blackout windows in CS cycles (source-clock advance from
    /// `migrate_out` to the destination's verified `migrate_in`).
    pub blackouts: Vec<u64>,
    /// SLO CDF under faults: `(multiple of the clean mailbox round trip,
    /// fraction of Ok completions at or under it)`.
    pub slo_cdf: Vec<(u32, f64)>,
    /// What the attestation storm measured (when the config armed one).
    pub storm: Option<StormOutcome>,
    /// Final machine clock in cycles.
    pub clock_cycles: u64,
    /// FNV-1a fold over the full campaign event stream.
    pub trace_hash: u64,
    /// The campaign hit `max_ticks` before draining (should never happen).
    pub stalled: bool,
}

impl ChaosOutcome {
    /// Percentile over the blackout windows (0 when none ran).
    pub fn blackout_percentile(&self, pct: u32) -> u64 {
        let mut v = self.blackouts.clone();
        v.sort_unstable();
        floor_percentile(&v, pct as usize)
    }
}

/// Floor-rank percentile `sorted[(len - 1) * pct / 100]` of an ascending
/// slice (0 when empty).
pub(crate) fn floor_percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[(sorted.len() - 1) * pct / 100]
    }
}

/// Fraction of `latencies` at or under `bound` (0 when empty): one point of
/// an SLO CDF.
pub(crate) fn slo_fraction(latencies: &[u64], bound: f64) -> f64 {
    if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().filter(|&&l| (l as f64) <= bound).count() as f64 / latencies.len() as f64
    }
}

/// Lifecycle step a session is at (the primitive it submits next).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Create,
    Add,
    Meas,
    Enter,
    Alloc,
    Free,
    Exit,
    Destroy,
}

impl Step {
    fn code(self) -> u64 {
        match self {
            Step::Create => 1,
            Step::Add => 2,
            Step::Meas => 3,
            Step::Enter => 4,
            Step::Alloc => 5,
            Step::Free => 6,
            Step::Exit => 7,
            Step::Destroy => 8,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionState {
    /// Scheduled but not yet admitted (outside the machine).
    Waiting,
    /// Admitted; submits `step` once `wait_until` passes.
    Ready,
    /// One primitive in flight.
    InFlight,
    Done,
    Failed,
}

#[derive(Debug)]
struct Session {
    tenant: usize,
    hart: usize,
    state: SessionState,
    step: Step,
    wait_until: u64,
    shed_tries: u32,
    step_retries: u32,
    destroy_tries: u32,
    alloc_fails: u32,
    eid: u64,
    entered: bool,
    ops_left: u32,
    alloc_va: u64,
    window: Option<(Ppn, u64)>,
    stage: Option<(Ppn, u64)>,
}

/// Stable numeric code for a completion outcome (feeds the trace hash).
fn outcome_code(result: &Result<Response, MachineError>) -> u64 {
    match result {
        Ok(_) => 0,
        Err(MachineError::Primitive(s)) => 10 + s.code(),
        Err(MachineError::Timeout) => 90,
        Err(MachineError::DeadlineExpired) => 91,
        Err(MachineError::Backpressure) => 92,
        Err(_) => 99,
    }
}

/// Deterministic image byte for session `s`, offset `i`.
fn image_byte(s: usize, i: usize) -> u8 {
    (s.wrapping_mul(31) ^ i.wrapping_mul(7) ^ 0x5a) as u8
}

/// Spreads `count` scripted events across `span` ticks with seeded jitter.
fn scripted_ticks(seed: u64, count: u32, span: u64, salt: u64) -> Vec<u64> {
    let mut rng = ChaChaRng::from_u64(seed ^ salt);
    let n = u64::from(count);
    let mut ticks: Vec<u64> = (0..n)
        .map(|i| {
            let base = span * (i + 1) / (n + 1);
            base + rng.gen_range(span / (4 * (n + 1)) + 1)
        })
        .collect();
    ticks.sort_unstable();
    ticks.dedup();
    ticks
}

/// Route target for a completed call.
#[derive(Debug, Clone, Copy)]
enum Route {
    Session(usize),
    /// Fire-and-forget background EWB.
    Background,
}

struct Driver {
    m: Machine,
    sessions: Vec<Session>,
    /// Entered-hart lock: the session currently occupying each hart's
    /// enclave context. EMCall stamps caller identity at submission time,
    /// so EALLOC/EFREE/EEXIT must only be submitted from a hart whose
    /// enclave context belongs to the submitting session.
    hart_owner: Vec<Option<usize>>,
    route: BTreeMap<u64, Route>,
    live: usize,
    hash: u64,
    latencies: Vec<u64>,
    /// Leaks whose enclave id is known: candidates for the post-drain
    /// reaper. Deliberate taints (id never learned) are not recorded.
    leaked_eids: Vec<u64>,
    /// The counters the driver accumulates; `run` fills in the rest.
    out: ChaosOutcome,
}

impl Driver {
    fn free_frames(&mut self, range: Option<(Ppn, u64)>) {
        if let Some((base, pages)) = range {
            let _ = self.m.release_host_frames(base, pages);
        }
    }

    /// Releases the hart's enclave context if this session holds it.
    fn release_hart(&mut self, s: usize) {
        let hart = self.sessions[s].hart;
        if self.sessions[s].entered {
            self.m.emcall.exit_enclave(&mut self.m.harts[hart]);
            self.sessions[s].entered = false;
        }
        if self.hart_owner[hart] == Some(s) {
            self.hart_owner[hart] = None;
        }
    }

    /// Abandons a session after a failure. `clean` means the EMS answered
    /// with a definite rejection (its state is known); a tainted failure
    /// (timeout, deadline expiry) leaves the EMS-side outcome unknown, so
    /// host frames that might be registered there are leaked rather than
    /// recycled.
    fn fail_session(&mut self, s: usize, tick: u64, clean: bool) {
        self.release_hart(s);
        let stage = self.sessions[s].stage.take();
        self.free_frames(stage);
        {
            let sess = &mut self.sessions[s];
            if sess.eid != 0 && sess.step != Step::Destroy {
                // Best-effort teardown: route the session into the destroy
                // path instead of abandoning the enclave outright.
                sess.step = Step::Destroy;
                sess.state = SessionState::Ready;
                sess.wait_until = tick + 2;
                sess.step_retries = 0;
                return;
            }
        }
        if self.sessions[s].eid != 0 || !clean {
            // A known enclave we could not destroy, or a tainted early step
            // (the EMS may have registered the window): leak, don't free.
            self.out.leaked_enclaves += 1;
            if self.sessions[s].eid != 0 {
                self.leaked_eids.push(self.sessions[s].eid);
            }
            self.sessions[s].window = None;
        }
        let window = self.sessions[s].window.take();
        self.free_frames(window);
        self.sessions[s].state = SessionState::Failed;
        self.out.sessions_failed += 1;
        self.live -= 1;
    }

    fn finish_session(&mut self, s: usize) {
        let window = self.sessions[s].window.take();
        self.free_frames(window);
        self.sessions[s].state = SessionState::Done;
        self.out.sessions_done += 1;
        self.live -= 1;
    }

    fn defer_alloc(&mut self, s: usize, tick: u64) {
        let sess = &mut self.sessions[s];
        sess.alloc_fails += 1;
        sess.wait_until = tick + 40;
        if sess.alloc_fails > ALLOC_RETRY_MAX {
            self.fail_session(s, tick, true);
        }
    }

    /// Drops the Eenter hart reservation (submission failed or rejected).
    fn unreserve_enter(&mut self, s: usize, step: Step) {
        if step == Step::Enter {
            let hart = self.sessions[s].hart;
            if self.hart_owner[hart] == Some(s) {
                self.hart_owner[hart] = None;
            }
        }
    }

    /// Submits the session's current step, or defers it.
    fn try_submit(&mut self, s: usize, tick: u64) {
        let (step, hart, tenant) = {
            let sess = &self.sessions[s];
            (sess.step, sess.hart, sess.tenant)
        };
        let profile = TENANTS[tenant];
        let submission = match step {
            Step::Create => {
                if self.sessions[s].window.is_none() {
                    match self.m.stage_host_frames(profile.window_bytes, &[]) {
                        Ok(window) => self.sessions[s].window = Some(window),
                        Err(_) => {
                            self.defer_alloc(s, tick);
                            return;
                        }
                    }
                }
                if self.sessions[s].stage.is_none() {
                    let image: Vec<u8> = (0..profile.image_len as usize)
                        .map(|i| image_byte(s, i))
                        .collect();
                    match self.m.stage_host_frames(image.len() as u64, &image) {
                        Ok(stage) => self.sessions[s].stage = Some(stage),
                        Err(MachineError::OutOfMemory) => {
                            self.defer_alloc(s, tick);
                            return;
                        }
                        Err(_) => {
                            self.fail_session(s, tick, true);
                            return;
                        }
                    }
                }
                let window = self.sessions[s].window.expect("window staged");
                (
                    Privilege::Os,
                    Primitive::Ecreate,
                    vec![
                        profile.heap_bytes,
                        profile.stack_bytes,
                        profile.window_bytes,
                        window.0.base().0,
                    ],
                )
            }
            Step::Add => {
                let stage = self.sessions[s].stage.expect("stage survives to EADD");
                (
                    Privilege::Os,
                    Primitive::Eadd,
                    vec![
                        self.sessions[s].eid,
                        layout::CODE_BASE.0,
                        stage.0.base().0,
                        profile.image_len,
                        0b111,
                    ],
                )
            }
            Step::Meas => (Privilege::Os, Primitive::Emeas, vec![self.sessions[s].eid]),
            Step::Enter => {
                if self.hart_owner[hart].is_some() {
                    // Another session occupies this hart's enclave context.
                    self.sessions[s].wait_until = tick + 2;
                    return;
                }
                // Reserve at submission: the context switch applies on
                // completion, but nothing else may claim the hart between.
                self.hart_owner[hart] = Some(s);
                (Privilege::Os, Primitive::Eenter, vec![self.sessions[s].eid])
            }
            Step::Alloc => (
                Privilege::User,
                Primitive::Ealloc,
                vec![self.sessions[s].eid, ALLOC_BYTES],
            ),
            Step::Free => (
                Privilege::User,
                Primitive::Efree,
                vec![self.sessions[s].eid, self.sessions[s].alloc_va, ALLOC_BYTES],
            ),
            Step::Exit => (
                Privilege::User,
                Primitive::Eexit,
                vec![self.sessions[s].eid],
            ),
            Step::Destroy => (
                Privilege::Os,
                Primitive::Edestroy,
                vec![self.sessions[s].eid],
            ),
        };
        let (privilege, primitive, args) = submission;
        match self.m.submit_as(hart, privilege, primitive, args, vec![]) {
            Ok(call) => {
                self.route.insert(call.id, Route::Session(s));
                self.sessions[s].state = SessionState::InFlight;
                fold(&mut self.hash, &[1, tick, s as u64, step.code()]);
            }
            Err(MachineError::Backpressure) => {
                // Graceful degradation: back off and retry; give up after a
                // budget (the request never entered the machine).
                self.unreserve_enter(s, step);
                fold(&mut self.hash, &[3, tick, s as u64, step.code()]);
                let sess = &mut self.sessions[s];
                sess.shed_tries += 1;
                sess.wait_until = tick + SHED_BACKOFF_TICKS;
                if sess.shed_tries > SHED_GIVE_UP {
                    self.fail_session(s, tick, true);
                }
            }
            Err(_) => {
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, true);
            }
        }
    }

    /// Applies one completion to its session's state machine.
    fn handle_completion(&mut self, s: usize, c: &Completion, tick: u64) {
        let step = self.sessions[s].step;
        self.sessions[s].state = SessionState::Ready;
        self.sessions[s].wait_until = tick;
        match &c.result {
            Ok(resp) => {
                self.out.ok_responses += 1;
                if c.attempts > 0 {
                    self.out.recovered += 1;
                }
                self.latencies.push(c.latency.0);
                self.sessions[s].step_retries = 0;
                self.apply_ok(s, step, resp, tick);
            }
            Err(MachineError::Primitive(Status::Exhausted)) => {
                // Transient resource rejection: bounded same-step retry.
                self.out.rejections += 1;
                self.unreserve_enter(s, step);
                let sess = &mut self.sessions[s];
                sess.step_retries += 1;
                sess.wait_until = tick + 4;
                if sess.step_retries > STEP_RETRY_MAX {
                    self.fail_session(s, tick, true);
                }
            }
            Err(MachineError::Primitive(status)) => {
                self.out.rejections += 1;
                if step == Step::Destroy {
                    if *status == Status::NotFound {
                        // Already gone (an earlier destroy's lost response
                        // was nevertheless executed): destroyed enough.
                        self.finish_session(s);
                        return;
                    }
                    self.retry_destroy(s, tick);
                    return;
                }
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, true);
            }
            Err(MachineError::Timeout) | Err(MachineError::DeadlineExpired) => {
                // Tainted: the EMS-side outcome is unknown. EDESTROY is
                // resumable, so the destroy path just tries again; every
                // other step routes to teardown.
                if step == Step::Destroy {
                    self.retry_destroy(s, tick);
                    return;
                }
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, false);
            }
            Err(_) => {
                self.unreserve_enter(s, step);
                self.fail_session(s, tick, false);
            }
        }
    }

    fn apply_ok(&mut self, s: usize, step: Step, resp: &Response, tick: u64) {
        match step {
            Step::Create => {
                self.sessions[s].eid = resp.vals.first().copied().unwrap_or(0);
                if self.sessions[s].eid == 0 {
                    self.fail_session(s, tick, true);
                    return;
                }
                self.out.enclaves_created += 1;
                self.sessions[s].step = Step::Add;
            }
            Step::Add => {
                let stage = self.sessions[s].stage.take();
                self.free_frames(stage);
                self.sessions[s].step = Step::Meas;
            }
            Step::Meas => self.sessions[s].step = Step::Enter,
            Step::Enter => {
                if resp.entry_context().is_none() {
                    self.fail_session(s, tick, true);
                    return;
                }
                self.sessions[s].entered = true;
                self.sessions[s].ops_left = TENANTS[self.sessions[s].tenant].entered_ops;
                self.sessions[s].step = Step::Alloc;
            }
            Step::Alloc => {
                self.sessions[s].alloc_va = resp.mapped_va().unwrap_or(layout::HEAP_BASE.0);
                self.sessions[s].step = Step::Free;
            }
            Step::Free => {
                self.sessions[s].ops_left -= 1;
                self.sessions[s].step = if self.sessions[s].ops_left > 0 {
                    Step::Alloc
                } else {
                    Step::Exit
                };
            }
            Step::Exit => {
                let hart = self.sessions[s].hart;
                self.sessions[s].entered = false;
                self.hart_owner[hart] = None;
                self.sessions[s].step = Step::Destroy;
            }
            Step::Destroy => {
                self.out.enclaves_destroyed += 1;
                self.finish_session(s);
            }
        }
    }

    fn retry_destroy(&mut self, s: usize, tick: u64) {
        let sess = &mut self.sessions[s];
        sess.destroy_tries += 1;
        sess.wait_until = tick + 8;
        if sess.destroy_tries > DESTROY_TRY_MAX {
            // EMS may still reference the window: leaked, not freed.
            sess.window = None;
            sess.state = SessionState::Failed;
            let eid = sess.eid;
            self.out.leaked_enclaves += 1;
            if eid != 0 {
                self.leaked_eids.push(eid);
            }
            self.out.sessions_failed += 1;
            self.live -= 1;
        }
    }

    /// Post-drain reaper: with the traffic gone and the pipeline quiet,
    /// every leak with a known enclave id gets a bounded second chance.
    /// EDESTROY is resumable and idempotent (`NotFound` means an earlier
    /// attempt's lost response was nevertheless executed), so synchronous
    /// retries here recover everything the fault plan merely delayed.
    fn reap_leaks(&mut self, tick: u64) {
        let eids = std::mem::take(&mut self.leaked_eids);
        for eid in eids {
            let mut reclaimed = false;
            for _ in 0..DESTROY_TRY_MAX {
                match self.destroy_once(eid) {
                    Ok(_) => {
                        self.out.enclaves_destroyed += 1;
                        reclaimed = true;
                    }
                    Err(MachineError::Primitive(Status::NotFound)) => reclaimed = true,
                    Err(MachineError::Primitive(Status::Exhausted))
                    | Err(MachineError::Timeout)
                    | Err(MachineError::DeadlineExpired)
                    | Err(MachineError::Backpressure) => continue,
                    Err(_) => {}
                }
                break;
            }
            if reclaimed {
                self.out.reclaimed_enclaves += 1;
            }
            fold(&mut self.hash, &[9, tick, eid, u64::from(reclaimed)]);
        }
    }

    /// One synchronous OS-privileged EDESTROY through the pipeline (EMCall
    /// gates the primitive to OS callers).
    fn destroy_once(&mut self, eid: u64) -> Result<Response, MachineError> {
        self.m
            .invoke_as(0, Privilege::Os, Primitive::Edestroy, vec![eid], vec![])
    }

    fn run_audit(&mut self, tick: u64) {
        self.out.audits += 1;
        match self.m.audit() {
            Ok(_) => fold(&mut self.hash, &[6, tick, 1]),
            Err(e) => {
                fold(&mut self.hash, &[6, tick, 0]);
                if self.out.audit_ok {
                    self.out.audit_ok = false;
                    self.out.first_audit_error = Some(format!("tick {tick}: {e:?}"));
                }
            }
        }
    }
}

/// Runs one chaos campaign to completion and returns what it measured.
///
/// # Panics
///
/// Panics only on machine boot failure (unreachable with pristine
/// firmware) or internal driver invariant violations.
pub fn run(cfg: &ChaosConfig) -> ChaosOutcome {
    let soc = SocConfig {
        cs_cores: HARTS as u32,
        ems: EmsCluster {
            cores: 4,
            core: CoreConfig::ems_medium(),
        },
        crypto_engine: true,
        phys_mem_bytes: 256 << 20,
    };
    let mut d = Driver {
        m: Machine::boot(soc, cfg.seed).expect("pristine firmware boots"),
        sessions: Vec::new(),
        hart_owner: vec![None; HARTS],
        route: BTreeMap::new(),
        live: 0,
        hash: fnv::OFFSET_BASIS ^ cfg.seed,
        latencies: Vec::new(),
        leaked_eids: Vec::new(),
        out: ChaosOutcome {
            audit_ok: true,
            ..ChaosOutcome::default()
        },
    };
    d.m.set_scan_scheduler(cfg.ref_pump);
    d.m.degrade = DegradePolicy {
        shed_backlog_limit: cfg.shed_backlog_limit,
        deadline: cfg.deadline_cycles.map(Cycles),
    };
    if let Some(fc) = &cfg.faults {
        d.m.arm_faults(&FaultPlan::new(cfg.seed, fc.clone()));
    }

    // The attestation storm rides the same seed and fault plan; its
    // injector draws from a fresh site stream ("service"), so arming it
    // never perturbs the mailbox/DMA fault schedules of plain campaigns.
    let mut storm = cfg.storm.clone().map(|sc| {
        let plan = FaultPlan::new(
            cfg.seed,
            cfg.faults.clone().unwrap_or_else(FaultConfig::disabled),
        );
        let mut s = StormDriver::new(sc, cfg.seed, plan.injector("service"));
        s.boot(&mut d.m);
        s
    });

    let arrivals = schedule(cfg.seed, &cfg.traffic);
    let span = arrivals.last().map(|a| a.tick).unwrap_or(0).max(1);
    let crash_ticks = scripted_ticks(cfg.seed, cfg.scripted_crashes, span, 0x6372_6173_6863);
    let migration_ticks = scripted_ticks(cfg.seed, cfg.migrations, span, 0x6d69_6772_6174);
    d.sessions = arrivals
        .iter()
        .map(|a| Session {
            tenant: a.tenant,
            hart: a.session % HARTS,
            state: SessionState::Waiting,
            step: Step::Create,
            wait_until: 0,
            shed_tries: 0,
            step_retries: 0,
            destroy_tries: 0,
            alloc_fails: 0,
            eid: 0,
            entered: false,
            ops_left: 0,
            alloc_va: 0,
            window: None,
            stage: None,
        })
        .collect();
    let mut migration = MigrationEngine::new(cfg.seed ^ 0x6465_7374_6e6f_6465);

    let mut tick: u64 = 0;
    let mut next_arrival = 0usize;
    let mut admit_queue: VecDeque<usize> = VecDeque::new();
    let mut active: Vec<usize> = Vec::new();
    let mut next_crash = 0usize;
    let mut next_migration = 0usize;
    // (in-flight bundle, finish tick, source clock at migrate_out)
    let mut live_migration = None;
    let mut stalled = false;

    loop {
        let drained = next_arrival == arrivals.len() && admit_queue.is_empty() && d.live == 0;
        let events_pending = next_crash < crash_ticks.len()
            || next_migration < migration_ticks.len()
            || live_migration.is_some();
        let storm_pending = storm.as_ref().is_some_and(|s| !s.done());
        if drained && !events_pending && !storm_pending && d.m.pipeline_stats().in_flight == 0 {
            break;
        }
        if tick >= cfg.max_ticks {
            stalled = true;
            break;
        }

        // Open-loop arrivals, admitted up to the live cap.
        while next_arrival < arrivals.len() && arrivals[next_arrival].tick <= tick {
            admit_queue.push_back(arrivals[next_arrival].session);
            next_arrival += 1;
        }
        while d.live < cfg.traffic.max_live {
            let Some(s) = admit_queue.pop_front() else {
                break;
            };
            d.sessions[s].state = SessionState::Ready;
            d.sessions[s].wait_until = tick;
            d.live += 1;
            active.push(s);
        }

        // Scripted EMS crash-restart, audited immediately: the warm restart
        // must reconstruct a consistent management plane.
        if next_crash < crash_ticks.len() && tick >= crash_ticks[next_crash] {
            let dropped = d.m.crash_restart_ems() as u64;
            d.out.crash_dropped_requests += dropped;
            fold(&mut d.hash, &[4, tick, dropped]);
            d.run_audit(tick);
            // Supervised recovery: the facade notices the epoch bump,
            // revokes every session, and re-probes before serving again.
            if let Some(st) = storm.as_mut() {
                st.on_crash(&mut d.m, tick);
            }
            next_crash += 1;
        }

        // Live CVM migration: export at the scheduled tick, install on the
        // destination after a transfer dwell while traffic keeps flowing.
        if live_migration.is_none()
            && next_migration < migration_ticks.len()
            && tick >= migration_ticks[next_migration]
        {
            next_migration += 1;
            let tag = next_migration as u64;
            match migration.start(&mut d.m, tag) {
                Some(p) => {
                    fold(&mut d.hash, &[5, tick, tag]);
                    live_migration = Some((p, tick + 24 + 2 * tag, d.m.clock.0));
                }
                None => fold(&mut d.hash, &[5, tick, 0]),
            }
        }
        if let Some((_, finish_tick, _)) = &live_migration {
            if tick >= *finish_tick {
                let (p, _, t0) = live_migration.take().expect("checked above");
                let blackout = d.m.clock.0.saturating_sub(t0);
                migration.finish(p, blackout);
                fold(&mut d.hash, &[5, tick, blackout]);
            }
        }

        // Background EWB sweeps ride along with the session traffic.
        if cfg.ewb_every_ticks > 0 && tick > 0 && tick.is_multiple_of(cfg.ewb_every_ticks) {
            let hart = ((tick / cfg.ewb_every_ticks) as usize) % HARTS;
            if let Ok(call) =
                d.m.submit_as(hart, Privilege::Os, Primitive::Ewb, vec![4], vec![])
            {
                d.route.insert(call.id, Route::Background);
                fold(&mut d.hash, &[1, tick, u64::MAX, 9]);
            }
        }

        // The storm interleaves its handshakes and authenticated calls
        // with the session traffic (deterministic point in the tick).
        if let Some(st) = storm.as_mut() {
            st.step(&mut d.m, tick, drained && !events_pending);
        }

        // Session submissions (deterministic order: ascending session id).
        active.retain(|&s| {
            !matches!(
                d.sessions[s].state,
                SessionState::Done | SessionState::Failed
            )
        });
        let ready: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&s| {
                d.sessions[s].state == SessionState::Ready && d.sessions[s].wait_until <= tick
            })
            .collect();
        for s in ready {
            d.try_submit(s, tick);
        }

        // One SoC scheduling round.
        d.m.pump();

        // Collect and apply completions.
        for c in d.m.drain_completions() {
            d.out.completions += 1;
            let code = outcome_code(&c.result);
            match d.route.remove(&c.call.id) {
                Some(Route::Session(s)) => {
                    fold(
                        &mut d.hash,
                        &[
                            2,
                            tick,
                            s as u64,
                            d.sessions[s].step.code(),
                            code,
                            u64::from(c.attempts),
                        ],
                    );
                    d.handle_completion(s, &c, tick);
                }
                Some(Route::Background) | None => {
                    fold(
                        &mut d.hash,
                        &[2, tick, u64::MAX, 9, code, u64::from(c.attempts)],
                    );
                }
            }
        }

        // Periodic cross-structure consistency audit.
        if cfg.audit_every_ticks > 0 && tick > 0 && tick.is_multiple_of(cfg.audit_every_ticks) {
            d.run_audit(tick);
        }

        tick += 1;
    }
    // Leaked-enclave reaper, then the final audit over the drained machine
    // (the audit thereby also covers the reaper's destroys).
    if !stalled {
        d.reap_leaks(tick);
    }
    d.run_audit(tick);

    // Fold the storm's verdict into the trace before the final fold.
    let storm_outcome = storm.map(StormDriver::finish);
    if let Some(so) = &storm_outcome {
        fold(
            &mut d.hash,
            &[
                10,
                so.handshakes_attempted,
                so.handshakes_completed,
                so.calls_ok,
                so.accepted_attacks(),
                so.breaker_to_open,
                so.reprobes,
                so.service_faults_injected,
            ],
        );
    }

    // Lockstep rounds: replay seeded traces against the PR 3 reference
    // model under the model-checking fault campaign; any divergence is a
    // correctness failure of the whole chaos campaign.
    let mut lockstep_ok = true;
    let mut first_divergence = None;
    for round in 0..cfg.lockstep_rounds {
        let rseed = cfg.seed ^ 0x6c6f_636b_7374_6570 ^ (u64::from(round) << 17);
        let commands = generate(rseed, cfg.lockstep_commands, 4);
        let mut campaign = Campaign::new(rseed);
        campaign.harts = 4;
        campaign.faults = Some(FaultConfig::model_campaign());
        campaign.checkpoint_every = 24;
        let outcome = run_campaign(&campaign, &commands);
        fold(
            &mut d.hash,
            &[
                7,
                u64::from(round),
                outcome.executed as u64,
                outcome.completions as u64,
                outcome.ok_responses as u64,
                outcome.timeouts as u64,
            ],
        );
        if let Some(div) = &outcome.divergence {
            lockstep_ok = false;
            if first_divergence.is_none() {
                first_divergence = Some(format!("round {round}: {div:?}"));
            }
        }
    }

    // SLO CDF of Ok-completion latency under faults.
    let slo_cdf: Vec<(u32, f64)> = SLO_MULTIPLES
        .iter()
        .map(|&mult| {
            let bound = MAILBOX_ROUND_TRIP * f64::from(mult);
            (mult, slo_fraction(&d.latencies, bound))
        })
        .collect();

    let stats = d.m.pipeline_stats();
    let crash_restarts = d.m.ems.stats.crash_restarts;
    fold(
        &mut d.hash,
        &[
            8,
            stats.submitted,
            d.out.ok_responses,
            d.out.recovered,
            stats.shed,
            stats.expired,
            stats.timeouts,
            crash_restarts,
            d.m.clock.0,
        ],
    );

    ChaosOutcome {
        seed: cfg.seed,
        label: cfg.label,
        ticks: tick,
        requests: stats.submitted,
        timeouts: stats.timeouts,
        shed: stats.shed,
        expired: stats.expired,
        retries: stats.retries,
        sessions: d.sessions.len(),
        faults_injected: d.m.fault_stats().total()
            + storm_outcome
                .as_ref()
                .map_or(0, |s| s.service_faults_injected),
        crash_restarts,
        queue_depth_hwm: stats.queue_depth_hwm,
        in_flight_hwm: stats.in_flight_hwm,
        lockstep_rounds: cfg.lockstep_rounds,
        lockstep_ok,
        first_divergence,
        migrations_completed: migration.completed,
        migrations_failed: migration.failed,
        blackouts: migration.blackouts,
        slo_cdf,
        storm: storm_outcome,
        clock_cycles: d.m.clock.0,
        trace_hash: d.hash,
        stalled,
        ..d.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny campaign that still exercises faults, a crash, and lockstep.
    fn tiny(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            label: "tiny",
            traffic: TrafficConfig {
                sessions: 16,
                mean_interarrival_ticks: 4.0,
                burst_pm: 120,
                burst_size_max: 3,
                max_live: 12,
            },
            faults: Some(ChaosConfig::chaos_faults()),
            deadline_cycles: Some(20_000_000),
            shed_backlog_limit: Some(10),
            scripted_crashes: 1,
            migrations: 0,
            audit_every_ticks: 64,
            ewb_every_ticks: 48,
            lockstep_rounds: 0,
            lockstep_commands: 0,
            max_ticks: 60_000,
            storm: None,
            ref_pump: false,
        }
    }

    #[test]
    fn identical_seeds_identical_traces() {
        let a = run(&tiny(0xC0FFEE));
        let b = run(&tiny(0xC0FFEE));
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(a, b);
        let c = run(&tiny(0xC0FFED));
        assert_ne!(a.trace_hash, c.trace_hash, "different seed, same trace");
    }

    #[test]
    fn clean_campaign_completes_every_session() {
        let mut cfg = tiny(0x11);
        cfg.faults = None;
        cfg.scripted_crashes = 0;
        let out = run(&cfg);
        assert!(!out.stalled, "clean campaign must drain");
        assert_eq!(out.sessions_done, out.sessions);
        assert_eq!(out.sessions_failed, 0);
        assert_eq!(out.enclaves_created as usize, out.sessions);
        assert_eq!(out.enclaves_destroyed, out.enclaves_created);
        assert!(out.audit_ok, "audit: {:?}", out.first_audit_error);
        assert_eq!(out.recovered, 0);
    }

    #[test]
    fn scripted_crash_is_survivable_and_audited() {
        let mut cfg = tiny(0x22);
        cfg.faults = None; // crash is the only disturbance
        cfg.scripted_crashes = 2;
        let out = run(&cfg);
        assert!(!out.stalled);
        assert!(out.crash_restarts >= 2);
        assert!(out.audit_ok, "audit: {:?}", out.first_audit_error);
        // Loss-detection resubmit recovers every dropped request: no
        // session may be lost to a crash alone.
        assert_eq!(out.sessions_done, out.sessions);
        assert!(
            out.crash_dropped_requests == 0 || out.recovered > 0,
            "dropped {} but recovered {}",
            out.crash_dropped_requests,
            out.recovered
        );
    }

    #[test]
    fn chaos_campaign_stays_consistent() {
        let out = run(&tiny(0x33));
        assert!(!out.stalled);
        assert!(out.audit_ok, "audit: {:?}", out.first_audit_error);
        assert!(out.requests > 100);
        // Under faults, every offered session terminates one way or the
        // other — nothing hangs.
        assert_eq!(out.sessions_done + out.sessions_failed, out.sessions);
    }

    #[test]
    fn storm_rides_the_campaign_and_stays_fail_closed() {
        let mut cfg = tiny(0x44);
        cfg.faults = Some(ChaosConfig::serving_faults());
        cfg.storm = Some(StormConfig {
            clients: 4,
            handshakes_per_client: 3,
            calls_per_handshake: 2,
            ..StormConfig::smoke()
        });
        let out = run(&cfg);
        assert!(!out.stalled);
        assert!(out.audit_ok, "audit: {:?}", out.first_audit_error);
        let storm = out.storm.as_ref().expect("storm configured");
        assert!(storm.handshakes_completed >= 12, "storm: {storm:?}");
        assert!(storm.calls_ok > 0);
        assert_eq!(storm.accepted_attacks(), 0, "fail-closed: {storm:?}");
        assert!(storm.pre_ready_attempts > 0);
        // The scripted crash revokes sessions and forces re-attestation.
        assert!(storm.reprobes >= 1, "storm: {storm:?}");
        // Bit-identical replay, storm included.
        let again = run(&cfg);
        assert_eq!(out.trace_hash, again.trace_hash);
        assert_eq!(out, again);
    }

    #[test]
    fn reaper_reclaims_every_leak_with_a_known_eid() {
        // A high transient-exhaustion rate drives sessions out of the
        // destroy path with live enclave ids (five consecutive `Exhausted`
        // rejections exhaust `STEP_RETRY_MAX`), and — because `Exhausted`
        // failures are clean — every leak this config produces carries a
        // known eid. The post-drain reaper must win back all of them.
        let mut reclaimed_seen = false;
        for seed in [0x51u64, 0x52, 0x53, 0x54] {
            let mut cfg = tiny(seed);
            cfg.faults = Some(FaultConfig {
                exhausted_pm: 650,
                ..FaultConfig::disabled()
            });
            cfg.deadline_cycles = None;
            cfg.scripted_crashes = 0;
            cfg.lockstep_rounds = 0;
            let out = run(&cfg);
            assert!(!out.stalled);
            assert!(out.audit_ok, "audit: {:?}", out.first_audit_error);
            assert_eq!(
                out.reclaimed_enclaves, out.leaked_enclaves,
                "seed {seed:#x}: reclaimed {} of {} known-eid leaks",
                out.reclaimed_enclaves, out.leaked_enclaves
            );
            reclaimed_seen |= out.reclaimed_enclaves > 0;
        }
        // At least one of the seeds must actually exercise the reaper, or
        // this test is vacuous.
        assert!(
            reclaimed_seen,
            "no seed produced a reclaim; retune the test"
        );
    }
}
