//! Seeded fault-injection campaigns: the robustness acceptance suite.
//!
//! Every test drives a deterministic [`FaultPlan`] (replayable from its
//! seed) against the request path — mailbox ticket binding under packet
//! loss and duplication, scheduler ordering under arbitrary seeds, and
//! whole-machine lifecycles with the cross-structure consistency audit run
//! after every operation.

use hypertee_repro::crypto::chacha::ChaChaRng;
use hypertee_repro::ems::scheduler::EmsScheduler;
use hypertee_repro::fabric::ihub::IHub;
use hypertee_repro::fabric::message::{CallerIdentity, Primitive, Privilege, Request, Response};
use hypertee_repro::faults::{FaultConfig, FaultPlan};
use hypertee_repro::hypertee::machine::{Machine, MachineError};
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::mem::ownership::EnclaveId;

/// Prints the active seed and a one-line repro command when the enclosing
/// test panics, so a failing campaign is reproducible straight from the
/// CI log.
struct SeedReporter {
    seed: u64,
    test: &'static str,
}

impl Drop for SeedReporter {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "seed {:#x} failed; repro: cargo test --test faults {} -- --nocapture",
                self.seed, self.test
            );
        }
    }
}

fn manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 4M\nstack = 32K\nhost_shared = 16K").unwrap()
}

fn probe_request(marker: u64) -> Request {
    Request {
        req_id: 0,
        primitive: Primitive::Ealloc,
        caller: CallerIdentity {
            privilege: Privilege::User,
            enclave: Some(EnclaveId(1)),
        },
        args: vec![marker],
        payload: Vec::new(),
    }
}

/// One fault-free step of a toy EMS: answer every pending request by echoing
/// its req_id and marker argument back.
fn echo_service(hub: &mut IHub, cap: &hypertee_repro::fabric::ihub::EmsCapability) {
    while let Some(req) = hub.ems_fetch_request(cap) {
        let marker = req.args.first().copied().unwrap_or(u64::MAX);
        hub.ems_push_response(cap, Response::ok(req.req_id, vec![req.req_id, marker]));
    }
}

/// §III-C: "Each primitive request is bound with its response exclusively
/// through a unique identification." Under heavy drop / duplicate / delay /
/// corrupt injection, a ticket must only ever collect *its own* intact
/// response, and bounded resubmission must recover every request.
#[test]
fn mailbox_ticket_binding_survives_drops_and_duplicates() {
    for seed in 0..24u64 {
        let _guard = SeedReporter {
            seed,
            test: "mailbox_ticket_binding_survives_drops_and_duplicates",
        };
        let plan = FaultPlan::new(seed, FaultConfig::heavy());
        let (mut hub, cap) = IHub::new();
        hub.arm_faults(&plan);

        let tickets: Vec<_> = (0..16u64)
            .map(|marker| (marker, hub.mailbox.submit(probe_request(marker))))
            .collect();
        echo_service(&mut hub, &cap);

        for (marker, ticket) in tickets {
            let mut collected = None;
            for _attempt in 0..64 {
                collected = hub.mailbox.poll(&ticket);
                if collected.is_some() {
                    break;
                }
                // Lost somewhere on the fabric: advance the fabric clock
                // (releasing any delayed packet), resubmit under the same
                // identification, service again.
                hub.mailbox.advance_round();
                hub.mailbox.resubmit(&ticket, probe_request(marker));
                echo_service(&mut hub, &cap);
            }
            let resp = collected.unwrap_or_else(|| {
                panic!("seed {seed}: request {marker} unrecovered after 64 resubmissions")
            });
            // Exclusive binding: the collected packet is the one answering
            // this ticket's request, never a neighbour's or a stale copy.
            assert!(resp.intact(), "seed {seed}: corrupt packet delivered");
            assert_eq!(resp.req_id, resp.vals[0]);
            assert_eq!(
                resp.vals[1], marker,
                "seed {seed}: cross-delivered response"
            );
        }
    }
    // At least some campaigns must actually have injected faults, or the
    // property above was tested in calm weather only.
}

/// The scheduler's security discipline — per-caller program order survives
/// any randomization seed — checked across 100 seeds with random batches.
#[test]
fn scheduler_keeps_per_caller_order_under_every_seed() {
    for seed in 0..100u64 {
        let _guard = SeedReporter {
            seed,
            test: "scheduler_keeps_per_caller_order_under_every_seed",
        };
        let mut rng = ChaChaRng::from_u64(0x5c4e_d000 + seed);
        let len = (1 + rng.gen_range(24)) as usize;
        let callers: Vec<Option<EnclaveId>> = (0..len)
            .map(|_| match rng.gen_range(5) {
                0 => None,
                e => Some(EnclaveId(e)),
            })
            .collect();
        let cores = 1 + (seed % 4) as u32;
        let mut sched = EmsScheduler::new(cores, seed);
        let plan = sched.plan(&callers);

        // The plan is a permutation of the batch.
        let mut seen = vec![false; len];
        for a in &plan {
            assert!(!seen[a.request_index], "seed {seed}: duplicate assignment");
            seen[a.request_index] = true;
        }
        assert!(seen.iter().all(|&s| s), "seed {seed}: dropped request");

        // Requests of the same caller appear in their submission order.
        let position_of = |idx: usize| plan.iter().position(|a| a.request_index == idx).unwrap();
        for (i, caller) in callers.iter().enumerate() {
            for (j, other) in callers.iter().enumerate().skip(i + 1) {
                if caller == other {
                    assert!(
                        position_of(i) < position_of(j),
                        "seed {seed}: caller {caller:?} reordered ({i} after {j})"
                    );
                }
            }
        }

        // Slots are dense per core (no execution gaps an attacker could
        // steer requests into).
        for core in 0..cores {
            let mut slots: Vec<u64> = plan
                .iter()
                .filter(|a| a.core == core)
                .map(|a| a.slot)
                .collect();
            slots.sort_unstable();
            for (i, s) in slots.iter().enumerate() {
                assert_eq!(*s, i as u64, "seed {seed}: slot gap on core {core}");
            }
        }
    }
}

/// Drives one full enclave lifecycle on a (possibly fault-armed) machine,
/// auditing cross-structure consistency after every step. Returns how many
/// operations completed successfully. Failures must be clean typed errors —
/// any panic fails the test, and [`MachineError::Gate`]/`Boot` would mean
/// the recovery path leaked into unrelated machinery.
fn lifecycle_round(m: &mut Machine, image: &[u8]) -> u32 {
    let mut ok = 0u32;
    let clean = |e: &MachineError| !matches!(e, MachineError::Gate(_) | MachineError::Boot(_));
    macro_rules! step {
        ($res:expr) => {{
            let r = $res;
            if let Err(e) = &r {
                assert!(clean(e), "unclean failure: {e}");
            } else {
                ok += 1;
            }
            m.audit().unwrap_or_else(|e| panic!("audit violated: {e}"));
            r.ok()
        }};
    }

    let handle = step!(m.create_enclave(0, &manifest(), image));
    if let Some(h) = handle {
        if step!(m.enter(0, h)).is_some() {
            if let Some(va) = step!(m.ealloc(0, 64 * 1024)) {
                step!(m.efree(0, va, 64 * 1024));
            }
            if step!(m.exit(0)).is_none() {
                // The Eexit round trip timed out; restore the hart locally
                // so the campaign can continue (the enclave may leak — that
                // is a liveness loss, never a consistency one).
                m.emcall.exit_enclave(&mut m.harts[0]);
            }
        }
        step!(m.ewb(0, 4));
        let mut destroyed = step!(m.destroy(0, h)).is_some();
        // A mid-destroy abort poisons the enclave; EDESTROY is resumable,
        // so retrying must eventually finish the reclaim.
        for _ in 0..8 {
            if destroyed {
                break;
            }
            destroyed = step!(m.destroy(0, h)).is_some();
        }
    }
    ok
}

/// The headline acceptance run: a seeded plan injecting many distinct fault
/// kinds across the mailbox and the EMS primitives, driven through repeated
/// full lifecycles. No panics, every failure is a clean typed error, the
/// consistency audit holds after every operation, and at least six distinct
/// fault kinds actually fired.
#[test]
fn seeded_campaign_recovers_with_six_distinct_fault_kinds() {
    let _guard = SeedReporter {
        seed: 0x0bad_f175,
        test: "seeded_campaign_recovers_with_six_distinct_fault_kinds",
    };
    let plan = FaultPlan::new(0x0bad_f175, FaultConfig::heavy());
    let mut m = Machine::boot_default();
    m.arm_faults(&plan);

    let mut succeeded = 0u32;
    for round in 0..60u32 {
        let image = format!("fault campaign round {round}");
        succeeded += lifecycle_round(&mut m, image.as_bytes());
    }

    let stats = m.fault_stats();
    assert!(
        stats.distinct_kinds() >= 6,
        "campaign too tame: {} kinds, {} total",
        stats.distinct_kinds(),
        stats.total()
    );
    assert!(
        stats.total() >= 100,
        "expected a real storm, got {}",
        stats.total()
    );
    // Bounded retry + rollback must keep the machine productive: most
    // operations still complete despite ~10–20% per-site fault rates.
    assert!(
        succeeded >= 120,
        "recovery too weak: only {succeeded} ops completed"
    );
    m.audit().expect("final audit");
}

/// Satellite (d): the cross-structure audit holds after 1000+ random fault
/// injections during EALLOC / EWB / EDESTROY traffic.
#[test]
fn audit_holds_after_a_thousand_injections() {
    let _guard = SeedReporter {
        seed: 0xa0d1_7000,
        test: "audit_holds_after_a_thousand_injections",
    };
    let plan = FaultPlan::new(0xa0d1_7000, FaultConfig::heavy());
    let mut m = Machine::boot_default();
    m.arm_faults(&plan);

    let mut rounds = 0u32;
    while m.fault_stats().total() < 1000 {
        rounds += 1;
        assert!(rounds < 400, "storm never reached 1000 injections");
        let image = format!("audit round {rounds}");
        lifecycle_round(&mut m, image.as_bytes());
    }
    assert!(m.fault_stats().total() >= 1000);
    m.audit().expect("final audit");
}

/// Fault-free runs pay no retry tax: with injection disarmed the retry
/// machinery must be invisible — no resubmissions, identical behaviour.
#[test]
fn disarmed_machine_never_retries() {
    let mut m = Machine::boot_default();
    let ok = lifecycle_round(&mut m, b"calm weather image");
    assert!(ok >= 6, "fault-free lifecycle must fully succeed, got {ok}");
    assert_eq!(m.emcall.stats.resubmissions, 0);
    assert_eq!(m.fault_stats().total(), 0);
}

// ---------------------------------------------------------------------------
// Degradation satellites: seeded back-off jitter, deadline expiry, abort
// resume/rollback, and EMS crash-restart recovery on the async pipeline.
// ---------------------------------------------------------------------------

use hypertee_repro::faults::FaultKind;
use hypertee_repro::sim::clock::Cycles;
use hypertee_repro::sim::config::SocConfig;
use hypertee_repro::sim::latency::MAILBOX_ROUND_TRIP;

/// Boots a machine, creates one enclave fault-free, then fires a batch of
/// EMEAS probes through the async pipeline under `config`, pumping to
/// drain. Returns the final SoC clock and (retries, timeouts, expired).
fn pipeline_probe(boot_seed: u64, plan_seed: u64, config: FaultConfig) -> (u64, u64, u64, u64) {
    let mut m = Machine::boot(SocConfig::default(), boot_seed).unwrap();
    let _enclave = m.create_enclave(0, &manifest(), b"jitter probe").unwrap();
    m.arm_faults(&FaultPlan::new(plan_seed, config));
    for _ in 0..16 {
        m.submit_as(
            0,
            hypertee_repro::fabric::message::Privilege::Os,
            Primitive::Ewb,
            vec![1],
            vec![],
        )
        .unwrap();
    }
    for _ in 0..20_000 {
        if m.pipeline_stats().in_flight == 0 {
            break;
        }
        m.pump();
    }
    let stats = m.pipeline_stats();
    assert_eq!(stats.in_flight, 0, "probe batch never drained");
    m.audit().expect("audit after probe");
    (m.clock.0, stats.retries, stats.timeouts, stats.expired)
}

/// Satellite (a): the pump's retry back-off jitter is seeded. The same
/// (boot seed, fault seed) pair reproduces the machine clock cycle for
/// cycle; a different boot seed decorrelates the back-off schedule even
/// under the identical fault plan.
#[test]
fn backoff_jitter_is_seeded_and_decorrelated() {
    let _guard = SeedReporter {
        seed: 0x717e_4a11,
        test: "backoff_jitter_is_seeded_and_decorrelated",
    };
    let drops = FaultConfig {
        drop_response_pm: 300_000,
        ..FaultConfig::disabled()
    };
    let a = pipeline_probe(7, 0x717e_4a11, drops.clone());
    let b = pipeline_probe(7, 0x717e_4a11, drops.clone());
    assert_eq!(a, b, "same seeds must replay the identical schedule");
    assert!(a.1 > 0, "probe too calm: no retries, jitter never drawn");

    // Same fault plan, different boot seed: the losses are identical but
    // the jittered back-off (and thus the clock) must decorrelate.
    let c = pipeline_probe(8, 0x717e_4a11, drops);
    assert!(c.1 > 0, "decorrelation probe saw no retries");
    assert_ne!(a.0, c.0, "boot seed did not decorrelate the back-off");
}

/// Satellite (b): a bounded deadline policy turns stuck calls into the
/// terminal `DeadlineExpired` instead of letting retries run their full
/// course, and without a deadline the retry budget still bounds every
/// call's lifetime with a terminal `Timeout`. Either way: no hangs, no
/// unclean errors, audit green.
#[test]
fn deadline_and_retry_budget_terminate_stuck_calls() {
    let _guard = SeedReporter {
        seed: 0xdead_11fe,
        test: "deadline_and_retry_budget_terminate_stuck_calls",
    };
    let storm = FaultConfig {
        drop_response_pm: 850_000,
        ..FaultConfig::disabled()
    };

    // Without a deadline the retry budget is the only bound: heavy loss
    // must surface as Timeout, never as a hang.
    let (_, retries, timeouts, expired) = pipeline_probe(9, 0xdead_11fe, storm.clone());
    assert!(retries > 0);
    assert!(timeouts >= 1, "no call exhausted its retry budget");
    assert_eq!(expired, 0, "no deadline was set, nothing may expire");

    // With a tight deadline the watchdog expires stuck calls first.
    let mut m = Machine::boot(SocConfig::default(), 9).unwrap();
    let _enclave = m.create_enclave(0, &manifest(), b"deadline probe").unwrap();
    m.degrade.deadline = Some(Cycles((4.0 * MAILBOX_ROUND_TRIP) as u64));
    m.arm_faults(&FaultPlan::new(0xdead_11fe, storm));
    let calls: Vec<_> = (0..16)
        .map(|_| {
            m.submit_as(
                0,
                hypertee_repro::fabric::message::Privilege::Os,
                Primitive::Ewb,
                vec![1],
                vec![],
            )
            .unwrap()
        })
        .collect();
    for _ in 0..20_000 {
        if m.pipeline_stats().in_flight == 0 {
            break;
        }
        m.pump();
    }
    assert_eq!(
        m.pipeline_stats().in_flight,
        0,
        "deadline batch never drained"
    );
    assert!(
        m.pipeline_stats().expired >= 1,
        "watchdog never fired under 85% response loss"
    );
    let mut terminal = 0usize;
    for call in calls {
        match m
            .take_completion(call)
            .expect("every call completes")
            .result
        {
            Ok(_) => {}
            Err(MachineError::DeadlineExpired) | Err(MachineError::Timeout) => terminal += 1,
            Err(e) => panic!("unclean terminal status: {e}"),
        }
    }
    assert!(terminal >= 1, "storm produced no terminal completions");
    m.audit().expect("audit after deadline storm");
}

/// Satellite (c), resume half: EDESTROY is resumable. With aborts injected
/// mid-destroy the reclaim must make monotone progress across bounded
/// retries — audit green after every attempt — and finally complete.
#[test]
fn aborted_destroy_resumes_to_completion() {
    let _guard = SeedReporter {
        seed: 0xde57_0a11,
        test: "aborted_destroy_resumes_to_completion",
    };
    let mut m = Machine::boot_default();
    let h = m
        .create_enclave(0, &manifest(), b"interrupted reclaim")
        .unwrap();
    m.arm_faults(&FaultPlan::new(
        0xde57_0a11,
        FaultConfig {
            abort_pm: 400_000,
            abort_step_max: 3,
            ..FaultConfig::disabled()
        },
    ));
    let mut destroyed = false;
    for _ in 0..64 {
        match m.destroy(0, h) {
            Ok(()) => {
                destroyed = true;
            }
            Err(e) => assert!(
                !matches!(e, MachineError::Gate(_) | MachineError::Boot(_)),
                "unclean mid-destroy failure: {e}"
            ),
        }
        m.audit()
            .unwrap_or_else(|e| panic!("audit violated mid-destroy: {e}"));
        if destroyed {
            break;
        }
    }
    assert!(destroyed, "EDESTROY never completed within 64 resumes");
    assert!(
        m.fault_stats().count(FaultKind::PrimitiveAbort) >= 1,
        "campaign too tame: no abort ever fired"
    );
}

/// Satellite (c), rollback half: an abort in the middle of ECREATE's
/// multi-step transaction rolls the whole primitive back — no new enclave
/// becomes visible, the audit stays green, and the machine keeps working
/// once the storm passes.
#[test]
fn aborted_create_rolls_back_the_transaction() {
    let _guard = SeedReporter {
        seed: 0xab0f_7ed0,
        test: "aborted_create_rolls_back_the_transaction",
    };
    let mut m = Machine::boot_default();
    let views_before = m.enclave_views().len();
    m.arm_faults(&FaultPlan::new(
        0xab0f_7ed0,
        FaultConfig {
            abort_pm: 1_000_000,
            abort_step_max: 2,
            ..FaultConfig::disabled()
        },
    ));
    let err = m
        .create_enclave(0, &manifest(), b"never born")
        .expect_err("a certain abort must fail the create");
    assert!(
        !matches!(err, MachineError::Gate(_) | MachineError::Boot(_)),
        "unclean create failure: {err}"
    );
    assert_eq!(
        m.enclave_views().len(),
        views_before,
        "aborted ECREATE leaked a partially-built enclave"
    );
    m.audit().expect("audit after rolled-back create");

    // Calm weather again: the machine is undamaged and fully usable.
    m.arm_faults(&FaultPlan::new(0, FaultConfig::disabled()));
    let h = m.create_enclave(0, &manifest(), b"born after all").unwrap();
    m.destroy(0, h).unwrap();
    m.audit().expect("final audit");
}

/// Satellite: an EMS firmware crash-restart mid-batch loses the volatile
/// Rx ring, but the pipeline's loss detection resubmits every in-flight
/// request under its original req_id — the whole batch still completes
/// `Ok`, persistent state is reconstructed, and the audit holds.
#[test]
fn crash_restart_recovers_the_in_flight_batch() {
    let _guard = SeedReporter {
        seed: 0xc4a5_4e57,
        test: "crash_restart_recovers_the_in_flight_batch",
    };
    let mut m = Machine::boot_default();
    let _enclave = m.create_enclave(0, &manifest(), b"crash survivor").unwrap();
    let calls: Vec<_> = (0..8)
        .map(|_| {
            m.submit_as(
                0,
                hypertee_repro::fabric::message::Privilege::Os,
                Primitive::Ewb,
                vec![1],
                vec![],
            )
            .unwrap()
        })
        .collect();
    // Pump once so part of the batch is staged on the EMS Rx ring, then
    // crash the firmware: the staged requests are dropped on the floor.
    m.pump();
    let dropped = m.crash_restart_ems();
    assert!(dropped > 0, "crash hit an empty ring; nothing was tested");
    assert_eq!(m.crash_restarts(), 1);

    for _ in 0..20_000 {
        if m.pipeline_stats().in_flight == 0 {
            break;
        }
        m.pump();
    }
    let mut recovered = 0u32;
    for call in calls {
        let done = m.take_completion(call).expect("batch must drain");
        done.result.expect("every request recovers Ok");
        if done.attempts > 0 {
            recovered += 1;
        }
    }
    assert!(recovered >= 1, "no request needed the resubmit path");
    m.audit().expect("audit after crash-restart");
}

/// A lost response to the very first mailbox request must replay from the
/// EMS response cache, not re-execute: a re-run ECREATE would orphan an
/// enclave that still maps the session's host window. The cache skips
/// `req_id == 0` (the direct-call sentinel), so mailbox ids start at 1.
#[test]
fn lost_first_ecreate_response_replays_instead_of_recreating() {
    let mut m = Machine::boot_default();
    let window = m.os.alloc_contiguous(4).expect("host window frames");
    m.arm_faults(&FaultPlan::new(
        1,
        FaultConfig {
            drop_response_pm: 1000,
            ..FaultConfig::disabled()
        },
    ));
    let call = m
        .submit_as(
            0,
            Privilege::Os,
            Primitive::Ecreate,
            vec![4 << 20, 32 << 10, 16 << 10, window.base().0],
            vec![],
        )
        .unwrap();
    for _ in 0..64 {
        if m.hub.mailbox.stats.dropped_responses > 0 {
            break;
        }
        m.pump();
    }
    assert_eq!(
        m.hub.mailbox.stats.dropped_responses, 1,
        "the ECREATE answer was not lost"
    );

    // Calm weather from here on: the pipeline times out and resubmits.
    m.arm_faults(&FaultPlan::new(1, FaultConfig::disabled()));
    let mut done = None;
    for _ in 0..20_000 {
        m.pump();
        done = m.take_completion(call);
        if done.is_some() {
            break;
        }
    }
    let done = done.expect("the resubmitted ECREATE completes");
    assert!(
        done.attempts > 0,
        "completion must come through the resubmit path"
    );
    let eid = done.result.unwrap().new_enclave_id().unwrap();
    let views = m.enclave_views();
    assert_eq!(views.len(), 1, "resubmission re-ran ECREATE: {views:?}");
    assert_eq!(views[0].eid, eid);
    m.audit().expect("audit after the replayed ECREATE");
}

/// An ECREATE whose every response is lost ends in `Timeout`, yet the EMS
/// did build the enclave, and its page table maps the host window. The
/// failed `create_enclave` may return the staging frames to the OS but must
/// keep the window frames out of it, or the OS could hand them to another
/// enclave while the orphan still maps them.
#[test]
fn lost_ecreate_responses_keep_the_host_window_from_the_os() {
    // A fault-free twin shows which frames the window takes and how many
    // frames a built enclave holds once its staging frames are back.
    let mut twin = Machine::boot_default();
    let built = twin.create_enclave(0, &manifest(), b"unanswered").unwrap();
    let window = twin.enclave_info(built).unwrap().host_window_pa.0 / 4096;
    let window_pages = manifest().host_shared_bytes.div_ceil(4096);

    let mut m = Machine::boot_default();
    m.arm_faults(&FaultPlan::new(
        2,
        FaultConfig {
            drop_response_pm: 1_000_000,
            ..FaultConfig::disabled()
        },
    ));
    let err = m
        .create_enclave(0, &manifest(), b"unanswered")
        .expect_err("no ECREATE answer ever arrives");
    assert!(
        matches!(err, MachineError::Timeout | MachineError::DeadlineExpired),
        "expected an unknown outcome, got {err}"
    );
    assert_eq!(m.enclave_views().len(), 1, "the EMS never ran ECREATE");
    assert_eq!(m.os.available(), twin.os.available(), "frames leaked");
    m.audit().expect("audit after the unanswered ECREATE");
    let handed_out: Vec<u64> = std::iter::from_fn(|| m.os.alloc()).map(|p| p.0).collect();
    assert!(!handed_out.is_empty());
    assert!(
        handed_out
            .iter()
            .all(|&p| p < window || p >= window + window_pages),
        "the OS handed out a window frame the orphan still maps"
    );
}

// ---------------------------------------------------------------------------
// Real exhaustion: the CS OS, not the injector, runs the pool dry.
// ---------------------------------------------------------------------------

use hypertee_repro::ems::control::layout;
use hypertee_repro::fabric::message::Status;
use hypertee_repro::hypertee::machine::{EnclaveHandle, MachineResult};
use hypertee_repro::hypertee::sdk::ShmPerm;
use hypertee_repro::mem::addr::VirtAddr;

/// One long-lived enclave of the exhaustion campaign, with the heap
/// ranges and regions it holds. Only the creator attaches its regions, so
/// destroying it destroys every region it made.
struct Tenant {
    handle: EnclaveHandle,
    heap: Vec<(VirtAddr, u64)>,
    /// (region, attached, device-shared).
    regions: Vec<(u64, bool, bool)>,
}

/// The CS OS keeps only a few hundred frames after boot, so EALLOC/EFREE,
/// ESHMGET/ESHMAT/ESHMDT/ESHMDES, ECREATE/EADD and EDESTROY keep running
/// the pool dry under a heavy fault storm. Every failed take must hand back
/// what its primitive took: the audit holds after every operation, and
/// once every enclave and region is gone no pool frame is in use and no
/// KeyID is programmed.
#[test]
fn exhaustion_campaign_hands_back_every_frame_and_key() {
    const SEED: u64 = 0x0e4a_0057;
    let _guard = SeedReporter {
        seed: SEED,
        test: "exhaustion_campaign_hands_back_every_frame_and_key",
    };
    let mut m = Machine::boot_default();
    while m.os.available() > 300 {
        m.os.alloc();
    }
    // Where the short-lived enclaves' images are staged for EADD.
    let image_frame = m.os.alloc().unwrap();
    m.arm_faults(&FaultPlan::new(SEED, FaultConfig::heavy()));
    let mut rng = ChaChaRng::from_u64(SEED);
    let mut exhausted = 0u32;
    let mut os_ran_dry = false;
    let mut audit_after = |m: &mut Machine, what: &str| {
        m.audit()
            .unwrap_or_else(|e| panic!("audit violated after {what}: {e}"));
        os_ran_dry |= m.os.available() == 0;
    };
    macro_rules! op {
        ($what:expr, $res:expr) => {{
            let r: MachineResult<_> = $res;
            match &r {
                Err(MachineError::Primitive(Status::Exhausted)) => exhausted += 1,
                Err(e) => assert!(
                    !matches!(e, MachineError::Gate(_) | MachineError::Boot(_)),
                    "unclean {} failure: {e}",
                    $what
                ),
                Ok(_) => {}
            }
            audit_after(&mut m, $what);
            r.ok()
        }};
    }
    macro_rules! destroy {
        ($h:expr) => {{
            let mut destroyed = false;
            for _ in 0..8 {
                destroyed = op!("EDESTROY", m.destroy(0, $h)).is_some();
                if destroyed {
                    break;
                }
            }
            assert!(destroyed, "EDESTROY never completed");
        }};
    }

    let mut tenants = Vec::new();
    for i in 0..4 {
        let image = format!("exhaustion tenant {i}");
        if let Some(handle) = op!(
            "ECREATE",
            m.create_enclave(0, &manifest(), image.as_bytes())
        ) {
            tenants.push(Tenant {
                handle,
                heap: Vec::new(),
                regions: Vec::new(),
            });
        }
    }
    assert!(!tenants.is_empty(), "no tenant was ever created");
    for round in 0..120usize {
        let slot = round % tenants.len();
        let t = &mut tenants[slot];
        if op!("EENTER", m.enter(0, t.handle)).is_some() {
            for _ in 0..6 {
                match rng.gen_range(7) {
                    0 | 1 => {
                        let bytes = (1 + rng.gen_range(96)) * 4096;
                        if let Some(va) = op!("EALLOC", m.ealloc(0, bytes)) {
                            t.heap.push((va, bytes));
                        }
                    }
                    2 | 3 => {
                        if let Some((va, bytes)) = t.heap.pop() {
                            op!("EFREE", m.efree(0, va, bytes));
                        }
                    }
                    4 => {
                        let bytes = (1 + rng.gen_range(128)) * 4096;
                        let device = rng.gen_range(2) == 0;
                        let shm = m.shmget(0, bytes, ShmPerm::ReadWrite, device);
                        if let Some(id) = op!("ESHMGET", shm) {
                            t.regions.push((id, false, device));
                        }
                    }
                    5 => {
                        // A device-shared region stays unattached: its
                        // KeyID-0 view of enclave-marked frames fails the
                        // audit's host-window rule.
                        if let Some((id, attached @ false, false)) = t.regions.last_mut() {
                            *attached = op!("ESHMAT", m.shmat(0, *id, t.handle)).is_some();
                        }
                    }
                    _ => {
                        if let Some(&(id, attached, _)) = t.regions.last() {
                            if attached {
                                if op!("ESHMDT", m.shmdt(0, id)).is_some() {
                                    t.regions.last_mut().unwrap().1 = false;
                                }
                            } else if op!("ESHMDES", m.shmdes(0, id)).is_some() {
                                t.regions.pop();
                            }
                        }
                    }
                }
            }
            let mut exited = false;
            for _ in 0..8 {
                exited = op!("EEXIT", m.exit(0)).is_some();
                if exited {
                    break;
                }
            }
            if !exited {
                m.emcall.exit_enclave(&mut m.harts[0]);
            }
        }
        // A short-lived enclave without a host window, so no contiguous
        // host frames are needed: ECREATE and EADD straight through the
        // gate while the pool runs dry, then EDESTROY.
        if round % 3 == 2 {
            let image = format!("exhaustion round {round}");
            m.sys
                .phys
                .write(image_frame.base(), image.as_bytes())
                .unwrap();
            let man = manifest();
            let ecreate = vec![man.heap_max, man.stack_bytes, 0, 0];
            let os = |m: &mut Machine, p: Primitive, args: Vec<u64>| {
                m.invoke_as(0, Privilege::Os, p, args, Vec::new())
            };
            if let Some(resp) = op!("ECREATE", os(&mut m, Primitive::Ecreate, ecreate)) {
                let eid = resp.new_enclave_id().unwrap();
                let len = image.len() as u64;
                let eadd = vec![eid, layout::CODE_BASE.0, image_frame.base().0, len, 0b101];
                op!("EADD", os(&mut m, Primitive::Eadd, eadd));
                destroy!(EnclaveHandle(eid));
            }
        }
    }
    for t in &tenants {
        destroy!(t.handle);
    }

    // Calm weather: destroy whatever a lost response hid from the rounds.
    m.arm_faults(&FaultPlan::new(0, FaultConfig::disabled()));
    for view in m.enclave_views() {
        m.destroy(0, EnclaveHandle(view.eid)).unwrap();
        audit_after(&mut m, "the final EDESTROY");
    }
    assert!(os_ran_dry, "the OS never ran out of frames");
    assert!(exhausted >= 20, "only {exhausted} calls met exhaustion");
    assert_eq!(m.ems.pool().used_frames(), 0, "frames leaked");
    assert_eq!(m.sys.engine.keys_in_use(), 0, "KeyIDs leaked");
}

/// Once the EMS pool has absorbed the OS's untouched frame range, the host
/// window and image staging of `create_enclave` come from a run of frames
/// the OS freed back, instead of failing with `OutOfMemory` for good.
#[test]
fn create_enclave_after_the_drain_stages_in_freed_frames() {
    let mut m = Machine::boot_default();
    let drained: Vec<_> = std::iter::from_fn(|| m.os.alloc()).collect();
    for &ppn in &drained[drained.len() - 100..] {
        m.os.free(ppn);
    }
    assert_eq!(m.os.available(), 100);
    let handle = m
        .create_enclave(0, &manifest(), b"staged in freed frames")
        .expect("100 free frames hold a 4-page window and a 1-page image");
    m.audit().expect("audit after the ECREATE");
    m.destroy(0, handle).unwrap();
    m.audit().expect("audit after the EDESTROY");
    assert_eq!(m.ems.pool().used_frames(), 0, "frames leaked");
}
