//! Differential proof that the event-driven pump and the retained O(n)
//! scan scheduler are the same machine (DESIGN.md §15): for any seeded
//! workload — clean or under an armed fault plan, whole campaigns or raw
//! open-loop storms, at any shard width — both flavours must produce
//! bit-identical completion orders, statuses, latencies, retry counts,
//! hart clocks, pipeline counters, and chaos trace hashes.

use hypertee_repro::chaos::campaign::{run, ChaosConfig};
use hypertee_repro::chaos::sharded::{run_sharded, ShardedChaosConfig};
use hypertee_repro::fabric::message::Primitive;
use hypertee_repro::faults::{FaultConfig, FaultPlan};
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::sim::clock::Cycles;

const HARTS: usize = 4;

/// Which scheduler drives `Machine::pump` for a differential arm.
#[derive(Clone, Copy, PartialEq)]
enum Flavour {
    /// A per-round work set (the default fast path).
    Event,
    /// The retained O(n) scan oracle.
    Scan,
    /// Alternate per round — the two may share one machine mid-flight.
    Alternating,
}

/// One collected completion, flattened to comparable fields. The result is
/// kept as its debug rendering so `Ok` payloads and error variants both
/// participate in the comparison.
#[derive(Debug, PartialEq)]
struct Obs {
    call_id: u64,
    hart_id: usize,
    result: String,
    latency: Cycles,
    attempts: u32,
}

/// Everything observable about a finished storm.
#[derive(Debug, PartialEq)]
struct StormTrace {
    completions: Vec<Obs>,
    hart_clocks: Vec<Cycles>,
    stats: String,
}

/// Boots a machine with one entered enclave per hart.
fn tenants() -> (Machine, Vec<u64>) {
    let mut m = Machine::boot_default();
    let manifest = EnclaveManifest::parse("heap = 8M\nstack = 32K\nhost_shared = 16K").unwrap();
    let eids = (0..HARTS)
        .map(|h| {
            let image = format!("storm tenant {h}");
            let e = m.create_enclave(h, &manifest, image.as_bytes()).unwrap();
            m.enter(h, e).unwrap();
            e.0
        })
        .collect();
    (m, eids)
}

/// Runs a seeded open-loop storm: every round each hart may submit an
/// `Ealloc` (xorshift-gated), then one pump round runs and finished calls
/// are drained in submission order.
fn storm(seed: u64, flavour: Flavour, faults: Option<&FaultPlan>, rounds: u64) -> StormTrace {
    let (mut m, eids) = tenants();
    if let Some(plan) = faults {
        m.arm_faults(plan);
    }
    m.degrade.shed_backlog_limit = Some(48);
    m.degrade.deadline = Some(Cycles(4_000_000));
    if flavour == Flavour::Scan {
        m.set_scan_scheduler(true);
    }

    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };

    let mut completions = Vec::new();
    for round in 0..rounds {
        if flavour == Flavour::Alternating {
            m.set_scan_scheduler(round % 2 == 1);
        }
        for (h, eid) in eids.iter().enumerate() {
            if next() % 3 != 0 {
                let pages = 1 + next() % 4;
                // Shed rejections are part of the trace: submit returns
                // Backpressure without enqueueing, identically per flavour.
                let _ = m.submit(h, Primitive::Ealloc, vec![*eid, pages * 4096], vec![]);
            }
        }
        m.pump();
        for done in m.drain_completions() {
            completions.push(Obs {
                call_id: done.call.id,
                hart_id: done.hart_id,
                result: format!("{:?}", done.result),
                latency: done.latency,
                attempts: done.attempts,
            });
        }
    }
    // Drain the tail until the pipeline is idle (bounded for safety).
    for _ in 0..20_000 {
        if m.pipeline_stats().in_flight == 0 {
            break;
        }
        m.pump();
        for done in m.drain_completions() {
            completions.push(Obs {
                call_id: done.call.id,
                hart_id: done.hart_id,
                result: format!("{:?}", done.result),
                latency: done.latency,
                attempts: done.attempts,
            });
        }
    }
    let stats = m.pipeline_stats();
    assert_eq!(stats.in_flight, 0, "storm failed to drain: {stats:?}");
    StormTrace {
        completions,
        hart_clocks: (0..HARTS).map(|h| m.hart_clock(h)).collect(),
        stats: format!("{stats:?}"),
    }
}

#[test]
fn clean_storm_matches_scan_oracle_across_seeds() {
    for (seed, rounds) in [
        (0x1u64, 96),
        (0xDEC0DE, 96),
        (0x5EED_CAFE, 96),
        (0xFFFF_FFFF_0000_0001, 96),
        (0x51, 64),
        (0xDEC0_DE5E, 64),
        (0x5EED_CAFE, 64),
        (0xFFFF_0000_0000_0001, 64),
    ] {
        let event = storm(seed, Flavour::Event, None, rounds);
        let scan = storm(seed, Flavour::Scan, None, rounds);
        assert!(!event.completions.is_empty(), "seed {seed:#x} did no work");
        assert_eq!(event, scan, "clean storm diverged at seed {seed:#x}");
    }
}

#[test]
fn faulty_storm_matches_scan_oracle_across_seeds() {
    // `heavy` arms drops, duplicates, delays, corruption, aborts, EMS
    // stalls and crashes — every fault site the pump must re-walk
    // identically (retry charges, backoff jitter, loss rounds).
    for (seed, rounds) in [
        (0xBAD_5EEDu64, 128),
        (0x0DDB_A115, 128),
        (0x7777_1234, 128),
        (0x51, 64),
        (0xDEC0_DE5E, 64),
        (0x5EED_CAFE, 64),
        (0xFFFF_0000_0000_0001, 64),
    ] {
        let plan = FaultPlan::new(seed, FaultConfig::heavy());
        let event = storm(seed, Flavour::Event, Some(&plan), rounds);
        let scan = storm(seed, Flavour::Scan, Some(&plan), rounds);
        assert!(
            event.completions.iter().any(|o| o.attempts > 0) || event.stats.contains("retries: 0"),
            "fault plan armed but nothing retried and stats disagree: {}",
            event.stats
        );
        assert_eq!(event, scan, "faulty storm diverged at seed {seed:#x}");
    }
}

#[test]
fn pump_flavours_interleave_on_one_machine() {
    // The scan oracle runs the identical round prologue, so flipping the
    // scheduler between rounds mid-flight must still land on the same
    // trace as either pure flavour.
    let seed = 0xA17E_47A7u64;
    let plan = FaultPlan::new(seed, FaultConfig::heavy());
    let event = storm(seed, Flavour::Event, Some(&plan), 128);
    let mixed = storm(seed, Flavour::Alternating, Some(&plan), 128);
    assert_eq!(event, mixed, "interleaved flavours diverged");
}

#[test]
fn chaos_campaign_trace_hash_matches_ref_pump() {
    let mut cfg = ChaosConfig::smoke(0xC4A0_5EED);
    let fast = run(&cfg);
    cfg.ref_pump = true;
    let oracle = run(&cfg);
    assert_eq!(
        fast.trace_hash, oracle.trace_hash,
        "campaign trace hash diverged between pump flavours"
    );
    // The trace hash folds the event stream; the rest of the outcome must
    // also agree field-for-field.
    let mut fast_labelled = fast.clone();
    fast_labelled.seed = oracle.seed;
    assert_eq!(fast_labelled, oracle);
}

#[test]
fn sharded_campaign_matches_ref_pump_at_all_widths() {
    for shards in [1usize, 2, 4, 8] {
        let mut base = ChaosConfig::smoke(0x051A_2DED);
        base.traffic.sessions = 48;
        base.traffic.max_live = 12;
        let fast = run_sharded(&ShardedChaosConfig {
            base: base.clone(),
            shards,
            threads: 1,
        });
        base.ref_pump = true;
        let oracle = run_sharded(&ShardedChaosConfig {
            base,
            shards,
            threads: 1,
        });
        assert_eq!(
            fast.merged.trace_hash, oracle.merged.trace_hash,
            "sharded campaign diverged at width {shards}"
        );
        assert_eq!(
            fast.merged, oracle.merged,
            "merged outcome diverged at width {shards}"
        );
        for (a, b) in fast.per_shard.iter().zip(&oracle.per_shard) {
            assert_eq!(a, b, "per-shard outcome diverged at width {shards}");
        }
    }
}
