//! Parallel-determinism tests for the sharded execution refactor: fixed
//! logical shards, variable physical threads. The shard count is seeded
//! configuration; `threads` only sizes the worker pool, so every observable
//! — merged chaos outcome, rendered `BENCH_chaos.json` text, lockstep
//! verdicts, audit verdicts — must be bit-identical at 1/2/4/8 threads.

use hypertee_repro::chaos::campaign::ChaosConfig;
use hypertee_repro::chaos::report::render_sharded_report;
use hypertee_repro::chaos::sharded::{run_sharded, shard_config, ShardedChaosConfig};
use hypertee_repro::crypto::fnv;
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::shard::par_run;
use hypertee_repro::hypertee::EnclaveManifest;
use hypertee_repro::model::harness::{run_campaign, Campaign};
use hypertee_repro::model::ops::generate;
use hypertee_repro::sim::config::SocConfig;
use hypertee_repro::sim::rng::derive_stream;

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

/// A chaos campaign small enough for debug-mode CI but still exercising
/// faults, crash-restarts, migrations, and a lockstep round per shard.
fn small_base(seed: u64) -> ChaosConfig {
    let mut base = ChaosConfig::smoke(seed);
    base.traffic.sessions = 48;
    base.traffic.max_live = 12;
    base.scripted_crashes = 1;
    base.migrations = 2;
    base.lockstep_rounds = 1;
    base.lockstep_commands = 24;
    base
}

#[test]
fn sharded_chaos_campaign_is_identical_at_every_thread_width() {
    let base = small_base(0x5A4D_0001);
    let mut outcomes = Vec::new();
    let mut reports = Vec::new();
    for threads in WIDTHS {
        let out = run_sharded(&ShardedChaosConfig {
            base: base.clone(),
            shards: 4,
            threads,
        });
        assert!(
            out.merged.audit_ok,
            "threads={threads}: audit must stay green: {:?}",
            out.merged.first_audit_error
        );
        assert!(
            out.merged.lockstep_ok,
            "threads={threads}: lockstep must stay green: {:?}",
            out.merged.first_divergence
        );
        reports.push(render_sharded_report(&out));
        outcomes.push(out);
    }
    for (i, threads) in WIDTHS.iter().enumerate().skip(1) {
        assert_eq!(
            outcomes[0].merged.trace_hash, outcomes[i].merged.trace_hash,
            "merged trace hash must not depend on threads={threads}"
        );
        assert_eq!(
            outcomes[0].merged, outcomes[i].merged,
            "every merged counter must be identical at threads={threads}"
        );
        assert_eq!(
            outcomes[0].per_shard, outcomes[i].per_shard,
            "per-shard outcomes must be identical at threads={threads}"
        );
        assert_eq!(
            reports[0], reports[i],
            "rendered BENCH_chaos.json must be byte-identical at threads={threads}"
        );
    }
}

#[test]
fn shard_configs_derive_decorrelated_seeds_and_partition_the_load() {
    let base = small_base(0xDEC0_0002);
    let per: Vec<ChaosConfig> = (0..4).map(|s| shard_config(&base, 4, s)).collect();
    let total: usize = per.iter().map(|c| c.traffic.sessions).sum();
    assert_eq!(total, base.traffic.sessions, "sessions must split exactly");
    for (s, cfg) in per.iter().enumerate() {
        assert_eq!(cfg.seed, derive_stream(base.seed, s as u64));
        assert!(cfg.traffic.max_live >= 1);
    }
    let mut seeds: Vec<u64> = per.iter().map(|c| c.seed).collect();
    seeds.dedup();
    assert_eq!(seeds.len(), 4, "per-shard seeds must be distinct");
}

#[test]
fn lockstep_campaign_fanout_is_identical_at_every_thread_width() {
    // Four independent multi-hart lockstep campaigns against the reference
    // model, fanned out over the pool: the folded verdicts must not depend
    // on the worker width, and no width may surface a divergence.
    let fold = |threads: usize| -> u64 {
        let seeds: Vec<u64> = (0..4u64).map(|i| derive_stream(0x10C4_0003, i)).collect();
        let outcomes = par_run(seeds, threads, |_, seed| {
            let commands = generate(seed, 32, 4);
            run_campaign(&Campaign::new(seed), &commands)
        });
        let mut hash = fnv::OFFSET_BASIS;
        for o in &outcomes {
            assert!(!o.diverged(), "model diverged: {:?}", o.divergence);
            fnv::fold(
                &mut hash,
                &[
                    o.executed as u64,
                    o.completions as u64,
                    o.ok_responses as u64,
                    o.rejections as u64,
                    o.checkpoints as u64,
                ],
            );
        }
        hash
    };
    let reference = fold(1);
    for threads in WIDTHS {
        assert_eq!(
            fold(threads),
            reference,
            "lockstep fan-out verdicts must be identical at threads={threads}"
        );
    }
}

#[test]
fn sharded_machine_workload_audits_green_and_merges_deterministically() {
    // Four independent shard machines run one enclave session each, pump
    // once, and audit; the per-shard (clock, pipeline stats) vector must
    // not depend on the worker width.
    let manifest =
        EnclaveManifest::parse("heap = 4M\nstack = 64K\nhost_shared = 64K").expect("manifest");
    let run_width = |threads: usize| {
        par_run((0..4u64).collect(), threads, |_, shard| {
            let seed = derive_stream(0xF1E7_0005, shard);
            let mut m = Machine::boot(SocConfig::default(), seed).expect("boot");
            let image = [shard as u8, 0xaa];
            let e = m.create_enclave(0, &manifest, &image).expect("create");
            m.enter(0, e).expect("enter");
            let quote = m.attest(0, e, b"sharding-test").expect("attest");
            assert!(quote.verify(&m.ek_public()));
            m.exit(0).expect("exit");
            m.pump();
            m.audit().expect("audit must stay green");
            (m.clock, m.pipeline_stats())
        })
    };
    let reference = run_width(1);
    for threads in WIDTHS {
        assert_eq!(
            run_width(threads),
            reference,
            "per-shard clocks and stats must be identical at threads={threads}"
        );
    }
}
