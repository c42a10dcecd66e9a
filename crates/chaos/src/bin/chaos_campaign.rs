//! Chaos campaign runner: seeded fault campaigns under live open-loop
//! traffic, emitting the schema-stable `BENCH_chaos.json` (see
//! `hypertee_chaos::report`).
//!
//! The full campaign drives ≥ 10,000 requests across ≥ 1,000 enclaves
//! with live faults, scripted EMS crash-restarts, and mid-traffic CVM
//! migrations, then re-runs the same seed and insists on a bit-identical
//! trace hash. `--smoke` is the seconds-scale CI slice with the same
//! structure and the same determinism check.
//!
//! ```text
//! chaos_campaign [--smoke] [--seed N] [--out PATH]   # run + emit
//! chaos_campaign --ref-pump [...]                    # scan-scheduler oracle
//! chaos_campaign --shards 4 --threads 4 [...]        # sharded campaign
//! chaos_campaign --check PATH                        # validate a report
//! ```
//!
//! `--shards` fixes the logical split (part of the seeded configuration);
//! `--threads` only sizes the worker pool, so the emitted report is
//! byte-identical at any thread count. Wall-clock timing goes to stderr
//! and never into the report. The shared steps live in
//! `hypertee_chaos::runner`.

use std::process::ExitCode;

use hypertee_chaos::campaign::{ChaosConfig, ChaosOutcome};
use hypertee_chaos::report::{render_report, validate};
use hypertee_chaos::runner::{Floor, Runner};

/// Acceptance floors for the committed fleet campaign.
const FLOORS: &[Floor] = &[
    ("requests", 10_000, |o| o.requests),
    ("enclaves", 1_000, |o| o.enclaves_created),
];

fn summary(o: &ChaosOutcome) -> String {
    format!(
        "{} requests, {} ok ({} recovered), shed={} expired={} timeouts={}, \
         {} enclaves created, {} crash-restarts, audits={} ({}), lockstep={}, \
         blackout p50/p99 = {}/{} cycles",
        o.requests,
        o.ok_responses,
        o.recovered,
        o.shed,
        o.expired,
        o.timeouts,
        o.enclaves_created,
        o.crash_restarts,
        o.audits,
        if o.audit_ok { "green" } else { "RED" },
        if o.lockstep_ok { "green" } else { "DIVERGED" },
        o.blackout_percentile(50),
        o.blackout_percentile(99),
    )
}

fn main() -> ExitCode {
    Runner {
        name: "chaos_campaign",
        default_seed: 0xC4A0_5EED,
        default_out: "BENCH_chaos.json",
        smoke: ChaosConfig::smoke,
        full: ChaosConfig::fleet,
        render: render_report,
        validate,
        floors: FLOORS,
        summary,
        sharding: true,
    }
    .main()
}
