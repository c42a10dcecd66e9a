//! Serving benchmark runner: the attestation-storm campaign, emitting the
//! schema-stable `BENCH_serving.json` (see `hypertee_chaos::report`).
//!
//! The full campaign layers thousands of challenge-response handshakes and
//! authenticated calls — with seeded service-transport faults (dropped /
//! duplicated / delayed / replayed frames, stale-quote substitution, token
//! forgery) — on top of the fleet chaos campaign, through scripted EMS
//! crash-restarts and live migrations. The run fails unless the facade
//! refused **every** attack (the report validator pins every
//! `*_accepted` counter to zero), the consistency audit and lockstep
//! verdicts stayed green, and the identical seed reproduces a
//! bit-identical trace.
//!
//! ```text
//! serving_bench [--smoke] [--seed N] [--out PATH]   # run + emit
//! serving_bench --ref-pump [...]                    # scan-scheduler oracle
//! serving_bench --check PATH                        # validate a report
//! ```
//!
//! The shared steps live in `hypertee_chaos::runner`.

use std::process::ExitCode;

use hypertee_chaos::campaign::{ChaosConfig, ChaosOutcome};
use hypertee_chaos::report::{render_serving_report, validate_serving};
use hypertee_chaos::runner::{Floor, Runner};
use hypertee_chaos::storm::StormOutcome;

fn storm(o: &ChaosOutcome) -> &StormOutcome {
    o.storm.as_ref().expect("serving presets carry a storm")
}

/// Acceptance floors for the committed serving campaign: a real storm
/// (1,000+ handshakes) under a real fault campaign (1,000+
/// service-transport injections).
const FLOORS: &[Floor] = &[
    ("handshakes", 1_000, |o| storm(o).handshakes_attempted),
    ("service faults", 1_000, |o| {
        storm(o).service_faults_injected
    }),
];

fn summary(o: &ChaosOutcome) -> String {
    let s = storm(o);
    format!(
        "{} clients, {} handshakes attempted, {} completed, {} calls ok, \
         {} re-attestations, {} service faults, {} attacks accepted, \
         breaker open/half/closed = {}/{}/{}, p50/p99 = {}/{} ticks",
        s.clients,
        s.handshakes_attempted,
        s.handshakes_completed,
        s.calls_ok,
        s.reattestations,
        s.service_faults_injected,
        s.accepted_attacks(),
        s.breaker_to_open,
        s.breaker_to_half_open,
        s.breaker_to_closed,
        s.handshake_p50_ticks,
        s.handshake_p99_ticks,
    )
}

fn main() -> ExitCode {
    Runner {
        name: "serving_bench",
        default_seed: 0x5E11_F00D,
        default_out: "BENCH_serving.json",
        smoke: ChaosConfig::serving_smoke,
        full: ChaosConfig::serving_fleet,
        render: render_serving_report,
        validate: validate_serving,
        floors: FLOORS,
        summary,
        sharding: false,
    }
    .main()
}
