//! The repository benchmark: five HyperTEE workloads driven through the
//! crates' public APIs.
//!
//! Each run sets up its workload five times (the median is `setup_s`), then
//! runs rounds on freshly set-up state until both the workload's minimum
//! round count and the requested seconds are reached. Host metrics are
//! medians over rounds; simulated metrics come from the minimum rounds only,
//! so they are identical for a seed on any host. A traced run alternates
//! traced and untraced rounds and reports per-layer self time and counters
//! (see `metrics`).

#![forbid(unsafe_code)]

pub mod host;
pub mod metrics;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;

use workloads::alloc::{AllocChurn, Ealloc2m};
use workloads::attest_storm::AttestStorm;
use workloads::chaos_fleet::ChaosFleet;
use workloads::enclave_compute::EnclaveCompute;

/// Every workload with its default seed. `chaos_fleet` at seed 0 starts
/// with the committed campaign, whose trace hash it checks.
pub const WORKLOADS: [(&str, u64); 5] = [
    ("chaos_fleet", 0),
    ("alloc_churn", 0xa110_c0c4),
    ("ealloc_2m", 0xe2a1_10c2),
    ("attest_storm", 0xa77e_5700),
    ("enclave_compute", 0xc0de_c0de),
];

/// Runs the named workload at its default size. `None` for an unknown name.
pub fn run(name: &str, seed: Option<u64>, seconds: f64, trace: bool) -> Option<runner::Report> {
    let &(name, default_seed) = WORKLOADS.iter().find(|(n, _)| *n == name)?;
    let seed = seed.unwrap_or(default_seed);
    Some(match name {
        "chaos_fleet" => runner::measure(name, &ChaosFleet::default(), seed, seconds, trace),
        "alloc_churn" => runner::measure(name, &AllocChurn::default(), seed, seconds, trace),
        "ealloc_2m" => runner::measure(name, &Ealloc2m::default(), seed, seconds, trace),
        "attest_storm" => runner::measure(name, &AttestStorm::default(), seed, seconds, trace),
        "enclave_compute" => {
            runner::measure(name, &EnclaveCompute::default(), seed, seconds, trace)
        }
        _ => unreachable!("every name in WORKLOADS is dispatched"),
    })
}
