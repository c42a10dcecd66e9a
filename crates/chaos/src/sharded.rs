//! Sharded chaos campaigns: the fleet split across independent campaigns,
//! each on its own `Machine`, run by [`par_run`] with a deterministic merge.
//!
//! A [`ShardedChaosConfig`] fixes a *shard count* (part of the seeded
//! configuration) and a *thread count* (a free execution parameter). Each
//! shard runs a full, self-contained chaos campaign — its own machine, its
//! own fault plan, its own traffic slice — from a splitmix-derived seed
//! `derive_stream(campaign_seed, shard_id)`. Shards never share mutable
//! state, workers pull whole shards off a queue, and the merge walks the
//! results in stable shard-id order, so the merged [`ChaosOutcome`]
//! (counters, SLO CDF, and the folded trace hash alike) is bit-identical
//! at 1, 2, 4, or 8 worker threads. `threads == 1` runs every shard inline
//! on the calling thread and is the reference behavior.
//!
//! The merged outcome keeps the single-campaign semantics wherever a sum
//! is honest (requests, sessions, enclaves, faults) and documents the rest:
//! `ticks`/`clock_cycles` are the *max* over shards (the wall time of the
//! parallel composition, exactly as one machine max-merges its per-hart
//! clocks), the high-water marks are summed upper bounds, and the SLO CDF
//! is the ok-weighted average of the per-shard CDFs.

use hypertee::shard::par_run;
use hypertee_crypto::fnv::{self, fold};
use hypertee_sim::rng::derive_stream;

use crate::campaign::{run, ChaosConfig, ChaosOutcome};
use crate::traffic::TrafficConfig;

/// A sharded campaign: `shards` independent sub-campaigns over one master
/// seed, serviced by `threads` workers.
#[derive(Debug, Clone)]
pub struct ShardedChaosConfig {
    /// The campaign template. Its `seed` is the master seed; its traffic
    /// and scripted-event counts are split across the shards.
    pub base: ChaosConfig,
    /// Shard count (fixed; changing it changes the merged trace).
    pub shards: usize,
    /// Worker threads (free; any value yields the same merged trace).
    pub threads: usize,
}

/// `shard`'s share of `total` (remainder to the low shards).
fn split_count(total: usize, shards: usize, shard: usize) -> usize {
    total / shards + usize::from(shard < total % shards)
}

/// The sub-campaign config of shard `shard` of `shards`: seed derived from
/// the per-shard splitmix stream, traffic and scripted events split with
/// the remainder on the low shards, cadences and policies unchanged.
///
/// # Panics
///
/// Panics when `shard >= shards` or `shards == 0`.
pub fn shard_config(base: &ChaosConfig, shards: usize, shard: usize) -> ChaosConfig {
    assert!(shards > 0 && shard < shards, "shard {shard} of {shards}");
    let u32_split = |total: u32| -> u32 {
        let t = total as usize;
        split_count(t, shards, shard) as u32
    };
    ChaosConfig {
        seed: derive_stream(base.seed, shard as u64),
        label: base.label,
        traffic: TrafficConfig {
            sessions: split_count(base.traffic.sessions, shards, shard),
            mean_interarrival_ticks: base.traffic.mean_interarrival_ticks,
            burst_pm: base.traffic.burst_pm,
            burst_size_max: base.traffic.burst_size_max,
            max_live: split_count(base.traffic.max_live, shards, shard).max(1),
        },
        faults: base.faults.clone(),
        deadline_cycles: base.deadline_cycles,
        shed_backlog_limit: base.shed_backlog_limit,
        scripted_crashes: u32_split(base.scripted_crashes),
        migrations: u32_split(base.migrations),
        audit_every_ticks: base.audit_every_ticks,
        ewb_every_ticks: base.ewb_every_ticks,
        lockstep_rounds: u32_split(base.lockstep_rounds),
        lockstep_commands: base.lockstep_commands,
        max_ticks: base.max_ticks,
        // The attestation storm is a single-facade workload: it does not
        // shard. Storm campaigns run unsharded (`serving_bench`).
        storm: None,
        ref_pump: base.ref_pump,
    }
}

/// Result of a sharded campaign: the deterministic merge plus every
/// shard's own outcome (in shard-id order) for inspection.
#[derive(Debug, Clone)]
pub struct ShardedChaosOutcome {
    /// The merged campaign outcome (see module docs for merge semantics).
    pub merged: ChaosOutcome,
    /// Per-shard outcomes, indexed by shard id.
    pub per_shard: Vec<ChaosOutcome>,
    /// Shard count the campaign ran with.
    pub(crate) shards: usize,
    /// Worker threads the campaign ran with (execution detail: never part
    /// of the merged trace or the report).
    pub(crate) threads: usize,
}

/// Runs a sharded campaign: every shard's sub-campaign on the worker pool,
/// then the stable-order merge.
///
/// # Panics
///
/// Panics on a zero shard count or on machine boot failure.
pub fn run_sharded(cfg: &ShardedChaosConfig) -> ShardedChaosOutcome {
    assert!(cfg.shards > 0, "need at least one shard");
    let configs: Vec<ChaosConfig> = (0..cfg.shards)
        .map(|s| shard_config(&cfg.base, cfg.shards, s))
        .collect();
    let per_shard = par_run(configs, cfg.threads, |_, shard_cfg| run(&shard_cfg));
    let merged = merge(&cfg.base, &per_shard);
    ShardedChaosOutcome {
        merged,
        per_shard,
        shards: cfg.shards,
        threads: cfg.threads,
    }
}

/// Merges per-shard outcomes in stable shard-id order.
fn merge(base: &ChaosConfig, shards: &[ChaosOutcome]) -> ChaosOutcome {
    // The merged hash folds (shard id, shard trace hash) from the master
    // seed's basis: each shard hash already folds that shard's full event
    // stream, so the merged hash commits to every event of every shard.
    let mut hash = fnv::OFFSET_BASIS ^ base.seed;
    for (i, s) in shards.iter().enumerate() {
        fold(&mut hash, &[i as u64, s.trace_hash]);
    }

    let first_audit_error = shards.iter().find_map(|s| s.first_audit_error.clone());
    let first_divergence = shards.iter().find_map(|s| s.first_divergence.clone());

    // Ok-weighted SLO CDF merge at fixed abscissae, in shard order (f64
    // summation order is part of the determinism contract).
    let multiples: Vec<u32> = shards
        .first()
        .map(|s| s.slo_cdf.iter().map(|&(m, _)| m).collect())
        .unwrap_or_default();
    let total_ok: u64 = shards.iter().map(|s| s.ok_responses).sum();
    let slo_cdf: Vec<(u32, f64)> = multiples
        .iter()
        .enumerate()
        .map(|(row, &mult)| {
            let frac = if total_ok == 0 {
                0.0
            } else {
                shards
                    .iter()
                    .map(|s| s.slo_cdf[row].1 * s.ok_responses as f64)
                    .sum::<f64>()
                    / total_ok as f64
            };
            (mult, frac)
        })
        .collect();

    let mut blackouts = Vec::new();
    for s in shards {
        blackouts.extend_from_slice(&s.blackouts);
    }

    ChaosOutcome {
        seed: base.seed,
        label: base.label,
        // Parallel composition: wall time is the slowest shard.
        ticks: shards.iter().map(|s| s.ticks).max().unwrap_or(0),
        requests: shards.iter().map(|s| s.requests).sum(),
        completions: shards.iter().map(|s| s.completions).sum(),
        ok_responses: total_ok,
        recovered: shards.iter().map(|s| s.recovered).sum(),
        rejections: shards.iter().map(|s| s.rejections).sum(),
        timeouts: shards.iter().map(|s| s.timeouts).sum(),
        shed: shards.iter().map(|s| s.shed).sum(),
        expired: shards.iter().map(|s| s.expired).sum(),
        retries: shards.iter().map(|s| s.retries).sum(),
        sessions: shards.iter().map(|s| s.sessions).sum(),
        sessions_done: shards.iter().map(|s| s.sessions_done).sum(),
        sessions_failed: shards.iter().map(|s| s.sessions_failed).sum(),
        enclaves_created: shards.iter().map(|s| s.enclaves_created).sum(),
        enclaves_destroyed: shards.iter().map(|s| s.enclaves_destroyed).sum(),
        leaked_enclaves: shards.iter().map(|s| s.leaked_enclaves).sum(),
        reclaimed_enclaves: shards.iter().map(|s| s.reclaimed_enclaves).sum(),
        faults_injected: shards.iter().map(|s| s.faults_injected).sum(),
        crash_restarts: shards.iter().map(|s| s.crash_restarts).sum(),
        crash_dropped_requests: shards.iter().map(|s| s.crash_dropped_requests).sum(),
        // Summed HWMs: the upper bound of the concurrent composition (each
        // shard reached its own HWM on its own timeline).
        queue_depth_hwm: shards.iter().map(|s| s.queue_depth_hwm).sum(),
        in_flight_hwm: shards.iter().map(|s| s.in_flight_hwm).sum(),
        audits: shards.iter().map(|s| s.audits).sum(),
        audit_ok: shards.iter().all(|s| s.audit_ok),
        first_audit_error,
        lockstep_rounds: shards.iter().map(|s| s.lockstep_rounds).sum(),
        lockstep_ok: shards.iter().all(|s| s.lockstep_ok),
        first_divergence,
        migrations_completed: shards.iter().map(|s| s.migrations_completed).sum(),
        migrations_failed: shards.iter().map(|s| s.migrations_failed).sum(),
        blackouts,
        slo_cdf,
        // Shards never carry a storm (see `shard_config`).
        storm: None,
        clock_cycles: shards.iter().map(|s| s.clock_cycles).max().unwrap_or(0),
        trace_hash: hash,
        stalled: shards.iter().any(|s| s.stalled),
    }
}

impl ShardedChaosOutcome {
    /// Sum of the per-shard clocks: the simulated cost of running the same
    /// shards *sequentially* on one timeline. The ratio against the merged
    /// (max) clock is the deterministic simulated-time speedup of the
    /// parallel composition — independent of the host's core count.
    pub(crate) fn sequential_clock_cycles(&self) -> u64 {
        self.per_shard.iter().map(|s| s.clock_cycles).sum()
    }

    /// Deterministic simulated-time speedup of the parallel composition:
    /// `sum(shard clocks) / max(shard clocks)`. 1.0 for a single shard.
    pub(crate) fn simulated_speedup(&self) -> f64 {
        let max = self.merged.clock_cycles.max(1);
        self.sequential_clock_cycles() as f64 / max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::ChaosConfig;

    /// A small sharded campaign that still exercises faults, crashes, and
    /// a lockstep round.
    fn tiny(seed: u64, threads: usize) -> ShardedChaosConfig {
        let mut base = ChaosConfig::smoke(seed);
        base.traffic = TrafficConfig {
            sessions: 24,
            mean_interarrival_ticks: 4.0,
            burst_pm: 120,
            burst_size_max: 3,
            max_live: 12,
        };
        base.scripted_crashes = 2;
        base.migrations = 0;
        base.lockstep_rounds = 1;
        base.lockstep_commands = 24;
        ShardedChaosConfig {
            base,
            shards: 4,
            threads,
        }
    }

    #[test]
    fn shard_configs_split_the_load_exactly() {
        let base = ChaosConfig::fleet(9);
        let parts: Vec<ChaosConfig> = (0..4).map(|s| shard_config(&base, 4, s)).collect();
        let sessions: usize = parts.iter().map(|p| p.traffic.sessions).sum();
        assert_eq!(sessions, base.traffic.sessions);
        let crashes: u32 = parts.iter().map(|p| p.scripted_crashes).sum();
        assert_eq!(crashes, base.scripted_crashes);
        let migrations: u32 = parts.iter().map(|p| p.migrations).sum();
        assert_eq!(migrations, base.migrations);
        let seeds: std::collections::BTreeSet<u64> = parts.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), 4, "per-shard seeds must be distinct");
    }

    #[test]
    fn merged_outcome_is_identical_at_any_thread_width() {
        let reference = run_sharded(&tiny(0xC0FFEE, 1));
        assert!(!reference.merged.stalled);
        assert!(reference.merged.audit_ok);
        for threads in [2usize, 4] {
            let out = run_sharded(&tiny(0xC0FFEE, threads));
            assert_eq!(
                out.merged.trace_hash, reference.merged.trace_hash,
                "threads={threads}"
            );
            assert_eq!(out.merged, reference.merged, "threads={threads}");
            assert_eq!(out.per_shard, reference.per_shard, "threads={threads}");
        }
    }

    #[test]
    fn merged_counters_conserve_sessions() {
        let out = run_sharded(&tiny(0x33, 2));
        let m = &out.merged;
        assert_eq!(m.sessions_done + m.sessions_failed, m.sessions);
        assert_eq!(m.sessions, 24);
        assert!(out.simulated_speedup() > 1.0, "4 shards overlap in time");
    }
}
