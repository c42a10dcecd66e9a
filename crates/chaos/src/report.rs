//! `BENCH_chaos.json`: schema-stable serialization of a campaign outcome,
//! plus the validator `scripts/verify.sh` gates on.
//!
//! The emitter is hand-rolled (the workspace takes no external
//! dependencies) in the exact style of `hypertee_bench::report`, and the
//! validator reuses that crate's JSON parser. Renaming or removing a key,
//! or bumping [`SCHEMA_VERSION`], is a breaking change and must be called
//! out in the PR description.

use hypertee_bench::report::{
    check_header, check_slo_cdf, check_verdicts, parse_json, push_header, push_kv_bool,
    push_kv_hex, push_kv_u64, push_slo_cdf, req_counter as counter, req_hex_u64, Json,
};

use crate::campaign::ChaosOutcome;
use crate::sharded::ShardedChaosOutcome;

/// Version of the emitted JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub const SUITE: &str = "hypertee-chaos";

/// Counter keys every report must carry (all finite non-negative numbers).
const REQUIRED_COUNTERS: [&str; 23] = [
    "ticks",
    "requests",
    "completions",
    "ok_responses",
    "recovered",
    "rejections",
    "timeouts",
    "shed",
    "expired",
    "retries",
    "sessions",
    "sessions_done",
    "sessions_failed",
    "enclaves_created",
    "enclaves_destroyed",
    "leaked_enclaves",
    "reclaimed_enclaves",
    "faults_injected",
    "crash_restarts",
    "crash_dropped_requests",
    "audits",
    "migrations_completed",
    "migrations_failed",
];

/// Serializes a campaign outcome as `BENCH_chaos.json`.
pub fn render_report(out: &ChaosOutcome) -> String {
    render(out, None)
}

/// Serializes a *sharded* campaign outcome: the merged counters plus a
/// `sharding` section of per-shard seeds and trace hashes. Every emitted
/// field is deterministic in `(seed, shards)` — the worker-thread count and
/// wall-clock time are deliberately excluded, so reports produced at
/// different `--threads` widths are byte-identical (the parallel-determinism
/// smoke in `scripts/verify.sh` compares them with `cmp`).
pub fn render_sharded_report(out: &ShardedChaosOutcome) -> String {
    render(&out.merged, Some(out))
}

fn render(out: &ChaosOutcome, sharding: Option<&ShardedChaosOutcome>) -> String {
    let mut s = String::new();
    push_header(&mut s, SCHEMA_VERSION, SUITE, out.label);
    s.push_str(",\n");
    push_kv_hex(&mut s, "seed", out.seed);
    push_kv_hex(&mut s, "trace_hash", out.trace_hash);
    push_kv_u64(&mut s, "ticks", out.ticks);
    push_kv_u64(&mut s, "requests", out.requests);
    push_kv_u64(&mut s, "completions", out.completions);
    push_kv_u64(&mut s, "ok_responses", out.ok_responses);
    push_kv_u64(&mut s, "recovered", out.recovered);
    push_kv_u64(&mut s, "rejections", out.rejections);
    push_kv_u64(&mut s, "timeouts", out.timeouts);
    push_kv_u64(&mut s, "shed", out.shed);
    push_kv_u64(&mut s, "expired", out.expired);
    push_kv_u64(&mut s, "retries", out.retries);
    push_kv_u64(&mut s, "sessions", out.sessions as u64);
    push_kv_u64(&mut s, "sessions_done", out.sessions_done as u64);
    push_kv_u64(&mut s, "sessions_failed", out.sessions_failed as u64);
    push_kv_u64(&mut s, "enclaves_created", out.enclaves_created);
    push_kv_u64(&mut s, "enclaves_destroyed", out.enclaves_destroyed);
    push_kv_u64(&mut s, "leaked_enclaves", out.leaked_enclaves);
    push_kv_u64(&mut s, "reclaimed_enclaves", out.reclaimed_enclaves);
    push_kv_u64(&mut s, "faults_injected", out.faults_injected);
    push_kv_u64(&mut s, "crash_restarts", out.crash_restarts);
    push_kv_u64(&mut s, "crash_dropped_requests", out.crash_dropped_requests);
    push_kv_u64(&mut s, "queue_depth_hwm", out.queue_depth_hwm as u64);
    push_kv_u64(&mut s, "in_flight_hwm", out.in_flight_hwm as u64);
    push_kv_u64(&mut s, "audits", out.audits);
    push_kv_bool(&mut s, "audit_ok", out.audit_ok);
    push_kv_u64(&mut s, "lockstep_rounds", u64::from(out.lockstep_rounds));
    push_kv_bool(&mut s, "lockstep_ok", out.lockstep_ok);
    push_kv_u64(
        &mut s,
        "migrations_completed",
        u64::from(out.migrations_completed),
    );
    push_kv_u64(
        &mut s,
        "migrations_failed",
        u64::from(out.migrations_failed),
    );
    push_kv_u64(&mut s, "blackout_p50_cycles", out.blackout_percentile(50));
    push_kv_u64(&mut s, "blackout_p99_cycles", out.blackout_percentile(99));
    push_kv_u64(&mut s, "clock_cycles", out.clock_cycles);
    push_kv_bool(&mut s, "stalled", out.stalled);
    if let Some(sh) = sharding {
        s.push_str("  \"sharding\": {\n");
        s.push_str(&format!("    \"shards\": {},\n", sh.shards));
        s.push_str(&format!(
            "    \"simulated_speedup\": {:.4},\n",
            sh.simulated_speedup()
        ));
        s.push_str("    \"per_shard\": [\n");
        for (i, p) in sh.per_shard.iter().enumerate() {
            s.push_str(&format!(
                "      {{ \"shard\": {i}, \"seed\": \"0x{:016x}\", \
                 \"trace_hash\": \"0x{:016x}\", \"requests\": {}, \
                 \"clock_cycles\": {} }}",
                p.seed, p.trace_hash, p.requests, p.clock_cycles
            ));
            if i + 1 < sh.per_shard.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("    ]\n  },\n");
    }
    push_slo_cdf(&mut s, "round_trip_multiple", &out.slo_cdf);
    s.push_str("}\n");
    s
}

/// Validates a `BENCH_chaos.json` document: schema version and suite,
/// every counter present and finite, the audit and lockstep verdicts
/// green, the campaign drained, and a sane (monotone, `[0, 1]`-bounded)
/// SLO CDF. This is the gate `scripts/verify.sh` runs against the smoke
/// report.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    check_header(&doc, SCHEMA_VERSION, SUITE)?;
    for key in ["seed", "trace_hash"] {
        req_hex_u64(&doc, key)?;
    }
    for key in REQUIRED_COUNTERS {
        counter(&doc, key)?;
    }
    for key in [
        "queue_depth_hwm",
        "in_flight_hwm",
        "blackout_p50_cycles",
        "blackout_p99_cycles",
        "clock_cycles",
    ] {
        counter(&doc, key)?;
    }
    check_verdicts(&doc)?;
    // Conservation: every offered session must have terminated.
    let sessions = counter(&doc, "sessions")?;
    let done = counter(&doc, "sessions_done")?;
    let failed = counter(&doc, "sessions_failed")?;
    if done + failed != sessions {
        return Err(format!(
            "session conservation violated: {done} done + {failed} failed != {sessions}"
        ));
    }
    if counter(&doc, "blackout_p99_cycles")? < counter(&doc, "blackout_p50_cycles")? {
        return Err("blackout p99 < p50".to_string());
    }
    // Optional sharded-campaign section: shard count must match the
    // per-shard rows, every row well-formed, and the shard requests must
    // sum to the merged counter (the merge is a plain sum).
    if let Some(sharding) = doc.get("sharding") {
        let shards = counter(sharding, "shards")?;
        counter(sharding, "simulated_speedup")?;
        let Some(Json::Arr(rows)) = sharding.get("per_shard") else {
            return Err("sharding.per_shard missing or not an array".to_string());
        };
        if rows.len() as f64 != shards {
            return Err(format!(
                "sharding.shards = {shards} but {} per_shard rows",
                rows.len()
            ));
        }
        let mut shard_requests = 0.0f64;
        for (i, row) in rows.iter().enumerate() {
            if counter(row, "shard")? != i as f64 {
                return Err(format!("per_shard row {i} out of shard order"));
            }
            for key in ["seed", "trace_hash"] {
                req_hex_u64(row, key).map_err(|e| format!("per_shard row {i}: {e}"))?;
            }
            counter(row, "clock_cycles")?;
            shard_requests += counter(row, "requests")?;
        }
        if shard_requests != counter(&doc, "requests")? {
            return Err(format!(
                "shard requests sum to {shard_requests}, merged counter says {}",
                counter(&doc, "requests")?
            ));
        }
    }
    check_slo_cdf(&doc, "round_trip_multiple")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run, ChaosConfig};
    use crate::traffic::TrafficConfig;

    fn tiny_outcome() -> ChaosOutcome {
        run(&ChaosConfig {
            seed: 0x7e57,
            label: "tiny",
            traffic: TrafficConfig {
                sessions: 10,
                mean_interarrival_ticks: 4.0,
                burst_pm: 100,
                burst_size_max: 2,
                max_live: 8,
                tenants: TrafficConfig::default_tenants(),
            },
            faults: Some(ChaosConfig::chaos_faults()),
            deadline_cycles: Some(20_000_000),
            shed_backlog_limit: Some(10),
            scripted_crashes: 1,
            migrations: 1,
            audit_every_ticks: 64,
            ewb_every_ticks: 0,
            lockstep_rounds: 0,
            lockstep_commands: 0,
            max_ticks: 60_000,
            storm: None,
            ref_pump: false,
        })
    }

    #[test]
    fn report_round_trips_the_validator() {
        let out = tiny_outcome();
        let text = render_report(&out);
        validate(&text).expect("fresh report must validate");
    }

    #[test]
    fn validator_rejects_red_verdicts() {
        let out = tiny_outcome();
        let text = render_report(&out);
        let broken = text.replace("\"audit_ok\": true", "\"audit_ok\": false");
        assert!(validate(&broken).unwrap_err().contains("audit_ok"));
        let broken = text.replace("\"lockstep_ok\": true", "\"lockstep_ok\": false");
        assert!(validate(&broken).unwrap_err().contains("lockstep_ok"));
        let broken = text.replace("\"suite\": \"hypertee-chaos\"", "\"suite\": \"nope\"");
        assert!(validate(&broken).unwrap_err().contains("suite"));
    }

    #[test]
    fn validator_rejects_missing_counter() {
        let out = tiny_outcome();
        let text = render_report(&out);
        let broken = text.replace("  \"recovered\":", "  \"recovered_zzz\":");
        assert!(validate(&broken).unwrap_err().contains("recovered"));
    }
}
