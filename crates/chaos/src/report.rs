//! The two campaign reports: `BENCH_chaos.json` (fleet campaign) and
//! `BENCH_serving.json` (attestation storm), each a schema-stable
//! serialization of a [`ChaosOutcome`] plus the validator
//! `scripts/verify.sh` gates on.
//!
//! Each report declares its keys once, in emission order, as a table of
//! `(key, kind, getter)` rows. The emitter walks the table; the validator
//! requires every row with its kind's check, then applies the report's
//! semantic gates (verdicts, conservation, ordered percentiles, the
//! serving report's zero pins). A key therefore cannot be emitted without
//! being required.
//!
//! The emitter is hand-rolled (the workspace takes no external
//! dependencies) in the exact style of `hypertee_bench::report`, and the
//! validator reuses that crate's JSON parser. Renaming or removing a key,
//! or bumping `SCHEMA_VERSION`, is a breaking change and must be called
//! out in the PR description.

use hypertee_bench::report::{
    check_header, check_slo_cdf, check_verdicts, parse_json, push_header, push_kv_bool,
    push_kv_hex, push_kv_u64, push_slo_cdf, req_bool, req_counter as counter, req_hex_u64, Json,
};

use crate::campaign::ChaosOutcome;
use crate::sharded::ShardedChaosOutcome;
use crate::storm::StormOutcome;

/// Version of the emitted JSON schema (both reports).
pub(crate) const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every `BENCH_chaos.json`.
pub(crate) const SUITE: &str = "hypertee-chaos";

/// Suite identifier baked into every `BENCH_serving.json`.
pub(crate) const SERVING_SUITE: &str = "hypertee-serving";

/// How a row is emitted and checked.
#[derive(Debug, Clone, Copy)]
enum Kind {
    /// A full-range u64 as a `"0x…"` string ([`req_hex_u64`]).
    Hex,
    /// A finite non-negative number (`req_counter`).
    Counter,
    /// A boolean; the getter returns 0 or 1 ([`req_bool`]).
    Bool,
}

use Kind::{Bool, Counter, Hex};

/// One report key: its name, kind, and where its value comes from.
type Row = (&'static str, Kind, fn(&ChaosOutcome) -> u64);

/// `BENCH_chaos.json` keys, in emission order.
#[rustfmt::skip]
const CHAOS_KEYS: &[Row] = &[
    ("seed", Hex, |o| o.seed),
    ("trace_hash", Hex, |o| o.trace_hash),
    ("ticks", Counter, |o| o.ticks),
    ("requests", Counter, |o| o.requests),
    ("completions", Counter, |o| o.completions),
    ("ok_responses", Counter, |o| o.ok_responses),
    ("recovered", Counter, |o| o.recovered),
    ("rejections", Counter, |o| o.rejections),
    ("timeouts", Counter, |o| o.timeouts),
    ("shed", Counter, |o| o.shed),
    ("expired", Counter, |o| o.expired),
    ("retries", Counter, |o| o.retries),
    ("sessions", Counter, |o| o.sessions as u64),
    ("sessions_done", Counter, |o| o.sessions_done as u64),
    ("sessions_failed", Counter, |o| o.sessions_failed as u64),
    ("enclaves_created", Counter, |o| o.enclaves_created),
    ("enclaves_destroyed", Counter, |o| o.enclaves_destroyed),
    ("leaked_enclaves", Counter, |o| o.leaked_enclaves),
    ("reclaimed_enclaves", Counter, |o| o.reclaimed_enclaves),
    ("faults_injected", Counter, |o| o.faults_injected),
    ("crash_restarts", Counter, |o| o.crash_restarts),
    ("crash_dropped_requests", Counter, |o| o.crash_dropped_requests),
    ("queue_depth_hwm", Counter, |o| o.queue_depth_hwm as u64),
    ("in_flight_hwm", Counter, |o| o.in_flight_hwm as u64),
    ("audits", Counter, |o| o.audits),
    ("audit_ok", Bool, |o| u64::from(o.audit_ok)),
    ("lockstep_rounds", Counter, |o| u64::from(o.lockstep_rounds)),
    ("lockstep_ok", Bool, |o| u64::from(o.lockstep_ok)),
    ("migrations_completed", Counter, |o| u64::from(o.migrations_completed)),
    ("migrations_failed", Counter, |o| u64::from(o.migrations_failed)),
    ("blackout_p50_cycles", Counter, |o| o.blackout_percentile(50)),
    ("blackout_p99_cycles", Counter, |o| o.blackout_percentile(99)),
    ("clock_cycles", Counter, |o| o.clock_cycles),
    ("stalled", Bool, |o| u64::from(o.stalled)),
];

/// The storm a serving report describes.
///
/// # Panics
///
/// Panics when the outcome carries no storm (the campaign was run without
/// `ChaosConfig::storm`): a serving report without a storm is meaningless.
fn storm(o: &ChaosOutcome) -> &StormOutcome {
    o.storm
        .as_ref()
        .expect("serving report requires a storm campaign outcome")
}

/// `BENCH_serving.json` keys, in emission order: the storm's counters,
/// then the campaign context the storm rode through.
#[rustfmt::skip]
const SERVING_KEYS: &[Row] = &[
    ("seed", Hex, |o| o.seed),
    ("trace_hash", Hex, |o| o.trace_hash),
    ("clients", Counter, |o| storm(o).clients as u64),
    ("handshakes_attempted", Counter, |o| storm(o).handshakes_attempted),
    ("handshakes_completed", Counter, |o| storm(o).handshakes_completed),
    ("handshake_retries", Counter, |o| storm(o).handshake_retries),
    ("calls_attempted", Counter, |o| storm(o).calls_attempted),
    ("calls_ok", Counter, |o| storm(o).calls_ok),
    ("reattestations", Counter, |o| storm(o).reattestations),
    ("pre_ready_attempts", Counter, |o| storm(o).pre_ready_attempts),
    ("pre_ready_accepted", Counter, |o| storm(o).pre_ready_accepted),
    ("stale_quote_attempts", Counter, |o| storm(o).stale_quote_attempts),
    ("stale_quote_accepted", Counter, |o| storm(o).stale_quote_accepted),
    ("replay_attempts", Counter, |o| storm(o).replay_attempts),
    ("replay_accepted", Counter, |o| storm(o).replay_accepted),
    ("duplicate_attempts", Counter, |o| storm(o).duplicate_attempts),
    ("duplicate_accepted", Counter, |o| storm(o).duplicate_accepted),
    ("forged_token_attempts", Counter, |o| storm(o).forged_token_attempts),
    ("forged_token_accepted", Counter, |o| storm(o).forged_token_accepted),
    ("breaker_to_open", Counter, |o| storm(o).breaker_to_open),
    ("breaker_to_half_open", Counter, |o| storm(o).breaker_to_half_open),
    ("breaker_to_closed", Counter, |o| storm(o).breaker_to_closed),
    ("breaker_shed", Counter, |o| storm(o).breaker_shed),
    ("reprobes", Counter, |o| storm(o).reprobes),
    ("sessions_revoked", Counter, |o| storm(o).sessions_revoked),
    ("not_ready_rejects", Counter, |o| storm(o).not_ready_rejects),
    ("stale_challenge_rejects", Counter, |o| storm(o).stale_challenge_rejects),
    ("epoch_rejects", Counter, |o| storm(o).epoch_rejects),
    ("expired_token_rejects", Counter, |o| storm(o).expired_token_rejects),
    ("service_faults_injected", Counter, |o| storm(o).service_faults_injected),
    ("handshake_p50_ticks", Counter, |o| storm(o).handshake_p50_ticks),
    ("handshake_p99_ticks", Counter, |o| storm(o).handshake_p99_ticks),
    ("crash_restarts", Counter, |o| o.crash_restarts),
    ("migrations_completed", Counter, |o| u64::from(o.migrations_completed)),
    ("fleet_requests", Counter, |o| o.requests),
    ("reclaimed_enclaves", Counter, |o| o.reclaimed_enclaves),
    ("audit_ok", Bool, |o| u64::from(o.audit_ok)),
    ("lockstep_ok", Bool, |o| u64::from(o.lockstep_ok)),
    ("stalled", Bool, |o| u64::from(o.stalled)),
];

/// Accepted-attack counters the serving validator pins to zero: any
/// non-zero value means the facade served an attack and the artifact is
/// rejected.
const MUST_BE_ZERO: [&str; 5] = [
    "pre_ready_accepted",
    "stale_quote_accepted",
    "replay_accepted",
    "duplicate_accepted",
    "forged_token_accepted",
];

/// Opens a report and emits every row of `keys` from `out`.
fn render_rows(suite: &str, keys: &[Row], out: &ChaosOutcome) -> String {
    let mut s = String::new();
    push_header(&mut s, SCHEMA_VERSION, suite, out.label);
    s.push_str(",\n");
    for &(key, kind, get) in keys {
        match kind {
            Hex => push_kv_hex(&mut s, key, get(out)),
            Counter => push_kv_u64(&mut s, key, get(out)),
            Bool => push_kv_bool(&mut s, key, get(out) != 0),
        }
    }
    s
}

/// Parses a report, checks its header, and requires every row of `keys`
/// with its kind's check.
fn check_rows(text: &str, suite: &str, keys: &[Row]) -> Result<Json, String> {
    let doc = parse_json(text)?;
    check_header(&doc, SCHEMA_VERSION, suite)?;
    for &(key, kind, _) in keys {
        match kind {
            Hex => req_hex_u64(&doc, key)?,
            Counter => {
                counter(&doc, key)?;
            }
            Bool => {
                req_bool(&doc, key)?;
            }
        }
    }
    Ok(doc)
}

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
    let mut s = render_rows(SUITE, CHAOS_KEYS, out);
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
/// every key present with its kind, the audit and lockstep verdicts
/// green, the campaign drained, and a sane (monotone, `[0, 1]`-bounded)
/// SLO CDF. This is the gate `scripts/verify.sh` runs against the smoke
/// report.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate(text: &str) -> Result<(), String> {
    let doc = check_rows(text, SUITE, CHAOS_KEYS)?;
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

/// Serializes a storm campaign outcome as `BENCH_serving.json`: the
/// artifact form of the fail-closed proof, with every `*_accepted` attack
/// counter emitted (and pinned to zero by [`validate_serving`]).
///
/// # Panics
///
/// Panics when the outcome carries no storm (the campaign was run without
/// `ChaosConfig::storm`) — a serving report without a storm is meaningless.
pub fn render_serving_report(out: &ChaosOutcome) -> String {
    let mut s = render_rows(SERVING_SUITE, SERVING_KEYS, out);
    push_slo_cdf(&mut s, "tick_bound", &storm(out).slo_cdf);
    s.push_str("}\n");
    s
}

/// Validates a `BENCH_serving.json` document: schema and suite, every
/// key present with its kind, **every accepted-attack counter exactly
/// zero**, green audit/lockstep verdicts, a drained campaign, consistent
/// handshake accounting, ordered percentiles, and a sane SLO CDF.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_serving(text: &str) -> Result<(), String> {
    let doc = check_rows(text, SERVING_SUITE, SERVING_KEYS)?;
    // The fail-closed verdict: the facade must not have served a single
    // attack — before readiness, stale, replayed, duplicated, or forged.
    for key in MUST_BE_ZERO {
        let v = counter(&doc, key)?;
        if v != 0.0 {
            return Err(format!(
                "{key} = {v}: the facade served an attack (fail-closed violated)"
            ));
        }
    }
    check_verdicts(&doc)?;
    // Handshake accounting: completions never exceed attempts, and the
    // storm must actually have attested something.
    let attempted = counter(&doc, "handshakes_attempted")?;
    let completed = counter(&doc, "handshakes_completed")?;
    if completed > attempted {
        return Err(format!(
            "handshakes_completed {completed} > handshakes_attempted {attempted}"
        ));
    }
    if completed == 0.0 {
        return Err("handshakes_completed is zero: the storm never attested".to_string());
    }
    if counter(&doc, "pre_ready_attempts")? == 0.0 {
        return Err("pre_ready_attempts is zero: fail-closed startup untested".to_string());
    }
    if counter(&doc, "handshake_p99_ticks")? < counter(&doc, "handshake_p50_ticks")? {
        return Err("handshake p99 < p50".to_string());
    }
    check_slo_cdf(&doc, "tick_bound")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run, ChaosConfig};
    use crate::sharded::{run_sharded, ShardedChaosConfig};
    use crate::storm::StormConfig;
    use crate::traffic::TrafficConfig;

    fn tiny_config() -> ChaosConfig {
        ChaosConfig {
            seed: 0x7e57,
            label: "tiny",
            traffic: TrafficConfig {
                sessions: 10,
                mean_interarrival_ticks: 4.0,
                burst_pm: 100,
                burst_size_max: 2,
                max_live: 8,
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
        }
    }

    fn tiny_outcome() -> ChaosOutcome {
        run(&tiny_config())
    }

    fn tiny_serving_outcome() -> ChaosOutcome {
        let mut cfg = ChaosConfig::serving_smoke(0x5e71);
        cfg.traffic.sessions = 24;
        cfg.scripted_crashes = 1;
        cfg.migrations = 0;
        cfg.lockstep_rounds = 0;
        cfg.storm = Some(StormConfig {
            clients: 4,
            handshakes_per_client: 2,
            calls_per_handshake: 2,
            ..StormConfig::smoke()
        });
        run(&cfg)
    }

    /// Drops each top-level scalar key of `text` in turn (multi-line
    /// sections such as `slo_cdf` and `sharding` have their own checks)
    /// and insists `validate` names the missing key. Returns how many keys
    /// were dropped.
    fn assert_every_key_required(text: &str, validate: fn(&str) -> Result<(), String>) -> usize {
        let mut dropped = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("  \"") else {
                continue;
            };
            let (key, value) = rest.split_once("\": ").expect("a key line");
            if value.ends_with('[') || value.ends_with('{') {
                continue;
            }
            let broken = text.replacen(&format!("{line}\n"), "", 1);
            let err =
                validate(&broken).expect_err(&format!("report without '{key}' must be rejected"));
            assert!(err.contains(key), "dropping '{key}' gave: {err}");
            dropped += 1;
        }
        dropped
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
        // Every emitted key is required: the header, every table row.
        let keys = assert_every_key_required(&text, validate);
        assert_eq!(keys, 3 + CHAOS_KEYS.len());
        let sharded = run_sharded(&ShardedChaosConfig {
            base: tiny_config(),
            shards: 2,
            threads: 1,
        });
        let text = render_sharded_report(&sharded);
        validate(&text).expect("fresh sharded report must validate");
        assert_eq!(assert_every_key_required(&text, validate), keys);
    }

    #[test]
    fn serving_report_round_trips_the_validator() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        validate_serving(&text).expect("fresh serving report must validate");
    }

    #[test]
    fn serving_validator_rejects_accepted_attacks() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        for key in MUST_BE_ZERO {
            let broken = text.replace(&format!("\"{key}\": 0,"), &format!("\"{key}\": 1,"));
            let err = validate_serving(&broken).unwrap_err();
            assert!(err.contains(key), "want {key} in error, got: {err}");
            assert!(err.contains("fail-closed"), "got: {err}");
        }
    }

    #[test]
    fn serving_validator_rejects_wrong_suite_and_missing_counter() {
        let out = tiny_serving_outcome();
        let text = render_serving_report(&out);
        let broken = text.replace("\"suite\": \"hypertee-serving\"", "\"suite\": \"nope\"");
        assert!(validate_serving(&broken).unwrap_err().contains("suite"));
        let broken = text.replace("  \"reattestations\":", "  \"reattestations_zzz\":");
        assert!(validate_serving(&broken)
            .unwrap_err()
            .contains("reattestations"));
        let keys = assert_every_key_required(&text, validate_serving);
        assert_eq!(keys, 3 + SERVING_KEYS.len());
    }
}
