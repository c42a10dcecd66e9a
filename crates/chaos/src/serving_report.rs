//! `BENCH_serving.json`: schema-stable serialization of an attestation-storm
//! campaign, plus the validator `scripts/verify.sh` gates on.
//!
//! The report is the artifact form of the fail-closed proof: every
//! `*_accepted` attack counter is emitted **and pinned to zero by the
//! validator**, alongside handshake latency percentiles, breaker
//! transitions, and the storm SLO CDF. Emitter and validator share the
//! hand-rolled JSON helpers in `hypertee_bench::report`.

use hypertee_bench::report::{
    check_header, check_slo_cdf, check_verdicts, parse_json, push_header, push_kv_bool,
    push_kv_hex, push_kv_u64, push_slo_cdf, req_counter as counter, req_hex_u64,
};

use crate::campaign::ChaosOutcome;

/// Version of the emitted JSON schema.
pub const SCHEMA_VERSION: u64 = 1;

/// Suite identifier baked into every report.
pub const SUITE: &str = "hypertee-serving";

/// Counter keys every report must carry (finite non-negative numbers).
const REQUIRED_COUNTERS: [&str; 30] = [
    "clients",
    "handshakes_attempted",
    "handshakes_completed",
    "handshake_retries",
    "calls_attempted",
    "calls_ok",
    "reattestations",
    "pre_ready_attempts",
    "pre_ready_accepted",
    "stale_quote_attempts",
    "stale_quote_accepted",
    "replay_attempts",
    "replay_accepted",
    "duplicate_attempts",
    "duplicate_accepted",
    "forged_token_attempts",
    "forged_token_accepted",
    "breaker_to_open",
    "breaker_to_half_open",
    "breaker_to_closed",
    "breaker_shed",
    "reprobes",
    "sessions_revoked",
    "not_ready_rejects",
    "stale_challenge_rejects",
    "service_faults_injected",
    "handshake_p50_ticks",
    "handshake_p99_ticks",
    "crash_restarts",
    "fleet_requests",
];

/// Accepted-attack counters the validator pins to zero: any non-zero value
/// means the facade served an attack and the artifact is rejected.
const MUST_BE_ZERO: [&str; 5] = [
    "pre_ready_accepted",
    "stale_quote_accepted",
    "replay_accepted",
    "duplicate_accepted",
    "forged_token_accepted",
];

/// Serializes a storm campaign outcome as `BENCH_serving.json`.
///
/// # Panics
///
/// Panics when the outcome carries no storm (the campaign was run without
/// `ChaosConfig::storm`) — a serving report without a storm is meaningless.
pub fn render_serving_report(out: &ChaosOutcome) -> String {
    let storm = out
        .storm
        .as_ref()
        .expect("serving report requires a storm campaign outcome");
    let mut s = String::new();
    push_header(&mut s, SCHEMA_VERSION, SUITE, out.label);
    s.push_str(",\n");
    push_kv_hex(&mut s, "seed", out.seed);
    push_kv_hex(&mut s, "trace_hash", out.trace_hash);
    push_kv_u64(&mut s, "clients", storm.clients as u64);
    push_kv_u64(&mut s, "handshakes_attempted", storm.handshakes_attempted);
    push_kv_u64(&mut s, "handshakes_completed", storm.handshakes_completed);
    push_kv_u64(&mut s, "handshake_retries", storm.handshake_retries);
    push_kv_u64(&mut s, "calls_attempted", storm.calls_attempted);
    push_kv_u64(&mut s, "calls_ok", storm.calls_ok);
    push_kv_u64(&mut s, "reattestations", storm.reattestations);
    push_kv_u64(&mut s, "pre_ready_attempts", storm.pre_ready_attempts);
    push_kv_u64(&mut s, "pre_ready_accepted", storm.pre_ready_accepted);
    push_kv_u64(&mut s, "stale_quote_attempts", storm.stale_quote_attempts);
    push_kv_u64(&mut s, "stale_quote_accepted", storm.stale_quote_accepted);
    push_kv_u64(&mut s, "replay_attempts", storm.replay_attempts);
    push_kv_u64(&mut s, "replay_accepted", storm.replay_accepted);
    push_kv_u64(&mut s, "duplicate_attempts", storm.duplicate_attempts);
    push_kv_u64(&mut s, "duplicate_accepted", storm.duplicate_accepted);
    push_kv_u64(&mut s, "forged_token_attempts", storm.forged_token_attempts);
    push_kv_u64(&mut s, "forged_token_accepted", storm.forged_token_accepted);
    push_kv_u64(&mut s, "breaker_to_open", storm.breaker_to_open);
    push_kv_u64(&mut s, "breaker_to_half_open", storm.breaker_to_half_open);
    push_kv_u64(&mut s, "breaker_to_closed", storm.breaker_to_closed);
    push_kv_u64(&mut s, "breaker_shed", storm.breaker_shed);
    push_kv_u64(&mut s, "reprobes", storm.reprobes);
    push_kv_u64(&mut s, "sessions_revoked", storm.sessions_revoked);
    push_kv_u64(&mut s, "not_ready_rejects", storm.not_ready_rejects);
    push_kv_u64(
        &mut s,
        "stale_challenge_rejects",
        storm.stale_challenge_rejects,
    );
    push_kv_u64(&mut s, "epoch_rejects", storm.epoch_rejects);
    push_kv_u64(&mut s, "expired_token_rejects", storm.expired_token_rejects);
    push_kv_u64(
        &mut s,
        "service_faults_injected",
        storm.service_faults_injected,
    );
    push_kv_u64(&mut s, "handshake_p50_ticks", storm.handshake_p50_ticks);
    push_kv_u64(&mut s, "handshake_p99_ticks", storm.handshake_p99_ticks);
    // Campaign context the storm rode through.
    push_kv_u64(&mut s, "crash_restarts", out.crash_restarts);
    push_kv_u64(
        &mut s,
        "migrations_completed",
        u64::from(out.migrations_completed),
    );
    push_kv_u64(&mut s, "fleet_requests", out.requests);
    push_kv_u64(&mut s, "reclaimed_enclaves", out.reclaimed_enclaves);
    push_kv_bool(&mut s, "audit_ok", out.audit_ok);
    push_kv_bool(&mut s, "lockstep_ok", out.lockstep_ok);
    push_kv_bool(&mut s, "stalled", out.stalled);
    push_slo_cdf(&mut s, "tick_bound", &storm.slo_cdf);
    s.push_str("}\n");
    s
}

/// Validates a `BENCH_serving.json` document: schema and suite, every
/// counter present, **every accepted-attack counter exactly zero**, green
/// audit/lockstep verdicts, a drained campaign, consistent handshake
/// accounting, ordered percentiles, and a sane SLO CDF.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_serving(text: &str) -> Result<(), String> {
    let doc = parse_json(text)?;
    check_header(&doc, SCHEMA_VERSION, SUITE)?;
    for key in ["seed", "trace_hash"] {
        req_hex_u64(&doc, key)?;
    }
    for key in REQUIRED_COUNTERS {
        counter(&doc, key)?;
    }
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
    use crate::storm::StormConfig;

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
    }
}
