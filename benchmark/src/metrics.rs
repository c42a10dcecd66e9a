//! Every metric the benchmark prints: names, units, and how the per-layer
//! values are derived from the trace and the counters. `BENCHMARK.json`
//! declares the same names and units; a test keeps the two in step.

use crate::stats;
use crate::trace::Counters;
use std::collections::BTreeMap;

/// End-to-end metrics a user of the simulator sees, measured untraced.
/// `BENCHMARK.json` fixes a regression bound for each.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("peak_rss_mb", "MB"),
];

/// Simulated end-to-end metrics: deterministic for a seed, printed where the
/// workload defines them. `BENCHMARK.json` does not declare them, because
/// none of them is defined and non-zero on every workload (see the README).
pub const SIMULATED: [(&str, &str); 5] = [
    ("sim_p50_kcycles", "kcycles"),
    ("sim_p99_kcycles", "kcycles"),
    ("sim_makespan_mcycles", "Mcycles"),
    ("sim_ipc", "instr/cycle"),
    ("fail_ratio", "ratio"),
];

/// Layers whose calls happen inside timed rounds. Each yields `<name>.ms`
/// (host self time per round) and `<name>.share` (its share of round wall
/// time).
pub const ROUND_LAYERS: [&str; 14] = [
    "chaos.run",
    "core.pump",
    "core.submit",
    "core.drain",
    "core.audit",
    "core.exec",
    "core.crash_restart",
    "service.challenge",
    "service.attest",
    "service.call",
    "service.supervise",
    "service.client_mac",
    "ems.sigma_start",
    "ems.sigma_finish",
];

/// Span around a whole round; its self time is the benchmark loop's own.
pub const ROUND_SPAN: &str = "bench.round";
/// Span around one set-up.
pub const SETUP_SPAN: &str = "bench.setup";

/// Layers whose calls happen while setting up. Each yields `<name>.ms`, host
/// self time per set-up.
pub const SETUP_LAYERS: [&str; 3] = ["core.boot", "core.sdk", "service.probe"];

/// How a counter becomes a per-layer value.
#[derive(Debug, Clone, Copy)]
enum Derive {
    /// The summed counter of the same name, per round.
    PerRound,
    /// A summed counter per round, times a scale.
    Scaled(&'static str, f64),
    /// The high-water mark of the same name.
    High,
    /// One summed counter over another (0 when the second is 0).
    Ratio(&'static str, &'static str),
    /// A percentile of a latency distribution, in kcycles.
    Kcycles(&'static str, f64),
}

use Derive::{High, Kcycles, PerRound, Ratio, Scaled};

const MIB: f64 = 1.0 / (1024.0 * 1024.0);

/// Per-layer counters, read from the crates' public stats.
const COUNTERS: [(&str, &str, Derive); 52] = [
    ("core.pipeline.rounds", "1/round", PerRound),
    ("core.pipeline.retries", "1/round", PerRound),
    ("core.pipeline.timeouts", "1/round", PerRound),
    ("core.pipeline.shed", "1/round", PerRound),
    ("core.pipeline.expired", "1/round", PerRound),
    ("core.pipeline.in_flight_hwm", "count", High),
    ("core.pipeline.queue_depth_hwm", "count", High),
    ("fabric.mailbox.requests", "1/round", PerRound),
    ("fabric.mailbox.responses", "1/round", PerRound),
    ("fabric.mailbox.empty_polls", "1/round", PerRound),
    ("fabric.mailbox.lost", "1/round", PerRound),
    (
        "fabric.mailbox.delivered_ratio",
        "ratio",
        Ratio("fabric.mailbox.responses", "fabric.mailbox.requests"),
    ),
    ("emcall.forwarded", "1/round", PerRound),
    ("emcall.polls", "1/round", PerRound),
    ("emcall.resubmissions", "1/round", PerRound),
    ("emcall.tlb_flushes", "1/round", PerRound),
    ("emcall.context_switches", "1/round", PerRound),
    (
        "mem.mktme.enc_mb",
        "MB/round",
        Scaled("mem.mktme.enc_bytes", MIB),
    ),
    (
        "mem.mktme.dec_mb",
        "MB/round",
        Scaled("mem.mktme.dec_bytes", MIB),
    ),
    ("mem.mktme.mac_checks", "1/round", PerRound),
    (
        "mem.mktme.full_line_ratio",
        "ratio",
        Ratio("mem.mktme.full_line_bytes", "mem.mktme.enc_bytes"),
    ),
    ("ems.served", "1/round", PerRound),
    ("ems.sanity_rejects", "1/round", PerRound),
    ("ems.privilege_rejects", "1/round", PerRound),
    ("ems.crash_restarts", "1/round", PerRound),
    ("ems.core_skew", "ratio", PerRound),
    (
        "core.lat.ealloc.p50_kcycles",
        "kcycles",
        Kcycles("core.lat.ealloc", 50.0),
    ),
    (
        "core.lat.ealloc.p99_kcycles",
        "kcycles",
        Kcycles("core.lat.ealloc", 99.0),
    ),
    (
        "core.lat.efree.p50_kcycles",
        "kcycles",
        Kcycles("core.lat.efree", 50.0),
    ),
    (
        "core.lat.efree.p99_kcycles",
        "kcycles",
        Kcycles("core.lat.efree", 99.0),
    ),
    ("service.handshakes_ok", "1/round", PerRound),
    ("service.calls_ok", "1/round", PerRound),
    ("service.reprobes", "1/round", PerRound),
    ("service.sessions_revoked", "1/round", PerRound),
    ("service.rejects", "1/round", PerRound),
    ("cpu.retired", "1/round", PerRound),
    (
        "cpu.dicache.hit_ratio",
        "ratio",
        Ratio("cpu.dicache.hits", "cpu.dicache.lookups"),
    ),
    ("cpu.dicache.invalidations", "1/round", PerRound),
    (
        "mem.tlb.hit_ratio",
        "ratio",
        Ratio("mem.tlb.hits", "mem.tlb.lookups"),
    ),
    ("mem.tlb.misses", "1/round", PerRound),
    (
        "mem.walkcache.hit_ratio",
        "ratio",
        Ratio("mem.walkcache.hits", "mem.walkcache.lookups"),
    ),
    ("chaos.requests", "1/round", PerRound),
    ("chaos.retries", "1/round", PerRound),
    ("chaos.recovered", "1/round", PerRound),
    ("chaos.shed", "1/round", PerRound),
    ("chaos.expired", "1/round", PerRound),
    ("chaos.crash_restarts", "1/round", PerRound),
    ("chaos.faults_injected", "1/round", PerRound),
    ("chaos.audits", "1/round", PerRound),
    ("chaos.queue_depth_hwm", "count", High),
    ("faults.injected", "1/round", PerRound),
    ("faults.kinds", "count", High),
];

/// Residual share of round wall time outside every layer span.
pub const DRIVER_SHARE: &str = "bench.driver.share";
/// 1 - traced ops_per_s / untraced ops_per_s, from the same run.
pub const TRACE_OVERHEAD: &str = "trace.overhead";

/// Every per-layer metric `(name, unit)`, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for layer in ROUND_LAYERS {
        out.push((format!("{layer}.ms"), "ms"));
        out.push((format!("{layer}.share"), "ratio"));
    }
    out.push((DRIVER_SHARE.to_string(), "ratio"));
    for layer in SETUP_LAYERS {
        out.push((format!("{layer}.ms"), "ms"));
    }
    for (name, unit, _) in COUNTERS {
        out.push((name.to_string(), unit));
    }
    out.push((TRACE_OVERHEAD.to_string(), "ratio"));
    out
}

/// What a traced run measured, from which the per-layer values follow.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Self time per span name, in ns, over every traced span.
    pub self_ns: &'a BTreeMap<&'static str, u64>,
    /// Traced rounds.
    pub traced_rounds: u32,
    /// Summed wall time of the traced rounds, in ns.
    pub traced_round_ns: u64,
    /// Traced set-ups.
    pub traced_setups: u32,
    /// Counters summed over every round.
    pub counters: &'a Counters,
    /// Rounds the counters cover.
    pub rounds: u32,
    /// The measured tracing overhead.
    pub trace_overhead: f64,
}

/// The per-layer values, in the order of [`per_layer`].
pub fn per_layer_values(x: &LayerInputs<'_>) -> Vec<f64> {
    let per = |total: f64, n: u32| if n == 0 { 0.0 } else { total / f64::from(n) };
    let self_ns = |name: &str| x.self_ns.get(name).copied().unwrap_or(0) as f64;
    let share = |name: &str| {
        if x.traced_round_ns == 0 {
            0.0
        } else {
            self_ns(name) / x.traced_round_ns as f64
        }
    };
    let mut out = Vec::new();
    for layer in ROUND_LAYERS {
        out.push(per(self_ns(layer), x.traced_rounds) / 1e6);
        out.push(share(layer));
    }
    out.push(share(ROUND_SPAN));
    for layer in SETUP_LAYERS {
        out.push(per(self_ns(layer), x.traced_setups) / 1e6);
    }
    let c = x.counters;
    for (name, _, derive) in COUNTERS {
        out.push(match derive {
            PerRound => per(c.sum(name), x.rounds),
            Scaled(key, scale) => per(c.sum(key), x.rounds) * scale,
            High => c.high(name),
            Ratio(num, den) => {
                let d = c.sum(den);
                if d == 0.0 {
                    0.0
                } else {
                    c.sum(num) / d
                }
            }
            Kcycles(key, p) => stats::percentile(c.samples(key), p).map_or(0.0, |v| v as f64 / 1e3),
        });
    }
    out.push(x.trace_overhead);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END
            .iter()
            .chain(&SIMULATED)
            .map(|(n, _)| n.to_string())
            .collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let unique: std::collections::BTreeSet<&String> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "duplicate metric name");
        for n in &names {
            assert!(
                !n.is_empty()
                    && n.len() <= 64
                    && n.bytes().next().is_some_and(|b| b.is_ascii_alphanumeric())
                    && n.bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "bad metric name '{n}'"
            );
        }
        assert!(per_layer().len() <= 128);
    }

    #[test]
    fn round_and_setup_layers_are_disjoint() {
        for l in SETUP_LAYERS {
            assert!(!ROUND_LAYERS.contains(&l));
        }
    }

    #[test]
    fn derived_values_follow_their_rules() {
        let mut c = Counters::default();
        c.add("core.pipeline.rounds", 30.0);
        c.add("mem.tlb.hits", 3.0);
        c.add("mem.tlb.lookups", 4.0);
        c.max("faults.kinds", 5.0);
        c.add("mem.mktme.enc_bytes", 3.0 * 1024.0 * 1024.0);
        for v in [1000, 2000, 3000] {
            c.sample("core.lat.ealloc", v);
        }
        let self_ns = BTreeMap::from([("core.pump", 4_000_000), ("bench.round", 1_000_000)]);
        let x = LayerInputs {
            self_ns: &self_ns,
            traced_rounds: 2,
            traced_round_ns: 10_000_000,
            traced_setups: 0,
            counters: &c,
            rounds: 3,
            trace_overhead: 0.01,
        };
        let values: BTreeMap<String, f64> = per_layer()
            .into_iter()
            .map(|(n, _)| n)
            .zip(per_layer_values(&x))
            .collect();
        assert_eq!(values.len(), per_layer().len());
        assert_eq!(values["core.pump.ms"], 2.0);
        assert_eq!(values["core.pump.share"], 0.4);
        assert_eq!(values[DRIVER_SHARE], 0.1);
        assert_eq!(values["core.boot.ms"], 0.0);
        assert_eq!(values["core.pipeline.rounds"], 10.0);
        assert_eq!(values["mem.tlb.hit_ratio"], 0.75);
        assert_eq!(values["mem.walkcache.hit_ratio"], 0.0);
        assert_eq!(values["faults.kinds"], 5.0);
        assert_eq!(values["mem.mktme.enc_mb"], 1.0);
        assert_eq!(values["core.lat.ealloc.p50_kcycles"], 2.0);
        assert_eq!(values[TRACE_OVERHEAD], 0.01);
    }
}
