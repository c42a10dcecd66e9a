//! Every workload at a tiny size with its checks on, and the printed metric
//! names against the ones `BENCHMARK.json` declares.

use hypertee_bench::report::{parse_json, Json};
use hypertee_benchmark::metrics::{self, END_TO_END};
use hypertee_benchmark::runner::{measure, Report};
use hypertee_benchmark::workloads::alloc::{AllocChurn, Ealloc2m};
use hypertee_benchmark::workloads::attest_storm::AttestStorm;
use hypertee_benchmark::workloads::chaos_fleet::{campaign_seed, ChaosFleet, COMMITTED_SEED};
use hypertee_benchmark::workloads::enclave_compute::EnclaveCompute;
use hypertee_benchmark::{trace, WORKLOADS};
use hypertee_chaos::ChaosConfig;

/// Runs `f` untraced and traced and checks both runs pass.
fn both_modes(f: impl Fn(bool) -> Report) -> [Report; 2] {
    [false, true].map(|trace| {
        let r = f(trace);
        assert!(
            r.correct(),
            "{} (trace {trace}): {:?}",
            r.workload,
            r.errors
        );
        assert!(r.attempted > 0);
        assert_eq!(r.failed, 0);
        r
    })
}

fn tiny_chaos(trace: bool) -> Report {
    let w = ChaosFleet {
        campaign: ChaosConfig::smoke,
        rounds: 1,
    };
    measure("chaos_fleet", &w, 7, 0.0, trace)
}

fn tiny_alloc_churn(trace: bool) -> Report {
    let w = AllocChurn {
        harts: 2,
        depth: 8,
        pairs: 10,
        rounds: 1,
    };
    measure("alloc_churn", &w, 7, 0.0, trace)
}

fn tiny_ealloc_2m(trace: bool) -> Report {
    let w = Ealloc2m {
        harts: 2,
        pairs: 2,
        rounds: 1,
    };
    measure("ealloc_2m", &w, 7, 0.0, trace)
}

fn tiny_attest_storm(trace: bool) -> Report {
    let w = AttestStorm {
        clients: 4,
        handshakes: 16,
        calls: 6,
        rounds: 1,
    };
    measure("attest_storm", &w, 7, 0.0, trace)
}

fn tiny_enclave_compute(trace: bool) -> Report {
    let w = EnclaveCompute {
        chase_nodes: 64,
        chase_hops: 1000,
        xor_records: 1,
        xor_passes: 2,
        rounds: 1,
    };
    measure("enclave_compute", &w, 7, 0.0, trace)
}

fn value(r: &Report, name: &str) -> Option<f64> {
    metrics::SIMULATED
        .iter()
        .position(|(n, _)| *n == name)
        .and_then(|i| r.simulated[i])
}

#[test]
fn chaos_fleet_passes_its_checks() {
    let [plain, traced] = both_modes(tiny_chaos);
    assert!(value(&plain, "sim_makespan_mcycles").is_some());
    assert_eq!(
        value(&plain, "sim_makespan_mcycles"),
        value(&traced, "sim_makespan_mcycles"),
        "tracing must not change the simulation"
    );
}

#[test]
fn committed_campaign_replays_its_trace_hash() {
    // Round seed 0 is the committed campaign: it checks the
    // BENCH_chaos.json trace hash.
    assert_eq!(campaign_seed(0), COMMITTED_SEED);
    let w = ChaosFleet {
        rounds: 1,
        ..ChaosFleet::default()
    };
    let r = measure("chaos_fleet", &w, 0, 0.0, false);
    assert!(r.correct(), "{:?}", r.errors);
}

#[test]
fn alloc_churn_passes_its_checks_under_faults() {
    let [plain, _] = both_modes(tiny_alloc_churn);
    assert!(value(&plain, "sim_p50_kcycles").is_some());
    assert!(value(&plain, "fail_ratio").is_some());
}

#[test]
fn ealloc_2m_passes_its_checks() {
    let [plain, traced] = both_modes(tiny_ealloc_2m);
    assert_eq!(value(&plain, "fail_ratio"), Some(0.0));
    assert_eq!(plain.simulated, traced.simulated);
}

#[test]
fn attest_storm_passes_its_checks_across_a_crash() {
    let [_, traced] = both_modes(tiny_attest_storm);
    let layers = metrics::per_layer();
    let at = |name: &str| {
        let i = layers.iter().position(|(n, _)| n == name).unwrap();
        traced.per_layer[i]
    };
    assert_eq!(at("service.reprobes"), 1.0, "one scripted crash per round");
    assert!(at("service.attest.ms") > 0.0);
}

#[test]
fn enclave_compute_passes_its_checks() {
    let [plain, _] = both_modes(tiny_enclave_compute);
    let ipc = value(&plain, "sim_ipc").unwrap();
    assert!(ipc > 0.0 && ipc <= 1.0, "{ipc}");
}

#[test]
fn spans_round_trip_as_json_lines() {
    let r = tiny_ealloc_2m(true);
    let path = format!("{}/spans.jsonl", env!("CARGO_TARGET_TMPDIR"));
    trace::write_jsonl(&r.spans, &path).expect("spans written");
    let text = std::fs::read_to_string(&path).expect("spans read back");
    let lines: Vec<Json> = text
        .lines()
        .map(|l| parse_json(l).expect("each span is one JSON object"))
        .collect();
    assert_eq!(lines.len(), r.spans.len());
    let names: Vec<&str> = lines
        .iter()
        .map(|s| s.get("name").and_then(Json::as_str).unwrap())
        .collect();
    for layer in [
        "bench.setup",
        "bench.round",
        "core.boot",
        "core.pump",
        "core.audit",
    ] {
        assert!(names.contains(&layer), "no {layer} span");
    }
    for s in &lines {
        let at = |k: &str| s.get(k).and_then(Json::as_num).unwrap();
        assert!(at("start_ns") <= at("end_ns"));
    }
}

#[test]
fn simulated_metrics_repeat_exactly_for_a_seed() {
    let a = tiny_alloc_churn(false);
    let b = tiny_alloc_churn(false);
    assert_eq!(a.simulated, b.simulated);
    assert_eq!(a.attempted, b.attempted);
}

/// `(name, unit)` pairs of one `BENCHMARK.json` list.
fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has no '{key}' list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `(name, unit)` pairs of a result line's metrics.
fn printed(r: &Report) -> Vec<(String, String)> {
    let line = parse_json(&r.result_json()).expect("result line is JSON");
    assert!(line.get("correct").is_some() && line.get("attempted").is_some());
    let Some(Json::Obj(metrics)) = line.get("metrics") else {
        panic!("result line has no metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_num).unwrap();
            assert!(v.is_finite(), "{name} = {v}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");

    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let [plain, traced] = both_modes(tiny_enclave_compute);
    assert_eq!(printed(&plain), end_to_end);
    assert_eq!(printed(&traced), per_layer);
    let registry: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(registry, end_to_end);

    let Some(Json::Arr(workloads)) = doc.get("workloads") else {
        panic!("BENCHMARK.json has no workloads");
    };
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, ours);

    let well_formed = |n: &str| {
        !n.is_empty()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    };
    for (n, _) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(n), "bad metric name '{n}'");
    }
    for n in names {
        assert!(well_formed(n), "bad workload name '{n}'");
    }
}
