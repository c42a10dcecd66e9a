//! Runs a workload for a time budget and turns its rounds into metrics.

use crate::host::Host;
use crate::metrics::{self, LayerInputs, END_TO_END, ROUND_SPAN, SETUP_SPAN, SIMULATED};
use crate::stats;
use crate::trace::{self, Counters, Span, Tracer};
use crate::workloads::{Round, Workload};
use hypertee_bench::report::push_json_str;
use std::time::Instant;

/// Set-ups timed before the first round; the last one feeds it.
pub const SETUP_REPS: usize = 5;

/// Everything one run measured.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Seed of round 0 (round `r` runs on `seed + r`).
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Rounds run.
    pub rounds: u32,
    /// Rounds the simulated metrics come from.
    pub sim_rounds: u32,
    /// Operations attempted over every round.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check; empty when the run is correct.
    pub errors: Vec<String>,
    /// Values of [`END_TO_END`], in order.
    pub end_to_end: Vec<f64>,
    /// Values of [`SIMULATED`], in order (`None` where the workload does
    /// not define the metric).
    pub simulated: Vec<Option<f64>>,
    /// Samples behind the simulated latency percentiles.
    pub sim_latency_samples: usize,
    /// Values of [`metrics::per_layer`], in order (traced runs only).
    pub per_layer: Vec<f64>,
    /// Each set-up's host time, in s.
    pub setup_samples: Vec<f64>,
    /// Each untraced round's rate, in op/s.
    pub round_rates: Vec<f64>,
    /// The recorded spans (traced runs only).
    pub spans: Vec<Span>,
}

/// Sets up `w` [`SETUP_REPS`] times, then runs rounds, each after round 0
/// on a fresh set-up, until the fixed rounds are done and `seconds` have
/// passed. Every set-up is timed: spread over the whole run, they sample
/// the host's slow and fast phases alike. Traced runs trace every set-up
/// and every odd round.
pub fn measure<W: Workload>(
    name: &'static str,
    w: &W,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Report {
    let mut tr = Tracer::new(trace);
    let mut setup_samples = Vec::new();
    let mut setup = |tr: &mut Tracer, seed: u64| {
        let open = tr.begin();
        let t = Instant::now();
        let state = w.setup(seed, tr);
        setup_samples.push(t.elapsed().as_secs_f64());
        tr.end(SETUP_SPAN, open);
        state
    };

    let mut first = None;
    for _ in 0..SETUP_REPS {
        first = Some(setup(&mut tr, seed));
    }

    let sim_rounds = w.min_rounds();
    // A traced run needs an untraced and a traced round at least.
    let min_rounds = sim_rounds.max(1 + u32::from(trace));
    let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut counters = Counters::default();
    let mut errors = Vec::new();
    let (mut attempted, mut failed, mut refused) = (0u64, 0u64, 0u64);
    let mut sim = SimTotals::default();
    let mut peak_rss_mb = None;
    let start = Instant::now();
    let mut r = 0u32;
    while r < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let round_seed = seed.wrapping_add(u64::from(r));
        tr.set_round(r);
        tr.set_enabled(trace);
        let mut state = match first.take() {
            Some(state) => state,
            None => setup(&mut tr, round_seed),
        };
        let traced = trace && r % 2 == 1;
        tr.set_enabled(traced);
        let open = tr.begin();
        let t = Instant::now();
        let round = w.round(&mut state, round_seed, &mut tr);
        let wall = t.elapsed().as_secs_f64();
        tr.end(ROUND_SPAN, open);
        drop(state);

        rates[usize::from(traced)].push(round.ops as f64 / wall);
        attempted += round.ops;
        failed += round.failed;
        refused += round.refused;
        errors.extend(round.errors.iter().map(|e| format!("round {r}: {e}")));
        r += 1;
        // Peak memory is read once the set-ups and the first round are done:
        // later rounds only add heap fragmentation from dropped machines.
        if r == 1 {
            peak_rss_mb = read_peak_rss_mb();
        }
        // Simulated metrics and counters cover the fixed rounds only, so
        // they repeat exactly for a seed however many rounds the host
        // manages in the time.
        if r <= sim_rounds {
            sim.add(&round);
            counters.merge(round.counters);
        }
    }

    if attempted == 0 {
        errors.push("no operations attempted".into());
    } else if refused as f64 / attempted as f64 > w.max_refused() {
        errors.push(format!(
            "{refused} of {attempted} operations refused, above the workload's limit of {}",
            w.max_refused()
        ));
    }
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(|| {
        errors.push("cannot read VmHWM from /proc/self/status".into());
        0.0
    });
    let median = stats::median(&setup_samples).unwrap_or(0.0);
    let end_to_end = vec![median, rate(&rates[0]), peak_rss_mb];
    for ((metric, _), v) in END_TO_END.iter().zip(&end_to_end) {
        if !(v.is_finite() && *v > 0.0) {
            errors.push(format!("{metric} = {v} is not a positive number"));
        }
    }

    let per_layer = if trace {
        let spans = tr.spans();
        let self_ns = trace::self_times(spans);
        let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as u32;
        let traced_round_ns = spans
            .iter()
            .filter(|s| s.name == ROUND_SPAN)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        metrics::per_layer_values(&LayerInputs {
            self_ns: &self_ns,
            traced_rounds: count(ROUND_SPAN),
            traced_round_ns,
            traced_setups: count(SETUP_SPAN),
            counters: &counters,
            rounds: sim_rounds,
            trace_overhead: 1.0 - rate(&rates[1]) / rate(&rates[0]),
        })
    } else {
        Vec::new()
    };

    let latencies: Vec<u64> = w
        .latency_samples()
        .iter()
        .flat_map(|name| counters.samples(name).iter().copied())
        .collect();
    Report {
        workload: name,
        seed,
        traced: trace,
        rounds: r,
        sim_rounds,
        attempted,
        failed,
        errors,
        end_to_end,
        simulated: sim.values(&latencies),
        sim_latency_samples: latencies.len(),
        per_layer,
        setup_samples,
        round_rates: std::mem::take(&mut rates[0]),
        spans: tr.into_spans(),
    }
}

/// Simulated outcomes summed over the fixed rounds.
#[derive(Debug)]
struct SimTotals {
    ops: u64,
    refused: u64,
    /// Summed final clocks; `None` once a round reported no clock.
    clock: Option<u64>,
    guest: Option<(u64, u64)>,
}

impl Default for SimTotals {
    fn default() -> Self {
        SimTotals {
            ops: 0,
            refused: 0,
            clock: Some(0),
            guest: None,
        }
    }
}

impl SimTotals {
    fn add(&mut self, round: &Round) {
        self.ops += round.ops;
        self.refused += round.refused;
        self.clock = self.clock.zip(round.sim_cycles).map(|(a, b)| a + b);
        if let Some((retired, cycles)) = round.guest {
            let (r, c) = self.guest.unwrap_or((0, 0));
            self.guest = Some((r + retired, c + cycles));
        }
    }

    /// Values of [`SIMULATED`], in order, given the sampled op latencies.
    fn values(&self, latencies: &[u64]) -> Vec<Option<f64>> {
        let pct = |p: f64| {
            stats::tail_supported(latencies.len(), p)
                .then(|| stats::percentile(latencies, p))
                .flatten()
                .map(|v| v as f64 / 1e3)
        };
        vec![
            pct(50.0),
            pct(99.0),
            self.clock.map(|c| c as f64 / 1e6),
            self.guest
                .filter(|&(_, c)| c > 0)
                .map(|(r, c)| r as f64 / c as f64),
            (self.ops > 0).then(|| self.refused as f64 / self.ops as f64),
        ]
    }
}

/// The rate a run reports from its round rates: the upper quartile.
/// Other work on the host only ever slows a round down, so the faster
/// rounds estimate the simulator's own speed with less run-to-run spread
/// than the median does.
fn rate(round_rates: &[f64]) -> f64 {
    stats::quartiles(round_rates).map_or(0.0, |(_, _, q3)| q3)
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn read_peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

impl Report {
    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The metrics the result line carries: every end-to-end metric, or
    /// every per-layer metric for a traced run.
    pub fn result_metrics(&self) -> Vec<(String, &'static str, f64)> {
        if self.traced {
            metrics::per_layer()
                .into_iter()
                .zip(&self.per_layer)
                .map(|((n, u), v)| (n, u, *v))
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(&self.end_to_end)
                .map(|((n, u), v)| (n.to_string(), *u, *v))
                .collect()
        }
    }

    /// The one-line JSON result.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        let entries: Vec<String> = self
            .result_metrics()
            .iter()
            .map(|(n, u, v)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", num(*v)))
            .collect();
        out.push_str(&entries.join(", "));
        out.push_str("}}");
        out
    }

    /// Every metric by name and unit, one per line.
    pub fn lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "workload {}: seed {} ({:#x}), {} rounds, simulated metrics from rounds 0..{}",
            self.workload, self.seed, self.seed, self.rounds, self.sim_rounds
        )];
        let (setup_min, setup_max) = min_max(&self.setup_samples);
        let (q1, q2, _) = stats::quartiles(&self.round_rates).unwrap_or_default();
        let notes = [
            format!(
                "median of {} set-ups, range {setup_min} .. {setup_max}",
                self.setup_samples.len()
            ),
            format!(
                "upper quartile of {} untraced rounds; lower quartile {q1}, median {q2}",
                self.round_rates.len()
            ),
            "VmHWM after the set-ups and round 0".to_string(),
        ];
        for (((name, unit), v), note) in END_TO_END.iter().zip(&self.end_to_end).zip(notes) {
            out.push(format!("{name} = {v} {unit} ({note})"));
        }
        for ((name, unit), v) in SIMULATED.iter().zip(&self.simulated) {
            out.push(match (v, name.starts_with("sim_p")) {
                (Some(v), true) => {
                    format!("{name} = {v} {unit} (n = {})", self.sim_latency_samples)
                }
                (Some(v), false) => format!("{name} = {v} {unit}"),
                (None, _) => format!("{name} = n/a {unit} (not defined for this workload)"),
            });
        }
        if self.traced {
            for (name, unit, v) in self.result_metrics() {
                out.push(format!("{name} = {v} {unit}"));
            }
        }
        out
    }

    /// The full result as a JSON document: seed, rounds, host facts, and
    /// every metric with its unit (`null` where undefined).
    pub fn to_json(&self, host: &Host) -> String {
        let mut metrics: Vec<(String, &str, Option<f64>)> = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|((n, u), v)| (n.to_string(), *u, Some(*v)))
            .chain(
                SIMULATED
                    .iter()
                    .zip(&self.simulated)
                    .map(|((n, u), v)| (n.to_string(), *u, *v)),
            )
            .collect();
        if self.traced {
            metrics.extend(
                self.result_metrics()
                    .into_iter()
                    .map(|(n, u, v)| (n, u, Some(v))),
            );
        }
        let mut out = String::from("{\n  \"workload\": ");
        push_json_str(&mut out, self.workload);
        out.push_str(&format!(
            ",\n  \"seed\": {},\n  \"traced\": {},\n  \"rounds\": {},\n  \"sim_rounds\": {},\n  \"sim_latency_samples\": {},\n",
            self.seed, self.traced, self.rounds, self.sim_rounds, self.sim_latency_samples
        ));
        out.push_str(&format!("  \"host\": {},\n", host.to_json()));
        out.push_str(&format!(
            "  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"errors\": [",
            self.correct(),
            self.attempted,
            self.failed
        ));
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            push_json_str(&mut out, e);
        }
        out.push_str("],\n  \"setup_s_samples\": [");
        out.push_str(&join(&self.setup_samples));
        out.push_str("],\n  \"ops_per_s_rounds\": [");
        out.push_str(&join(&self.round_rates));
        out.push_str("],\n  \"metrics\": {\n");
        let entries: Vec<String> = metrics
            .iter()
            .map(|(n, u, v)| {
                let v = v.map_or("null".to_string(), num);
                format!("    \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        out.push_str(&entries.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }
}

/// A JSON number with every digit of the measurement (`null` if not finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn join(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| num(*v))
        .collect::<Vec<_>>()
        .join(", ")
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}
