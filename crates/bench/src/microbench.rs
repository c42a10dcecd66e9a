//! The one timer behind every timed `BENCH_perf.json` row.
//!
//! The workspace builds with no registry access, so `bench_report` cannot
//! use criterion. Every row prices an optimized path against its baseline
//! in the same run, and [`pair`] times the two arms **interleaved**:
//! opt-batch, base-batch, opt-batch, … On a virtualized host the
//! disturbance budget (frequency steps, steal time, cache pollution from
//! neighbours) drifts over seconds. Timing one arm to completion before
//! starting the other lets that drift land entirely on one arm and corrupt
//! the ratio; interleaving gives both arms the same exposure, so
//! thin-margin rows survive the `speedup >= 1.0` report gate.

use std::time::{Duration, Instant};

use crate::report::PerfBench;

/// Number of timed batches per arm. Each arm reports its *minimum* batch:
/// on a virtualized host, scheduler preemption and steal time only ever
/// add to a batch, so the fastest batch is the best estimator of the
/// undisturbed cost (a median still shifts when most batches are
/// disturbed). Callers should size `iters` so one batch lands in the low
/// milliseconds, keeping the odds high that at least one batch runs
/// uninterrupted.
const BATCHES: usize = 9;

/// How long [`warm_up`] runs.
const WARM_UP: Duration = Duration::from_millis(300);

/// Runs `f` back to back for `WARM_UP` of wall-clock time, untimed. Called
/// before a run's first row, so that row does not pay for the host
/// settling from idle (frequency ramp-up, cold caches), which once swung
/// the first row's absolute ns/op 2x between runs.
pub fn warm_up(mut f: impl FnMut()) {
    let start = Instant::now();
    while start.elapsed() < WARM_UP {
        f();
    }
}

/// Times `opt` against its baseline `base` and returns the report row.
///
/// Each arm runs one warm-up batch, then `BATCHES` timed batches of
/// `iters` calls, alternating between the arms. One call of either closure
/// does `ops_per_iter` operations; the row reports the best batch of each
/// arm per operation, with throughput derived from `bytes_per_op` (0 when
/// a byte count is not meaningful). Prints one line.
pub fn pair(
    name: &str,
    iters: u32,
    bytes_per_op: u64,
    ops_per_iter: u64,
    mut opt: impl FnMut(),
    mut base: impl FnMut(),
) -> PerfBench {
    let n = iters.max(1);
    for _ in 0..n {
        opt();
        base();
    }
    let (mut best_opt, mut best_base) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        best_opt = best_opt.min(batch_ns(n, &mut opt));
        best_base = best_base.min(batch_ns(n, &mut base));
    }
    let ops = f64::from(n) * ops_per_iter as f64;
    let row = PerfBench::from_timings(name, best_opt / ops, bytes_per_op, Some(best_base / ops));
    println!(
        "{name:28} {:>14.1} ns/op  baseline {:>14.1} ns/op  {:>7.2}x",
        best_opt / ops,
        best_base / ops,
        row.speedup.unwrap_or(0.0)
    );
    row
}

/// Wall-clock nanoseconds of `n` back-to-back calls of `f`.
fn batch_ns(n: u32, f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        f();
    }
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_yields_a_row_with_a_baseline() {
        let row = pair(
            "spin",
            50,
            64,
            4,
            || {
                std::hint::black_box((0..50u64).sum::<u64>());
            },
            || {
                std::hint::black_box((0..500u64).sum::<u64>());
            },
        );
        assert_eq!(row.name, "spin");
        assert!(row.ns_per_op > 0.0);
        assert!(row.baseline_ns_per_op.is_some_and(|b| b > 0.0));
        assert!(row.speedup.is_some_and(|s| s > 0.0));
        assert!(row.gb_per_sec.is_some_and(|g| g > 0.0));
    }
}
