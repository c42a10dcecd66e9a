//! A dependency-free micro-benchmark harness.
//!
//! The workspace builds with no registry access, so `bench_report` cannot
//! use criterion; this module provides the small subset it needs:
//! warm-up, repeated timed batches, and a
//! best-of-batches report in ns/iter (plus throughput when the caller
//! supplies a per-iteration byte count).

use std::time::Instant;

/// Number of timed batches per benchmark. The reported figure is the
/// *minimum* batch mean: on a virtualized host, scheduler preemption and
/// steal time only ever add to a batch, so the fastest batch is the best
/// estimator of the undisturbed cost (a median still shifts when most
/// batches are disturbed). Callers should size `iters` so one batch lands
/// in the low milliseconds, keeping the odds high that at least one batch
/// runs uninterrupted.
const BATCHES: usize = 9;

/// One benchmark result.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Benchmark label.
    pub name: String,
    /// Best (minimum) batch time divided by iterations, in nanoseconds.
    pub ns_per_iter: f64,
    /// Bytes processed per iteration (0 when not meaningful).
    pub bytes_per_iter: u64,
}

impl BenchReport {
    /// Throughput in MiB/s, when `bytes_per_iter` was supplied.
    pub fn mib_per_sec(&self) -> Option<f64> {
        if self.bytes_per_iter == 0 || self.ns_per_iter == 0.0 {
            return None;
        }
        Some(self.bytes_per_iter as f64 / (1 << 20) as f64 / (self.ns_per_iter * 1e-9))
    }
}

impl std::fmt::Display for BenchReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:40} {:>14.1} ns/iter", self.name, self.ns_per_iter)?;
        if let Some(tp) = self.mib_per_sec() {
            write!(f, " {tp:>10.1} MiB/s")?;
        }
        Ok(())
    }
}

/// Times `f` over `iters` iterations per batch, printing and returning the
/// best-of-batches report. The closure's return value is consumed with a
/// volatile-free sink (`std::hint::black_box`) by the caller.
pub fn bench(name: &str, iters: u32, bytes_per_iter: u64, mut f: impl FnMut()) -> BenchReport {
    // Warm-up batch.
    for _ in 0..iters.max(1) {
        f();
    }
    let mut samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..iters.max(1) {
            f();
        }
        samples.push(start.elapsed().as_nanos() as f64 / f64::from(iters.max(1)));
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let report = BenchReport {
        name: name.to_string(),
        ns_per_iter: samples[0],
        bytes_per_iter,
    };
    println!("{report}");
    report
}

/// Times an optimized/reference pair with **interleaved** batches:
/// opt-batch, ref-batch, opt-batch, … for `BATCHES` rounds each, then
/// best-of-batches per side. On a virtualized host the disturbance budget
/// (frequency steps, steal time, cache pollution from neighbours) drifts
/// over seconds; timing one side to completion before starting the other
/// lets that drift land entirely on one arm and corrupt the ratio.
/// Interleaving gives both arms the same exposure, so thin-margin rows
/// (1.1–1.4x) survive the `speedup >= 1.0` report gate reliably.
pub fn bench_pair(
    opt_name: &str,
    base_name: &str,
    iters: u32,
    bytes_per_iter: u64,
    mut opt: impl FnMut(),
    mut base: impl FnMut(),
) -> (BenchReport, BenchReport) {
    let n = iters.max(1);
    for _ in 0..n {
        opt();
        base();
    }
    let mut opt_samples = Vec::with_capacity(BATCHES);
    let mut base_samples = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let start = Instant::now();
        for _ in 0..n {
            opt();
        }
        opt_samples.push(start.elapsed().as_nanos() as f64 / f64::from(n));
        let start = Instant::now();
        for _ in 0..n {
            base();
        }
        base_samples.push(start.elapsed().as_nanos() as f64 / f64::from(n));
    }
    opt_samples.sort_by(|a, b| a.total_cmp(b));
    base_samples.sort_by(|a, b| a.total_cmp(b));
    let opt_report = BenchReport {
        name: opt_name.to_string(),
        ns_per_iter: opt_samples[0],
        bytes_per_iter,
    };
    let base_report = BenchReport {
        name: base_name.to_string(),
        ns_per_iter: base_samples[0],
        bytes_per_iter,
    };
    println!("{opt_report}");
    println!("{base_report}");
    (opt_report, base_report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_positive_time() {
        let r = bench("spin", 100, 64, || {
            std::hint::black_box((0..100u64).sum::<u64>());
        });
        assert!(r.ns_per_iter > 0.0);
        assert!(r.mib_per_sec().unwrap() > 0.0);
    }

    #[test]
    fn pair_reports_both_sides() {
        let (opt, base) = bench_pair(
            "spin_fast",
            "spin_slow",
            50,
            0,
            || {
                std::hint::black_box((0..50u64).sum::<u64>());
            },
            || {
                std::hint::black_box((0..500u64).sum::<u64>());
            },
        );
        assert!(opt.ns_per_iter > 0.0);
        assert!(base.ns_per_iter > 0.0);
    }
}
