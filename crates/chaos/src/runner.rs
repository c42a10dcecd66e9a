//! The command-line runner both campaign binaries share: `chaos_campaign`
//! (fleet campaign, `BENCH_chaos.json`) and `serving_bench` (attestation
//! storm, `BENCH_serving.json`).
//!
//! A [`Runner`] names what differs between them — presets, report
//! functions, acceptance floors, summary line — and [`Runner::main`] owns
//! the common steps: argument parsing and `--check`, the run, the replay
//! determinism gate, the audit/lockstep/stalled verdicts, the floors
//! outside `--smoke`, validate-before-write, the write and the exit code.
//!
//! ```text
//! <bin> [--smoke] [--seed N] [--out PATH]   # run + emit
//! <bin> --ref-pump [...]                    # scan-scheduler oracle
//! <bin> --shards 4 --threads 4 [...]        # sharded campaign (when enabled)
//! <bin> --check PATH                        # validate a report
//! ```
//!
//! Wall-clock timing is observability only: it goes to stderr, never into
//! the report, which stays byte-identical at any `--threads` width.

use std::process::ExitCode;
use std::time::Instant;

use hypertee_bench::report::check_report;

use crate::campaign::{run, ChaosConfig, ChaosOutcome};
use crate::report::render_sharded_report;
use crate::sharded::{run_sharded, ShardedChaosConfig};

/// An acceptance floor of a full (non-`--smoke`) run: what is counted,
/// its minimum, and how to count it.
pub type Floor = (&'static str, u64, fn(&ChaosOutcome) -> u64);

/// What one campaign binary supplies to the shared runner.
pub struct Runner {
    /// Binary name, prefixed to every diagnostic.
    pub name: &'static str,
    /// Seed when `--seed` is not given.
    pub default_seed: u64,
    /// Report path when `--out` is not given.
    pub default_out: &'static str,
    /// The `--smoke` preset.
    pub smoke: fn(u64) -> ChaosConfig,
    /// The full-campaign preset.
    pub full: fn(u64) -> ChaosConfig,
    /// Report emitter.
    pub render: fn(&ChaosOutcome) -> String,
    /// Report validator, run on the emitted report and by `--check`.
    pub validate: fn(&str) -> Result<(), String>,
    /// Floors a full run must meet.
    pub floors: &'static [Floor],
    /// The one-line result summary printed after the replay.
    pub summary: fn(&ChaosOutcome) -> String,
    /// Whether `--shards N` and `--threads M` are accepted. A campaign of
    /// more than one shard emits through [`render_sharded_report`].
    pub sharding: bool,
}

struct Cli {
    smoke: bool,
    ref_pump: bool,
    seed: u64,
    out: String,
    check: Option<String>,
    shards: usize,
    threads: usize,
}

/// Parses a `--shards`/`--threads` value: a count of at least one.
fn count(flag: &str, value: Option<String>) -> Result<usize, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    match v.parse() {
        Ok(0) => Err(format!("{flag} must be at least 1")),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("bad {flag} value '{v}'")),
    }
}

impl Runner {
    fn parse_args(&self, mut args: impl Iterator<Item = String>) -> Result<Cli, String> {
        let mut cli = Cli {
            smoke: false,
            ref_pump: false,
            seed: self.default_seed,
            out: String::new(),
            check: None,
            shards: 1,
            threads: 1,
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => cli.smoke = true,
                "--ref-pump" => cli.ref_pump = true,
                "--seed" => {
                    let v = args.next().ok_or("--seed needs a value")?;
                    cli.seed = v.parse().map_err(|_| format!("bad --seed value '{v}'"))?;
                }
                "--out" => cli.out = args.next().ok_or("--out needs a path")?,
                "--check" => cli.check = Some(args.next().ok_or("--check needs a path")?),
                "--shards" if self.sharding => cli.shards = count(&arg, args.next())?,
                "--threads" if self.sharding => cli.threads = count(&arg, args.next())?,
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        if cli.out.is_empty() {
            cli.out = self.default_out.to_string();
        }
        Ok(cli)
    }

    /// Runs the binary on the process arguments and returns its exit code:
    /// failure on a bad argument, a failed `--check`, a non-reproducible
    /// trace, a red verdict, a missed floor, an invalid emitted report, or
    /// an unwritable output path. A report that fails only a gate is still
    /// written, for inspection.
    pub fn main(&self) -> ExitCode {
        let name = self.name;
        let cli = match self.parse_args(std::env::args().skip(1)) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("{name}: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(path) = &cli.check {
            return check_report(path, self.validate);
        }

        let mut cfg = if cli.smoke {
            (self.smoke)(cli.seed)
        } else {
            (self.full)(cli.seed)
        };
        cfg.ref_pump = cli.ref_pump;
        eprintln!(
            "{name}: mode={} seed={:#x} sessions={} ({} crashes, {} migrations)",
            cfg.label, cfg.seed, cfg.traffic.sessions, cfg.scripted_crashes, cfg.migrations
        );
        let started = Instant::now();
        // Determinism gate: the identical seed must reproduce the identical
        // event stream, bit for bit. A sharded campaign must do so at any
        // worker width, so its replay runs on one inline thread.
        let (out, text, replay) = if cli.shards > 1 {
            let sharded_cfg = |threads| ShardedChaosConfig {
                base: cfg.clone(),
                shards: cli.shards,
                threads,
            };
            let sharded = run_sharded(&sharded_cfg(cli.threads));
            eprintln!(
                "{name}: {} shards on {} threads in {:.2}s wall, \
                 simulated speedup {:.2}x (sum {} / max {} cycles)",
                sharded.shards,
                sharded.threads,
                started.elapsed().as_secs_f64(),
                sharded.simulated_speedup(),
                sharded.sequential_clock_cycles(),
                sharded.merged.clock_cycles,
            );
            let replay = run_sharded(&sharded_cfg(1)).merged.trace_hash;
            let text = render_sharded_report(&sharded);
            (sharded.merged, text, replay)
        } else {
            let out = run(&cfg);
            let replay = run(&cfg).trace_hash;
            let text = (self.render)(&out);
            (out, text, replay)
        };
        if replay != out.trace_hash {
            eprintln!(
                "{name}: NON-DETERMINISTIC: trace {:#x} != replay {replay:#x}",
                out.trace_hash
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "{name}: {} ({:.2}s wall)",
            (self.summary)(&out),
            started.elapsed().as_secs_f64()
        );
        eprintln!("{name}: replay reproduced trace {:#018x}", out.trace_hash);

        let mut failed = false;
        let mut fail = |msg: String| {
            eprintln!("{name}: {msg}");
            failed = true;
        };
        if !out.audit_ok {
            fail(format!(
                "consistency audit failed: {:?}",
                out.first_audit_error
            ));
        }
        if !out.lockstep_ok {
            fail(format!("lockstep divergence: {:?}", out.first_divergence));
        }
        if out.stalled {
            fail("campaign stalled before draining".to_string());
        }
        if !cli.smoke {
            for &(what, floor, measure) in self.floors {
                let n = measure(&out);
                if n < floor {
                    fail(format!("only {n} {what} (< {floor} floor)"));
                }
            }
        }
        if let Err(e) = (self.validate)(&text) {
            fail(format!("emitted report fails validation: {e}"));
        }
        if let Err(e) = std::fs::write(&cli.out, &text) {
            eprintln!("{name}: cannot write {}: {e}", cli.out);
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} mode)", cli.out, out.label);
        if failed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
