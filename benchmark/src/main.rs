//! Command line of the repository benchmark.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out PATH] [--spans PATH]
//! ```
//!
//! Prints every metric by name and unit, the host facts, and as its last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 when any output check fails, 2 on a usage error.

use hypertee_benchmark::host::Host;
use hypertee_benchmark::WORKLOADS;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 15.0,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = Some(parse_u64(&v).ok_or(format!("bad seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds '{v}'"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--out" => args.out = Some(value()?),
            "--spans" => args.spans = Some(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out PATH] [--spans PATH]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(report) = hypertee_benchmark::run(&args.workload, args.seed, args.seconds, args.trace)
    else {
        eprintln!("error: unknown workload '{}'", args.workload);
        return ExitCode::from(2);
    };
    let host = Host::detect();
    for line in report.lines() {
        println!("{line}");
    }
    println!("host: {}", host.to_json());
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json(&host)) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if let Some(path) = &args.spans {
        if let Err(e) = hypertee_benchmark::trace::write_jsonl(&report.spans, path) {
            eprintln!("error: writing {path}: {e}");
            return ExitCode::from(1);
        }
    }
    for e in &report.errors {
        eprintln!("check failed: {e}");
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
