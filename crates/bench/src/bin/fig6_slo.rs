//! Fig. 6: efficiency of resolving concurrent primitive requests from CS
//! cores to EMS cores — SLO curves per (CS, EMS) configuration.
//!
//! Replays the paper workload (per-hart enclave creation + closed-loop
//! EALLOC(2 MiB)) through the real machine's asynchronous submit/pump
//! pipeline — every request crosses the EMCall gate, the mailbox, and the
//! multi-core EMS scheduler onto real page tables — for all 16 paper
//! configurations (CS ∈ {4, 16, 32, 64} × EMS ∈ {1 in-order, 2 in-order,
//! 2 OoO, 4 OoO}).
//!
//! `--allocs N` sets the allocations per configuration (default 1024; the
//! paper runs 16384). `--smoke` runs only the 4- and 16-CS rows, with a
//! default of 96 allocations, for CI.

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let allocs = args
        .iter()
        .position(|a| a == "--allocs")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 96 } else { 1024 });
    // CS-major order: the first 8 configurations are the 4- and 16-CS rows.
    let configs = if smoke { 8 } else { 16 };

    println!("Fig. 6 — live pipeline replay ({allocs} x EALLOC 2MiB per configuration)");
    println!("baseline = 99%-SLO latency of non-enclave (host malloc) allocation\n");
    let mut last_cs = 0;
    for curve in hypertee_bench::fig6(allocs).take(configs) {
        if curve.cs_cores != last_cs {
            last_cs = curve.cs_cores;
            println!(
                "--- {} CS cores (baseline {:.0} cycles) ---",
                curve.cs_cores, curve.baseline
            );
            print!(
                "{:<24}{:>10}{:>10}",
                "config \\ x*baseline", "p50 kcyc", "p99 kcyc"
            );
            for (x, _) in &curve.points {
                print!("{:>8}", format!("{x:.0}x"));
            }
            println!();
        }
        print!(
            "{:<24}{:>10.1}{:>10.1}",
            curve.label,
            curve.p50 / 1e3,
            curve.p99 / 1e3
        );
        for (_, frac) in &curve.points {
            print!("{:>8}", format!("{:.1}%", frac * 100.0));
        }
        println!();
        let s = &curve.stats;
        println!(
            "{:<24}in-flight hwm {}, queue hwm {}, per-core {:?}, retries {}, timeouts {}",
            "", s.in_flight_hwm, s.queue_depth_hwm, s.serviced_per_core, s.retries, s.timeouts
        );
    }
}
