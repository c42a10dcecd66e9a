//! Fig. 8(a): latency of `malloc` (Host-Native) vs EALLOC (enclave),
//! 128 KiB – 2 MiB. Each EALLOC row is a round trip on the live machine's
//! simulated clock.

use hypertee_bench::{fig8a, pct};

fn main() {
    println!("Fig. 8(a) — allocation latency, host malloc vs EALLOC");
    println!(
        "{:<10}{:>16}{:>16}{:>12}",
        "size", "malloc (cyc)", "EALLOC (cyc)", "overhead"
    );
    for r in fig8a() {
        println!(
            "{:<10}{:>16.0}{:>16.0}{:>12}",
            format!("{}K", r.bytes / 1024),
            r.malloc_cycles,
            r.ealloc_cycles,
            pct(r.overhead())
        );
    }
    println!("\npaper: overhead ranges 6.3% (2MiB) to 49.7% (128KiB)");
}
