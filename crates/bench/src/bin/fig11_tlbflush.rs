//! Fig. 11: TLB-flush overhead on enclaves (miniz, 2–32 MiB working set,
//! context-switch rates 100–400 Hz).

use hypertee_bench::{fig11, pct};

fn main() {
    println!("Fig. 11 — TLB-flush overhead on enclaves (miniz)");
    let cells = fig11();
    let freqs = [100.0f64, 150.0, 200.0, 400.0];
    print!("{:<10}", "memory");
    for f in freqs {
        print!("{:>10}", format!("{f:.0}Hz"));
    }
    println!();
    for &mb in &[2u64, 4, 8, 16, 32] {
        print!("{:<10}", format!("{mb}M"));
        for f in freqs {
            let cell = cells
                .iter()
                .find(|c| c.mem_bytes == mb << 20 && (c.switch_hz - f).abs() < 1e-9)
                .expect("cell exists");
            print!("{:>10}", pct(cell.overhead));
        }
        println!();
    }
    println!("\npaper: no more than 1.81% at 32MiB / 400Hz; 16.72 flushes per 1e9 instructions");
}
