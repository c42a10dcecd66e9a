//! Reusable RV64 programs, assembled in Rust, for running *real* workloads
//! inside enclaves on the functional core (`hypertee-cpu`). These are the
//! executable counterparts of the profile-based workloads: a stride walker
//! with the memory behaviour Fig. 11 studies, a pointer chase, an in-place
//! record XOR, and a small arithmetic kernel.
//!
//! Syscall ABI: `a7` = 93 exit(`a0`), `a7` = 1 ealloc(`a0` bytes) → `a0` va.

use hypertee_cpu::asm::Asm;

/// Iterative Fibonacci: exits with `fib(n)`.
///
/// # Panics
///
/// Panics for `n > 90` (the result would overflow u64 anyway).
pub fn fib(n: u16) -> Vec<u8> {
    assert!(n <= 90, "fib({n}) overflows u64");
    let mut a = Asm::new();
    a.addi(5, 0, 0);
    a.addi(6, 0, 1);
    a.addi(7, 0, n as i64);
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.beq(7, 0, done);
    a.add(28, 5, 6);
    a.addi(5, 6, 0);
    a.addi(6, 28, 0);
    a.addi(7, 7, -1);
    a.jal(0, top);
    a.bind(done);
    a.addi(10, 5, 0);
    a.addi(17, 0, 93);
    a.ecall();
    a.assemble()
}

/// The Fig. 11 memory shape: allocate `pages` of heap, then sweep one word
/// per page, `iterations` times. Exits with 0. Every sweep after a TLB
/// flush re-walks all `pages` translations — exactly the refill cost the
/// figure prices.
pub fn stride_walk(pages: u16, iterations: u16) -> Vec<u8> {
    let mut a = Asm::new();
    a.addi(17, 0, 1);
    a.li(10, pages as u64 * 4096);
    a.ecall();
    a.addi(5, 10, 0); // base
    a.li(6, iterations as u64);
    let outer = a.label();
    let outer_done = a.label();
    a.bind(outer);
    a.beq(6, 0, outer_done);
    a.li(7, pages as u64);
    a.addi(28, 5, 0);
    let inner = a.label();
    let inner_done = a.label();
    a.bind(inner);
    a.beq(7, 0, inner_done);
    a.ld(29, 0, 28);
    a.li(30, 4096);
    a.add(28, 28, 30);
    a.addi(7, 7, -1);
    a.jal(0, inner);
    a.bind(inner_done);
    a.addi(6, 6, -1);
    a.jal(0, outer);
    a.bind(outer_done);
    a.addi(10, 0, 0);
    a.addi(17, 0, 93);
    a.ecall();
    a.assemble()
}

/// Keystream seed shared by [`record_xor`] and [`record_xor_reference`].
const RECORD_XOR_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// The `memstream` bench shape: a pointer chase over a ring of `nodes`
/// 64-byte nodes (one MKTME line each), mixing the hop offsets into a
/// checksum. The hot loop is 7 instructions with a single data load, so
/// the reference interpreter pays ~8 line round trips per hop while the
/// decoded-block path pays 1 — the fetch-bound profile the decode cache
/// targets. Exits with the checksum (base-address independent).
pub fn chase(nodes: u16, hops: u32) -> Vec<u8> {
    assert!(nodes > 0, "chase needs at least one node");
    let mut a = Asm::new();
    a.addi(17, 0, 1);
    a.li(10, nodes as u64 * 64);
    a.ecall();
    a.addi(5, 10, 0); // x5 = base
                      // Link node i -> node i+1, then close the ring (write-before-read:
                      // every pointer is stored before the chase loads it).
    a.li(6, (nodes as u64 - 1) * 64);
    a.add(6, 5, 6); // x6 = last node
    a.addi(7, 5, 0); // x7 = cursor
    let link = a.label();
    let link_done = a.label();
    a.bind(link);
    a.beq(7, 6, link_done);
    a.addi(28, 7, 64);
    a.sd(28, 0, 7);
    a.addi(7, 28, 0);
    a.jal(0, link);
    a.bind(link_done);
    a.sd(5, 0, 6);
    // Chase: p = *p; chk ^= p - base; chk ^= chk << 13.
    a.addi(6, 5, 0); // x6 = p
    a.li(7, hops as u64);
    a.addi(28, 0, 0); // x28 = chk
    let hop = a.label();
    let done = a.label();
    a.bind(hop);
    a.beq(7, 0, done);
    a.ld(6, 0, 6);
    a.sub(29, 6, 5);
    a.xor(28, 28, 29);
    a.slli(29, 28, 13);
    a.xor(28, 28, 29);
    a.addi(7, 7, -1);
    a.jal(0, hop);
    a.bind(done);
    a.addi(10, 28, 0);
    a.addi(17, 0, 93);
    a.ecall();
    a.assemble()
}

/// What [`chase`] exits with, computed natively.
pub fn chase_reference(nodes: u16, hops: u32) -> u64 {
    let nodes = nodes as u64;
    let mut idx = 0u64;
    let mut chk = 0u64;
    for _ in 0..hops {
        idx = (idx + 1) % nodes;
        chk ^= idx * 64;
        chk ^= chk << 13;
    }
    chk
}

/// The `wolfssl` bench shape: `passes` passes of in-place record
/// encryption — `records` 1 KiB records XORed with an xorshift64
/// keystream, 8 bytes at a time. Each word costs 12 instructions and two
/// data line round trips, the mixed fetch/data profile of a TLS record
/// pipeline. Exits with a running checksum of the ciphertext.
pub fn record_xor(records: u16, passes: u16) -> Vec<u8> {
    assert!(records > 0, "record_xor needs at least one record");
    let bytes = records as u64 * 1024;
    let mut a = Asm::new();
    a.addi(17, 0, 1);
    a.li(10, bytes);
    a.ecall();
    a.addi(5, 10, 0); // x5 = base
    a.li(6, bytes);
    a.add(6, 5, 6); // x6 = end
                    // Zero the buffer first: fresh heap is undefined through MKTME.
    a.addi(7, 5, 0);
    let zero = a.label();
    a.bind(zero);
    a.sd(0, 0, 7);
    a.addi(7, 7, 8);
    a.bne(7, 6, zero);
    a.li(30, RECORD_XOR_SEED); // x30 = keystream state
    a.li(31, passes as u64); // x31 = remaining passes
    a.addi(28, 0, 0); // x28 = chk
    let pass = a.label();
    let done = a.label();
    a.bind(pass);
    a.beq(31, 0, done);
    a.addi(7, 5, 0); // x7 = p
    let word = a.label();
    a.bind(word);
    a.slli(29, 30, 13);
    a.xor(30, 30, 29);
    a.srli(29, 30, 7);
    a.xor(30, 30, 29);
    a.slli(29, 30, 17);
    a.xor(30, 30, 29);
    a.ld(29, 0, 7);
    a.xor(29, 29, 30);
    a.sd(29, 0, 7);
    a.xor(28, 28, 29);
    a.addi(7, 7, 8);
    a.bne(7, 6, word);
    a.addi(31, 31, -1);
    a.jal(0, pass);
    a.bind(done);
    a.addi(10, 28, 0);
    a.addi(17, 0, 93);
    a.ecall();
    a.assemble()
}

/// What [`record_xor`] exits with, computed natively.
pub fn record_xor_reference(records: u16, passes: u16) -> u64 {
    let words = records as usize * 1024 / 8;
    let mut mem = vec![0u64; words];
    let mut s = RECORD_XOR_SEED;
    let mut chk = 0u64;
    for _ in 0..passes {
        for w in mem.iter_mut() {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            *w ^= s;
            chk ^= *w;
        }
    }
    chk
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypertee::exec::RunOutcome;
    use hypertee::machine::Machine;
    use hypertee::manifest::EnclaveManifest;

    fn run(image: &[u8], steps: u64) -> u64 {
        let mut m = Machine::boot_default();
        let manifest = EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").unwrap();
        let e = m.create_enclave(0, &manifest, image).unwrap();
        m.enter(0, e).unwrap();
        match m.run_enclave_program(0, steps).unwrap() {
            RunOutcome::Exited { code, .. } => code,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fib_matches_reference() {
        assert_eq!(run(&fib(10), 10_000), 55);
        assert_eq!(run(&fib(30), 10_000), 832_040);
    }

    #[test]
    fn stride_walk_completes() {
        assert_eq!(run(&stride_walk(8, 4), 1_000_000), 0);
    }

    #[test]
    fn chase_matches_native_mirror() {
        for (nodes, hops) in [(1u16, 10u32), (4, 100), (64, 1000)] {
            assert_eq!(
                run(&chase(nodes, hops), 2_000_000),
                chase_reference(nodes, hops),
                "nodes = {nodes}, hops = {hops}"
            );
        }
    }

    #[test]
    fn record_xor_matches_native_mirror() {
        for (records, passes) in [(1u16, 1u16), (2, 3)] {
            assert_eq!(
                run(&record_xor(records, passes), 2_000_000),
                record_xor_reference(records, passes),
                "records = {records}, passes = {passes}"
            );
        }
    }
}
