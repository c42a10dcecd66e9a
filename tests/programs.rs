//! Program-level integration tests: nontrivial RV64 programs assembled in
//! Rust and executed inside enclaves on the functional core, exercising the
//! full stack (page tables, TLB, bitmap, MKTME, demand paging, syscalls).

use hypertee_repro::hypertee::exec::RunOutcome;
use hypertee_repro::hypertee::machine::Machine;
use hypertee_repro::hypertee::manifest::EnclaveManifest;
use hypertee_repro::hypertee_cpu::asm::Asm;
use hypertee_repro::workloads::programs::stride_walk;

fn manifest() -> EnclaveManifest {
    EnclaveManifest::parse("heap = 2M\nstack = 64K\nhost_shared = 16K").unwrap()
}

fn run(image: &[u8], max_steps: u64) -> (Machine, RunOutcome) {
    let mut m = Machine::boot_default();
    let e = m.create_enclave(0, &manifest(), image).unwrap();
    m.enter(0, e).unwrap();
    let outcome = m.run_enclave_program(0, max_steps).unwrap();
    (m, outcome)
}

fn exit_code(outcome: RunOutcome) -> u64 {
    match outcome {
        RunOutcome::Exited { code, .. } => code,
        other => panic!("program did not exit cleanly: {other:?}"),
    }
}

#[test]
fn fibonacci_iterative() {
    // fib(30) = 832040, computed iteratively.
    let mut a = Asm::new();
    a.addi(5, 0, 0); // f0
    a.addi(6, 0, 1); // f1
    a.addi(7, 0, 30); // n
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
    let (_, outcome) = run(&a.assemble(), 10_000);
    assert_eq!(exit_code(outcome), 832_040);
}

#[test]
fn heap_array_sum_with_demand_paging() {
    // Allocate one page via syscall, then fill 4 demand-paged pages with
    // i*3 and sum them back: sum = 3 * (0 + 1 + ... + 2047).
    let n = 2048u64; // 2048 u64s = 4 pages
    let mut a = Asm::new();
    a.addi(17, 0, 1);
    a.addi(10, 0, 8);
    a.ecall(); // a0 = heap base (one page mapped)
    a.addi(5, 10, 0); // base
    a.li(6, n);
    a.addi(7, 0, 0); // i
    let fill = a.label();
    let fill_done = a.label();
    a.bind(fill);
    a.beq(7, 6, fill_done);
    a.slli(28, 7, 3);
    a.add(28, 28, 5);
    a.addi(29, 7, 0);
    a.slli(30, 29, 1);
    a.add(29, 29, 30); // i*3
    a.sd(29, 0, 28); // store — demand-pages as it crosses page boundaries
    a.addi(7, 7, 1);
    a.jal(0, fill);
    a.bind(fill_done);
    a.addi(7, 0, 0);
    a.addi(10, 0, 0);
    let sum = a.label();
    let sum_done = a.label();
    a.bind(sum);
    a.beq(7, 6, sum_done);
    a.slli(28, 7, 3);
    a.add(28, 28, 5);
    a.ld(29, 0, 28);
    a.add(10, 10, 29);
    a.addi(7, 7, 1);
    a.jal(0, sum);
    a.bind(sum_done);
    a.addi(17, 0, 93);
    a.ecall();
    let (m, outcome) = run(&a.assemble(), 200_000);
    assert_eq!(exit_code(outcome), 3 * (n - 1) * n / 2);
    // Multiple demand-paging faults were serviced by EMS.
    assert!(
        m.emcall.stats.to_ems >= 3,
        "faults routed: {}",
        m.emcall.stats.to_ems
    );
}

#[test]
fn recursive_function_uses_stack() {
    // sum(1..=n) via recursion: f(n) = n==0 ? 0 : n + f(n-1), n = 50.
    let mut a = Asm::new();
    let f = a.label();
    a.addi(10, 0, 50);
    a.jal(1, f);
    a.addi(17, 0, 93);
    a.ecall();
    // f: prologue pushes ra and a0.
    a.bind(f);
    let base_case = a.label();
    a.beq(10, 0, base_case);
    a.addi(2, 2, -16);
    a.sd(1, 0, 2);
    a.sd(10, 8, 2);
    a.addi(10, 10, -1);
    a.jal(1, f);
    a.ld(1, 0, 2);
    a.ld(5, 8, 2);
    a.addi(2, 2, 16);
    a.add(10, 10, 5);
    a.jalr(0, 1, 0);
    a.bind(base_case);
    a.addi(10, 0, 0);
    a.jalr(0, 1, 0);
    let (m, outcome) = run(&a.assemble(), 10_000);
    assert_eq!(exit_code(outcome), 1275);
    // The stack writes went through the encryption engine.
    assert!(m.sys.engine.stats.bytes_encrypted > 0);
}

#[test]
fn program_checksums_host_input() {
    // Byte-wise weighted checksum over 64 bytes of host-window input.
    let mut a = Asm::new();
    a.li(5, 0x3000_0000);
    a.addi(6, 0, 64);
    a.addi(7, 0, 0);
    a.addi(10, 0, 0);
    let top = a.label();
    let done = a.label();
    a.bind(top);
    a.beq(7, 6, done);
    a.add(28, 5, 7);
    a.lbu(29, 0, 28);
    a.addi(30, 7, 1);
    a.mul(29, 29, 30); // byte * (index+1)
    a.add(10, 10, 29);
    a.addi(7, 7, 1);
    a.jal(0, top);
    a.bind(done);
    a.addi(17, 0, 93);
    a.ecall();

    let mut m = Machine::boot_default();
    let e = m.create_enclave(0, &manifest(), &a.assemble()).unwrap();
    let input: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(7)).collect();
    m.host_window_write(e, 0, &input).unwrap();
    m.enter(0, e).unwrap();
    let outcome = m.run_enclave_program(0, 10_000).unwrap();
    let expected: u64 = input
        .iter()
        .enumerate()
        .map(|(i, &b)| (b as u64) * (i as u64 + 1))
        .sum();
    assert_eq!(exit_code(outcome), expected);
}

#[test]
fn efree_syscall_releases_heap() {
    // ealloc two regions, efree the second, exit with the first VA's low
    // bits to prove it stayed valid.
    let mut a = Asm::new();
    a.addi(17, 0, 1);
    a.li(10, 8192);
    a.ecall();
    a.addi(5, 10, 0); // first region
    a.li(6, 0x1111);
    a.sd(6, 0, 5);
    a.addi(17, 0, 1);
    a.li(10, 4096);
    a.ecall();
    a.addi(7, 10, 0); // second region
    a.addi(17, 0, 2); // efree
    a.addi(10, 7, 0);
    a.li(11, 4096);
    a.ecall();
    a.ld(10, 0, 5); // first region still readable
    a.addi(17, 0, 93);
    a.ecall();
    let (m, outcome) = run(&a.assemble(), 10_000);
    assert_eq!(exit_code(outcome), 0x1111);
    assert!(m.ems.pool().stats.pages_returned >= 1);
}

#[test]
fn preemption_preserves_architectural_state() {
    // The fib(30) loop must compute the same value even when preempted
    // every 7 instructions (EMCall saves/restores registers atomically).
    let mut a = Asm::new();
    a.addi(5, 0, 0);
    a.addi(6, 0, 1);
    a.addi(7, 0, 30);
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
    let image = a.assemble();

    let mut m = Machine::boot_default();
    let e = m.create_enclave(0, &manifest(), &image).unwrap();
    m.enter(0, e).unwrap();
    let (outcome, preemptions) = m.run_enclave_program_preemptive(0, 100_000, 7).unwrap();
    assert!(
        matches!(outcome, RunOutcome::Exited { code: 832_040, .. }),
        "{outcome:?}"
    );
    assert!(
        preemptions > 10,
        "only {preemptions} preemptions at quantum 7"
    );
    assert!(
        m.emcall.stats.to_cs >= preemptions,
        "timer interrupts routed to CS OS"
    );
}

#[test]
fn preemption_frequency_drives_tlb_refills() {
    // Fig. 11's mechanism, observed functionally: the same memory-walking
    // program (8 pages swept 64 times) takes more TLB misses when context
    // switches (each flushing the TLB) come more often.
    let image = stride_walk(8, 64);
    let run_with_quantum = |quantum: u64| -> u64 {
        let mut m = Machine::boot_default();
        let e = m.create_enclave(0, &manifest(), &image).unwrap();
        m.enter(0, e).unwrap();
        let (outcome, _) = m
            .run_enclave_program_preemptive(0, 2_000_000, quantum)
            .unwrap();
        assert!(
            matches!(outcome, RunOutcome::Exited { code: 0, .. }),
            "{outcome:?}"
        );
        m.harts[0].mmu.tlb.stats.misses
    };
    let rare = run_with_quantum(1_000_000); // effectively unpreempted
    let frequent = run_with_quantum(200);
    assert!(
        frequent > rare * 2,
        "TLB misses must grow with switch frequency: rare {rare}, frequent {frequent}"
    );
}

#[test]
fn two_programs_two_enclaves_isolated_state() {
    // The same image run in two enclaves with different host inputs gives
    // different results — and identical measurements.
    let mut a = Asm::new();
    a.li(5, 0x3000_0000);
    a.ld(10, 0, 5);
    a.slli(10, 10, 1);
    a.addi(17, 0, 93);
    a.ecall();
    let image = a.assemble();

    let mut m = Machine::boot_default();
    let e1 = m.create_enclave(0, &manifest(), &image).unwrap();
    let e2 = m.create_enclave(1, &manifest(), &image).unwrap();
    m.host_window_write(e1, 0, &100u64.to_le_bytes()).unwrap();
    m.host_window_write(e2, 0, &900u64.to_le_bytes()).unwrap();
    m.enter(0, e1).unwrap();
    m.enter(1, e2).unwrap();
    let o1 = m.run_enclave_program(0, 1000).unwrap();
    let o2 = m.run_enclave_program(1, 1000).unwrap();
    assert_eq!(exit_code(o1), 200);
    assert_eq!(exit_code(o2), 1800);
    // Identical images → identical measurements (attestation equivalence).
    let q1 = m.attest(0, e1, b"x").unwrap();
    let q2 = m.attest(1, e2, b"x").unwrap();
    assert_eq!(q1.enclave_measurement, q2.enclave_measurement);
}
