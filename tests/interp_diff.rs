//! The interpreter test wall: seeded differential fuzzing of the
//! decoded-block fast path (`Cpu::step`/`run_block`) against the seed
//! fetch-decode-execute oracle (`Cpu::step_ref`), in lockstep on two
//! identically-booted machines.
//!
//! The generator (`hypertee_cpu::difftest::gen_program`) emits RV64IM
//! soups biased toward the hazards the decode cache introduces:
//! self-modifying stores through the code page, line-straddling fetch
//! runs, illegal encodings (including the MULH-shaped holes in this
//! core's M subset), and division/multiplication edge operands. After
//! every step the rig compares registers, pc, the full `CpuStats`
//! trajectory (cycles included — charges must be bit-identical, not just
//! close), and periodically the physical code and data frames. Failures
//! shrink with greedy ddmin to a minimal hex repro.

use hypertee_repro::hypertee_cpu::asm::Asm;
use hypertee_repro::hypertee_cpu::difftest::{run_campaign, run_diff, Campaign};

/// Raw R-type encoder for probing encodings `Asm` has no emitter for.
fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32) -> u32 {
    (funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (funct3 << 12) | (rd << 7) | 0x33
}

fn words(bytes: &[u8]) -> Vec<u32> {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
        .collect()
}

#[test]
fn seeded_campaigns_stay_lockstep() {
    // The main wall: several independent seeds, each driving a batch of
    // generated programs through the lockstep rig. Any divergence panics
    // with a shrunk hex repro embedding the failing seed.
    for (seed, programs, prog_len, max_steps) in [
        (0x1f7e_0001u64, 8, 128, 2000),
        (0xc0de_cafe, 8, 128, 2000),
        (0x5eed_f00d, 8, 128, 2000),
        (0x1f7e_5eed, 6, 96, 1500),
    ] {
        let cfg = Campaign {
            seed,
            programs,
            prog_len,
            max_steps,
        };
        if let Err(report) = run_campaign(&cfg) {
            panic!("interpreter diverged from step_ref oracle:\n{report}");
        }
    }
}

#[test]
fn m_extension_edge_operands_stay_lockstep() {
    // boot_half seeds x10..x23 with the interesting constants (0, 1,
    // u64::MAX, i64::MIN, i64::MAX, ...). Sweep every M-group funct3 —
    // implemented (MUL/DIV/DIVU/REM/REMU) and unimplemented (the
    // MULH-shaped holes, which must trap Illegal on both paths) — over a
    // grid of those registers: div-by-zero, i64::MIN / -1 overflow,
    // MULH sign combinations all land in here.
    let mut prog = Vec::new();
    for funct3 in 0..8u32 {
        for rs1 in 10..16u32 {
            for rs2 in 10..16u32 {
                prog.push(r_type(1, rs2, rs1, funct3, 28));
            }
        }
    }
    run_diff(&prog, prog.len() as u64 * 3).expect("M-extension edge sweep");
}

#[test]
fn illegal_encodings_and_wild_jumps_stay_lockstep() {
    // Genuinely illegal words (all-ones, all-zeroes, a bare 0x7 load
    // shape) interleaved with valid instructions and 0xdead_beef — which
    // *decodes* (as a far JAL) and jumps into unmapped space, so the
    // fault surfaces at the next fetch. Both paths must trap identically,
    // ride the skip-ahead policy identically, and charge identically.
    let mut a = Asm::new();
    a.addi(10, 10, 1);
    let valid = words(&a.assemble());
    let prog = [
        0xffff_ffff,
        valid[0],
        0x0000_0000,
        valid[0],
        0x0000_0007,
        0xdead_beef,
        valid[0],
    ];
    run_diff(&prog, 300).expect("illegal-encoding soup");
}

#[test]
fn self_modifying_store_over_its_own_block_stays_lockstep() {
    // The sharpest decode-cache hazard, as a directed program: a loop
    // whose body is overwritten through a store into the code page (x9 is
    // seeded with the code VA) while the block containing it is hot in
    // the cache. Pass 1 executes `addi x10, x10, 1`, the store rewrites
    // it to `addi x10, x10, 100`, pass 2 must execute the new bytes — on
    // the fast path via invalidate + refetch, on the oracle for free.
    let overwrite = (100u64 << 20) | (10 << 15) | (10 << 7) | 0x13;
    let mut a = Asm::new();
    a.li(5, overwrite);
    a.addi(6, 0, 2);
    let top = a.label();
    a.bind(top);
    let body_off = a.here() as i64;
    a.addi(10, 10, 1);
    a.sw(5, body_off, 9);
    a.addi(6, 6, -1);
    a.bne(6, 0, top);
    run_diff(&words(&a.assemble()), 400).expect("self-modifying loop");
}

#[test]
fn long_straight_line_runs_straddle_cache_lines_lockstep() {
    // 120 sequential instructions span eight decoded lines; the dispatch
    // loop must hand off between lines exactly where the oracle's
    // per-instruction fetch walks, including the M instructions whose
    // per-op charges differ (mul = 3, divu = 20, addi = 1).
    let mut a = Asm::new();
    for i in 0..40 {
        a.addi(28, 28, i % 7);
        a.mul(29, 28, 10 + (i % 8) as u8);
        a.divu(30, 29, 11 + (i % 4) as u8);
    }
    run_diff(&words(&a.assemble()), 200).expect("straight-line straddle");
}
