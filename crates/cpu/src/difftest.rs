//! Differential testing rig for the two interpreter paths.
//!
//! [`run_diff`] boots two identical single-page machines from the same
//! image, drives one through the seed oracle [`Cpu::step_ref`] and the
//! other through the decoded-block fast path [`Cpu::step`], and compares
//! *everything* after every instruction: the step result (event or trap),
//! the register file, the PC, all [`crate::hart::CpuStats`] counters
//! (including the cycle charges), and — periodically and at the end — the
//! raw bytes of both physical memories.
//!
//! `gen_program` emits seeded RV64IM word streams biased toward the
//! paths that can diverge: self-modifying stores into the code page,
//! M-extension edge cases (division by zero, `i64::MIN / -1` overflow,
//! MULH-shaped encodings the ISA rejects), illegal raw words, bounded
//! branches, and wild indirect jumps that fault. [`shrink`] is the generic
//! greedy ddmin (also behind `hypertee-model::shrink`) that minimizes a
//! diverging word stream; [`run_campaign`] ties the three together for
//! `tests/interp_diff.rs` and the `verify.sh` smoke.

use crate::dicache::{DecodeCache, DEFAULT_LINES};
use crate::hart::Cpu;
use hypertee_mem::addr::{KeyId, PhysAddr, Ppn, VirtAddr, PAGE_SIZE};
use hypertee_mem::pagetable::{PageTable, Perms};
use hypertee_mem::phys::FrameAllocator;
use hypertee_mem::system::{CoreMmu, MemorySystem};
use hypertee_sim::rng::SplitMix64;

/// Virtual base of the (writable — the fuzzer self-modifies) code page.
pub(crate) const CODE: u64 = 0x1_0000;
/// Virtual base of the data page.
pub(crate) const DATA: u64 = 0x2_0000;

/// A draw in `[0, n)` by plain modulo reduction. Deliberately not
/// [`SplitMix64::gen_range`]: the generated programs (and every recorded
/// repro hex) depend on this exact reduction.
fn below(rng: &mut SplitMix64, n: u64) -> u64 {
    rng.next_u64() % n
}

// Local encoders (the `asm.rs` ones are private; these four are all the
// generator needs and are exercised against `decode` by the round-trip
// property test in `asm.rs`).
fn r_type(funct7: u32, rs2: u8, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    (funct7 << 25)
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn i_type(imm: i64, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    (((imm as u32) & 0xfff) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((rd as u32) << 7)
        | opcode
}

fn s_type(imm: i64, rs2: u8, rs1: u8, funct3: u32) -> u32 {
    let imm = imm as u32;
    ((imm >> 5) & 0x7f) << 25
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | (imm & 0x1f) << 7
        | 0x23
}

fn b_type(offset: i64, rs2: u8, rs1: u8, funct3: u32) -> u32 {
    let imm = offset as u32;
    ((imm >> 12) & 1) << 31
        | ((imm >> 5) & 0x3f) << 25
        | ((rs2 as u32) << 20)
        | ((rs1 as u32) << 15)
        | (funct3 << 12)
        | ((imm >> 1) & 0xf) << 8
        | ((imm >> 11) & 1) << 7
        | 0x63
}

fn j_type(offset: i64, rd: u8) -> u32 {
    let imm = offset as u32;
    ((imm >> 20) & 1) << 31
        | ((imm >> 1) & 0x3ff) << 21
        | ((imm >> 11) & 1) << 20
        | ((imm >> 12) & 0xff) << 12
        | ((rd as u32) << 7)
        | 0x6f
}

/// Destination register pick that never clobbers the dedicated base
/// registers (`x8` = DATA, `x9` = CODE) the generator relies on.
fn pick_rd(rng: &mut SplitMix64) -> u8 {
    loop {
        let r = below(rng, 32) as u8;
        if r != 8 && r != 9 {
            return r;
        }
    }
}

/// Generates a seeded RV64IM word stream of length `len`, biased toward
/// interpreter-divergence hazards (see module docs).
pub(crate) fn gen_program(rng: &mut SplitMix64, len: usize) -> Vec<u32> {
    const ALU_RR: &[(u32, u32)] = &[
        (0b0000000, 0b000), // add
        (0b0100000, 0b000), // sub
        (0b0000000, 0b001), // sll
        (0b0000000, 0b010), // slt
        (0b0000000, 0b011), // sltu
        (0b0000000, 0b100), // xor
        (0b0000000, 0b101), // srl
        (0b0100000, 0b101), // sra
        (0b0000000, 0b110), // or
        (0b0000000, 0b111), // and
        (0b0000001, 0b000), // mul
        (0b0000001, 0b100), // div
        (0b0000001, 0b101), // divu
        (0b0000001, 0b110), // rem
        (0b0000001, 0b111), // remu
    ];
    const LOAD_F3: &[(u32, u64)] = &[
        (0b000, 1), // lb
        (0b001, 2), // lh
        (0b010, 4), // lw
        (0b011, 8), // ld
        (0b100, 1), // lbu
        (0b101, 2), // lhu
        (0b110, 4), // lwu
    ];
    const STORE_F3: &[(u32, u64)] = &[(0b000, 1), (0b001, 2), (0b010, 4), (0b011, 8)];

    let mut words = Vec::with_capacity(len);
    for _ in 0..len {
        let rd = pick_rd(rng);
        let rs1 = below(rng, 32) as u8;
        let rs2 = below(rng, 32) as u8;
        let word = match below(rng, 20) {
            0..=4 => {
                // Register–register ALU, M included — with seeded register
                // constants (0, -1, i64::MIN) this covers division by
                // zero, remainder by zero, and the MIN/-1 overflow.
                let (f7, f3) = ALU_RR[below(rng, ALU_RR.len() as u64) as usize];
                r_type(f7, rs2, rs1, f3, rd, 0x33)
            }
            5..=6 => {
                let f3 = [0b000, 0b010, 0b011, 0b100, 0b110, 0b111][below(rng, 6) as usize];
                i_type(rng.next_u64() as i64 & 0xfff, rs1, f3, rd, 0x13)
            }
            7 => {
                // 32-bit forms (addw/subw/sllw/srlw/sraw/mulw + addiw).
                if below(rng, 2) == 0 {
                    let (f7, f3) = [
                        (0b0000000, 0b000),
                        (0b0100000, 0b000),
                        (0b0000000, 0b001),
                        (0b0000000, 0b101),
                        (0b0100000, 0b101),
                        (0b0000001, 0b000),
                    ][below(rng, 6) as usize];
                    r_type(f7, rs2, rs1, f3, rd, 0x3b)
                } else {
                    i_type(rng.next_u64() as i64 & 0xfff, rs1, 0b000, rd, 0x1b)
                }
            }
            8 => {
                let opcode = if below(rng, 2) == 0 { 0x37 } else { 0x17 };
                ((rng.next_u64() as u32) & 0xffff_f000) | ((rd as u32) << 7) | opcode
            }
            9..=11 => {
                // Load through the DATA base; mostly aligned, 1-in-8
                // deliberately misaligned (a BusError both paths must
                // report identically).
                let (f3, size) = LOAD_F3[below(rng, LOAD_F3.len() as u64) as usize];
                let mut offset = below(rng, 2040) & !(size - 1);
                if size > 1 && below(rng, 8) == 0 {
                    offset += 1;
                }
                i_type(offset as i64, 8, f3, rd, 0x03)
            }
            12..=13 => {
                let (f3, size) = STORE_F3[below(rng, STORE_F3.len() as u64) as usize];
                let mut offset = below(rng, 2040) & !(size - 1);
                if size > 1 && below(rng, 8) == 0 {
                    offset += 1;
                }
                s_type(offset as i64, rs2, 8, f3)
            }
            14 => {
                // Self-modifying store into the code page: the decoded
                // cache must drop the line and refetch like the oracle.
                s_type((below(rng, 510) * 4) as i64, rs2, 9, 0b010)
            }
            15 => {
                let f3 = [0b000, 0b001, 0b100, 0b101, 0b110, 0b111][below(rng, 6) as usize];
                let offset = (below(rng, 16) as i64 - 8) * 4;
                b_type(if offset == 0 { 4 } else { offset }, rs2, rs1, f3)
            }
            16 => {
                if below(rng, 2) == 0 {
                    j_type((below(rng, 16) as i64 - 8) * 4, rd)
                } else {
                    // Indirect jump: through the CODE base (bounded) or a
                    // wild register (usually a fetch fault both paths
                    // must agree on).
                    let base = if below(rng, 2) == 0 { 9 } else { rs1 };
                    i_type((below(rng, 510) * 4) as i64, base, 0b000, rd, 0x67)
                }
            }
            17 => {
                // MULH/MULHSU/MULHU-shaped probes: funct7=1 with funct3
                // 001/010/011 is *outside* the supported subset and must
                // decode Illegal on both paths.
                let f3 = [0b001, 0b010, 0b011][below(rng, 3) as usize];
                r_type(0b0000001, rs2, rs1, f3, rd, 0x33)
            }
            18 => rng.next_u64() as u32, // raw word, usually illegal
            _ => match below(rng, 4) {
                0 => 0x0000_0073, // ecall
                1 => 0x0010_0073, // ebreak
                2 => 0x0000_000f, // fence
                _ => i_type(rng.next_u64() as i64 & 0xfff, rs1, 0b000, rd, 0x13),
            },
        };
        words.push(word);
    }
    words
}

struct Half {
    sys: MemorySystem,
    mmu: CoreMmu,
    cpu: Cpu,
    code_pa: PhysAddr,
    data_pa: PhysAddr,
}

fn boot_half(image: &[u8]) -> Half {
    assert!(image.len() as u64 <= PAGE_SIZE, "program exceeds one page");
    let mut sys = MemorySystem::new(32 << 20, PhysAddr(0x4000));
    let mut frames = FrameAllocator::new(Ppn(16), Ppn(4000));
    let pt = PageTable::new(&mut frames, &mut sys.phys);
    let code = frames.alloc().unwrap();
    sys.phys.write(code.base(), image).unwrap();
    pt.map(
        VirtAddr(CODE),
        code,
        Perms::RWX,
        KeyId::HOST,
        &mut frames,
        &mut sys.phys,
    )
    .unwrap();
    let data = frames.alloc().unwrap();
    pt.map(
        VirtAddr(DATA),
        data,
        Perms::RW,
        KeyId::HOST,
        &mut frames,
        &mut sys.phys,
    )
    .unwrap();
    let mut mmu = CoreMmu::new(16);
    mmu.switch_table(Some(pt), false);
    let mut cpu = Cpu::new(VirtAddr(CODE));
    // Interesting constants for the M-extension edge cases; x8/x9 are the
    // generator's dedicated data/code bases.
    let interesting = [
        0,
        1,
        u64::MAX,
        i64::MIN as u64,
        i64::MAX as u64,
        2,
        0x8000_0000,
        DATA,
        DATA + 8,
        DATA + 1024,
        0xdead_beef,
        64,
        7,
        u32::MAX as u64,
    ];
    for (i, v) in interesting.iter().enumerate() {
        cpu.regs[i + 10] = *v;
    }
    cpu.regs[8] = DATA;
    cpu.regs[9] = CODE;
    Half {
        sys,
        mmu,
        cpu,
        code_pa: code.base(),
        data_pa: data.base(),
    }
}

fn compare_memory(a: &mut Half, b: &mut Half) -> Result<(), String> {
    let mut pa = vec![0u8; PAGE_SIZE as usize];
    let mut pb = vec![0u8; PAGE_SIZE as usize];
    for (label, pa_a, pa_b) in [
        ("code", a.code_pa, b.code_pa),
        ("data", a.data_pa, b.data_pa),
    ] {
        a.sys
            .phys
            .read(pa_a, &mut pa)
            .map_err(|e| format!("{e:?}"))?;
        b.sys
            .phys
            .read(pa_b, &mut pb)
            .map_err(|e| format!("{e:?}"))?;
        if let Some(off) = (0..pa.len()).find(|&i| pa[i] != pb[i]) {
            return Err(format!(
                "{label} page diverged at +{off:#x}: ref {:#04x} vs fast {:#04x}",
                pa[off], pb[off]
            ));
        }
    }
    Ok(())
}

/// Runs `words` in lockstep on both interpreter paths for up to
/// `max_steps` instructions.
///
/// # Errors
///
/// The first divergence, as a human-readable message naming the step and
/// the state that differed.
pub fn run_diff(words: &[u32], max_steps: u64) -> Result<(), String> {
    let image: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut a = boot_half(&image);
    let mut b = boot_half(&image);
    let mut cache = DecodeCache::new(DEFAULT_LINES);
    let mut consecutive_traps = 0u32;
    for step in 0..max_steps {
        // A 4-byte fetch at the last halfword of a page would violate the
        // MMU page-bound contract identically on both paths (a seed-era
        // panic, not a divergence); steer the walk back to the program.
        if a.cpu.pc.0 % PAGE_SIZE == PAGE_SIZE - 2 {
            a.cpu.pc = VirtAddr(CODE);
            b.cpu.pc = VirtAddr(CODE);
        }
        let ra = a.cpu.step_ref(&mut a.mmu, &mut a.sys);
        let rb = b.cpu.step(&mut b.mmu, &mut b.sys, &mut cache);
        if ra != rb {
            return Err(format!(
                "step {step}: result diverged: ref {ra:?} vs fast {rb:?}"
            ));
        }
        if a.cpu.regs != b.cpu.regs {
            let x = (0..32).find(|&i| a.cpu.regs[i] != b.cpu.regs[i]).unwrap();
            return Err(format!(
                "step {step}: x{x} diverged: ref {:#x} vs fast {:#x}",
                a.cpu.regs[x], b.cpu.regs[x]
            ));
        }
        if a.cpu.pc != b.cpu.pc {
            return Err(format!(
                "step {step}: pc diverged: ref {:#x} vs fast {:#x}",
                a.cpu.pc.0, b.cpu.pc.0
            ));
        }
        if a.cpu.stats != b.cpu.stats {
            return Err(format!(
                "step {step}: stats diverged: ref {:?} vs fast {:?}",
                a.cpu.stats, b.cpu.stats
            ));
        }
        if ra.is_ok() {
            consecutive_traps = 0;
        } else {
            // Both trapped identically. Skip the faulting instruction —
            // or, if the walk is stuck (e.g. a wild jalr landed outside
            // the map), restart from the program base.
            consecutive_traps += 1;
            if consecutive_traps >= 8 {
                a.cpu.pc = VirtAddr(CODE);
                b.cpu.pc = VirtAddr(CODE);
                consecutive_traps = 0;
            } else {
                a.cpu.pc = VirtAddr(a.cpu.pc.0.wrapping_add(4));
                b.cpu.pc = VirtAddr(b.cpu.pc.0.wrapping_add(4));
            }
        }
        if step % 64 == 63 {
            compare_memory(&mut a, &mut b).map_err(|e| format!("step {step}: {e}"))?;
        }
    }
    compare_memory(&mut a, &mut b)
}

/// Greedy ddmin: repeatedly deletes chunks of `items`, halving the chunk
/// size, keeping every deletion under which `pred` still holds, until a
/// pass at chunk size one removes nothing or `max_runs` candidates have
/// been tried. Never proposes the empty sequence. Returns `items`
/// unchanged when `pred` does not hold for it in the first place.
///
/// The one shrinker of the workspace: it minimizes diverging word streams
/// here and diverging lifecycle traces in `hypertee-model`.
pub fn shrink<T: Clone>(
    items: &[T],
    max_runs: usize,
    mut pred: impl FnMut(&[T]) -> bool,
) -> Vec<T> {
    let mut current = items.to_vec();
    if !pred(&current) {
        return current;
    }
    let mut runs = 0usize;
    let mut chunk = current.len().div_ceil(2).max(1);
    loop {
        let mut shrunk_this_pass = false;
        let mut start = 0;
        while start < current.len() && runs < max_runs {
            let end = (start + chunk).min(current.len());
            let mut candidate = current.clone();
            candidate.drain(start..end);
            runs += 1;
            if !candidate.is_empty() && pred(&candidate) {
                current = candidate; // retry in place: indices shifted
                shrunk_this_pass = true;
            } else {
                start = end;
            }
        }
        if runs >= max_runs || (chunk == 1 && !shrunk_this_pass) {
            break;
        }
        if chunk > 1 {
            chunk = chunk.div_ceil(2);
        }
    }
    current
}

/// A seeded differential campaign: `programs` generated word streams, each
/// run for `max_steps` lockstep instructions.
#[derive(Debug, Clone, Copy)]
pub struct Campaign {
    /// Base seed; program `i` derives its stream from `seed + i`.
    pub seed: u64,
    /// Number of generated programs.
    pub programs: usize,
    /// Words per program.
    pub prog_len: usize,
    /// Lockstep instructions per program.
    pub max_steps: u64,
}

/// Candidate replays one word-stream shrink may spend.
const SHRINK_RUNS: usize = 2000;

/// Runs a campaign; on the first divergence, ddmin-shrinks the program and
/// reports everything needed to reproduce.
///
/// # Errors
///
/// A reproduction report: seed, program index, the divergence message, and
/// the shrunk word stream in hex.
pub fn run_campaign(cfg: &Campaign) -> Result<(), String> {
    for i in 0..cfg.programs {
        let mut rng = SplitMix64::new(cfg.seed.wrapping_add(i as u64));
        let words = gen_program(&mut rng, cfg.prog_len);
        if let Err(msg) = run_diff(&words, cfg.max_steps) {
            let shrunk = shrink(&words, SHRINK_RUNS, |w| run_diff(w, cfg.max_steps).is_err());
            let final_msg = run_diff(&shrunk, cfg.max_steps)
                .err()
                .unwrap_or_else(|| msg.clone());
            let hex: Vec<String> = shrunk.iter().map(|w| format!("{w:#010x}")).collect();
            return Err(format!(
                "divergence at seed {} program {i}: {final_msg}\nshrunk to {} words: [{}]",
                cfg.seed.wrapping_add(i as u64),
                shrunk.len(),
                hex.join(", ")
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_streams_are_seed_deterministic() {
        let a = gen_program(&mut SplitMix64::new(7), 64);
        let b = gen_program(&mut SplitMix64::new(7), 64);
        let c = gen_program(&mut SplitMix64::new(8), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn short_campaign_is_green() {
        let cfg = Campaign {
            seed: 0xd1ff,
            programs: 4,
            prog_len: 96,
            max_steps: 1_500,
        };
        run_campaign(&cfg).unwrap();
    }

    #[test]
    fn shrink_minimizes_to_the_culprit_words() {
        // Synthetic divergence predicate: the stream "diverges" while it
        // still contains both marker words. ddmin must reduce 256 words to
        // exactly those two.
        let mut rng = SplitMix64::new(42);
        let mut words = gen_program(&mut rng, 256);
        words[37] = 0xaaaa_aaaa;
        words[201] = 0xbbbb_bbbb;
        let shrunk = shrink(&words, SHRINK_RUNS, |w| {
            w.contains(&0xaaaa_aaaa) && w.contains(&0xbbbb_bbbb)
        });
        assert_eq!(shrunk, vec![0xaaaa_aaaa, 0xbbbb_bbbb]);
    }

    #[test]
    fn shrink_returns_input_when_nothing_diverges() {
        let words = vec![1, 2, 3];
        assert_eq!(shrink(&words, SHRINK_RUNS, |_| false), words);
    }
}
