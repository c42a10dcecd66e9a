//! The RV64IM interpreter: architectural state + execution through a
//! [`CoreMmu`].
//!
//! Two execution paths share one architectural state:
//!
//! * [`Cpu::step_ref`] — the seed fetch-decode-execute loop, kept verbatim
//!   as the differential oracle: every instruction fetch is a 4-byte MMU
//!   load (a full MKTME line round trip), decoded fresh.
//! * [`Cpu::run_block`] / [`Cpu::step`] — the fast path: decoded lines are
//!   cached by physical address ([`crate::dicache::DecodeCache`]) and
//!   straight-line blocks dispatch without touching memory, charging the
//!   timing model in one batched add per block.
//!
//! The contract, enforced by `tests/interp_diff.rs`: registers, PC, memory,
//! [`CpuStats`] (including `cycles`), and every trap are bit-identical
//! between the two paths at every step.

use crate::dicache::{DecodeCache, LINE_BYTES, LINE_SLOTS};
use crate::isa::{decode, AluKind, BranchKind, Instr, LoadKind, StoreKind};
use hypertee_mem::addr::{VirtAddr, PAGE_SIZE};
use hypertee_mem::system::{CoreMmu, MemorySystem};
use hypertee_mem::MemFault;

/// What one executed instruction produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// Normal forward progress.
    Continue,
    /// `ecall` executed (syscall registers are in `a0..a7`); PC already
    /// advanced past it.
    Ecall,
    /// `ebreak` executed; PC already advanced past it.
    Ebreak,
}

/// Why execution trapped. Memory faults carry the *faulting* address and
/// leave PC at the faulting instruction so it can be retried after the
/// fault is serviced (the demand-paging contract, §IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// A memory fault during fetch or data access.
    Mem(MemFault),
    /// An undecodable instruction: the raw word and the physical address it
    /// was fetched from (so diff-shrink traces point at the actual image
    /// byte, not just the virtual PC).
    Illegal {
        /// The undecodable instruction word.
        word: u32,
        /// Physical address of the word.
        pa: u64,
    },
}

impl core::fmt::Display for Trap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Trap::Mem(m) => write!(f, "memory trap: {m}"),
            Trap::Illegal { word, pa } => {
                write!(
                    f,
                    "illegal instruction {word:#010x} fetched from pa {pa:#x}"
                )
            }
        }
    }
}

/// Executed-instruction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Instructions retired.
    pub retired: u64,
    /// Memory (data) accesses performed.
    pub(crate) mem_ops: u64,
    /// Traps taken.
    pub(crate) traps: u64,
    /// Timing-model cycles charged for retired instructions
    /// (`instr_cost` per instruction; bit-identical between `step_ref`
    /// and block dispatch by the differential contract).
    pub cycles: u64,
}

/// The interpreter timing model: cycles charged per *retired* instruction
/// (a trapped instruction charges nothing — it either retries or kills the
/// task). Deliberately coarse BOOM-class latencies; what matters for the
/// reproduction is that both interpreter paths charge identically, which
/// holds by construction because block dispatch precomputes this per slot
/// at decode time.
pub(crate) fn instr_cost(instr: &Instr) -> u64 {
    match instr {
        Instr::Load { .. } | Instr::Store { .. } => 3,
        Instr::Op { kind, .. } | Instr::Op32 { kind, .. } => match kind {
            AluKind::Mul => 3,
            AluKind::Div | AluKind::Divu | AluKind::Rem | AluKind::Remu => 20,
            _ => 1,
        },
        Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => 2,
        Instr::Ecall | Instr::Ebreak => 2,
        Instr::Lui { .. } | Instr::Auipc { .. } | Instr::OpImm { .. } | Instr::OpImm32 { .. } => 1,
        Instr::Fence => 1,
    }
}

/// One hart's architectural state.
#[derive(Debug, Clone)]
pub struct Cpu {
    /// Integer registers; `regs[0]` is hardwired to zero.
    pub regs: [u64; 32],
    /// Program counter.
    pub pc: VirtAddr,
    /// Counters.
    pub stats: CpuStats,
}

impl Cpu {
    /// A CPU starting at `entry` with all registers zero.
    pub fn new(entry: VirtAddr) -> Cpu {
        Cpu {
            regs: [0; 32],
            pc: entry,
            stats: CpuStats::default(),
        }
    }

    fn write_reg(&mut self, rd: u8, value: u64) {
        if rd != 0 {
            self.regs[rd as usize] = value;
        }
    }

    fn load(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        va: u64,
        len: usize,
    ) -> Result<u64, Trap> {
        self.stats.mem_ops += 1;
        if !va.is_multiple_of(len as u64) {
            // Misaligned accesses split at page granularity would complicate
            // the MMU contract; treat as a bus error at the address.
            return Err(Trap::Mem(MemFault::BusError { pa: va }));
        }
        let mut buf = [0u8; 8];
        // Aligned accesses never cross a page.
        debug_assert!(va % PAGE_SIZE + len as u64 <= PAGE_SIZE);
        mmu.load(sys, VirtAddr(va), &mut buf[..len])
            .map_err(Trap::Mem)?;
        Ok(u64::from_le_bytes(buf))
    }

    fn store(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        va: u64,
        len: usize,
        value: u64,
    ) -> Result<(), Trap> {
        self.stats.mem_ops += 1;
        if !va.is_multiple_of(len as u64) {
            return Err(Trap::Mem(MemFault::BusError { pa: va }));
        }
        let bytes = value.to_le_bytes();
        mmu.store(sys, VirtAddr(va), &bytes[..len])
            .map_err(Trap::Mem)
    }

    fn alu(kind: AluKind, a: u64, b: u64) -> u64 {
        match kind {
            AluKind::Add => a.wrapping_add(b),
            AluKind::Sub => a.wrapping_sub(b),
            AluKind::Sll => a.wrapping_shl((b & 0x3f) as u32),
            AluKind::Slt => ((a as i64) < (b as i64)) as u64,
            AluKind::Sltu => (a < b) as u64,
            AluKind::Xor => a ^ b,
            AluKind::Srl => a.wrapping_shr((b & 0x3f) as u32),
            AluKind::Sra => ((a as i64).wrapping_shr((b & 0x3f) as u32)) as u64,
            AluKind::Or => a | b,
            AluKind::And => a & b,
            AluKind::Mul => a.wrapping_mul(b),
            AluKind::Div => {
                if b == 0 {
                    u64::MAX
                } else {
                    ((a as i64).wrapping_div(b as i64)) as u64
                }
            }
            AluKind::Divu => a.checked_div(b).unwrap_or(u64::MAX),
            AluKind::Rem => {
                if b == 0 {
                    a
                } else {
                    ((a as i64).wrapping_rem(b as i64)) as u64
                }
            }
            AluKind::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }

    fn alu32(kind: AluKind, a: u64, b: u64) -> u64 {
        let a32 = a as u32;
        let b32 = b as u32;
        let r = match kind {
            AluKind::Add => a32.wrapping_add(b32),
            AluKind::Sub => a32.wrapping_sub(b32),
            AluKind::Sll => a32.wrapping_shl(b32 & 0x1f),
            AluKind::Srl => a32.wrapping_shr(b32 & 0x1f),
            AluKind::Sra => ((a32 as i32).wrapping_shr(b32 & 0x1f)) as u32,
            AluKind::Mul => a32.wrapping_mul(b32),
            _ => a32, // other kinds never reach the 32-bit path
        };
        r as i32 as i64 as u64
    }

    /// Fetches, decodes, and executes one instruction through `mmu` — the
    /// seed fetch-decode-execute path, kept verbatim as the differential
    /// oracle for the decoded-block fast path ([`Cpu::run_block`]).
    ///
    /// # Errors
    ///
    /// Returns [`Trap`] with PC unchanged on memory faults (so the
    /// instruction retries after fault handling) and PC unchanged on
    /// illegal instructions.
    pub fn step_ref(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
    ) -> Result<StepEvent, Trap> {
        // Fetch.
        let mut word_bytes = [0u8; 4];
        if let Err(f) = mmu.load(sys, self.pc, &mut word_bytes) {
            self.stats.traps += 1;
            return Err(Trap::Mem(f));
        }
        let word = u32::from_le_bytes(word_bytes);
        let instr = match decode(word) {
            Ok(i) => i,
            Err(e) => {
                self.stats.traps += 1;
                // The fetch just succeeded, so this resolves from the TLB;
                // fall back to the VA if translation state moved underneath.
                let pa = mmu
                    .translate_fetch(sys, self.pc)
                    .map(|p| p.0)
                    .unwrap_or(self.pc.0);
                return Err(Trap::Illegal { word: e.0, pa });
            }
        };
        let next_pc = VirtAddr(self.pc.0 + 4);
        let mut event = StepEvent::Continue;
        match instr {
            Instr::Lui { rd, imm } => {
                self.write_reg(rd, imm as u64);
                self.pc = next_pc;
            }
            Instr::Auipc { rd, imm } => {
                self.write_reg(rd, self.pc.0.wrapping_add(imm as u64));
                self.pc = next_pc;
            }
            Instr::Jal { rd, offset } => {
                self.write_reg(rd, next_pc.0);
                self.pc = VirtAddr(self.pc.0.wrapping_add(offset as u64));
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.regs[rs1 as usize].wrapping_add(offset as u64) & !1;
                self.write_reg(rd, next_pc.0);
                self.pc = VirtAddr(target);
            }
            Instr::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let taken = match kind {
                    BranchKind::Eq => a == b,
                    BranchKind::Ne => a != b,
                    BranchKind::Lt => (a as i64) < (b as i64),
                    BranchKind::Ge => (a as i64) >= (b as i64),
                    BranchKind::Ltu => a < b,
                    BranchKind::Geu => a >= b,
                };
                self.pc = if taken {
                    VirtAddr(self.pc.0.wrapping_add(offset as u64))
                } else {
                    next_pc
                };
            }
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let va = self.regs[rs1 as usize].wrapping_add(offset as u64);
                let value = match kind {
                    LoadKind::Lb => self.load(mmu, sys, va, 1)? as i8 as i64 as u64,
                    LoadKind::Lbu => self.load(mmu, sys, va, 1)?,
                    LoadKind::Lh => self.load(mmu, sys, va, 2)? as i16 as i64 as u64,
                    LoadKind::Lhu => self.load(mmu, sys, va, 2)?,
                    LoadKind::Lw => self.load(mmu, sys, va, 4)? as i32 as i64 as u64,
                    LoadKind::Lwu => self.load(mmu, sys, va, 4)?,
                    LoadKind::Ld => self.load(mmu, sys, va, 8)?,
                };
                self.write_reg(rd, value);
                self.pc = next_pc;
            }
            Instr::Store {
                kind,
                rs2,
                rs1,
                offset,
            } => {
                let va = self.regs[rs1 as usize].wrapping_add(offset as u64);
                let value = self.regs[rs2 as usize];
                match kind {
                    StoreKind::Sb => self.store(mmu, sys, va, 1, value)?,
                    StoreKind::Sh => self.store(mmu, sys, va, 2, value)?,
                    StoreKind::Sw => self.store(mmu, sys, va, 4, value)?,
                    StoreKind::Sd => self.store(mmu, sys, va, 8, value)?,
                }
                self.pc = next_pc;
            }
            Instr::OpImm { kind, rd, rs1, imm } => {
                let v = Self::alu(kind, self.regs[rs1 as usize], imm as u64);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::OpImm32 { kind, rd, rs1, imm } => {
                let v = Self::alu32(kind, self.regs[rs1 as usize], imm as u64);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Op { kind, rd, rs1, rs2 } => {
                let v = Self::alu(kind, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Op32 { kind, rd, rs1, rs2 } => {
                let v = Self::alu32(kind, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Ecall => {
                self.pc = next_pc;
                event = StepEvent::Ecall;
            }
            Instr::Ebreak => {
                self.pc = next_pc;
                event = StepEvent::Ebreak;
            }
            Instr::Fence => {
                self.pc = next_pc;
            }
        }
        self.stats.cycles += instr_cost(&instr);
        self.stats.retired += 1;
        Ok(event)
    }

    /// Executes one instruction through the decoded-line cache — the cached
    /// counterpart of [`Cpu::step_ref`], with identical architectural
    /// semantics (the `tests/interp_diff.rs` lockstep contract).
    ///
    /// # Errors
    ///
    /// Same as [`Cpu::step_ref`].
    pub fn step(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        cache: &mut DecodeCache,
    ) -> Result<StepEvent, Trap> {
        self.run_block(mmu, sys, cache, 1).1
    }

    /// Runs up to `budget` instructions through the decoded-block dispatch
    /// loop. Returns how many budget units were consumed (each executed
    /// *or trapped* instruction consumes one, matching the per-`step_ref`
    /// accounting of the seed exec loop) and the final event:
    /// `Ok(StepEvent::Continue)` means the budget ran out mid-flight.
    ///
    /// Timing charges accumulate locally and land on
    /// [`CpuStats::cycles`] in a single batched add when the block exits.
    pub fn run_block(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        cache: &mut DecodeCache,
        budget: u64,
    ) -> (u64, Result<StepEvent, Trap>) {
        cache.sync_epoch(mmu.flush_epoch);
        let mut used = 0u64;
        let mut cycles = 0u64;
        let result = 'run: loop {
            if used >= budget {
                break Ok(StepEvent::Continue);
            }
            // Misaligned PCs bypass the cache entirely: the seed fetch
            // semantics (including its page-bound panics) apply verbatim.
            if !self.pc.0.is_multiple_of(4) {
                used += 1;
                match self.step_ref(mmu, sys) {
                    Ok(StepEvent::Continue) => continue 'run,
                    other => break other,
                }
            }
            let line_pa = match mmu.translate_fetch(sys, self.pc) {
                Ok(pa) => pa.0 & !(LINE_BYTES - 1),
                Err(f) => {
                    self.stats.traps += 1;
                    used += 1;
                    break Err(Trap::Mem(f));
                }
            };
            let line = match cache.get(line_pa) {
                Some(line) => line,
                None => {
                    let va_line = VirtAddr(self.pc.0 & !(LINE_BYTES - 1));
                    let mut bytes = [0u8; LINE_BYTES as usize];
                    match mmu.load(sys, va_line, &mut bytes) {
                        Ok(()) => cache.fill(line_pa, &bytes),
                        Err(_) => {
                            // The line read failed (e.g. an integrity
                            // violation): retry as the exact seed 4-byte
                            // fetch so the reported fault is bit-identical
                            // to the oracle's.
                            used += 1;
                            match self.step_ref(mmu, sys) {
                                Ok(StepEvent::Continue) => continue 'run,
                                other => break other,
                            }
                        }
                    }
                }
            };
            // Straight-line dispatch within the decoded line.
            let mut slot = ((self.pc.0 & (LINE_BYTES - 1)) / 4) as usize;
            loop {
                if used >= budget {
                    break 'run Ok(StepEvent::Continue);
                }
                used += 1;
                let expected_next = self.pc.0 + 4;
                match line.slots[slot] {
                    Err(word) => {
                        self.stats.traps += 1;
                        break 'run Err(Trap::Illegal {
                            word,
                            pa: line_pa + slot as u64 * 4,
                        });
                    }
                    Ok(instr) => match self.exec_decoded(mmu, sys, cache, instr, line_pa) {
                        Ok((event, smc_hit)) => {
                            cycles += line.cost[slot] as u64;
                            if event != StepEvent::Continue {
                                break 'run Ok(event);
                            }
                            if smc_hit {
                                // A store just rewrote the line we are
                                // executing from: refetch before the next
                                // instruction, like the uncached oracle.
                                break;
                            }
                        }
                        Err(t) => break 'run Err(t),
                    },
                }
                if self.pc.0 != expected_next || slot + 1 >= LINE_SLOTS {
                    break; // control transfer or line end: re-enter
                }
                slot += 1;
            }
        };
        self.stats.cycles += cycles;
        (used, result)
    }

    /// Data store for the cached path: seed [`Cpu::store`] semantics plus
    /// store-side cache invalidation. Returns the physical address so the
    /// dispatch loop can detect stores into its own line.
    fn store_inv(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        cache: &mut DecodeCache,
        va: u64,
        len: usize,
        value: u64,
    ) -> Result<u64, Trap> {
        self.stats.mem_ops += 1;
        if !va.is_multiple_of(len as u64) {
            return Err(Trap::Mem(MemFault::BusError { pa: va }));
        }
        let bytes = value.to_le_bytes();
        let pa = mmu
            .store_traced(sys, VirtAddr(va), &bytes[..len])
            .map_err(Trap::Mem)?;
        cache.invalidate_range(pa.0, len as u64);
        Ok(pa.0)
    }

    /// Executes one already-decoded instruction — the dispatch-loop twin of
    /// the `step_ref` execute match, with the same architectural effects.
    /// Returns the event and whether a store hit the currently executing
    /// line (`line_pa`), which forces a refetch.
    fn exec_decoded(
        &mut self,
        mmu: &mut CoreMmu,
        sys: &mut MemorySystem,
        cache: &mut DecodeCache,
        instr: Instr,
        line_pa: u64,
    ) -> Result<(StepEvent, bool), Trap> {
        let next_pc = VirtAddr(self.pc.0 + 4);
        let mut event = StepEvent::Continue;
        let mut smc_hit = false;
        match instr {
            Instr::Lui { rd, imm } => {
                self.write_reg(rd, imm as u64);
                self.pc = next_pc;
            }
            Instr::Auipc { rd, imm } => {
                self.write_reg(rd, self.pc.0.wrapping_add(imm as u64));
                self.pc = next_pc;
            }
            Instr::Jal { rd, offset } => {
                self.write_reg(rd, next_pc.0);
                self.pc = VirtAddr(self.pc.0.wrapping_add(offset as u64));
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.regs[rs1 as usize].wrapping_add(offset as u64) & !1;
                self.write_reg(rd, next_pc.0);
                self.pc = VirtAddr(target);
            }
            Instr::Branch {
                kind,
                rs1,
                rs2,
                offset,
            } => {
                let a = self.regs[rs1 as usize];
                let b = self.regs[rs2 as usize];
                let taken = match kind {
                    BranchKind::Eq => a == b,
                    BranchKind::Ne => a != b,
                    BranchKind::Lt => (a as i64) < (b as i64),
                    BranchKind::Ge => (a as i64) >= (b as i64),
                    BranchKind::Ltu => a < b,
                    BranchKind::Geu => a >= b,
                };
                self.pc = if taken {
                    VirtAddr(self.pc.0.wrapping_add(offset as u64))
                } else {
                    next_pc
                };
            }
            Instr::Load {
                kind,
                rd,
                rs1,
                offset,
            } => {
                let va = self.regs[rs1 as usize].wrapping_add(offset as u64);
                let value = match kind {
                    LoadKind::Lb => self.load(mmu, sys, va, 1)? as i8 as i64 as u64,
                    LoadKind::Lbu => self.load(mmu, sys, va, 1)?,
                    LoadKind::Lh => self.load(mmu, sys, va, 2)? as i16 as i64 as u64,
                    LoadKind::Lhu => self.load(mmu, sys, va, 2)?,
                    LoadKind::Lw => self.load(mmu, sys, va, 4)? as i32 as i64 as u64,
                    LoadKind::Lwu => self.load(mmu, sys, va, 4)?,
                    LoadKind::Ld => self.load(mmu, sys, va, 8)?,
                };
                self.write_reg(rd, value);
                self.pc = next_pc;
            }
            Instr::Store {
                kind,
                rs2,
                rs1,
                offset,
            } => {
                let va = self.regs[rs1 as usize].wrapping_add(offset as u64);
                let value = self.regs[rs2 as usize];
                let len = match kind {
                    StoreKind::Sb => 1,
                    StoreKind::Sh => 2,
                    StoreKind::Sw => 4,
                    StoreKind::Sd => 8,
                };
                let pa = self.store_inv(mmu, sys, cache, va, len, value)?;
                smc_hit = pa & !(LINE_BYTES - 1) == line_pa;
                self.pc = next_pc;
            }
            Instr::OpImm { kind, rd, rs1, imm } => {
                let v = Self::alu(kind, self.regs[rs1 as usize], imm as u64);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::OpImm32 { kind, rd, rs1, imm } => {
                let v = Self::alu32(kind, self.regs[rs1 as usize], imm as u64);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Op { kind, rd, rs1, rs2 } => {
                let v = Self::alu(kind, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Op32 { kind, rd, rs1, rs2 } => {
                let v = Self::alu32(kind, self.regs[rs1 as usize], self.regs[rs2 as usize]);
                self.write_reg(rd, v);
                self.pc = next_pc;
            }
            Instr::Ecall => {
                self.pc = next_pc;
                event = StepEvent::Ecall;
            }
            Instr::Ebreak => {
                self.pc = next_pc;
                event = StepEvent::Ebreak;
            }
            Instr::Fence => {
                self.pc = next_pc;
            }
        }
        self.stats.retired += 1;
        Ok((event, smc_hit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use hypertee_mem::addr::{KeyId, PhysAddr, Ppn};
    use hypertee_mem::pagetable::{PageTable, Perms};
    use hypertee_mem::phys::FrameAllocator;

    const CODE: u64 = 0x1_0000;
    const DATA: u64 = 0x2_0000;

    fn machine(image: &[u8]) -> (MemorySystem, CoreMmu, Cpu) {
        let mut sys = MemorySystem::new(32 << 20, PhysAddr(0x4000));
        let mut frames = FrameAllocator::new(Ppn(16), Ppn(4000));
        let pt = PageTable::new(&mut frames, &mut sys.phys);
        let code = frames.alloc().unwrap();
        sys.phys.write(code.base(), image).unwrap();
        pt.map(
            VirtAddr(CODE),
            code,
            Perms::RX,
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
        (sys, mmu, Cpu::new(VirtAddr(CODE)))
    }

    fn run_ref(image: &[u8], max_steps: usize) -> Cpu {
        let (mut sys, mut mmu, mut cpu) = machine(image);
        for _ in 0..max_steps {
            match cpu.step_ref(&mut mmu, &mut sys).expect("no trap") {
                StepEvent::Continue => {}
                StepEvent::Ecall | StepEvent::Ebreak => return cpu,
            }
        }
        panic!("program did not finish in {max_steps} steps");
    }

    /// Runs the image on both interpreter paths and asserts they agree on
    /// registers, PC, and every `CpuStats` counter before returning the
    /// cached-path CPU — so every functional test below doubles as a
    /// differential check.
    fn run(image: &[u8], max_steps: usize) -> Cpu {
        let reference = run_ref(image, max_steps);
        let (mut sys, mut mmu, mut cpu) = machine(image);
        let mut cache = DecodeCache::new(64);
        for _ in 0..max_steps {
            match cpu.step(&mut mmu, &mut sys, &mut cache).expect("no trap") {
                StepEvent::Continue => {}
                StepEvent::Ecall | StepEvent::Ebreak => {
                    assert_eq!(cpu.regs, reference.regs, "register file diverged");
                    assert_eq!(cpu.pc, reference.pc, "pc diverged");
                    assert_eq!(cpu.stats, reference.stats, "stats diverged");
                    return cpu;
                }
            }
        }
        panic!("program did not finish in {max_steps} steps");
    }

    #[test]
    fn arithmetic_and_exit() {
        let mut a = Asm::new();
        a.addi(10, 0, 21);
        a.slli(10, 10, 1); // 42
        a.ecall();
        let cpu = run(&a.assemble(), 10);
        assert_eq!(cpu.regs[10], 42);
        assert_eq!(cpu.stats.retired, 3);
    }

    #[test]
    fn loop_sums_one_to_ten() {
        // a0 = sum(1..=10) = 55.
        let mut a = Asm::new();
        a.addi(10, 0, 0); // acc
        a.addi(11, 0, 1); // i
        a.addi(12, 0, 11); // bound
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.beq(11, 12, done);
        a.add(10, 10, 11);
        a.addi(11, 11, 1);
        a.jal(0, top);
        a.bind(done);
        a.ecall();
        let cpu = run(&a.assemble(), 100);
        assert_eq!(cpu.regs[10], 55);
    }

    #[test]
    fn memory_roundtrip_all_widths() {
        let mut a = Asm::new();
        a.li(5, DATA);
        a.li(6, 0x1122_3344_5566_7788);
        a.sd(6, 0, 5);
        a.ld(7, 0, 5);
        a.lbu(9, 7, 5); // top byte 0x11
        let lw = (5u32 << 15) | (0b010 << 12) | (8 << 7) | 0x03; // lw x8, 0(x5): sign-extended 0x55667788
        let sb = (6u32 << 20) | (5 << 15) | (16 << 7) | 0x23; // sb x6, 16(x5)
        let lbu = (16u32 << 20) | (5 << 15) | (0b100 << 12) | (28 << 7) | 0x03; // lbu x28, 16(x5): low byte 0x88
        let mut image = a.assemble();
        for w in [lw, sb, lbu, 0x0000_0073] {
            image.extend_from_slice(&w.to_le_bytes());
        }
        let cpu = run(&image, 100);
        assert_eq!(cpu.regs[7], 0x1122_3344_5566_7788);
        assert_eq!(cpu.regs[8], 0x5566_7788);
        assert_eq!(cpu.regs[9], 0x11);
        assert_eq!(cpu.regs[28], 0x88);
    }

    #[test]
    fn division_and_remainder() {
        let mut a = Asm::new();
        a.addi(10, 0, 100);
        a.addi(11, 0, 7);
        a.divu(12, 10, 11);
        a.divu(14, 10, 0); // div by zero → all ones
        let remu = (1u32 << 25) | (11 << 20) | (10 << 15) | (0b111 << 12) | (13 << 7) | 0x33; // remu x13, x10, x11
        let mut image = a.assemble();
        for w in [remu, 0x0000_0073] {
            image.extend_from_slice(&w.to_le_bytes());
        }
        let cpu = run(&image, 10);
        assert_eq!(cpu.regs[12], 14);
        assert_eq!(cpu.regs[13], 2);
        assert_eq!(cpu.regs[14], u64::MAX);
    }

    #[test]
    fn half_and_word_widths_sign_extend_correctly() {
        let mut a = Asm::new();
        a.li(5, DATA);
        a.li(6, 0xffff_8001);
        // Store word 0xffff8001; lw sign-extends it to 0xffffffffffff8001.
        a.sw(6, 0, 5);
        let lw = (5u32 << 15) | (0b010 << 12) | (7 << 7) | 0x03;
        // lhu of the low half: 0x8001; lh would sign-extend.
        let lhu = (5u32 << 15) | (0b101 << 12) | (8 << 7) | 0x03;
        let lh = (5u32 << 15) | (0b001 << 12) | (9 << 7) | 0x03;
        let sh = (6u32 << 20) | (5 << 15) | (0b001 << 12) | (8 << 7) | 0x23; // sh x6, 8(x5)
        let lwu = (5u32 << 15) | (0b110 << 12) | (28 << 7) | 0x03;
        let mut image = a.assemble();
        for w in [lw, lhu, lh, sh, lwu, 0x0000_0073] {
            image.extend_from_slice(&w.to_le_bytes());
        }
        let cpu = run(&image, 100);
        assert_eq!(cpu.regs[7], 0xffff_ffff_ffff_8001);
        assert_eq!(cpu.regs[8], 0x8001, "lhu zero-extends");
        assert_eq!(cpu.regs[9], 0xffff_ffff_ffff_8001, "lh sign-extends");
        assert_eq!(cpu.regs[28], 0xffff_8001, "lwu zero-extends");
    }

    #[test]
    fn shift_and_compare_semantics() {
        let mut a = Asm::new();
        a.li(5, 0x8000_0000_0000_0000);
        a.srli(6, 5, 1); // logical: 0x4000...
        a.addi(28, 0, -1);
        a.sltu(29, 0, 28); // 0 < u64::MAX unsigned → 1
        a.addi(17, 0, 93);
        let srai = (0x401u32 << 20) | (5 << 15) | (0b101 << 12) | (7 << 7) | 0x13; // srai x7, x5, 1: 0xC000...
        let mut image = a.assemble();
        for w in [srai, 0x0000_0073] {
            image.extend_from_slice(&w.to_le_bytes());
        }
        let cpu = run(&image, 100);
        assert_eq!(cpu.regs[6], 0x4000_0000_0000_0000);
        assert_eq!(cpu.regs[7], 0xc000_0000_0000_0000);
        assert_eq!(cpu.regs[29], 1);
    }

    #[test]
    fn conditional_branches_compare_signed_and_unsigned() {
        // Each branch skips one `addi x7, x0, 1` when taken, so x7 reads 0
        // exactly when the branch was taken.
        let m1 = u64::MAX; // -1 signed
        let min = 1u64 << 63; // i64::MIN signed
        let cases = [
            (5u64, 5u64),
            (m1, 1),
            (1, m1),
            (min, 0),
            (0, min),
            (m1, min),
        ];
        for (a, b) in cases {
            let (sa, sb) = (a as i64, b as i64);
            let kinds: [(u32, bool); 6] = [
                (0b000, a == b),   // beq
                (0b001, a != b),   // bne
                (0b100, sa < sb),  // blt
                (0b101, sa >= sb), // bge
                (0b110, a < b),    // bltu
                (0b111, a >= b),   // bgeu
            ];
            for (funct3, taken) in kinds {
                let mut asm = Asm::new();
                asm.li(5, a);
                asm.li(6, b);
                // b<funct3> x5, x6, +8
                let branch = (6u32 << 20) | (5 << 15) | (funct3 << 12) | (8 << 7) | 0x63;
                let marker = (1u32 << 20) | (7 << 7) | 0x13; // addi x7, x0, 1
                let mut image = asm.assemble();
                for w in [branch, marker, 0x0000_0073] {
                    image.extend_from_slice(&w.to_le_bytes());
                }
                let cpu = run(&image, 100);
                assert_eq!(
                    cpu.regs[7] == 0,
                    taken,
                    "funct3 {funct3:03b} on ({a:#x}, {b:#x})"
                );
            }
        }
    }

    #[test]
    fn auipc_is_pc_relative() {
        let auipc = 0x1000u32 | (5 << 7) | 0x17; // auipc x5, 0x1000
        let mut image = auipc.to_le_bytes().to_vec();
        let mut a = Asm::new();
        a.addi(17, 0, 93);
        a.ecall();
        image.extend(a.assemble());
        let cpu = run(&image, 10);
        assert_eq!(cpu.regs[5], CODE + 0x1000);
    }

    #[test]
    fn x0_is_hardwired() {
        let mut a = Asm::new();
        a.addi(0, 0, 123);
        a.add(10, 0, 0);
        a.ecall();
        let cpu = run(&a.assemble(), 10);
        assert_eq!(cpu.regs[0], 0);
        assert_eq!(cpu.regs[10], 0);
    }

    #[test]
    fn function_call_via_jalr() {
        // call double(a0); a0 = 8.
        let mut a = Asm::new();
        let func = a.label();
        a.addi(10, 0, 4);
        a.jal(1, func); // ra = return addr
        a.ecall();
        a.bind(func);
        a.add(10, 10, 10);
        a.jalr(0, 1, 0);
        let cpu = run(&a.assemble(), 20);
        assert_eq!(cpu.regs[10], 8);
    }

    #[test]
    fn page_fault_leaves_pc_for_retry() {
        let mut a = Asm::new();
        a.li(5, 0x9999_0000); // unmapped
        a.ld(6, 0, 5);
        a.ecall();
        let (mut sys, mut mmu, mut cpu) = machine(&a.assemble());
        let mut cache = DecodeCache::new(64);
        // Run until the trap (through the cached path: data faults must
        // surface identically to the oracle's).
        let trap = loop {
            match cpu.step(&mut mmu, &mut sys, &mut cache) {
                Ok(_) => {}
                Err(t) => break t,
            }
        };
        assert!(matches!(
            trap,
            Trap::Mem(MemFault::PageFault { va: 0x9999_0000 })
        ));
        let faulting_pc = cpu.pc;
        // Service the fault (map the page) and retry the same instruction.
        let mut frames = FrameAllocator::new(Ppn(3000), Ppn(3100));
        let frame = frames.alloc().unwrap();
        sys.phys.write_u64(frame.base(), 0xfeed).unwrap();
        mmu.table
            .unwrap()
            .map(
                VirtAddr(0x9999_0000),
                frame,
                Perms::RW,
                KeyId::HOST,
                &mut frames,
                &mut sys.phys,
            )
            .unwrap();
        assert_eq!(
            cpu.pc, faulting_pc,
            "PC must stay at the faulting instruction"
        );
        loop {
            match cpu.step(&mut mmu, &mut sys, &mut cache).unwrap() {
                StepEvent::Continue => {}
                StepEvent::Ecall => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(cpu.regs[6], 0xfeed);
    }

    #[test]
    fn misaligned_access_traps() {
        let mut a = Asm::new();
        a.li(5, DATA + 1);
        a.ld(6, 0, 5);
        let (mut sys, mut mmu, mut cpu) = machine(&a.assemble());
        let mut cache = DecodeCache::new(64);
        let trap = loop {
            match cpu.step(&mut mmu, &mut sys, &mut cache) {
                Ok(_) => {}
                Err(t) => break t,
            }
        };
        assert!(matches!(trap, Trap::Mem(MemFault::BusError { .. })));
    }

    #[test]
    fn illegal_instruction_traps_with_physical_address() {
        let image = 0u32.to_le_bytes();
        let (mut sys, mut mmu, mut cpu) = machine(&image);
        let code_pa = mmu.translate_fetch(&mut sys, cpu.pc).unwrap().0;
        let trap = cpu.step_ref(&mut mmu, &mut sys).unwrap_err();
        assert_eq!(
            trap,
            Trap::Illegal {
                word: 0,
                pa: code_pa
            }
        );
        // The cached path reports the identical trap.
        let (mut sys, mut mmu, mut cpu) = machine(&image);
        let mut cache = DecodeCache::new(64);
        let cached_trap = cpu.step(&mut mmu, &mut sys, &mut cache).unwrap_err();
        assert_eq!(cached_trap, trap);
        assert_eq!(cpu.stats.traps, 1);
        assert_eq!(cpu.stats.cycles, 0, "trapped instruction charges nothing");
    }

    #[test]
    fn run_block_batches_cycles_and_honours_budget() {
        // Same straight-line program as `arithmetic_and_exit`: 2×1-cycle ALU
        // plus one 2-cycle ecall.
        let mut a = Asm::new();
        a.addi(10, 0, 21);
        a.slli(10, 10, 1);
        a.ecall();
        let image = a.assemble();

        let (mut sys, mut mmu, mut cpu) = machine(&image);
        let mut cache = DecodeCache::new(64);
        let (used, event) = cpu.run_block(&mut mmu, &mut sys, &mut cache, 100);
        assert_eq!(event, Ok(StepEvent::Ecall));
        assert_eq!(used, 3);
        assert_eq!(cpu.stats.retired, 3);
        assert_eq!(cpu.stats.cycles, 1 + 1 + 2);

        // A budget of 2 stops mid-block with the partial charge applied.
        let (mut sys, mut mmu, mut cpu) = machine(&image);
        let mut cache = DecodeCache::new(64);
        let (used, event) = cpu.run_block(&mut mmu, &mut sys, &mut cache, 2);
        assert_eq!(event, Ok(StepEvent::Continue));
        assert_eq!(used, 2);
        assert_eq!(cpu.stats.retired, 2);
        assert_eq!(cpu.stats.cycles, 2);
        assert_eq!(cpu.pc.0, CODE + 8);
    }

    #[test]
    fn self_modifying_store_invalidates_cached_line() {
        // The program overwrites its own loop body between two passes; the
        // store goes through the writable code mapping, so the decode cache
        // must drop the line and re-fetch the new bytes. a0 = 1 (old body,
        // pass 1) + 100 (new body, pass 2) = 101.
        let overwrite: u32 = (100u32 << 20) | (10 << 15) | (10 << 7) | 0x13; // addi x10,x10,100
        let mut a = Asm::new();
        a.li(5, CODE);
        a.li(6, overwrite as u64);
        a.addi(7, 0, 2); // pass counter
        let top = a.label();
        a.bind(top);
        let body_off = a.here();
        a.addi(10, 10, 1); // <- overwritten after pass 1
        a.sw(6, body_off as i64, 5);
        a.addi(7, 7, -1);
        a.bne(7, 0, top);
        a.ecall();
        let image = a.assemble();

        // `machine` maps code RX; remap it writable for this test.
        let mut sys = MemorySystem::new(32 << 20, PhysAddr(0x4000));
        let mut frames = FrameAllocator::new(Ppn(16), Ppn(4000));
        let pt = PageTable::new(&mut frames, &mut sys.phys);
        let code = frames.alloc().unwrap();
        sys.phys.write(code.base(), &image).unwrap();
        pt.map(
            VirtAddr(CODE),
            code,
            Perms::RWX,
            KeyId::HOST,
            &mut frames,
            &mut sys.phys,
        )
        .unwrap();
        let mut mmu = CoreMmu::new(16);
        mmu.switch_table(Some(pt), false);

        let mut reference = Cpu::new(VirtAddr(CODE));
        {
            let mut sys_ref = MemorySystem::new(32 << 20, PhysAddr(0x4000));
            sys_ref.phys.write(code.base(), &image).unwrap();
            let mut frames_ref = FrameAllocator::new(Ppn(2000), Ppn(4000));
            let pt_ref = PageTable::new(&mut frames_ref, &mut sys_ref.phys);
            pt_ref
                .map(
                    VirtAddr(CODE),
                    code,
                    Perms::RWX,
                    KeyId::HOST,
                    &mut frames_ref,
                    &mut sys_ref.phys,
                )
                .unwrap();
            let mut mmu_ref = CoreMmu::new(16);
            mmu_ref.switch_table(Some(pt_ref), false);
            while let StepEvent::Continue = reference.step_ref(&mut mmu_ref, &mut sys_ref).unwrap()
            {
            }
        }
        assert_eq!(reference.regs[10], 101, "oracle must see the new bytes");

        let mut cpu = Cpu::new(VirtAddr(CODE));
        let mut cache = DecodeCache::new(64);
        let (_, event) = cpu.run_block(&mut mmu, &mut sys, &mut cache, 10_000);
        assert_eq!(event, Ok(StepEvent::Ecall));
        assert_eq!(cpu.regs[10], 101, "cached path must execute the new bytes");
        assert_eq!(cpu.regs, reference.regs);
        assert_eq!(cpu.stats, reference.stats, "charges must match the oracle");
        assert!(
            cache.stats.invalidations > 0,
            "the SMC store must invalidate"
        );
    }

    #[test]
    fn epoch_bump_flushes_decode_cache_between_blocks() {
        let mut a = Asm::new();
        a.addi(10, 10, 1);
        a.ecall();
        let image = a.assemble();
        let (mut sys, mut mmu, mut cpu) = machine(&image);
        let mut cache = DecodeCache::new(64);
        cpu.step(&mut mmu, &mut sys, &mut cache).unwrap();
        assert_eq!(cache.stats.misses, 1, "the first step fills one line");
        let flushes_before = cache.stats.flushes;
        mmu.note_mapping_teardown();
        cpu.step(&mut mmu, &mut sys, &mut cache).unwrap();
        assert_eq!(
            cache.stats.flushes,
            flushes_before + 1,
            "epoch bump must flush the cache"
        );
    }

    #[test]
    fn op32_sign_extends() {
        let mut a = Asm::new();
        a.li(5, 0x7fff_ffff);
        a.addi(6, 0, 1);
        // addw → 0x80000000 sign-extended to 0xffffffff80000000.
        let word = {
            // addw rd=7 rs1=5 rs2=6: opcode 0x3b funct3 0.
            (6u32 << 20) | (5 << 15) | (7 << 7) | 0x3b
        };
        let mut image = a.assemble();
        image.extend_from_slice(&word.to_le_bytes());
        image.extend_from_slice(&0x0000_0073u32.to_le_bytes()); // ecall
        let cpu = run(&image, 50);
        assert_eq!(cpu.regs[7], 0xffff_ffff_8000_0000);
    }
}
