//! A tiny two-pass assembler for writing RV64IM programs in Rust.
//!
//! Instructions are emitted by mnemonic-named methods; control flow uses
//! [`Label`]s that may be referenced before they are bound. `assemble`
//! patches every pending reference and returns the image bytes.

/// A code label (forward references allowed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

#[derive(Debug, Clone, Copy)]
enum Pending {
    Branch { word_index: usize, label: Label },
    Jal { word_index: usize, label: Label },
}

/// The assembler.
#[derive(Debug, Default)]
pub struct Asm {
    words: Vec<u32>,
    labels: Vec<Option<usize>>, // label → word index
    pending: Vec<Pending>,
}

fn r_type(funct7: u32, rs2: u8, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    funct7 << 25
        | (rs2 as u32) << 20
        | (rs1 as u32) << 15
        | funct3 << 12
        | (rd as u32) << 7
        | opcode
}

fn i_type(imm: i64, rs1: u8, funct3: u32, rd: u8, opcode: u32) -> u32 {
    assert!(
        (-2048..=2047).contains(&imm),
        "i-type immediate out of range: {imm}"
    );
    ((imm as u32) & 0xfff) << 20 | (rs1 as u32) << 15 | funct3 << 12 | (rd as u32) << 7 | opcode
}

fn s_type(imm: i64, rs2: u8, rs1: u8, funct3: u32, opcode: u32) -> u32 {
    assert!(
        (-2048..=2047).contains(&imm),
        "s-type immediate out of range: {imm}"
    );
    let imm = (imm as u32) & 0xfff;
    (imm >> 5) << 25
        | (rs2 as u32) << 20
        | (rs1 as u32) << 15
        | funct3 << 12
        | (imm & 0x1f) << 7
        | opcode
}

fn b_type(offset: i64, rs2: u8, rs1: u8, funct3: u32) -> u32 {
    assert!(
        offset % 2 == 0 && (-4096..=4094).contains(&offset),
        "branch offset {offset}"
    );
    let imm = (offset as u32) & 0x1fff;
    ((imm >> 12) & 1) << 31
        | ((imm >> 5) & 0x3f) << 25
        | (rs2 as u32) << 20
        | (rs1 as u32) << 15
        | funct3 << 12
        | ((imm >> 1) & 0xf) << 8
        | ((imm >> 11) & 1) << 7
        | 0x63
}

fn j_type(offset: i64, rd: u8) -> u32 {
    assert!(
        offset % 2 == 0 && (-(1 << 20)..(1 << 20)).contains(&offset),
        "jal offset {offset}"
    );
    let imm = (offset as u32) & 0x1f_ffff;
    ((imm >> 20) & 1) << 31
        | ((imm >> 1) & 0x3ff) << 21
        | ((imm >> 11) & 1) << 20
        | ((imm >> 12) & 0xff) << 12
        | (rd as u32) << 7
        | 0x6f
}

impl Asm {
    /// A fresh assembler.
    pub fn new() -> Asm {
        Asm::default()
    }

    /// Current position in bytes.
    pub fn here(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds a label to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.words.len());
    }

    fn emit(&mut self, word: u32) {
        self.words.push(word);
    }

    // ---- ALU ----------------------------------------------------------

    /// `addi rd, rs1, imm`
    pub fn addi(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.emit(i_type(imm, rs1, 0b000, rd, 0x13));
    }

    /// `andi rd, rs1, imm`
    pub fn andi(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.emit(i_type(imm, rs1, 0b111, rd, 0x13));
    }

    /// `ori rd, rs1, imm`
    pub fn ori(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.emit(i_type(imm, rs1, 0b110, rd, 0x13));
    }

    /// `xori rd, rs1, imm`
    pub fn xori(&mut self, rd: u8, rs1: u8, imm: i64) {
        self.emit(i_type(imm, rs1, 0b100, rd, 0x13));
    }

    /// `slli rd, rs1, shamt`
    pub fn slli(&mut self, rd: u8, rs1: u8, shamt: u8) {
        self.emit(i_type(shamt as i64, rs1, 0b001, rd, 0x13));
    }

    /// `srli rd, rs1, shamt`
    pub fn srli(&mut self, rd: u8, rs1: u8, shamt: u8) {
        self.emit(i_type(shamt as i64, rs1, 0b101, rd, 0x13));
    }

    /// `srai rd, rs1, shamt`
    pub fn srai(&mut self, rd: u8, rs1: u8, shamt: u8) {
        self.emit(i_type(
            (shamt as i64) | (0b010000 << 6),
            rs1,
            0b101,
            rd,
            0x13,
        ));
    }

    /// `lui rd, imm` (`imm` is the full sign-extended 32-bit value whose low
    /// 12 bits are zero).
    pub fn lui(&mut self, rd: u8, imm: i64) {
        assert_eq!(imm & 0xfff, 0, "lui immediate must be page-ish aligned");
        self.emit(((imm as u32) & 0xffff_f000) | (rd as u32) << 7 | 0x37);
    }

    /// `auipc rd, imm`
    pub fn auipc(&mut self, rd: u8, imm: i64) {
        assert_eq!(imm & 0xfff, 0);
        self.emit(((imm as u32) & 0xffff_f000) | (rd as u32) << 7 | 0x17);
    }

    /// `add rd, rs1, rs2`
    pub fn add(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0, rs2, rs1, 0b000, rd, 0x33));
    }

    /// `sub rd, rs1, rs2`
    pub fn sub(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0b0100000, rs2, rs1, 0b000, rd, 0x33));
    }

    /// `and rd, rs1, rs2`
    pub fn and(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0, rs2, rs1, 0b111, rd, 0x33));
    }

    /// `or rd, rs1, rs2`
    pub fn or(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0, rs2, rs1, 0b110, rd, 0x33));
    }

    /// `xor rd, rs1, rs2`
    pub fn xor(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0, rs2, rs1, 0b100, rd, 0x33));
    }

    /// `sltu rd, rs1, rs2`
    pub fn sltu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(0, rs2, rs1, 0b011, rd, 0x33));
    }

    /// `mul rd, rs1, rs2`
    pub fn mul(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(1, rs2, rs1, 0b000, rd, 0x33));
    }

    /// `divu rd, rs1, rs2`
    pub fn divu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(1, rs2, rs1, 0b101, rd, 0x33));
    }

    /// `remu rd, rs1, rs2`
    pub fn remu(&mut self, rd: u8, rs1: u8, rs2: u8) {
        self.emit(r_type(1, rs2, rs1, 0b111, rd, 0x33));
    }

    // ---- Memory ---------------------------------------------------------

    /// `ld rd, offset(rs1)`
    pub fn ld(&mut self, rd: u8, offset: i64, rs1: u8) {
        self.emit(i_type(offset, rs1, 0b011, rd, 0x03));
    }

    /// `lw rd, offset(rs1)`
    pub fn lw(&mut self, rd: u8, offset: i64, rs1: u8) {
        self.emit(i_type(offset, rs1, 0b010, rd, 0x03));
    }

    /// `lbu rd, offset(rs1)`
    pub fn lbu(&mut self, rd: u8, offset: i64, rs1: u8) {
        self.emit(i_type(offset, rs1, 0b100, rd, 0x03));
    }

    /// `sd rs2, offset(rs1)`
    pub fn sd(&mut self, rs2: u8, offset: i64, rs1: u8) {
        self.emit(s_type(offset, rs2, rs1, 0b011, 0x23));
    }

    /// `sw rs2, offset(rs1)`
    pub fn sw(&mut self, rs2: u8, offset: i64, rs1: u8) {
        self.emit(s_type(offset, rs2, rs1, 0b010, 0x23));
    }

    /// `sb rs2, offset(rs1)`
    pub fn sb(&mut self, rs2: u8, offset: i64, rs1: u8) {
        self.emit(s_type(offset, rs2, rs1, 0b000, 0x23));
    }

    // ---- Control flow --------------------------------------------------

    fn branch(&mut self, funct3: u32, rs1: u8, rs2: u8, target: Label) {
        self.pending.push(Pending::Branch {
            word_index: self.words.len(),
            label: target,
        });
        // Placeholder with the correct register/funct fields; offset patched.
        self.emit(b_type(0, rs2, rs1, funct3));
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: u8, rs2: u8, target: Label) {
        self.branch(0b000, rs1, rs2, target);
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: u8, rs2: u8, target: Label) {
        self.branch(0b001, rs1, rs2, target);
    }

    /// `blt rs1, rs2, target` (signed)
    pub fn blt(&mut self, rs1: u8, rs2: u8, target: Label) {
        self.branch(0b100, rs1, rs2, target);
    }

    /// `bge rs1, rs2, target` (signed)
    pub fn bge(&mut self, rs1: u8, rs2: u8, target: Label) {
        self.branch(0b101, rs1, rs2, target);
    }

    /// `bltu rs1, rs2, target`
    pub fn bltu(&mut self, rs1: u8, rs2: u8, target: Label) {
        self.branch(0b110, rs1, rs2, target);
    }

    /// `jal rd, target`
    pub fn jal(&mut self, rd: u8, target: Label) {
        self.pending.push(Pending::Jal {
            word_index: self.words.len(),
            label: target,
        });
        self.emit(j_type(0, rd));
    }

    /// `jalr rd, offset(rs1)`
    pub fn jalr(&mut self, rd: u8, rs1: u8, offset: i64) {
        self.emit(i_type(offset, rs1, 0b000, rd, 0x67));
    }

    /// `ecall`
    pub fn ecall(&mut self) {
        self.emit(0x0000_0073);
    }

    /// `ebreak`
    pub fn ebreak(&mut self) {
        self.emit(0x0010_0073);
    }

    /// Loads an arbitrary 64-bit constant into `rd` (expands to a
    /// shift/or chunk sequence; not size-optimal, always correct).
    pub fn li(&mut self, rd: u8, value: u64) {
        // 64 bits = one 9-bit head chunk + five 11-bit chunks; every chunk
        // fits the positive range of a 12-bit signed immediate.
        let head = (value >> 55) as i64;
        self.addi(rd, 0, head);
        for chunk_idx in (0..5).rev() {
            let chunk = ((value >> (chunk_idx * 11)) & 0x7ff) as i64;
            self.slli(rd, rd, 11);
            if chunk != 0 {
                self.ori(rd, rd, chunk);
            }
        }
    }

    /// Finalises: patches all label references and returns the image.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn assemble(mut self) -> Vec<u8> {
        for p in std::mem::take(&mut self.pending) {
            match p {
                Pending::Branch { word_index, label } => {
                    let target = self.labels[label.0].expect("branch target label unbound") as i64;
                    let offset = (target - word_index as i64) * 4;
                    let old = self.words[word_index];
                    let rs2 = ((old >> 20) & 0x1f) as u8;
                    let rs1 = ((old >> 15) & 0x1f) as u8;
                    let funct3 = (old >> 12) & 0x7;
                    self.words[word_index] = b_type(offset, rs2, rs1, funct3);
                }
                Pending::Jal { word_index, label } => {
                    let target = self.labels[label.0].expect("jal target label unbound") as i64;
                    let offset = (target - word_index as i64) * 4;
                    let old = self.words[word_index];
                    let rd = ((old >> 7) & 0x1f) as u8;
                    self.words[word_index] = j_type(offset, rd);
                }
            }
        }
        let mut out = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{decode, AluKind, BranchKind, Instr, LoadKind, StoreKind};
    use hypertee_sim::rng::SplitMix64;

    #[test]
    fn emitted_words_decode_back() {
        let mut a = Asm::new();
        a.addi(1, 0, 5);
        a.add(3, 1, 2);
        a.sd(3, 16, 2);
        a.ld(4, 16, 2);
        a.ecall();
        let image = a.assemble();
        let words: Vec<u32> = image
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(
            decode(words[0]).unwrap(),
            Instr::OpImm {
                kind: AluKind::Add,
                rd: 1,
                rs1: 0,
                imm: 5
            }
        );
        assert_eq!(decode(words[4]).unwrap(), Instr::Ecall);
    }

    #[test]
    fn labels_patch_forward_and_backward() {
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.bind(top);
        a.addi(1, 1, 1);
        a.beq(1, 2, done); // forward
        a.jal(0, top); // backward
        a.bind(done);
        a.ecall();
        let image = a.assemble();
        let words: Vec<u32> = image
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        let Instr::Branch { offset, .. } = decode(words[1]).unwrap() else {
            panic!()
        };
        assert_eq!(offset, 8, "forward branch to ecall");
        let Instr::Jal { offset, .. } = decode(words[2]).unwrap() else {
            panic!()
        };
        assert_eq!(offset, -8, "backward jump to top");
    }

    /// A boxed emitter closure, paired with the instruction it must
    /// decode back to.
    type Emit = Box<dyn Fn(&mut Asm)>;

    /// Assembles a single-instruction closure and decodes the word back.
    fn emit1(f: impl FnOnce(&mut Asm)) -> Instr {
        let mut a = Asm::new();
        f(&mut a);
        let image = a.assemble();
        let word = u32::from_le_bytes(image[0..4].try_into().unwrap());
        decode(word).unwrap_or_else(|e| panic!("emitted word {word:#010x} illegal: {e:?}"))
    }

    /// The exhaustive round-trip property: every emitter, over boundary and
    /// seeded-random operands, decodes back to exactly the instruction it
    /// was asked to encode.
    #[test]
    fn every_emitter_round_trips_through_decode() {
        let mut rng = SplitMix64::new(0xa5e);
        let mut regs: Vec<u8> = vec![0, 1, 15, 30, 31];
        regs.extend((0..8).map(|_| (rng.next_u64() % 32) as u8));
        let imms: Vec<i64> = vec![-2048, -1, 0, 1, 7, 2047];

        for &rd in &regs {
            for &rs1 in &regs {
                // I-type ALU + loads + jalr over every boundary immediate.
                for &imm in &imms {
                    let cases: Vec<(Instr, Emit)> = vec![
                        (
                            Instr::OpImm {
                                kind: AluKind::Add,
                                rd,
                                rs1,
                                imm,
                            },
                            Box::new(move |a: &mut Asm| a.addi(rd, rs1, imm)),
                        ),
                        (
                            Instr::OpImm {
                                kind: AluKind::And,
                                rd,
                                rs1,
                                imm,
                            },
                            Box::new(move |a: &mut Asm| a.andi(rd, rs1, imm)),
                        ),
                        (
                            Instr::OpImm {
                                kind: AluKind::Or,
                                rd,
                                rs1,
                                imm,
                            },
                            Box::new(move |a: &mut Asm| a.ori(rd, rs1, imm)),
                        ),
                        (
                            Instr::OpImm {
                                kind: AluKind::Xor,
                                rd,
                                rs1,
                                imm,
                            },
                            Box::new(move |a: &mut Asm| a.xori(rd, rs1, imm)),
                        ),
                        (
                            Instr::Load {
                                kind: LoadKind::Ld,
                                rd,
                                rs1,
                                offset: imm,
                            },
                            Box::new(move |a: &mut Asm| a.ld(rd, imm, rs1)),
                        ),
                        (
                            Instr::Load {
                                kind: LoadKind::Lw,
                                rd,
                                rs1,
                                offset: imm,
                            },
                            Box::new(move |a: &mut Asm| a.lw(rd, imm, rs1)),
                        ),
                        (
                            Instr::Load {
                                kind: LoadKind::Lbu,
                                rd,
                                rs1,
                                offset: imm,
                            },
                            Box::new(move |a: &mut Asm| a.lbu(rd, imm, rs1)),
                        ),
                        (
                            Instr::Jalr {
                                rd,
                                rs1,
                                offset: imm,
                            },
                            Box::new(move |a: &mut Asm| a.jalr(rd, rs1, imm)),
                        ),
                    ];
                    for (expect, emit) in cases {
                        assert_eq!(emit1(emit), expect);
                    }
                    // Stores: rs2 plays the data role.
                    let rs2 = rd;
                    assert_eq!(
                        emit1(move |a| a.sd(rs2, imm, rs1)),
                        Instr::Store {
                            kind: StoreKind::Sd,
                            rs2,
                            rs1,
                            offset: imm
                        }
                    );
                    assert_eq!(
                        emit1(move |a| a.sw(rs2, imm, rs1)),
                        Instr::Store {
                            kind: StoreKind::Sw,
                            rs2,
                            rs1,
                            offset: imm
                        }
                    );
                    assert_eq!(
                        emit1(move |a| a.sb(rs2, imm, rs1)),
                        Instr::Store {
                            kind: StoreKind::Sb,
                            rs2,
                            rs1,
                            offset: imm
                        }
                    );
                }
                // Shifts over the full 6-bit shamt range.
                for shamt in 0..64u8 {
                    assert_eq!(
                        emit1(move |a| a.slli(rd, rs1, shamt)),
                        Instr::OpImm {
                            kind: AluKind::Sll,
                            rd,
                            rs1,
                            imm: shamt as i64
                        }
                    );
                    assert_eq!(
                        emit1(move |a| a.srli(rd, rs1, shamt)),
                        Instr::OpImm {
                            kind: AluKind::Srl,
                            rd,
                            rs1,
                            imm: shamt as i64
                        }
                    );
                    assert_eq!(
                        emit1(move |a| a.srai(rd, rs1, shamt)),
                        Instr::OpImm {
                            kind: AluKind::Sra,
                            rd,
                            rs1,
                            imm: shamt as i64
                        }
                    );
                }
                // R-type over every register pair drawn.
                for &rs2 in &regs {
                    let rr: Vec<(AluKind, Emit)> = vec![
                        (
                            AluKind::Add,
                            Box::new(move |a: &mut Asm| a.add(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::Sub,
                            Box::new(move |a: &mut Asm| a.sub(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::And,
                            Box::new(move |a: &mut Asm| a.and(rd, rs1, rs2)),
                        ),
                        (AluKind::Or, Box::new(move |a: &mut Asm| a.or(rd, rs1, rs2))),
                        (
                            AluKind::Xor,
                            Box::new(move |a: &mut Asm| a.xor(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::Sltu,
                            Box::new(move |a: &mut Asm| a.sltu(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::Mul,
                            Box::new(move |a: &mut Asm| a.mul(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::Divu,
                            Box::new(move |a: &mut Asm| a.divu(rd, rs1, rs2)),
                        ),
                        (
                            AluKind::Remu,
                            Box::new(move |a: &mut Asm| a.remu(rd, rs1, rs2)),
                        ),
                    ];
                    for (kind, emit) in rr {
                        assert_eq!(emit1(emit), Instr::Op { kind, rd, rs1, rs2 });
                    }
                }
            }
            // U-type: boundary upper immediates (low 12 bits zero).
            for imm in [0i64, 0x1000, 0x7fff_f000, -4096, i32::MIN as i64] {
                assert_eq!(emit1(move |a| a.lui(rd, imm)), Instr::Lui { rd, imm });
                assert_eq!(emit1(move |a| a.auipc(rd, imm)), Instr::Auipc { rd, imm });
            }
        }
        assert_eq!(emit1(|a| a.ecall()), Instr::Ecall);
        assert_eq!(emit1(|a| a.ebreak()), Instr::Ebreak);
    }

    #[test]
    fn branch_and_jump_offsets_round_trip_at_every_distance() {
        // Forward and backward control flow over a spread of distances; the
        // patched offset must decode back to exactly the label distance.
        for gap in [1usize, 2, 3, 8, 100, 1000] {
            let mut a = Asm::new();
            let fwd = a.label();
            a.beq(1, 2, fwd);
            a.jal(5, fwd);
            for _ in 0..gap {
                a.addi(0, 0, 0);
            }
            a.bind(fwd);
            let back = a.label();
            a.bind(back);
            a.bne(3, 4, back);
            a.jal(0, back);
            let image = a.assemble();
            let words: Vec<u32> = image
                .chunks(4)
                .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                .collect();
            let fwd_bytes = (gap as i64 + 2) * 4;
            assert_eq!(
                decode(words[0]).unwrap(),
                Instr::Branch {
                    kind: BranchKind::Eq,
                    rs1: 1,
                    rs2: 2,
                    offset: fwd_bytes
                }
            );
            assert_eq!(
                decode(words[1]).unwrap(),
                Instr::Jal {
                    rd: 5,
                    offset: fwd_bytes - 4
                }
            );
            let back_idx = 2 + gap;
            assert_eq!(
                decode(words[back_idx]).unwrap(),
                Instr::Branch {
                    kind: BranchKind::Ne,
                    rs1: 3,
                    rs2: 4,
                    offset: 0
                }
            );
            assert_eq!(
                decode(words[back_idx + 1]).unwrap(),
                Instr::Jal { rd: 0, offset: -4 }
            );
        }
    }

    #[test]
    fn li_expansion_always_decodes_legal() {
        let mut rng = SplitMix64::new(0x11);
        let mut values: Vec<u64> = vec![0, 1, u64::MAX, i64::MIN as u64, 0xdead_beef];
        values.extend((0..64).map(|_| rng.next_u64()));
        for value in values {
            let mut a = Asm::new();
            a.li(7, value);
            let image = a.assemble();
            for chunk in image.chunks(4) {
                let word = u32::from_le_bytes(chunk.try_into().unwrap());
                decode(word).unwrap_or_else(|e| panic!("li({value:#x}) emitted {e:?}"));
            }
        }
    }

    #[test]
    #[should_panic(expected = "immediate out of range")]
    fn oversized_immediate_panics() {
        Asm::new().addi(1, 0, 4096);
    }

    #[test]
    #[should_panic(expected = "label unbound")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.jal(0, l);
        a.assemble();
    }
}
