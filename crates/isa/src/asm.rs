//! A small label-aware assembler for building stimulus images.

use std::collections::HashMap;
use std::fmt;

use crate::encode::encode;
use crate::instr::{Instr, Reg};

/// An assembled program: a base address plus 32-bit instruction words.
#[derive(Debug, PartialEq, Eq, Default)]
pub struct Program {
    /// Address of the first word.
    pub base: u64,
    /// Encoded instruction words, contiguous from `base`.
    pub words: Vec<u32>,
}

impl Clone for Program {
    fn clone(&self) -> Self {
        Program {
            base: self.base,
            words: self.words.clone(),
        }
    }

    /// Copies `source` into this program's word buffer.
    fn clone_from(&mut self, source: &Self) {
        self.base = source.base;
        self.words.clone_from(&source.words);
    }
}

impl Program {
    /// Byte length of the program image.
    pub fn len_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// The address one past the last instruction.
    pub fn end(&self) -> u64 {
        self.base + self.len_bytes()
    }

    /// Iterates `(address, word)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.words
            .iter()
            .enumerate()
            .map(move |(i, &w)| (self.base + 4 * i as u64, w))
    }

    /// Disassembles for reports.
    pub fn listing(&self) -> String {
        use fmt::Write;
        let mut s = String::new();
        for (addr, w) in self.iter() {
            let _ = writeln!(s, "{addr:#010x}: {}", crate::encode::decode(w));
        }
        s
    }
}

/// A pending instruction: either final or awaiting label resolution.
#[derive(Clone, Debug)]
enum Pending {
    Done(Instr),
    /// Branch to a label; patched with the PC-relative offset.
    BranchTo {
        template: Instr,
        label: String,
    },
    /// `jal`/`auipc`-style PC-relative reference to a label.
    JumpTo {
        template: Instr,
        label: String,
    },
    /// Materialise an absolute 64-bit address into `rd` via `lui`+`addi`
    /// (`la`-lite; occupies two slots, this is the first).
    LaHigh {
        rd: Reg,
        label: String,
    },
    /// Second slot of `la`.
    LaLow {
        rd: Reg,
        label: String,
    },
}

/// Builds a [`Program`] with forward label references.
///
/// Mirrors the tiny subset of assembler functionality the paper's generator
/// needs: sequential emission, labels, `la`, alignment padding with `nop`s
/// and absolute-address pinning (training instructions must sit at the same
/// address as the trigger instruction, §4.1.1).
#[derive(Clone, Debug)]
pub struct ProgramBuilder {
    base: u64,
    items: Vec<Pending>,
    labels: HashMap<String, u64>,
}

impl ProgramBuilder {
    /// Starts a program at `base` (must be 4-byte aligned).
    ///
    /// # Panics
    ///
    /// Panics if `base` is not 4-byte aligned.
    pub fn new(base: u64) -> Self {
        assert_eq!(base % 4, 0, "program base must be 4-byte aligned");
        ProgramBuilder {
            base,
            items: Vec::new(),
            labels: HashMap::new(),
        }
    }

    /// The address the next pushed instruction will occupy.
    pub fn here(&self) -> u64 {
        self.base + self.items.len() as u64 * 4
    }

    /// Number of instruction slots emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Emits one instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.items.push(Pending::Done(i));
        self
    }

    /// Emits `n` `nop`s.
    pub fn nops(&mut self, n: usize) -> &mut Self {
        for _ in 0..n {
            self.push(Instr::NOP);
        }
        self
    }

    /// Pads with `nop`s until the next instruction will sit at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is behind the current position or misaligned.
    pub fn pad_to(&mut self, addr: u64) -> &mut Self {
        assert_eq!(addr % 4, 0, "pad target must be 4-byte aligned");
        assert!(
            addr >= self.here(),
            "pad_to({addr:#x}) is behind cursor {:#x}",
            self.here()
        );
        while self.here() < addr {
            self.push(Instr::NOP);
        }
        self
    }

    /// Defines `label` at the current position.
    ///
    /// # Panics
    ///
    /// Panics on duplicate label definition.
    pub fn label(&mut self, label: impl Into<String>) -> &mut Self {
        let l = label.into();
        let prev = self.labels.insert(l.clone(), self.here());
        assert!(prev.is_none(), "duplicate label {l:?}");
        self
    }

    /// Defines `label` at an arbitrary absolute address (e.g. a data symbol
    /// in another region).
    pub fn label_at(&mut self, label: impl Into<String>, addr: u64) -> &mut Self {
        self.labels.insert(label.into(), addr);
        self
    }

    /// Emits a branch whose offset is patched to reach `label`.
    pub fn branch_to(&mut self, template: Instr, label: impl Into<String>) -> &mut Self {
        assert!(
            matches!(template, Instr::Branch { .. }),
            "branch_to needs a Branch template"
        );
        self.items.push(Pending::BranchTo {
            template,
            label: label.into(),
        });
        self
    }

    /// Emits a `jal` whose offset is patched to reach `label`.
    pub fn jal_to(&mut self, rd: Reg, label: impl Into<String>) -> &mut Self {
        self.items.push(Pending::JumpTo {
            template: Instr::Jal { rd, offset: 0 },
            label: label.into(),
        });
        self
    }

    /// Emits the two-instruction `la rd, label` sequence
    /// (`lui`+`addi`), resolving to the label's absolute address.
    pub fn la(&mut self, rd: Reg, label: impl Into<String>) -> &mut Self {
        let label = label.into();
        self.items.push(Pending::LaHigh {
            rd,
            label: label.clone(),
        });
        self.items.push(Pending::LaLow { rd, label });
        self
    }

    /// Resolves labels and produces the final [`Program`].
    ///
    /// # Panics
    ///
    /// Panics on undefined labels or out-of-range branch offsets, which
    /// indicate a generator bug rather than an interesting stimulus.
    pub fn assemble(&self) -> Program {
        let resolve = |l: &String| -> u64 {
            *self
                .labels
                .get(l)
                .unwrap_or_else(|| panic!("undefined label {l:?}"))
        };
        let mut words = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let pc = self.base + idx as u64 * 4;
            let instr = match item {
                Pending::Done(i) => *i,
                Pending::BranchTo { template, label } => {
                    let off = resolve(label) as i64 - pc as i64;
                    assert!(
                        (-4096..4096).contains(&off),
                        "branch offset {off} out of range"
                    );
                    match *template {
                        Instr::Branch { op, rs1, rs2, .. } => Instr::Branch {
                            op,
                            rs1,
                            rs2,
                            offset: off,
                        },
                        _ => unreachable!(),
                    }
                }
                Pending::JumpTo { template, label } => {
                    let off = resolve(label) as i64 - pc as i64;
                    assert!(
                        (-(1 << 20)..(1 << 20)).contains(&off),
                        "jal offset {off} out of range"
                    );
                    match *template {
                        Instr::Jal { rd, .. } => Instr::Jal { rd, offset: off },
                        _ => unreachable!(),
                    }
                }
                Pending::LaHigh { rd, label } => {
                    let target = resolve(label);
                    let (hi, _lo) = la_split(target);
                    Instr::Lui { rd: *rd, imm: hi }
                }
                Pending::LaLow { rd, label } => {
                    let target = resolve(label);
                    let (_hi, lo) = la_split(target);
                    Instr::addi(*rd, *rd, lo)
                }
            };
            words.push(encode(instr));
        }
        Program {
            base: self.base,
            words,
        }
    }
}

/// Splits an absolute address into `lui`/`addi` halves, compensating for the
/// sign extension of the 12-bit low part.
fn la_split(addr: u64) -> (i64, i64) {
    let lo = ((addr & 0xFFF) as i64) << 52 >> 52; // sign-extend 12 bits
    let hi = (addr as i64).wrapping_sub(lo) & 0xFFFF_F000u64 as i64;
    (hi as i32 as i64, lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;
    use crate::instr::BranchOp;

    #[test]
    fn sequential_emission() {
        let mut b = ProgramBuilder::new(0x1000);
        b.push(Instr::NOP).push(Instr::Ebreak);
        let p = b.assemble();
        assert_eq!(p.base, 0x1000);
        assert_eq!(p.words.len(), 2);
        assert_eq!(p.end(), 0x1008);
        assert_eq!(decode(p.words[1]), Instr::Ebreak);
    }

    #[test]
    fn forward_branch_resolution() {
        let mut b = ProgramBuilder::new(0x0);
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 0,
            },
            "skip",
        );
        b.nops(3);
        b.label("skip");
        b.push(Instr::Ebreak);
        let p = b.assemble();
        match decode(p.words[0]) {
            Instr::Branch { offset, .. } => assert_eq!(offset, 16),
            other => panic!("expected branch, got {other}"),
        }
    }

    #[test]
    fn backward_jump_resolution() {
        let mut b = ProgramBuilder::new(0x100);
        b.label("loop");
        b.nops(2);
        b.jal_to(Reg::ZERO, "loop");
        let p = b.assemble();
        match decode(p.words[2]) {
            Instr::Jal { offset, .. } => assert_eq!(offset, -8),
            other => panic!("expected jal, got {other}"),
        }
    }

    #[test]
    fn la_materialises_absolute_addresses() {
        for addr in [0x2000u64, 0x2FF8, 0x1234_5678, 0x8000_0800] {
            let mut b = ProgramBuilder::new(0x0);
            b.label_at("sym", addr);
            b.la(Reg::T0, "sym");
            let p = b.assemble();
            let (lui, addi) = (decode(p.words[0]), decode(p.words[1]));
            let hi = match lui {
                Instr::Lui { imm, .. } => imm,
                other => panic!("expected lui, got {other}"),
            };
            let lo = match addi {
                Instr::OpImm { imm, .. } => imm,
                other => panic!("expected addi, got {other}"),
            };
            assert_eq!(
                (hi.wrapping_add(lo)) as u64 & 0xFFFF_FFFF,
                addr & 0xFFFF_FFFF,
                "la split wrong for {addr:#x}"
            );
        }
    }

    #[test]
    fn pad_to_aligns_with_nops() {
        let mut b = ProgramBuilder::new(0x1000);
        b.push(Instr::Ebreak);
        b.pad_to(0x1010);
        assert_eq!(b.here(), 0x1010);
        let p = b.assemble();
        assert_eq!(decode(p.words[2]), Instr::NOP);
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new(0);
        b.label("x").label("x");
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut b = ProgramBuilder::new(0);
        b.jal_to(Reg::ZERO, "nowhere");
        b.assemble();
    }

    #[test]
    fn listing_renders_addresses() {
        let mut b = ProgramBuilder::new(0x1010);
        b.push(Instr::ret());
        let l = b.assemble().listing();
        assert!(l.contains("0x00001010: ret"), "got {l}");
    }

    #[test]
    fn program_iter_addresses() {
        let mut b = ProgramBuilder::new(0x40);
        b.nops(2);
        let p = b.assemble();
        let addrs: Vec<u64> = p.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0x40, 0x44]);
    }
}
