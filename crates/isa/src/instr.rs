//! The structured RV64 instruction model.

use std::fmt;

/// An integer architectural register (`x0`–`x31`), with the standard ABI
/// aliases as associated constants.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    pub const ZERO: Reg = Reg(0);
    pub const RA: Reg = Reg(1);
    pub const SP: Reg = Reg(2);
    pub const GP: Reg = Reg(3);
    pub const TP: Reg = Reg(4);
    pub const T0: Reg = Reg(5);
    pub const T1: Reg = Reg(6);
    pub const T2: Reg = Reg(7);
    pub const S0: Reg = Reg(8);
    pub const S1: Reg = Reg(9);
    pub const A0: Reg = Reg(10);
    pub const A1: Reg = Reg(11);
    pub const A2: Reg = Reg(12);
    pub const A3: Reg = Reg(13);
    pub const A4: Reg = Reg(14);
    pub const A5: Reg = Reg(15);
    pub const A6: Reg = Reg(16);
    pub const A7: Reg = Reg(17);
    pub const S2: Reg = Reg(18);
    pub const S3: Reg = Reg(19);
    pub const S4: Reg = Reg(20);
    pub const S5: Reg = Reg(21);
    pub const S6: Reg = Reg(22);
    pub const S7: Reg = Reg(23);
    pub const S8: Reg = Reg(24);
    pub const S9: Reg = Reg(25);
    pub const S10: Reg = Reg(26);
    pub const S11: Reg = Reg(27);
    pub const T3: Reg = Reg(28);
    pub const T4: Reg = Reg(29);
    pub const T5: Reg = Reg(30);
    pub const T6: Reg = Reg(31);

    /// The register's index, 0..32.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs from an index, masking to 5 bits like hardware decode.
    #[inline]
    pub const fn from_index(i: usize) -> Reg {
        Reg((i & 31) as u8)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const NAMES: [&str; 32] = [
            "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3",
            "a4", "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
            "t3", "t4", "t5", "t6",
        ];
        f.write_str(NAMES[self.0 as usize & 31])
    }
}

/// Integer ALU operations (register-register and, where legal,
/// register-immediate forms).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AluOp {
    Add,
    Sub,
    Sll,
    Slt,
    Sltu,
    Xor,
    Srl,
    Sra,
    Or,
    And,
    // RV64 "W" (32-bit) variants.
    AddW,
    SubW,
    SllW,
    SrlW,
    SraW,
    // M extension.
    Mul,
    Mulh,
    Mulhu,
    Div,
    Divu,
    Rem,
    Remu,
    MulW,
    DivW,
    DivuW,
    RemW,
    RemuW,
}

impl AluOp {
    /// Evaluates the operation on two 64-bit operands with RV64 semantics.
    pub fn eval(self, x: u64, y: u64) -> u64 {
        match self {
            AluOp::Add => x.wrapping_add(y),
            AluOp::Sub => x.wrapping_sub(y),
            AluOp::Sll => x << (y & 63),
            AluOp::Slt => ((x as i64) < (y as i64)) as u64,
            AluOp::Sltu => (x < y) as u64,
            AluOp::Xor => x ^ y,
            AluOp::Srl => x >> (y & 63),
            AluOp::Sra => ((x as i64) >> (y & 63)) as u64,
            AluOp::Or => x | y,
            AluOp::And => x & y,
            AluOp::AddW => sext32(x.wrapping_add(y)),
            AluOp::SubW => sext32(x.wrapping_sub(y)),
            AluOp::SllW => sext32((x as u32 as u64) << (y & 31)),
            AluOp::SrlW => sext32(((x as u32) >> (y & 31)) as u64),
            AluOp::SraW => sext32((((x as u32 as i32) >> (y & 31)) as u32) as u64),
            AluOp::Mul => x.wrapping_mul(y),
            AluOp::Mulh => ((x as i64 as i128).wrapping_mul(y as i64 as i128) >> 64) as u64,
            AluOp::Mulhu => ((x as u128).wrapping_mul(y as u128) >> 64) as u64,
            AluOp::Div => {
                if y == 0 {
                    u64::MAX
                } else if x as i64 == i64::MIN && y as i64 == -1 {
                    x
                } else {
                    ((x as i64).wrapping_div(y as i64)) as u64
                }
            }
            AluOp::Divu => x.checked_div(y).unwrap_or(u64::MAX),
            AluOp::Rem => {
                if y == 0 {
                    x
                } else if x as i64 == i64::MIN && y as i64 == -1 {
                    0
                } else {
                    ((x as i64).wrapping_rem(y as i64)) as u64
                }
            }
            AluOp::Remu => x.checked_rem(y).unwrap_or(x),
            AluOp::MulW => sext32((x as u32).wrapping_mul(y as u32) as u64),
            AluOp::DivW => {
                let (x, y) = (x as i32, y as i32);
                let r = if y == 0 {
                    -1
                } else if x == i32::MIN && y == -1 {
                    x
                } else {
                    x.wrapping_div(y)
                };
                r as i64 as u64
            }
            AluOp::DivuW => {
                let (x, y) = (x as u32, y as u32);
                let r = x.checked_div(y).unwrap_or(u32::MAX);
                sext32(r as u64)
            }
            AluOp::RemW => {
                let (x, y) = (x as i32, y as i32);
                let r = if y == 0 {
                    x
                } else if x == i32::MIN && y == -1 {
                    0
                } else {
                    x.wrapping_rem(y)
                };
                r as i64 as u64
            }
            AluOp::RemuW => {
                let (x, y) = (x as u32, y as u32);
                let r = if y == 0 { x } else { x % y };
                sext32(r as u64)
            }
        }
    }

    /// True for the long-latency multiply/divide family (issues to the
    /// multi-cycle unit in the microarchitectural model).
    pub fn is_muldiv(self) -> bool {
        matches!(
            self,
            AluOp::Mul
                | AluOp::Mulh
                | AluOp::Mulhu
                | AluOp::Div
                | AluOp::Divu
                | AluOp::Rem
                | AluOp::Remu
                | AluOp::MulW
                | AluOp::DivW
                | AluOp::DivuW
                | AluOp::RemW
                | AluOp::RemuW
        )
    }
}

#[inline]
fn sext32(v: u64) -> u64 {
    v as u32 as i32 as i64 as u64
}

/// Conditional branch comparisons.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchOp {
    Beq,
    Bne,
    Blt,
    Bge,
    Bltu,
    Bgeu,
}

impl BranchOp {
    /// Evaluates the branch condition.
    pub fn taken(self, x: u64, y: u64) -> bool {
        match self {
            BranchOp::Beq => x == y,
            BranchOp::Bne => x != y,
            BranchOp::Blt => (x as i64) < (y as i64),
            BranchOp::Bge => (x as i64) >= (y as i64),
            BranchOp::Bltu => x < y,
            BranchOp::Bgeu => x >= y,
        }
    }

    /// All branch comparisons (generator support).
    pub const ALL: [BranchOp; 6] = [
        BranchOp::Beq,
        BranchOp::Bne,
        BranchOp::Blt,
        BranchOp::Bge,
        BranchOp::Bltu,
        BranchOp::Bgeu,
    ];
}

/// Load widths/signedness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoadOp {
    Lb,
    Lh,
    Lw,
    Ld,
    Lbu,
    Lhu,
    Lwu,
}

impl LoadOp {
    /// Access size in bytes.
    pub fn size(self) -> u64 {
        match self {
            LoadOp::Lb | LoadOp::Lbu => 1,
            LoadOp::Lh | LoadOp::Lhu => 2,
            LoadOp::Lw | LoadOp::Lwu => 4,
            LoadOp::Ld => 8,
        }
    }

    /// Applies width truncation and sign/zero extension to a raw value.
    pub fn extend(self, raw: u64) -> u64 {
        match self {
            LoadOp::Lb => raw as u8 as i8 as i64 as u64,
            LoadOp::Lbu => raw as u8 as u64,
            LoadOp::Lh => raw as u16 as i16 as i64 as u64,
            LoadOp::Lhu => raw as u16 as u64,
            LoadOp::Lw => raw as u32 as i32 as i64 as u64,
            LoadOp::Lwu => raw as u32 as u64,
            LoadOp::Ld => raw,
        }
    }

    /// All load flavours (generator support).
    pub const ALL: [LoadOp; 7] = [
        LoadOp::Lb,
        LoadOp::Lh,
        LoadOp::Lw,
        LoadOp::Ld,
        LoadOp::Lbu,
        LoadOp::Lhu,
        LoadOp::Lwu,
    ];
}

/// Store widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum StoreOp {
    Sb,
    Sh,
    Sw,
    Sd,
}

impl StoreOp {
    /// Access size in bytes.
    pub fn size(self) -> u64 {
        match self {
            StoreOp::Sb => 1,
            StoreOp::Sh => 2,
            StoreOp::Sw => 4,
            StoreOp::Sd => 8,
        }
    }

    /// All store flavours (generator support).
    pub const ALL: [StoreOp; 4] = [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw, StoreOp::Sd];
}

/// Double-precision floating-point operations (the subset the
/// port-contention bugs exercise; values are carried as raw f64 bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FpOp {
    FaddD,
    FsubD,
    FmulD,
    FdivD,
}

impl FpOp {
    /// Evaluates on raw f64 bit patterns.
    pub fn eval(self, x: u64, y: u64) -> u64 {
        let (a, b) = (f64::from_bits(x), f64::from_bits(y));
        let r = match self {
            FpOp::FaddD => a + b,
            FpOp::FsubD => a - b,
            FpOp::FmulD => a * b,
            FpOp::FdivD => a / b,
        };
        r.to_bits()
    }

    /// True for the long-latency divide (the Spectre-Rewind contention op).
    pub fn is_div(self) -> bool {
        matches!(self, FpOp::FdivD)
    }
}

/// One RV64 instruction in structured form.
///
/// `Display` renders standard assembly text (used by bug reports and the
/// examples); [`crate::encode()`] maps to and from the 32-bit encodings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm20` — `imm` is the already-shifted 32-bit-aligned value.
    Lui { rd: Reg, imm: i64 },
    /// `auipc rd, imm20`.
    Auipc { rd: Reg, imm: i64 },
    /// `jal rd, offset`.
    Jal { rd: Reg, offset: i64 },
    /// `jalr rd, offset(rs1)`.
    Jalr { rd: Reg, rs1: Reg, offset: i64 },
    /// Conditional branch.
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        offset: i64,
    },
    /// Memory load into an integer register.
    Load {
        op: LoadOp,
        rd: Reg,
        rs1: Reg,
        offset: i64,
    },
    /// Memory store from an integer register.
    Store {
        op: StoreOp,
        rs2: Reg,
        rs1: Reg,
        offset: i64,
    },
    /// Register-immediate ALU operation.
    OpImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i64,
    },
    /// Register-register ALU operation.
    Op {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fld rd, offset(rs1)` into an FP register (index via [`Reg`]).
    FLoad { rd: Reg, rs1: Reg, offset: i64 },
    /// `fsd rs2, offset(rs1)` from an FP register.
    FStore { rs2: Reg, rs1: Reg, offset: i64 },
    /// FP arithmetic on FP registers.
    Fp {
        op: FpOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `fmv.d.x rd, rs1` — move integer register bits into an FP register.
    FmvDX { rd: Reg, rs1: Reg },
    /// `fmv.x.d rd, rs1` — move FP register bits into an integer register.
    FmvXD { rd: Reg, rs1: Reg },
    /// `fence` (a no-op in this model).
    Fence,
    /// `ecall`.
    Ecall,
    /// `ebreak`.
    Ebreak,
    /// An undecodable word — raises an illegal-instruction exception.
    Illegal(u32),
}

impl Instr {
    /// `nop` (`addi x0, x0, 0`).
    pub const NOP: Instr = Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        imm: 0,
    };

    /// Convenience constructor for `addi`.
    pub const fn addi(rd: Reg, rs1: Reg, imm: i64) -> Instr {
        Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        }
    }

    /// Convenience constructor for `ld rd, offset(rs1)`.
    pub const fn ld(rd: Reg, rs1: Reg, offset: i64) -> Instr {
        Instr::Load {
            op: LoadOp::Ld,
            rd,
            rs1,
            offset,
        }
    }

    /// Convenience constructor for `sd rs2, offset(rs1)`.
    pub const fn sd(rs2: Reg, rs1: Reg, offset: i64) -> Instr {
        Instr::Store {
            op: StoreOp::Sd,
            rs2,
            rs1,
            offset,
        }
    }

    /// Convenience constructor for `ret` (`jalr x0, 0(ra)`).
    pub const fn ret() -> Instr {
        Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }
    }

    /// Convenience constructor for `call`-style `jal ra, offset`.
    pub const fn call(offset: i64) -> Instr {
        Instr::Jal {
            rd: Reg::RA,
            offset,
        }
    }

    /// True for control-transfer instructions (branches, jumps).
    pub fn is_control(self) -> bool {
        matches!(
            self,
            Instr::Jal { .. } | Instr::Jalr { .. } | Instr::Branch { .. }
        )
    }

    /// True for memory access instructions (including FP loads/stores).
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Instr::Load { .. } | Instr::Store { .. } | Instr::FLoad { .. } | Instr::FStore { .. }
        )
    }

    /// True when this is a `ret` (indirect jump through `ra` with `rd=x0`),
    /// the RAS-pop flavour of `jalr`.
    pub fn is_ret(self) -> bool {
        matches!(
            self,
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                ..
            }
        )
    }

    /// True when this `jal`/`jalr` links (pushes a return address).
    pub fn is_call(self) -> bool {
        matches!(
            self,
            Instr::Jal { rd: Reg::RA, .. } | Instr::Jalr { rd: Reg::RA, .. }
        )
    }

    /// The destination register written by this instruction, if any.
    pub fn dest(self) -> Option<Reg> {
        match self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::Load { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::FmvXD { rd, .. } => {
                if rd == Reg::ZERO {
                    None
                } else {
                    Some(rd)
                }
            }
            _ => None,
        }
    }

    /// Integer source registers read by this instruction, `x0` excluded,
    /// in operand order.
    pub fn sources(self) -> impl Iterator<Item = Reg> {
        let regs = match self {
            Instr::Jalr { rs1, .. }
            | Instr::Load { rs1, .. }
            | Instr::OpImm { rs1, .. }
            | Instr::FLoad { rs1, .. }
            | Instr::FmvDX { rs1, .. }
            | Instr::FStore { rs1, .. } => [rs1, Reg::ZERO],
            Instr::Branch { rs1, rs2, .. }
            | Instr::Op { rs1, rs2, .. }
            | Instr::Store { rs1, rs2, .. } => [rs1, rs2],
            _ => [Reg::ZERO; 2],
        };
        regs.into_iter().filter(|&r| r != Reg::ZERO)
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", (imm as u64 >> 12) & 0xFFFFF),
            Instr::Auipc { rd, imm } => {
                write!(f, "auipc {rd}, {:#x}", (imm as u64 >> 12) & 0xFFFFF)
            }
            Instr::Jal { rd, offset } => {
                if rd == Reg::ZERO {
                    write!(f, "j {offset}")
                } else if rd == Reg::RA {
                    write!(f, "call {offset}")
                } else {
                    write!(f, "jal {rd}, {offset}")
                }
            }
            Instr::Jalr { rd, rs1, offset } => {
                if rd == Reg::ZERO && rs1 == Reg::RA && offset == 0 {
                    write!(f, "ret")
                } else {
                    write!(f, "jalr {rd}, {offset}({rs1})")
                }
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let name = match op {
                    BranchOp::Beq => "beq",
                    BranchOp::Bne => "bne",
                    BranchOp::Blt => "blt",
                    BranchOp::Bge => "bge",
                    BranchOp::Bltu => "bltu",
                    BranchOp::Bgeu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let name = match op {
                    LoadOp::Lb => "lb",
                    LoadOp::Lh => "lh",
                    LoadOp::Lw => "lw",
                    LoadOp::Ld => "ld",
                    LoadOp::Lbu => "lbu",
                    LoadOp::Lhu => "lhu",
                    LoadOp::Lwu => "lwu",
                };
                write!(f, "{name} {rd}, {offset}({rs1})")
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let name = match op {
                    StoreOp::Sb => "sb",
                    StoreOp::Sh => "sh",
                    StoreOp::Sw => "sw",
                    StoreOp::Sd => "sd",
                };
                write!(f, "{name} {rs2}, {offset}({rs1})")
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                if op == AluOp::Add && rd == Reg::ZERO && rs1 == Reg::ZERO && imm == 0 {
                    return write!(f, "nop");
                }
                let name = match op {
                    AluOp::Add => "addi",
                    AluOp::Slt => "slti",
                    AluOp::Sltu => "sltiu",
                    AluOp::Xor => "xori",
                    AluOp::Or => "ori",
                    AluOp::And => "andi",
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    AluOp::Sra => "srai",
                    AluOp::AddW => "addiw",
                    AluOp::SllW => "slliw",
                    AluOp::SrlW => "srliw",
                    AluOp::SraW => "sraiw",
                    _ => "op-imm?",
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                    AluOp::AddW => "addw",
                    AluOp::SubW => "subw",
                    AluOp::SllW => "sllw",
                    AluOp::SrlW => "srlw",
                    AluOp::SraW => "sraw",
                    AluOp::Mul => "mul",
                    AluOp::Mulh => "mulh",
                    AluOp::Mulhu => "mulhu",
                    AluOp::Div => "div",
                    AluOp::Divu => "divu",
                    AluOp::Rem => "rem",
                    AluOp::Remu => "remu",
                    AluOp::MulW => "mulw",
                    AluOp::DivW => "divw",
                    AluOp::DivuW => "divuw",
                    AluOp::RemW => "remw",
                    AluOp::RemuW => "remuw",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::FLoad { rd, rs1, offset } => write!(f, "fld f{}, {offset}({rs1})", rd.0),
            Instr::FStore { rs2, rs1, offset } => write!(f, "fsd f{}, {offset}({rs1})", rs2.0),
            Instr::Fp { op, rd, rs1, rs2 } => {
                let name = match op {
                    FpOp::FaddD => "fadd.d",
                    FpOp::FsubD => "fsub.d",
                    FpOp::FmulD => "fmul.d",
                    FpOp::FdivD => "fdiv.d",
                };
                write!(f, "{name} f{}, f{}, f{}", rd.0, rs1.0, rs2.0)
            }
            Instr::FmvDX { rd, rs1 } => write!(f, "fmv.d.x f{}, {rs1}", rd.0),
            Instr::FmvXD { rd, rs1 } => write!(f, "fmv.x.d {rd}, f{}", rs1.0),
            Instr::Fence => write!(f, "fence"),
            Instr::Ecall => write!(f, "ecall"),
            Instr::Ebreak => write!(f, "ebreak"),
            Instr::Illegal(w) => write!(f, ".word {w:#010x} # illegal"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_abi_names() {
        assert_eq!(Reg::A0.to_string(), "a0");
        assert_eq!(Reg::ZERO.to_string(), "zero");
        assert_eq!(Reg::T6.to_string(), "t6");
        assert_eq!(
            Reg::from_index(33),
            Reg::RA,
            "index wraps like 5-bit decode"
        );
    }

    #[test]
    fn alu_basics() {
        assert_eq!(AluOp::Add.eval(2, 3), 5);
        assert_eq!(AluOp::Sub.eval(2, 3), u64::MAX);
        assert_eq!(AluOp::Slt.eval(u64::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.eval(u64::MAX, 0), 0);
        assert_eq!(AluOp::Sra.eval(0x8000_0000_0000_0000, 63), u64::MAX);
        assert_eq!(AluOp::Srl.eval(0x8000_0000_0000_0000, 63), 1);
    }

    #[test]
    fn alu_w_variants_sign_extend() {
        assert_eq!(AluOp::AddW.eval(0x7FFF_FFFF, 1), 0xFFFF_FFFF_8000_0000);
        assert_eq!(AluOp::SubW.eval(0, 1), u64::MAX);
        assert_eq!(AluOp::SllW.eval(1, 31), 0xFFFF_FFFF_8000_0000);
    }

    #[test]
    fn division_by_zero_follows_spec() {
        assert_eq!(AluOp::Div.eval(5, 0), u64::MAX);
        assert_eq!(AluOp::Divu.eval(5, 0), u64::MAX);
        assert_eq!(AluOp::Rem.eval(5, 0), 5);
        assert_eq!(AluOp::Remu.eval(5, 0), 5);
    }

    #[test]
    fn division_overflow_follows_spec() {
        let min = i64::MIN as u64;
        assert_eq!(AluOp::Div.eval(min, u64::MAX), min);
        assert_eq!(AluOp::Rem.eval(min, u64::MAX), 0);
    }

    #[test]
    fn mulh_matches_128bit_reference() {
        assert_eq!(AluOp::Mulhu.eval(u64::MAX, u64::MAX), u64::MAX - 1);
        assert_eq!(
            AluOp::Mulh.eval(u64::MAX, u64::MAX),
            0,
            "(-1)*(-1)=1, high half 0"
        );
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchOp::Beq.taken(3, 3));
        assert!(!BranchOp::Bne.taken(3, 3));
        assert!(BranchOp::Blt.taken(u64::MAX, 0));
        assert!(!BranchOp::Bltu.taken(u64::MAX, 0));
        assert!(BranchOp::Bgeu.taken(u64::MAX, 0));
    }

    #[test]
    fn load_extension() {
        assert_eq!(LoadOp::Lb.extend(0x80), 0xFFFF_FFFF_FFFF_FF80);
        assert_eq!(LoadOp::Lbu.extend(0x80), 0x80);
        assert_eq!(LoadOp::Lw.extend(0x8000_0000), 0xFFFF_FFFF_8000_0000);
        assert_eq!(LoadOp::Lwu.extend(0x8000_0000), 0x8000_0000);
    }

    #[test]
    fn instr_classification() {
        assert!(Instr::ret().is_ret());
        assert!(Instr::ret().is_control());
        assert!(!Instr::ret().is_call());
        assert!(Instr::call(8).is_call());
        assert!(Instr::ld(Reg::A0, Reg::SP, 0).is_mem());
        assert!(!Instr::NOP.is_mem());
        assert_eq!(Instr::NOP.dest(), None);
        assert_eq!(Instr::addi(Reg::A0, Reg::A1, 1).dest(), Some(Reg::A0));
    }

    #[test]
    fn sources_skip_zero_reg() {
        let i = Instr::Op {
            op: AluOp::Add,
            rd: Reg::A0,
            rs1: Reg::ZERO,
            rs2: Reg::A1,
        };
        assert_eq!(i.sources().collect::<Vec<_>>(), [Reg::A1]);
        let store = Instr::Store {
            op: StoreOp::Sd,
            rs2: Reg::A2,
            rs1: Reg::A3,
            offset: 8,
        };
        assert_eq!(store.sources().collect::<Vec<_>>(), [Reg::A3, Reg::A2]);
        assert_eq!(Instr::NOP.sources().count(), 0);
        assert_eq!(Instr::Ecall.sources().count(), 0);
    }

    #[test]
    fn display_renders_assembly() {
        assert_eq!(Instr::NOP.to_string(), "nop");
        assert_eq!(Instr::ret().to_string(), "ret");
        assert_eq!(Instr::ld(Reg::S0, Reg::T0, 0).to_string(), "ld s0, 0(t0)");
        assert_eq!(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 16
            }
            .to_string(),
            "bne a0, a0, 16"
        );
        assert_eq!(
            Instr::Fp {
                op: FpOp::FdivD,
                rd: Reg(1),
                rs1: Reg(2),
                rs2: Reg(3)
            }
            .to_string(),
            "fdiv.d f1, f2, f3"
        );
    }

    #[test]
    fn muldiv_classification() {
        assert!(AluOp::Div.is_muldiv());
        assert!(AluOp::MulW.is_muldiv());
        assert!(!AluOp::Add.is_muldiv());
        assert!(FpOp::FdivD.is_div());
        assert!(!FpOp::FaddD.is_div());
    }

    #[test]
    fn fp_eval_roundtrips_bits() {
        let x = 2.0f64.to_bits();
        let y = 8.0f64.to_bits();
        assert_eq!(f64::from_bits(FpOp::FdivD.eval(y, x)), 4.0);
        assert_eq!(f64::from_bits(FpOp::FaddD.eval(x, y)), 10.0);
    }
}
