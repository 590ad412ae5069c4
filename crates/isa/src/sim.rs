//! The architectural golden simulator and the memory interface.
//!
//! Phase 1 of DejaVuzz "uses an ISA simulator to compute the operands
//! required to trigger the transient window and generate the related
//! register initialization instructions" — this is that simulator. It
//! executes committed semantics only: no speculation, no timing. The
//! microarchitectural model in `dejavuzz-uarch` is differentially tested
//! against it (co-simulation) in the integration suite.

use crate::encode::decode;
use crate::instr::{Instr, Reg};
use crate::Program;

/// Architectural exceptions, with the faulting address where relevant.
///
/// The variants map one-to-one onto the paper's transient-window trigger
/// categories "instructions that may trigger architectural exceptions".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exception {
    /// Instruction fetch from an unmapped/unfetchable address.
    FetchAccessFault(u64),
    /// Load from an unmapped address.
    LoadAccessFault(u64),
    /// Store to an unmapped address.
    StoreAccessFault(u64),
    /// Load from a mapped page without read permission.
    LoadPageFault(u64),
    /// Store to a mapped page without write permission.
    StorePageFault(u64),
    /// Misaligned load.
    LoadMisaligned(u64),
    /// Misaligned store.
    StoreMisaligned(u64),
    /// Undecodable instruction word.
    IllegalInstruction(u32),
    /// Environment call.
    Ecall,
    /// Breakpoint.
    Ebreak,
}

impl Exception {
    /// True for the memory-exception family (`mem-excp` in Table 5).
    pub fn is_mem(self) -> bool {
        !matches!(
            self,
            Exception::IllegalInstruction(_) | Exception::Ecall | Exception::Ebreak
        )
    }

    /// A short mnemonic used in reports.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Exception::FetchAccessFault(_) => "fetch-access-fault",
            Exception::LoadAccessFault(_) => "load-access-fault",
            Exception::StoreAccessFault(_) => "store-access-fault",
            Exception::LoadPageFault(_) => "load-page-fault",
            Exception::StorePageFault(_) => "store-page-fault",
            Exception::LoadMisaligned(_) => "load-misalign",
            Exception::StoreMisaligned(_) => "store-misalign",
            Exception::IllegalInstruction(_) => "illegal-instruction",
            Exception::Ecall => "ecall",
            Exception::Ebreak => "ebreak",
        }
    }
}

/// Byte-granular access permissions for a memory range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Perms {
    /// Readable by loads.
    pub read: bool,
    /// Writable by stores.
    pub write: bool,
    /// Fetchable by the frontend.
    pub exec: bool,
}

impl Perms {
    /// Read+write+execute.
    pub const RWX: Perms = Perms {
        read: true,
        write: true,
        exec: true,
    };
    /// Read+write, no execute.
    pub const RW: Perms = Perms {
        read: true,
        write: true,
        exec: false,
    };
    /// Read-only.
    pub const R: Perms = Perms {
        read: true,
        write: false,
        exec: false,
    };
    /// No access — loads raise page faults (the "secret" permission state
    /// swapMem installs before the transient sequence runs).
    pub const NONE: Perms = Perms {
        read: false,
        write: false,
        exec: false,
    };
}

/// The memory seen by a hart: loads, stores and fetches, each of which may
/// fault. Implemented by [`FlatMem`] here and by the swapMem model in
/// `dejavuzz-swapmem`.
pub trait MemoryIf {
    /// Loads `size` bytes (1/2/4/8), little-endian, zero-extended.
    fn load(&mut self, addr: u64, size: u64) -> Result<u64, Exception>;
    /// Stores the low `size` bytes of `val`, little-endian.
    fn store(&mut self, addr: u64, size: u64, val: u64) -> Result<(), Exception>;
    /// Fetches one 32-bit instruction word.
    fn fetch(&mut self, addr: u64) -> Result<u32, Exception>;
}

/// A flat RAM with a base address and optional per-range permissions.
#[derive(Clone, Debug)]
pub struct FlatMem {
    base: u64,
    bytes: Vec<u8>,
    perm_ranges: Vec<(u64, u64, Perms)>,
}

impl FlatMem {
    /// A zeroed RWX memory covering `[base, base+len)`.
    pub fn new(base: u64, len: usize) -> Self {
        FlatMem {
            base,
            bytes: vec![0; len],
            perm_ranges: Vec::new(),
        }
    }

    /// Installs `perms` on `[start, end)`, overriding the RWX default and
    /// earlier overlapping ranges.
    pub fn set_perms(&mut self, start: u64, end: u64, perms: Perms) {
        self.perm_ranges.push((start, end, perms));
    }

    /// Copies an assembled program into the RAM.
    ///
    /// # Panics
    ///
    /// Panics if the program does not fit.
    pub fn load_program(&mut self, p: &Program) {
        for (addr, w) in p.iter() {
            let off = (addr - self.base) as usize;
            self.bytes[off..off + 4].copy_from_slice(&w.to_le_bytes());
        }
    }

    /// Writes raw bytes at an absolute address (data regions, secrets).
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let off = (addr - self.base) as usize;
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Reads one byte for assertions in tests.
    pub fn read_byte(&self, addr: u64) -> u8 {
        self.bytes[(addr - self.base) as usize]
    }

    fn perms_at(&self, addr: u64) -> Perms {
        // Later ranges override earlier ones.
        let mut p = Perms::RWX;
        for &(s, e, perms) in &self.perm_ranges {
            if addr >= s && addr < e {
                p = perms;
            }
        }
        p
    }

    fn in_range(&self, addr: u64, size: u64) -> bool {
        addr >= self.base && addr + size <= self.base + self.bytes.len() as u64
    }
}

impl MemoryIf for FlatMem {
    fn load(&mut self, addr: u64, size: u64) -> Result<u64, Exception> {
        if !addr.is_multiple_of(size) {
            return Err(Exception::LoadMisaligned(addr));
        }
        if !self.in_range(addr, size) {
            return Err(Exception::LoadAccessFault(addr));
        }
        if !self.perms_at(addr).read {
            return Err(Exception::LoadPageFault(addr));
        }
        let off = (addr - self.base) as usize;
        let mut v = 0u64;
        for i in (0..size as usize).rev() {
            v = (v << 8) | self.bytes[off + i] as u64;
        }
        Ok(v)
    }

    fn store(&mut self, addr: u64, size: u64, val: u64) -> Result<(), Exception> {
        if !addr.is_multiple_of(size) {
            return Err(Exception::StoreMisaligned(addr));
        }
        if !self.in_range(addr, size) {
            return Err(Exception::StoreAccessFault(addr));
        }
        if !self.perms_at(addr).write {
            return Err(Exception::StorePageFault(addr));
        }
        let off = (addr - self.base) as usize;
        for i in 0..size as usize {
            self.bytes[off + i] = (val >> (8 * i)) as u8;
        }
        Ok(())
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, Exception> {
        if !self.in_range(addr, 4) || !addr.is_multiple_of(4) {
            return Err(Exception::FetchAccessFault(addr));
        }
        if !self.perms_at(addr).exec {
            return Err(Exception::FetchAccessFault(addr));
        }
        let off = (addr - self.base) as usize;
        Ok(u32::from_le_bytes([
            self.bytes[off],
            self.bytes[off + 1],
            self.bytes[off + 2],
            self.bytes[off + 3],
        ]))
    }
}

/// Outcome of one architectural step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepOutcome {
    /// The instruction retired; execution continues at `next_pc`.
    Retired { next_pc: u64 },
    /// The instruction trapped with an architectural exception. The
    /// simulator's PC is left at the faulting instruction; the caller
    /// decides where the trap vector is.
    Trap(Exception),
}

/// The architectural (in-order, exact) RV64 simulator.
#[derive(Clone, Debug)]
pub struct IsaSim {
    regs: [u64; 32],
    fregs: [u64; 32],
    pc: u64,
    retired: u64,
}

impl IsaSim {
    /// A fresh hart with zeroed registers starting at `pc`.
    pub fn new(pc: u64) -> Self {
        IsaSim {
            regs: [0; 32],
            fregs: [0; 32],
            pc,
            retired: 0,
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads an integer register (x0 is always 0).
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index()]
    }

    /// Writes an integer register (writes to x0 are ignored).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if r != Reg::ZERO {
            self.regs[r.index()] = v;
        }
    }

    /// Reads an FP register's raw bits.
    pub fn freg(&self, r: Reg) -> u64 {
        self.fregs[r.index()]
    }

    /// Writes an FP register's raw bits.
    pub fn set_freg(&mut self, r: Reg, v: u64) {
        self.fregs[r.index()] = v;
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Executes one instruction against `mem`.
    pub fn step(&mut self, mem: &mut impl MemoryIf) -> StepOutcome {
        let word = match mem.fetch(self.pc) {
            Ok(w) => w,
            Err(e) => return StepOutcome::Trap(e),
        };
        let instr = decode(word);
        match self.exec(instr, mem) {
            Ok(next_pc) => {
                self.pc = next_pc;
                self.retired += 1;
                StepOutcome::Retired { next_pc }
            }
            Err(e) => StepOutcome::Trap(e),
        }
    }

    /// Executes a decoded instruction, returning the next PC.
    pub fn exec(&mut self, instr: Instr, mem: &mut impl MemoryIf) -> Result<u64, Exception> {
        let pc = self.pc;
        let next = pc.wrapping_add(4);
        match instr {
            Instr::Lui { rd, imm } => {
                self.set_reg(rd, imm as u64);
                Ok(next)
            }
            Instr::Auipc { rd, imm } => {
                self.set_reg(rd, pc.wrapping_add(imm as u64));
                Ok(next)
            }
            Instr::Jal { rd, offset } => {
                self.set_reg(rd, next);
                Ok(pc.wrapping_add(offset as u64))
            }
            Instr::Jalr { rd, rs1, offset } => {
                let target = self.reg(rs1).wrapping_add(offset as u64) & !1;
                self.set_reg(rd, next);
                Ok(target)
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                if op.taken(self.reg(rs1), self.reg(rs2)) {
                    Ok(pc.wrapping_add(offset as u64))
                } else {
                    Ok(next)
                }
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let raw = mem.load(addr, op.size())?;
                self.set_reg(rd, op.extend(raw));
                Ok(next)
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                mem.store(addr, op.size(), self.reg(rs2))?;
                Ok(next)
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                self.set_reg(rd, op.eval(self.reg(rs1), imm as u64));
                Ok(next)
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                self.set_reg(rd, op.eval(self.reg(rs1), self.reg(rs2)));
                Ok(next)
            }
            Instr::FLoad { rd, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                let raw = mem.load(addr, 8)?;
                self.set_freg(rd, raw);
                Ok(next)
            }
            Instr::FStore { rs2, rs1, offset } => {
                let addr = self.reg(rs1).wrapping_add(offset as u64);
                mem.store(addr, 8, self.freg(rs2))?;
                Ok(next)
            }
            Instr::Fp { op, rd, rs1, rs2 } => {
                self.set_freg(rd, op.eval(self.freg(rs1), self.freg(rs2)));
                Ok(next)
            }
            Instr::FmvDX { rd, rs1 } => {
                self.set_freg(rd, self.reg(rs1));
                Ok(next)
            }
            Instr::FmvXD { rd, rs1 } => {
                self.set_reg(rd, self.freg(rs1));
                Ok(next)
            }
            Instr::Fence => Ok(next),
            Instr::Ecall => Err(Exception::Ecall),
            Instr::Ebreak => Err(Exception::Ebreak),
            Instr::Illegal(w) => Err(Exception::IllegalInstruction(w)),
        }
    }

    /// Runs until a trap or until `max_steps` instructions retire.
    /// Returns the trap, or `None` if the step budget ran out.
    pub fn run(&mut self, mem: &mut impl MemoryIf, max_steps: u64) -> Option<Exception> {
        for _ in 0..max_steps {
            match self.step(mem) {
                StepOutcome::Retired { .. } => {}
                StepOutcome::Trap(e) => return Some(e),
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::instr::{AluOp, BranchOp, LoadOp};

    fn run_prog(build: impl FnOnce(&mut ProgramBuilder)) -> (IsaSim, FlatMem, Option<Exception>) {
        let mut b = ProgramBuilder::new(0x1000);
        build(&mut b);
        let p = b.assemble();
        let mut mem = FlatMem::new(0x1000, 0x4000);
        mem.load_program(&p);
        let mut sim = IsaSim::new(0x1000);
        let trap = sim.run(&mut mem, 10_000);
        (sim, mem, trap)
    }

    #[test]
    fn arithmetic_and_ebreak() {
        let (sim, _, trap) = run_prog(|b| {
            b.push(Instr::addi(Reg::A0, Reg::ZERO, 20));
            b.push(Instr::addi(Reg::A1, Reg::ZERO, 22));
            b.push(Instr::Op {
                op: AluOp::Add,
                rd: Reg::A2,
                rs1: Reg::A0,
                rs2: Reg::A1,
            });
            b.push(Instr::Ebreak);
        });
        assert_eq!(trap, Some(Exception::Ebreak));
        assert_eq!(sim.reg(Reg::A2), 42);
        assert_eq!(sim.retired(), 3);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let (sim, _, _) = run_prog(|b| {
            b.push(Instr::addi(Reg::ZERO, Reg::ZERO, 99));
            b.push(Instr::Ebreak);
        });
        assert_eq!(sim.reg(Reg::ZERO), 0);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let (sim, mem, _) = run_prog(|b| {
            b.label_at("data", 0x3000);
            b.la(Reg::T0, "data");
            b.push(Instr::addi(Reg::T1, Reg::ZERO, -1));
            b.push(Instr::sd(Reg::T1, Reg::T0, 0));
            b.push(Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::A0,
                rs1: Reg::T0,
                offset: 0,
            });
            b.push(Instr::Load {
                op: LoadOp::Lbu,
                rd: Reg::A1,
                rs1: Reg::T0,
                offset: 1,
            });
            b.push(Instr::Ebreak);
        });
        assert_eq!(sim.reg(Reg::A0), u64::MAX, "lw sign-extends");
        assert_eq!(sim.reg(Reg::A1), 0xFF, "lbu zero-extends");
        assert_eq!(mem.read_byte(0x3007), 0xFF);
    }

    #[test]
    fn branch_loop_terminates() {
        let (sim, _, _) = run_prog(|b| {
            b.push(Instr::addi(Reg::A0, Reg::ZERO, 5));
            b.push(Instr::addi(Reg::A1, Reg::ZERO, 0));
            b.label("loop");
            b.push(Instr::addi(Reg::A1, Reg::A1, 3));
            b.push(Instr::addi(Reg::A0, Reg::A0, -1));
            b.branch_to(
                Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::A0,
                    rs2: Reg::ZERO,
                    offset: 0,
                },
                "loop",
            );
            b.push(Instr::Ebreak);
        });
        assert_eq!(sim.reg(Reg::A1), 15);
    }

    #[test]
    fn call_and_ret() {
        let (sim, _, _) = run_prog(|b| {
            b.jal_to(Reg::RA, "func");
            b.push(Instr::addi(Reg::A1, Reg::A0, 1));
            b.push(Instr::Ebreak);
            b.label("func");
            b.push(Instr::addi(Reg::A0, Reg::ZERO, 10));
            b.push(Instr::ret());
        });
        assert_eq!(sim.reg(Reg::A1), 11);
    }

    #[test]
    fn misaligned_load_traps() {
        let (_, _, trap) = run_prog(|b| {
            b.push(Instr::addi(Reg::T0, Reg::ZERO, 0x1));
            b.push(Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::A0,
                rs1: Reg::T0,
                offset: 0,
            });
        });
        assert_eq!(trap, Some(Exception::LoadMisaligned(1)));
    }

    #[test]
    fn out_of_range_load_access_faults() {
        let (_, _, trap) = run_prog(|b| {
            b.push(Instr::Lui {
                rd: Reg::T0,
                imm: 0x4000_0000,
            });
            b.push(Instr::ld(Reg::A0, Reg::T0, 0));
        });
        assert_eq!(trap, Some(Exception::LoadAccessFault(0x4000_0000)));
    }

    #[test]
    fn protected_page_faults_on_load_and_store() {
        let mut b = ProgramBuilder::new(0x1000);
        b.label_at("secret", 0x3000);
        b.la(Reg::T0, "secret");
        b.push(Instr::ld(Reg::A0, Reg::T0, 0));
        let p = b.assemble();
        let mut mem = FlatMem::new(0x1000, 0x4000);
        mem.load_program(&p);
        mem.set_perms(0x3000, 0x3040, Perms::NONE);
        let mut sim = IsaSim::new(0x1000);
        assert_eq!(
            sim.run(&mut mem, 100),
            Some(Exception::LoadPageFault(0x3000))
        );

        // Store side.
        let mut sim2 = IsaSim::new(0x1000);
        sim2.set_reg(Reg::T0, 0x3000);
        let e = sim2.exec(Instr::sd(Reg::A1, Reg::T0, 0), &mut mem);
        assert_eq!(e, Err(Exception::StorePageFault(0x3000)));
    }

    #[test]
    fn illegal_instruction_traps() {
        let mut mem = FlatMem::new(0x1000, 0x100);
        mem.write_bytes(0x1000, &0xFFFF_FFFFu32.to_le_bytes());
        let mut sim = IsaSim::new(0x1000);
        assert!(matches!(
            sim.run(&mut mem, 10),
            Some(Exception::IllegalInstruction(0xFFFF_FFFF))
        ));
    }

    #[test]
    fn ecall_traps() {
        let (_, _, trap) = run_prog(|b| {
            b.push(Instr::Ecall);
        });
        assert_eq!(trap, Some(Exception::Ecall));
    }

    #[test]
    fn fp_pipeline_roundtrip() {
        let (sim, _, _) = run_prog(|b| {
            // a0 = bits(2.0); f1 = a0; f2 = f1+f1; a1 = bits(f2)
            b.push(Instr::Lui {
                rd: Reg::A0,
                imm: 0x40000 << 12,
            }); // 2.0f64 high bits
            b.push(Instr::OpImm {
                op: AluOp::Sll,
                rd: Reg::A0,
                rs1: Reg::A0,
                imm: 32,
            });
            b.push(Instr::FmvDX {
                rd: Reg(1),
                rs1: Reg::A0,
            });
            b.push(Instr::Fp {
                op: crate::instr::FpOp::FaddD,
                rd: Reg(2),
                rs1: Reg(1),
                rs2: Reg(1),
            });
            b.push(Instr::FmvXD {
                rd: Reg::A1,
                rs1: Reg(2),
            });
            b.push(Instr::Ebreak);
        });
        assert_eq!(f64::from_bits(sim.reg(Reg::A1)), 4.0);
    }

    #[test]
    fn fetch_fault_outside_memory() {
        let mut mem = FlatMem::new(0x1000, 0x100);
        let mut sim = IsaSim::new(0x8000);
        assert_eq!(
            sim.run(&mut mem, 1),
            Some(Exception::FetchAccessFault(0x8000))
        );
    }

    #[test]
    fn exception_predicates() {
        assert!(Exception::LoadPageFault(0).is_mem());
        assert!(!Exception::IllegalInstruction(0).is_mem());
        assert_eq!(Exception::Ecall.mnemonic(), "ecall");
    }

    #[test]
    fn jalr_clears_low_bit() {
        let mut mem = FlatMem::new(0x1000, 0x100);
        let mut sim = IsaSim::new(0x1000);
        sim.set_reg(Reg::A0, 0x2001);
        let next = sim.exec(
            Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::A0,
                offset: 0,
            },
            &mut mem,
        );
        assert_eq!(next, Ok(0x2000));
    }
}
