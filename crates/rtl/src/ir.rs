//! The word-level netlist IR.
//!
//! A netlist is a vector of cells in SSA form: combinational cells may only
//! reference earlier signals or register outputs; registers and memories
//! are declared first and connected later (the usual hardware-builder
//! discipline). Every signal is one 64-bit word — word-level cells are
//! exactly what the paper's RTL-IR instrumentation operates on.

use std::fmt;

use dejavuzz_ift::Module;

/// Index of a signal (one cell output) within a netlist.
pub type SignalId = usize;

/// Index of a memory within a netlist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemId(pub usize);

/// One cell of the netlist. The output of cell *i* is signal *i*.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellKind {
    /// A constant driver.
    Const(u64),
    /// An external input port (index into the stimulus vector).
    Input(usize),
    /// Bitwise AND (taint: Policy 1).
    And(SignalId, SignalId),
    /// Bitwise OR.
    Or(SignalId, SignalId),
    /// Bitwise XOR.
    Xor(SignalId, SignalId),
    /// Bitwise NOT.
    Not(SignalId),
    /// Two's-complement addition.
    Add(SignalId, SignalId),
    /// Two's-complement subtraction.
    Sub(SignalId, SignalId),
    /// Equality comparison, 1-bit result (taint: comparison cell).
    Eq(SignalId, SignalId),
    /// Unsigned less-than, 1-bit result (taint: comparison cell).
    Lt(SignalId, SignalId),
    /// Multiplexer `sel ? then_v : else_v` (taint: Policy 2 / Table 1).
    Mux {
        sel: SignalId,
        then_v: SignalId,
        else_v: SignalId,
    },
    /// A clocked register. `d`/`en` are connected after declaration;
    /// an unconnected register holds its initial value forever.
    Reg {
        d: Option<SignalId>,
        en: Option<SignalId>,
        init: u64,
    },
    /// Combinational memory read port.
    MemRead { mem: MemId, addr: SignalId },
}

impl CellKind {
    /// True for cells with clocked state.
    pub fn is_sequential(&self) -> bool {
        matches!(self, CellKind::Reg { .. })
    }
}

/// A cell plus its (optional) diagnostic name and owning module path.
#[derive(Clone, Debug)]
pub struct Cell {
    /// The operation.
    pub kind: CellKind,
    /// Diagnostic name (register names appear in taint censuses).
    pub name: Option<String>,
    /// Owning module; used for module-local taint statistics.
    pub module: Module,
}

/// A word-addressed memory declaration.
#[derive(Clone, Debug)]
pub struct MemDecl {
    /// Number of 64-bit words.
    pub words: usize,
    /// Diagnostic name.
    pub name: Option<String>,
    /// Owning module.
    pub module: Module,
    /// Write port: `(wen, addr, data)` signals, connected after declaration.
    pub write_port: Option<(SignalId, SignalId, SignalId)>,
    /// `liveness_mask` attribute: one 1-bit liveness signal per slot
    /// (generic vector interface of §4.3.2). May be shorter than `words`.
    pub liveness: Vec<SignalId>,
}

/// A complete netlist.
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    /// Cells in SSA order.
    pub cells: Vec<Cell>,
    /// Memories.
    pub mems: Vec<MemDecl>,
    /// Signals exposed as outputs, by name.
    pub outputs: Vec<(String, SignalId)>,
}

impl Netlist {
    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of sequential cells (registers).
    pub fn reg_count(&self) -> usize {
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
    }

    /// Number of memories.
    pub fn mem_count(&self) -> usize {
        self.mems.len()
    }

    /// Total memory words across all memories.
    pub fn mem_words(&self) -> usize {
        self.mems.iter().map(|m| m.words).sum()
    }

    /// Number of input ports (one past the highest [`CellKind::Input`]
    /// index), i.e. the length of the stimulus vector a simulator needs.
    pub fn input_count(&self) -> usize {
        self.cells
            .iter()
            .filter_map(|c| match c.kind {
                CellKind::Input(i) => Some(i.saturating_add(1)),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Looks up an output signal by name.
    pub fn output(&self, name: &str) -> Option<SignalId> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    /// Validates everything a simulator indexes:
    ///
    /// * SSA discipline: combinational cells may only reference earlier
    ///   signals or register outputs;
    /// * register `d`/`en` connections, memory write ports and
    ///   `liveness_mask` signals may reference any signal, but it must
    ///   exist;
    /// * memory reads name a declared memory, and every memory has at
    ///   least one word (addresses wrap modulo its size);
    /// * signals, memories and input ports fit the simulator's 32-bit
    ///   operand indices.
    ///
    /// Returns the first offending cell (checked in order) or, when every
    /// cell is valid, the first offending memory.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let n = self.cells.len();
        if n > MAX_INDEX {
            return Err(NetlistError::Cell(MAX_INDEX));
        }
        if self.mems.len() > MAX_INDEX {
            return Err(NetlistError::Mem(MemId(MAX_INDEX)));
        }
        let is_reg = |s: SignalId| s < n && self.cells[s].kind.is_sequential();
        let ok = |i: usize, s: SignalId| s < i || is_reg(s);
        for (i, c) in self.cells.iter().enumerate() {
            let valid = match c.kind {
                CellKind::Const(_) => true,
                CellKind::Input(port) => port < MAX_INDEX,
                CellKind::Reg { d, en, .. } => {
                    d.is_none_or(|d| d < n) && en.is_none_or(|en| en < n)
                }
                CellKind::Not(a) => ok(i, a),
                CellKind::And(a, b)
                | CellKind::Or(a, b)
                | CellKind::Xor(a, b)
                | CellKind::Add(a, b)
                | CellKind::Sub(a, b)
                | CellKind::Eq(a, b)
                | CellKind::Lt(a, b) => ok(i, a) && ok(i, b),
                CellKind::Mux {
                    sel,
                    then_v,
                    else_v,
                } => ok(i, sel) && ok(i, then_v) && ok(i, else_v),
                CellKind::MemRead { mem, addr } => mem.0 < self.mems.len() && ok(i, addr),
            };
            if !valid {
                return Err(NetlistError::Cell(i));
            }
        }
        for (m, decl) in self.mems.iter().enumerate() {
            let ports = decl
                .write_port
                .iter()
                .flat_map(|&(wen, addr, data)| [wen, addr, data]);
            if decl.words == 0 || !ports.chain(decl.liveness.iter().copied()).all(|s| s < n) {
                return Err(NetlistError::Mem(MemId(m)));
            }
        }
        Ok(())
    }
}

/// Largest signal, memory or input-port count a netlist may declare: the
/// simulator compiles every index to a `u32`.
const MAX_INDEX: usize = u32::MAX as usize;

/// Why a netlist fails [`Netlist::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetlistError {
    /// A cell reads a signal it may not (a missing signal, or a later
    /// combinational one), names a missing memory or an out-of-range
    /// input port, or is a register whose `d`/`en` names a missing
    /// signal.
    Cell(SignalId),
    /// A memory has no words, or its write port or `liveness_mask` names a
    /// missing signal.
    Mem(MemId),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::Cell(i) => write!(f, "cell {i}"),
            NetlistError::Mem(MemId(m)) => write!(f, "memory {m}"),
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(kind: CellKind) -> Cell {
        Cell {
            kind,
            name: None,
            module: Module::Top,
        }
    }

    #[test]
    fn counting_helpers() {
        let n = Netlist {
            cells: vec![
                cell(CellKind::Const(1)),
                cell(CellKind::Reg {
                    d: None,
                    en: None,
                    init: 0,
                }),
                cell(CellKind::And(0, 1)),
            ],
            mems: vec![MemDecl {
                words: 8,
                name: None,
                module: Module::Top,
                write_port: None,
                liveness: vec![],
            }],
            outputs: vec![("o".into(), 2)],
        };
        assert_eq!(n.cell_count(), 3);
        assert_eq!(n.reg_count(), 1);
        assert_eq!(n.mem_count(), 1);
        assert_eq!(n.mem_words(), 8);
        assert_eq!(n.output("o"), Some(2));
        assert_eq!(n.output("missing"), None);
    }

    #[test]
    fn validate_accepts_forward_reg_reference() {
        // Combinational cell 0 reads register 1 (declared later is fine for
        // regs — they output last cycle's value).
        let n = Netlist {
            cells: vec![
                cell(CellKind::Not(1)),
                cell(CellKind::Reg {
                    d: Some(0),
                    en: None,
                    init: 0,
                }),
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_forward_comb_reference() {
        let n = Netlist {
            cells: vec![cell(CellKind::Not(1)), cell(CellKind::Const(0))],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Err(NetlistError::Cell(0)));
    }

    #[test]
    fn validate_rejects_bad_mem_id() {
        let n = Netlist {
            cells: vec![
                cell(CellKind::Const(0)),
                cell(CellKind::MemRead {
                    mem: MemId(3),
                    addr: 0,
                }),
            ],
            mems: vec![],
            outputs: vec![],
        };
        assert_eq!(n.validate(), Err(NetlistError::Cell(1)));
    }

    fn reg(d: Option<SignalId>, en: Option<SignalId>) -> Cell {
        cell(CellKind::Reg { d, en, init: 0 })
    }

    fn mem(
        words: usize,
        write_port: Option<(SignalId, SignalId, SignalId)>,
        liveness: Vec<SignalId>,
    ) -> MemDecl {
        MemDecl {
            words,
            name: None,
            module: Module::Top,
            write_port,
            liveness,
        }
    }

    fn netlist(cells: Vec<Cell>, mems: Vec<MemDecl>) -> Netlist {
        Netlist {
            cells,
            mems,
            outputs: vec![],
        }
    }

    #[test]
    fn validate_rejects_reference_past_the_end() {
        // A forward reference beyond the last cell is neither earlier nor
        // a register; validation must say so rather than index past the
        // end itself.
        let n = netlist(vec![cell(CellKind::Not(9))], vec![]);
        assert_eq!(n.validate(), Err(NetlistError::Cell(0)));
    }

    #[test]
    fn validate_range_checks_register_connections() {
        let n = netlist(vec![cell(CellKind::Const(0)), reg(Some(5), None)], vec![]);
        assert_eq!(n.validate(), Err(NetlistError::Cell(1)), "d out of range");
        let n = netlist(
            vec![cell(CellKind::Const(0)), reg(Some(0), Some(2))],
            vec![],
        );
        assert_eq!(n.validate(), Err(NetlistError::Cell(1)), "en out of range");
        let n = netlist(vec![reg(Some(1), Some(1)), cell(CellKind::Not(0))], vec![]);
        assert_eq!(n.validate(), Ok(()), "a register may read any later signal");
    }

    #[test]
    fn validate_range_checks_memory_signals() {
        let cells = || vec![cell(CellKind::Input(0)), cell(CellKind::Input(1))];
        let n = netlist(cells(), vec![mem(4, Some((0, 1, 1)), vec![0, 1])]);
        assert_eq!(n.validate(), Ok(()));
        let n = netlist(
            cells(),
            vec![mem(4, None, vec![]), mem(4, Some((0, 2, 1)), vec![])],
        );
        assert_eq!(n.validate(), Err(NetlistError::Mem(MemId(1))), "write port");
        let n = netlist(cells(), vec![mem(4, None, vec![0, 7])]);
        assert_eq!(n.validate(), Err(NetlistError::Mem(MemId(0))), "liveness");
    }

    #[test]
    fn validate_rejects_zero_word_memory() {
        let n = netlist(vec![cell(CellKind::Input(0))], vec![mem(0, None, vec![])]);
        assert_eq!(n.validate(), Err(NetlistError::Mem(MemId(0))));
        let n = netlist(vec![cell(CellKind::Not(3))], vec![mem(0, None, vec![])]);
        assert_eq!(n.validate(), Err(NetlistError::Cell(0)), "cells first");
    }

    #[test]
    fn validate_rejects_input_ports_beyond_u32() {
        let n = netlist(vec![cell(CellKind::Input(u32::MAX as usize))], vec![]);
        assert_eq!(n.validate(), Err(NetlistError::Cell(0)));
        assert_eq!(
            n.input_count(),
            u32::MAX as usize + 1,
            "counting never overflows"
        );
    }

    #[test]
    fn errors_name_the_offender() {
        assert_eq!(NetlistError::Cell(4).to_string(), "cell 4");
        assert_eq!(NetlistError::Mem(MemId(2)).to_string(), "memory 2");
    }
}
