//! "Chisel-lite": a fluent construction API for netlists.

use dejavuzz_ift::Module;

use crate::ir::{Cell, CellKind, MemDecl, MemId, Netlist, NetlistError, SignalId};

/// Builds a [`Netlist`] with SSA discipline enforced at construction time.
///
/// # Example
///
/// ```
/// use dejavuzz_rtl::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let x = b.input(0);
/// let one = b.constant(1);
/// let sum = b.add(x, one);
/// b.output("sum", sum);
/// let netlist = b.finish();
/// assert_eq!(netlist.cell_count(), 3);
/// ```
#[derive(Debug, Default)]
pub struct NetlistBuilder {
    netlist: Netlist,
    module: Module,
}

impl NetlistBuilder {
    /// An empty builder rooted at [`Module::Top`].
    pub fn new() -> Self {
        NetlistBuilder::default()
    }

    /// Sets the module attributed to subsequently created cells.
    pub fn module(&mut self, module: Module) -> &mut Self {
        self.module = module;
        self
    }

    fn push(&mut self, kind: CellKind) -> SignalId {
        self.netlist.cells.push(Cell {
            kind,
            name: None,
            module: self.module,
        });
        self.netlist.cells.len() - 1
    }

    /// Names the most recently created signal (diagnostics / censuses).
    pub fn name(&mut self, sig: SignalId, name: impl Into<String>) -> &mut Self {
        self.netlist.cells[sig].name = Some(name.into());
        self
    }

    /// A constant driver.
    pub fn constant(&mut self, v: u64) -> SignalId {
        self.push(CellKind::Const(v))
    }

    /// An external input port.
    pub fn input(&mut self, index: usize) -> SignalId {
        self.push(CellKind::Input(index))
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::And(a, b))
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Or(a, b))
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Xor(a, b))
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.push(CellKind::Not(a))
    }

    /// Addition.
    pub fn add(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Add(a, b))
    }

    /// Subtraction.
    pub fn sub(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Sub(a, b))
    }

    /// Equality comparison.
    pub fn eq(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Eq(a, b))
    }

    /// Unsigned less-than.
    pub fn lt(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(CellKind::Lt(a, b))
    }

    /// Multiplexer `sel ? then_v : else_v`.
    pub fn mux(&mut self, sel: SignalId, then_v: SignalId, else_v: SignalId) -> SignalId {
        self.push(CellKind::Mux {
            sel,
            then_v,
            else_v,
        })
    }

    /// Declares a register with an initial value; connect with
    /// [`NetlistBuilder::connect_reg`].
    pub fn reg(&mut self, init: u64) -> SignalId {
        self.push(CellKind::Reg {
            d: None,
            en: None,
            init,
        })
    }

    /// Connects a register's data input and optional enable.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a register or is already connected.
    pub fn connect_reg(&mut self, r: SignalId, d: SignalId, en: Option<SignalId>) -> &mut Self {
        match &mut self.netlist.cells[r].kind {
            CellKind::Reg {
                d: slot_d,
                en: slot_en,
                ..
            } => {
                assert!(slot_d.is_none(), "register {r} already connected");
                *slot_d = Some(d);
                *slot_en = en;
            }
            other => panic!("signal {r} is not a register (found {other:?})"),
        }
        self
    }

    /// Declares a memory of `words` 64-bit words.
    pub fn mem(&mut self, words: usize, name: impl Into<String>) -> MemId {
        self.netlist.mems.push(MemDecl {
            words,
            name: Some(name.into()),
            module: self.module,
            write_port: None,
            liveness: Vec::new(),
        });
        MemId(self.netlist.mems.len() - 1)
    }

    /// Connects a memory's (single) write port.
    ///
    /// # Panics
    ///
    /// Panics if the memory already has a write port.
    pub fn connect_mem_write(
        &mut self,
        mem: MemId,
        wen: SignalId,
        addr: SignalId,
        data: SignalId,
    ) -> &mut Self {
        let m = &mut self.netlist.mems[mem.0];
        assert!(
            m.write_port.is_none(),
            "memory {mem:?} already has a write port"
        );
        m.write_port = Some((wen, addr, data));
        self
    }

    /// Creates a combinational read port on a memory.
    pub fn mem_read(&mut self, mem: MemId, addr: SignalId) -> SignalId {
        self.push(CellKind::MemRead { mem, addr })
    }

    /// Attaches a `liveness_mask` attribute to a memory: `signals[i]` is the
    /// 1-bit liveness of slot `i` (the paper's generic vector interface).
    pub fn liveness_mask(&mut self, mem: MemId, signals: Vec<SignalId>) -> &mut Self {
        self.netlist.mems[mem.0].liveness = signals;
        self
    }

    /// Exposes a signal as a named output.
    pub fn output(&mut self, name: impl Into<String>, sig: SignalId) -> &mut Self {
        self.netlist.outputs.push((name.into(), sig));
        self
    }

    /// Validates and returns the netlist.
    ///
    /// # Panics
    ///
    /// Panics if validation fails: a cell or connection names a missing
    /// signal, or a memory has no words. The panic message names the
    /// offending cell or memory.
    pub fn finish(self) -> Netlist {
        match self.netlist.validate() {
            Ok(()) => self.netlist,
            Err(NetlistError::Cell(i)) => panic!(
                "netlist validation failed at cell {i}: {:?}",
                self.netlist.cells[i].kind
            ),
            Err(e) => panic!("netlist validation failed at {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_validates() {
        let mut b = NetlistBuilder::new();
        let x = b.input(0);
        let y = b.input(1);
        let s = b.add(x, y);
        b.output("s", s);
        let n = b.finish();
        assert_eq!(n.cell_count(), 3);
        assert_eq!(n.output("s"), Some(2));
    }

    #[test]
    fn register_connect_after_declaration() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(7);
        let one = b.constant(1);
        let next = b.add(r, one);
        b.connect_reg(r, next, None);
        let n = b.finish();
        assert_eq!(n.reg_count(), 1);
    }

    #[test]
    #[should_panic(expected = "already connected")]
    fn double_connect_panics() {
        let mut b = NetlistBuilder::new();
        let r = b.reg(0);
        let c = b.constant(0);
        b.connect_reg(r, c, None);
        b.connect_reg(r, c, None);
    }

    #[test]
    #[should_panic(expected = "not a register")]
    fn connect_non_reg_panics() {
        let mut b = NetlistBuilder::new();
        let c = b.constant(0);
        let c2 = b.constant(0);
        b.connect_reg(c, c2, None);
    }

    #[test]
    fn memory_ports_and_liveness() {
        let mut b = NetlistBuilder::new();
        let m = b.mem(16, "lb");
        let wen = b.input(0);
        let addr = b.input(1);
        let data = b.input(2);
        b.connect_mem_write(m, wen, addr, data);
        let rd = b.mem_read(m, addr);
        let live0 = b.input(3);
        b.liveness_mask(m, vec![live0]);
        b.output("rd", rd);
        let n = b.finish();
        assert_eq!(n.mem_count(), 1);
        assert_eq!(n.mems[0].liveness.len(), 1);
        assert!(n.mems[0].write_port.is_some());
    }

    #[test]
    #[should_panic(expected = "validation failed at memory 0")]
    fn zero_word_memory_panics_naming_it() {
        let mut b = NetlistBuilder::new();
        b.mem(0, "empty");
        b.finish();
    }

    #[test]
    fn module_attribution() {
        let mut b = NetlistBuilder::new();
        b.module(Module::Rob);
        let r = b.reg(0);
        let c = b.constant(0);
        b.connect_reg(r, c, None);
        let n = b.finish();
        assert_eq!(n.cells[r].module, Module::Rob);
    }
}
