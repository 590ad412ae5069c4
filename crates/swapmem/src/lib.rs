//! Dynamic swappable memory (swapMem), the paper's isolation primitive
//! (§3.2).
//!
//! swapMem time-shares one address space between instruction sequences with
//! different semantics: training sequences and the transient sequence can
//! occupy the *same* addresses at different times, which is what lets
//! DejaVuzz trigger "complex" transient windows (Spectre-V2/RSB-style) that
//! linear layouts cannot express without conflicts (Figure 3 vs Figure 4).
//!
//! The model has the paper's three regions:
//!
//! * **shared** — the execution environment: state initialisation, trap
//!   handling and the swap scheduler. The paper implements the runtime as
//!   ~500 LoC of DPI-C called from the testharness; we model it natively in
//!   [`SwapMem::handle_trap`].
//! * **dedicated** — per-DUT sensitive data and mutable operands. Variant 2
//!   of the differential testbench receives the *bit-flipped* secret
//!   (§3.3), realised here by the two value planes of the backing store.
//! * **swappable** — holds the currently scheduled instruction sequence.
//!   On each sequence-terminating trap the runtime flushes the instruction
//!   cache, loads the next packet and redirects the DUT to its entry.
//!
//! The memory is two-plane throughout ([`dejavuzz_ift::TWord`]-compatible):
//! plane `a` backs DUT variant 1, plane `b` variant 2, and a per-byte taint
//! plane marks sensitive bytes. The single-plane [`MemoryIf`] view (plane
//! `a`, taints ignored) serves the architectural golden simulator.
//!
//! ## Reuse
//!
//! A swapMem records which 4 KiB pages have been written since they were
//! last all zeros, in any plane. [`SwapMem::reset`] zeroes only those
//! pages and clears everything else `SwapMem::new` sets, so one memory can
//! serve run after run without reallocating or re-zeroing its planes, and
//! a packet swap zeroes only the written pages of the swappable region.

pub mod migrate;

use dejavuzz_ift::TWord;
use dejavuzz_isa::sim::Perms;
use dejavuzz_isa::{Exception, MemoryIf, Program};

/// Addresses and sizes of the three swapMem regions plus the scratch data
/// region stimuli use for leak arrays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Base of the whole modelled address space.
    pub base: u64,
    /// Total bytes.
    pub size: usize,
    /// Shared region `[shared, shared_end)`: firmware/trap handling.
    pub shared: u64,
    /// End of the shared region.
    pub shared_end: u64,
    /// Dedicated region: secrets + mutable operands.
    pub dedicated: u64,
    /// End of the dedicated region.
    pub dedicated_end: u64,
    /// Address of the secret cell inside the dedicated region.
    pub secret: u64,
    /// Swappable region: the scheduled instruction sequence.
    pub swappable: u64,
    /// End of the swappable region.
    pub swappable_end: u64,
    /// Scratch data region (leak arrays, disambiguation targets).
    pub data: u64,
    /// End of the data region.
    pub data_end: u64,
}

impl Layout {
    /// True if `addr` lies in the swappable region.
    pub fn in_swappable(&self, addr: u64) -> bool {
        addr >= self.swappable && addr < self.swappable_end
    }

    /// True if `addr` lies in the dedicated region.
    pub fn in_dedicated(&self, addr: u64) -> bool {
        addr >= self.dedicated && addr < self.dedicated_end
    }
}

impl Default for Layout {
    fn default() -> Self {
        DEFAULT_LAYOUT
    }
}

/// Granularity of a [`SwapMem`]'s written-page tracking, in bytes.
const PAGE: usize = 4096;

/// The default layout used throughout the reproduction.
pub const DEFAULT_LAYOUT: Layout = Layout {
    base: 0x0,
    size: 0x40000, // 256 KiB
    shared: 0x1000,
    shared_end: 0x3000,
    dedicated: 0x3000,
    dedicated_end: 0x5000,
    secret: 0x3000,
    swappable: 0x10000,
    swappable_end: 0x20000,
    data: 0x8000,
    data_end: 0x10000,
};

/// What a packet is for; determines its position in the swap schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PacketKind {
    /// Warms memory-related state for the window's secret access
    /// (scheduled first, §4.2.1).
    WindowTraining,
    /// Trains the trigger microarchitecture (predictors etc., §4.1.1).
    TriggerTraining,
    /// The transient packet: trigger + window (scheduled last).
    Transient,
}

/// One swappable instruction sequence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapPacket {
    /// Diagnostic name (e.g. `"trigger_train_0"`).
    pub name: String,
    /// Role in the schedule.
    pub kind: PacketKind,
    /// The assembled instructions; `program.base` must lie in the
    /// swappable region.
    pub program: Program,
    /// Entry PC the DUT is redirected to after the swap.
    pub entry: u64,
}

impl SwapPacket {
    /// Creates a packet entering at the program's base address.
    pub fn new(name: impl Into<String>, kind: PacketKind, program: Program) -> Self {
        let entry = program.base;
        SwapPacket {
            name: name.into(),
            kind,
            program,
            entry,
        }
    }

    /// Number of emitted instruction slots — the paper's Training Overhead
    /// unit counts these (including alignment `nop`s; ETO excludes them).
    pub fn instr_count(&self) -> usize {
        self.program.words.len()
    }
}

/// Action the swap runtime takes on a sequence-terminating trap.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TrapAction {
    /// A new packet was swapped in; redirect the DUT to `entry`. The
    /// instruction cache must be flushed (see
    /// [`SwapMem::take_icache_flush`]).
    NextPacket {
        /// Entry PC of the freshly swapped packet.
        entry: u64,
        /// Index of the packet within the schedule.
        index: usize,
    },
    /// The schedule is exhausted; the test case is complete.
    Done,
}

/// When the runtime revokes read permission on the secret.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SecretPolicy {
    /// Revoke before the transient packet runs (Meltdown-type scenarios:
    /// the transient access must fault architecturally).
    #[default]
    ProtectBeforeTransient,
    /// Keep the secret readable (Spectre-type scenarios where the victim
    /// domain itself runs the window; paper bugs B2–B5).
    AlwaysReadable,
}

/// The dynamic swappable memory model.
///
/// Implements [`MemoryIf`] (plane `a`) for the golden simulator and a
/// two-plane, taint-carrying port (`load_t`/`store_t`/`fetch_t`) for the
/// microarchitectural model.
///
/// Equality compares every field, the written-page marks included, so a
/// [`SwapMem::reset`] memory equals a new one exactly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwapMem {
    layout: Layout,
    bytes_a: Vec<u8>,
    bytes_b: Vec<u8>,
    taint: Vec<u8>,
    perms: Vec<(u64, u64, Perms)>,
    schedule: Vec<SwapPacket>,
    next_packet: usize,
    secret_policy: SecretPolicy,
    secret_len: usize,
    icache_flush_pending: bool,
    swap_log: Vec<String>,
    /// Per [`PAGE`]-byte page: whether it may have been written since it
    /// was last zeroed. A page not marked is zero in all three planes.
    written: Vec<bool>,
}

impl SwapMem {
    /// An empty swapMem with the given layout.
    pub fn new(layout: Layout) -> Self {
        SwapMem {
            layout,
            bytes_a: vec![0; layout.size],
            bytes_b: vec![0; layout.size],
            taint: vec![0; layout.size],
            perms: Vec::new(),
            schedule: Vec::new(),
            next_packet: 0,
            secret_policy: SecretPolicy::default(),
            secret_len: 0,
            icache_flush_pending: false,
            swap_log: Vec::new(),
            written: vec![false; layout.size.div_ceil(PAGE)],
        }
    }

    /// Restores exactly the state [`SwapMem::new`] builds for this layout,
    /// keeping the allocations: only the written pages are zeroed.
    pub fn reset(&mut self) {
        self.zero_written(0, self.layout.size);
        self.perms.clear();
        self.schedule.clear();
        self.next_packet = 0;
        self.secret_policy = SecretPolicy::default();
        self.secret_len = 0;
        self.icache_flush_pending = false;
        self.swap_log.clear();
    }

    /// Marks the pages holding the `len` bytes at offset `off` written.
    fn mark_written(&mut self, off: usize, len: usize) {
        if len > 0 {
            self.written[off / PAGE..=(off + len - 1) / PAGE].fill(true);
        }
    }

    /// Zeroes offsets `[start, end)` of all three planes, touching only
    /// written pages; a page wholly inside the range is no longer written.
    fn zero_written(&mut self, start: usize, end: usize) {
        for page in start / PAGE..end.div_ceil(PAGE) {
            if !self.written[page] {
                continue;
            }
            let (page_start, page_end) = (page * PAGE, ((page + 1) * PAGE).min(self.layout.size));
            let (lo, hi) = (page_start.max(start), page_end.min(end));
            self.bytes_a[lo..hi].fill(0);
            self.bytes_b[lo..hi].fill(0);
            self.taint[lo..hi].fill(0);
            if (lo, hi) == (page_start, page_end) {
                self.written[page] = false;
            }
        }
    }

    /// The layout in force.
    pub fn layout(&self) -> Layout {
        self.layout
    }

    /// Sets the secret-permission policy (default: protect before the
    /// transient packet).
    pub fn set_secret_policy(&mut self, p: SecretPolicy) {
        self.secret_policy = p;
    }

    /// Plants the secret in the dedicated region: variant 1 sees `secret`,
    /// variant 2 sees its bit-flip (§3.3: "DejaVuzz generates secrets for
    /// the variant DUT by flipping each bit of the original secret"), and
    /// every byte is marked tainted.
    pub fn plant_secret(&mut self, secret: &[u8]) {
        let off = (self.layout.secret - self.layout.base) as usize;
        for (i, &b) in secret.iter().enumerate() {
            self.bytes_a[off + i] = b;
            self.bytes_b[off + i] = !b;
            self.taint[off + i] = 0xFF;
        }
        self.mark_written(off, secret.len());
        self.secret_len = secret.len();
    }

    /// Plants an *identical* secret in both variants — the `diffIFT_FN`
    /// worst-case false-negative configuration of Figure 6.
    pub fn plant_secret_identical(&mut self, secret: &[u8]) {
        self.plant_secret(secret);
        let off = (self.layout.secret - self.layout.base) as usize;
        for i in 0..secret.len() {
            self.bytes_b[off + i] = self.bytes_a[off + i];
        }
    }

    /// Replaces the secret pair without touching anything else — the
    /// paper's cheap false-negative mitigation ("by leveraging the
    /// dedicated region […] DejaVuzz can directly load different secret
    /// pairs to mitigate false negatives without regenerating the input").
    pub fn reload_secret(&mut self, secret: &[u8]) {
        self.plant_secret(secret);
    }

    /// Writes plain (untainted, plane-identical) bytes, e.g. mutable
    /// operands in the dedicated region or data-region contents.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let off = (addr - self.layout.base) as usize;
        for (i, &b) in data.iter().enumerate() {
            self.bytes_a[off + i] = b;
            self.bytes_b[off + i] = b;
            self.taint[off + i] = 0;
        }
        self.mark_written(off, data.len());
    }

    /// Copies a program into memory without scheduling (firmware images,
    /// baseline fuzzers with linear layouts).
    pub fn write_program(&mut self, p: &Program) {
        for (addr, w) in p.iter() {
            self.write_bytes(addr, &w.to_le_bytes());
        }
    }

    /// Installs permissions on a range (later calls override earlier ones).
    pub fn set_perms(&mut self, start: u64, end: u64, perms: Perms) {
        self.perms.push((start, end, perms));
    }

    /// Sets the swap schedule. Packets run in the given order; the fuzzer
    /// orders them window-training first, trigger-training next, transient
    /// last (§4.2.1).
    pub fn set_schedule(&mut self, packets: Vec<SwapPacket>) {
        self.schedule = packets;
        self.next_packet = 0;
    }

    /// The current schedule.
    pub fn schedule(&self) -> &[SwapPacket] {
        &self.schedule
    }

    /// Removes the packet at `index` from the schedule (training
    /// reduction, §4.1.2).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn remove_packet(&mut self, index: usize) -> SwapPacket {
        self.schedule.remove(index)
    }

    /// Swaps in the first packet, returning its entry PC.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty.
    pub fn begin(&mut self) -> u64 {
        assert!(
            !self.schedule.is_empty(),
            "cannot begin with an empty swap schedule"
        );
        self.next_packet = 0;
        match self.swap_in_next() {
            TrapAction::NextPacket { entry, .. } => entry,
            TrapAction::Done => unreachable!(),
        }
    }

    /// The swap-runtime trap handler: called by the DUT model when a
    /// sequence-terminating trap reaches commit. Swaps in the next packet
    /// (or reports completion) and requests an icache flush.
    pub fn handle_trap(&mut self, cause: Exception) -> TrapAction {
        self.swap_log
            .push(format!("trap {} -> swap", cause.mnemonic()));
        self.swap_in_next()
    }

    fn swap_in_next(&mut self) -> TrapAction {
        if self.next_packet >= self.schedule.len() {
            self.swap_log.push("schedule exhausted".into());
            return TrapAction::Done;
        }
        let index = self.next_packet;
        self.next_packet += 1;
        // Flush the swappable region to zeros (which decode as illegal
        // instructions — runaway execution traps immediately; only its
        // written pages can hold anything else), then copy the packet image
        // into both planes.
        self.zero_written(
            (self.layout.swappable - self.layout.base) as usize,
            (self.layout.swappable_end - self.layout.base) as usize,
        );
        let schedule = std::mem::take(&mut self.schedule);
        let packet = &schedule[index];
        self.write_program(&packet.program);
        self.icache_flush_pending = true;
        // "then updates sensitive data permissions, and finally executes
        // the transient instruction sequence."
        if packet.kind == PacketKind::Transient
            && self.secret_policy == SecretPolicy::ProtectBeforeTransient
        {
            let end = self.layout.secret + self.secret_len.max(8) as u64;
            self.set_perms(self.layout.secret, end, Perms::NONE);
            self.swap_log.push("secret permissions revoked".into());
        }
        self.swap_log
            .push(format!("swapped in packet {index} ({})", packet.name));
        let entry = packet.entry;
        self.schedule = schedule;
        TrapAction::NextPacket { entry, index }
    }

    /// True once an icache flush has been requested and not yet consumed;
    /// consuming resets the flag. The DUT model calls this after each
    /// [`TrapAction::NextPacket`] and flushes its instruction cache.
    pub fn take_icache_flush(&mut self) -> bool {
        std::mem::take(&mut self.icache_flush_pending)
    }

    /// The runtime's swap log (diagnostics).
    pub fn swap_log(&self) -> &[String] {
        &self.swap_log
    }

    /// Index of the packet that will be swapped in next.
    pub fn upcoming_packet(&self) -> usize {
        self.next_packet
    }

    fn perms_at(&self, addr: u64) -> Perms {
        let mut p = Perms::RWX;
        for &(s, e, perms) in &self.perms {
            if addr >= s && addr < e {
                p = perms;
            }
        }
        p
    }

    fn in_range(&self, addr: u64, size: u64) -> bool {
        addr >= self.layout.base
            && addr
                .checked_add(size)
                .is_some_and(|end| end <= self.layout.base + self.layout.size as u64)
    }

    // ---- two-plane, taint-carrying port (microarchitectural model) ----

    /// Two-plane load. Plane addresses may differ (transient secret-
    /// dependent divergence); each plane reads its own bytes, taints union.
    /// Faults are judged on plane `a` (committed paths never diverge
    /// between variants, so the planes agree on every architectural fault).
    pub fn load_t(&self, addr: TWord, size: u64) -> Result<TWord, Exception> {
        if !addr.a.is_multiple_of(size) {
            return Err(Exception::LoadMisaligned(addr.a));
        }
        if !self.in_range(addr.a, size) || !self.in_range(addr.b, size) {
            return Err(Exception::LoadAccessFault(addr.a));
        }
        if !self.perms_at(addr.a).read {
            return Err(Exception::LoadPageFault(addr.a));
        }
        Ok(self.read_planes(addr, size))
    }

    /// Reads the value planes without permission checks — the *forwarding
    /// path* a Meltdown-vulnerable pipeline uses to hand faulting data to
    /// dependents. Returns `None` only if out of physical range.
    pub fn load_t_nocheck(&self, addr: TWord, size: u64) -> Option<TWord> {
        if !self.in_range(addr.a, size) || !self.in_range(addr.b, size) {
            return None;
        }
        Some(self.read_planes(addr, size))
    }

    fn read_planes(&self, addr: TWord, size: u64) -> TWord {
        let (oa, ob) = (
            (addr.a - self.layout.base) as usize,
            (addr.b - self.layout.base) as usize,
        );
        let mut w = TWord::lit(0);
        for i in (0..size as usize).rev() {
            w.a = (w.a << 8) | self.bytes_a[oa + i] as u64;
            w.b = (w.b << 8) | self.bytes_b[ob + i] as u64;
            let tb = self.taint[oa + i] | self.taint[ob + i];
            w.t = (w.t << 8) | tb as u64;
        }
        // A diverged address means the loaded value is secret-dependent even
        // if the bytes themselves are clean (Table 1 memory-read rule).
        if addr.is_tainted() && addr.diff() {
            w.t = u64::MAX;
        }
        w
    }

    /// The fault a load at `addr` would raise, without performing it
    /// (execute-stage fault detection in the microarchitectural model).
    pub fn load_fault(&self, addr: TWord, size: u64) -> Option<Exception> {
        if !addr.a.is_multiple_of(size) {
            return Some(Exception::LoadMisaligned(addr.a));
        }
        if !self.in_range(addr.a, size) || !self.in_range(addr.b, size) {
            return Some(Exception::LoadAccessFault(addr.a));
        }
        if !self.perms_at(addr.a).read {
            return Some(Exception::LoadPageFault(addr.a));
        }
        None
    }

    /// The fault a store at `addr` would raise, without performing it.
    pub fn store_fault(&self, addr: TWord, size: u64) -> Option<Exception> {
        if !addr.a.is_multiple_of(size) {
            return Some(Exception::StoreMisaligned(addr.a));
        }
        if !self.in_range(addr.a, size) || !self.in_range(addr.b, size) {
            return Some(Exception::StoreAccessFault(addr.a));
        }
        if !self.perms_at(addr.a).write {
            return Some(Exception::StorePageFault(addr.a));
        }
        None
    }

    /// Two-plane store with taint write-through.
    pub fn store_t(&mut self, addr: TWord, size: u64, val: TWord) -> Result<(), Exception> {
        if !addr.a.is_multiple_of(size) {
            return Err(Exception::StoreMisaligned(addr.a));
        }
        if !self.in_range(addr.a, size) || !self.in_range(addr.b, size) {
            return Err(Exception::StoreAccessFault(addr.a));
        }
        if !self.perms_at(addr.a).write {
            return Err(Exception::StorePageFault(addr.a));
        }
        let (oa, ob) = (
            (addr.a - self.layout.base) as usize,
            (addr.b - self.layout.base) as usize,
        );
        let addr_ctrl = addr.is_tainted() && addr.diff();
        for i in 0..size as usize {
            self.bytes_a[oa + i] = (val.a >> (8 * i)) as u8;
            self.bytes_b[ob + i] = (val.b >> (8 * i)) as u8;
            let t = ((val.t >> (8 * i)) as u8) | if addr_ctrl { 0xFF } else { 0 };
            self.taint[oa + i] = t;
            if ob != oa {
                self.taint[ob + i] = t;
            }
        }
        self.mark_written(oa, size as usize);
        self.mark_written(ob, size as usize);
        Ok(())
    }

    /// Two-plane instruction fetch (plane addresses may diverge
    /// transiently).
    pub fn fetch_t(&self, addr: TWord) -> Result<TWord, Exception> {
        if !addr.a.is_multiple_of(4) || !self.in_range(addr.a, 4) || !self.in_range(addr.b, 4) {
            return Err(Exception::FetchAccessFault(addr.a));
        }
        if !self.perms_at(addr.a).exec {
            return Err(Exception::FetchAccessFault(addr.a));
        }
        Ok(self.read_planes(addr, 4))
    }

    /// Taint census over the whole memory: number of 8-byte words with any
    /// tainted byte (feeds the memory-side module census).
    pub fn tainted_words(&self) -> usize {
        self.taint
            .chunks(8)
            .filter(|c| c.iter().any(|&t| t != 0))
            .count()
    }

    /// Clears all taints (between fuzzing iterations).
    pub fn clear_taint(&mut self) {
        self.taint.iter_mut().for_each(|t| *t = 0);
    }
}

impl MemoryIf for SwapMem {
    fn load(&mut self, addr: u64, size: u64) -> Result<u64, Exception> {
        self.load_t(TWord::lit(addr), size).map(|w| w.a)
    }

    fn store(&mut self, addr: u64, size: u64, val: u64) -> Result<(), Exception> {
        // Golden-sim stores are plane-identical and untainted.
        self.store_t(TWord::lit(addr), size, TWord::lit(val))
    }

    fn fetch(&mut self, addr: u64) -> Result<u32, Exception> {
        self.fetch_t(TWord::lit(addr)).map(|w| w.a as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz_isa::asm::ProgramBuilder;
    use dejavuzz_isa::instr::{Instr, Reg};

    fn packet(name: &str, kind: PacketKind, base: u64, body: &[Instr]) -> SwapPacket {
        let mut b = ProgramBuilder::new(base);
        for &i in body {
            b.push(i);
        }
        b.push(Instr::Ecall); // sequence terminator
        SwapPacket::new(name, kind, b.assemble())
    }

    #[test]
    fn default_layout_is_coherent() {
        let l = DEFAULT_LAYOUT;
        assert!(l.shared < l.shared_end);
        assert!(l.in_dedicated(l.secret));
        assert!(l.in_swappable(l.swappable));
        assert!(!l.in_swappable(l.swappable_end));
        assert!((l.data_end as usize) <= l.size);
    }

    #[test]
    fn plant_secret_flips_variant_b() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        m.plant_secret(&[0xAB, 0x00]);
        let w = m.load_t(TWord::lit(DEFAULT_LAYOUT.secret), 1).unwrap();
        assert_eq!(w.a, 0xAB);
        assert_eq!(w.b, 0x54, "variant 2 sees the bit-flip");
        assert_eq!(w.t & 0xFF, 0xFF, "secret bytes are tainted");
    }

    #[test]
    fn identical_secret_for_fn_study() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        m.plant_secret_identical(&[0xAB]);
        let w = m.load_t(TWord::lit(DEFAULT_LAYOUT.secret), 1).unwrap();
        assert_eq!(w.a, w.b);
        assert!(
            w.is_tainted(),
            "still tainted — only the diff gates go quiet"
        );
    }

    #[test]
    fn swap_cycle_runs_schedule_in_order() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.set_schedule(vec![
            packet(
                "train0",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP],
            ),
            packet(
                "transient",
                PacketKind::Transient,
                l.swappable,
                &[Instr::NOP, Instr::NOP],
            ),
        ]);
        let entry = m.begin();
        assert_eq!(entry, l.swappable);
        assert!(m.take_icache_flush(), "swap must request an icache flush");
        assert!(!m.take_icache_flush(), "flag is consumed");

        // First packet image is in memory.
        let w0 = m.fetch(l.swappable).unwrap();
        assert_eq!(dejavuzz_isa::decode(w0), Instr::NOP);

        match m.handle_trap(Exception::Ecall) {
            TrapAction::NextPacket { entry, index } => {
                assert_eq!(entry, l.swappable);
                assert_eq!(index, 1);
            }
            other => panic!("expected packet swap, got {other:?}"),
        }
        assert!(m.take_icache_flush());
        assert_eq!(m.handle_trap(Exception::Ecall), TrapAction::Done);
    }

    #[test]
    fn swap_flushes_previous_image() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.set_schedule(vec![
            packet(
                "long",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP; 8],
            ),
            packet("short", PacketKind::Transient, l.swappable, &[Instr::NOP]),
        ]);
        m.begin();
        m.handle_trap(Exception::Ecall);
        // Word 4 of the old (longer) image must be gone: zeros decode as
        // illegal.
        let w = m.fetch(l.swappable + 16).unwrap();
        assert!(matches!(dejavuzz_isa::decode(w), Instr::Illegal(_)));
    }

    #[test]
    fn transient_swap_revokes_secret_permissions() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.plant_secret(&[0x42; 8]);
        m.set_schedule(vec![
            packet(
                "train",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP],
            ),
            packet(
                "transient",
                PacketKind::Transient,
                l.swappable,
                &[Instr::NOP],
            ),
        ]);
        m.begin();
        // During training the secret is readable (warm-up loads).
        assert!(m.load_t(TWord::lit(l.secret), 8).is_ok());
        m.handle_trap(Exception::Ecall);
        // After the transient swap it faults.
        assert_eq!(
            m.load_t(TWord::lit(l.secret), 8),
            Err(Exception::LoadPageFault(l.secret))
        );
        // But the forwarding path still sees the bytes (Meltdown).
        let fwd = m.load_t_nocheck(TWord::lit(l.secret), 8).unwrap();
        assert_eq!(fwd.a, 0x4242_4242_4242_4242);
        assert!(fwd.is_tainted());
    }

    #[test]
    fn always_readable_policy_keeps_access() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.plant_secret(&[1]);
        m.set_secret_policy(SecretPolicy::AlwaysReadable);
        m.set_schedule(vec![packet(
            "transient",
            PacketKind::Transient,
            l.swappable,
            &[],
        )]);
        m.begin();
        assert!(m.load_t(TWord::lit(l.secret), 1).is_ok());
    }

    #[test]
    fn training_reduction_removes_packets() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.set_schedule(vec![
            packet(
                "t0",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP],
            ),
            packet(
                "t1",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP],
            ),
            packet("tr", PacketKind::Transient, l.swappable, &[Instr::NOP]),
        ]);
        let removed = m.remove_packet(1);
        assert_eq!(removed.name, "t1");
        assert_eq!(m.schedule().len(), 2);
        assert_eq!(m.schedule()[1].kind, PacketKind::Transient);
    }

    #[test]
    fn diverged_load_addresses_read_per_plane() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        m.write_bytes(0x8000, &[11]);
        m.write_bytes(0x8100, &[22]);
        let w = m.load_t(TWord::secret(0x8000, 0x8100), 1).unwrap();
        assert_eq!(w.a, 11);
        assert_eq!(w.b, 22);
        assert_eq!(w.t, u64::MAX, "diverged tainted address fully taints");
    }

    #[test]
    fn store_t_taints_both_candidate_slots() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        m.store_t(TWord::secret(0x8000, 0x8100), 8, TWord::lit(1))
            .unwrap();
        assert!(m.load_t(TWord::lit(0x8000), 8).unwrap().is_tainted());
        assert!(m.load_t(TWord::lit(0x8100), 8).unwrap().is_tainted());
        assert!(m.tainted_words() >= 2);
        m.clear_taint();
        assert_eq!(m.tainted_words(), 0);
    }

    #[test]
    fn memoryif_view_is_plane_a() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        m.plant_secret(&[0xAB]);
        assert_eq!(m.load(DEFAULT_LAYOUT.secret, 1).unwrap(), 0xAB);
    }

    #[test]
    fn misaligned_and_out_of_range_faults() {
        let mut m = SwapMem::new(DEFAULT_LAYOUT);
        assert_eq!(m.load(0x8001, 8), Err(Exception::LoadMisaligned(0x8001)));
        assert_eq!(
            m.load(0x9000_0000, 8),
            Err(Exception::LoadAccessFault(0x9000_0000))
        );
        assert_eq!(
            m.store(0x9000_0000, 8, 0),
            Err(Exception::StoreAccessFault(0x9000_0000))
        );
        assert!(m.fetch(0x9000_0000).is_err());
    }

    #[test]
    fn golden_sim_runs_on_swapmem() {
        use dejavuzz_isa::sim::{IsaSim, StepOutcome};
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        let mut b = ProgramBuilder::new(l.swappable);
        b.push(Instr::addi(Reg::A0, Reg::ZERO, 7));
        b.push(Instr::Ecall);
        m.set_schedule(vec![SwapPacket::new(
            "p",
            PacketKind::Transient,
            b.assemble(),
        )]);
        m.set_secret_policy(SecretPolicy::AlwaysReadable);
        let entry = m.begin();
        let mut sim = IsaSim::new(entry);
        loop {
            match sim.step(&mut m) {
                StepOutcome::Retired { .. } => {}
                StepOutcome::Trap(e) => {
                    assert_eq!(e, Exception::Ecall);
                    break;
                }
            }
        }
        assert_eq!(sim.reg(Reg::A0), 7);
    }

    /// Writes every region and every piece of state a run can touch.
    fn scribble(m: &mut SwapMem) {
        let l = m.layout();
        m.write_bytes(l.shared, &[1, 2, 3]);
        m.plant_secret(&[0xAB; 8]);
        m.plant_secret_identical(&[0xCD; 4]);
        m.write_bytes(l.data + 8, &[7; 16]);
        m.set_perms(l.data, l.data + 8, Perms::NONE);
        m.set_schedule(vec![
            packet(
                "train",
                PacketKind::TriggerTraining,
                l.swappable,
                &[Instr::NOP; 4],
            ),
            packet(
                "transient",
                PacketKind::Transient,
                l.swappable + 0x1000,
                &[Instr::NOP],
            ),
        ]);
        m.begin();
        // Plane addresses in different pages; nothing else writes the
        // second one.
        m.store_t(
            TWord::secret(l.data + 0x100, l.data + 0x2000),
            8,
            TWord::secret(5, 6),
        )
        .unwrap();
        // Next to the swappable region, on pages the next swap zeroes only
        // in part when the region is not page-aligned.
        m.store_t(TWord::lit(l.swappable - 8), 8, TWord::secret(1, 2))
            .unwrap();
        m.write_bytes(l.swappable_end, &[4; 8]);
        m.handle_trap(Exception::Ecall);
        m.handle_trap(Exception::Ecall);
        m.set_secret_policy(SecretPolicy::AlwaysReadable);
    }

    #[test]
    fn reset_equals_new() {
        // The default layout, and one whose size, regions and secret do
        // not fall on page boundaries.
        let base = 0x10_0000;
        let odd = Layout {
            base,
            size: 0x9100,
            shared: base + 0x100,
            shared_end: base + 0x900,
            dedicated: base + 0xF00,
            dedicated_end: base + 0x1100,
            secret: base + 0xFFC,
            swappable: base + 0x5800,
            swappable_end: base + 0x9080,
            data: base + 0x1100,
            data_end: base + 0x5800,
        };
        for l in [DEFAULT_LAYOUT, odd] {
            let mut m = SwapMem::new(l);
            scribble(&mut m);
            assert!(m.written.iter().any(|&w| w));
            m.reset();
            assert!(m == SwapMem::new(l), "{l:?}");
            // And a reset memory serves the next run as a fresh one does.
            let mut fresh = SwapMem::new(l);
            scribble(&mut m);
            scribble(&mut fresh);
            assert!(m == fresh, "{l:?}");
        }
    }

    #[test]
    fn swap_zeroes_stores_into_the_swappable_region() {
        let l = DEFAULT_LAYOUT;
        let mut m = SwapMem::new(l);
        m.set_schedule(vec![
            packet("a", PacketKind::TriggerTraining, l.swappable, &[]),
            packet("b", PacketKind::Transient, l.swappable, &[]),
        ]);
        m.begin();
        let far = l.swappable_end - 8;
        m.store_t(TWord::lit(far), 8, TWord::secret(9, 10)).unwrap();
        m.handle_trap(Exception::Ecall);
        assert_eq!(m.load_t(TWord::lit(far), 8), Ok(TWord::lit(0)));
    }

    #[test]
    #[should_panic(expected = "empty swap schedule")]
    fn begin_without_schedule_panics() {
        SwapMem::new(DEFAULT_LAYOUT).begin();
    }
}
