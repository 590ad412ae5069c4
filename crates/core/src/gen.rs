//! Stimulus generation: seeds, transient-packet plans, training derivation
//! and window completion (§4.1.1 and §4.2.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dejavuzz_isa::asm::ProgramBuilder;
use dejavuzz_isa::instr::{AluOp, BranchOp, Instr, LoadOp, Reg, StoreOp};
use dejavuzz_swapmem::{PacketKind, SecretPolicy, SwapPacket, DEFAULT_LAYOUT};

/// The transient-window categories of Table 3, plus scenario-template
/// instances from `dejavuzz-scenarios`.
///
/// `expected_cause` names the squash mechanism Phase 1 demands from the
/// RoB IO trace before declaring the window triggered.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WindowType {
    /// Load/store access fault.
    MemAccessFault,
    /// Load/store page fault.
    MemPageFault,
    /// Load/store misalign.
    MemMisalign,
    /// Illegal instruction.
    IllegalInstr,
    /// Memory disambiguation.
    MemDisambiguation,
    /// Branch misprediction.
    BranchMispredict,
    /// Indirect jump misprediction.
    IndirectMispredict,
    /// Return address misprediction.
    ReturnMispredict,
    /// A scenario-template instance, by process-local intern index
    /// ([`dejavuzz_scenarios::intern_spec`]). Its trigger mechanism is a
    /// base window type ([`WindowType::base`]); its window body comes
    /// from the template. Cross-process identity is the canonical spec
    /// string, never this index.
    Scenario(u16),
}

// Ordering is deliberately manual: base types order by `ALL` position
// (before every scenario), scenario instances by canonical *spec string*.
// Intern indices are process-local — a resumed process interns in
// snapshot-encounter order, a fresh build in sorted order — so ordering
// by raw index would make `BTreeMap` iteration (stats tables, reports)
// process-dependent and break byte-identical halt→resume.
impl Ord for WindowType {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        fn rank(wt: WindowType) -> usize {
            WindowType::ALL
                .iter()
                .position(|w| *w == wt)
                .unwrap_or(usize::MAX)
        }
        match (self, other) {
            (WindowType::Scenario(a), WindowType::Scenario(b)) => {
                dejavuzz_scenarios::instance_spec(*a).cmp(dejavuzz_scenarios::instance_spec(*b))
            }
            _ => rank(*self).cmp(&rank(*other)),
        }
    }
}

impl PartialOrd for WindowType {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl WindowType {
    /// All categories in Table 3's column order.
    pub const ALL: [WindowType; 8] = [
        WindowType::MemAccessFault,
        WindowType::MemPageFault,
        WindowType::MemMisalign,
        WindowType::IllegalInstr,
        WindowType::MemDisambiguation,
        WindowType::BranchMispredict,
        WindowType::IndirectMispredict,
        WindowType::ReturnMispredict,
    ];

    /// The base (Table 3) window type carrying this window's trigger
    /// mechanism: scenario instances map to the mechanism their template
    /// declares; base types map to themselves. Never returns
    /// [`WindowType::Scenario`].
    pub fn base(self) -> WindowType {
        match self {
            WindowType::Scenario(i) => {
                WindowType::ALL[dejavuzz_scenarios::instance_mechanism(i) as usize]
            }
            other => other,
        }
    }

    /// Table-3 column header; scenario instances display as
    /// `scenario:` + their canonical spec.
    pub fn name(self) -> &'static str {
        match self {
            WindowType::MemAccessFault => "Load/Store Access Fault",
            WindowType::MemPageFault => "Load/Store Page Fault",
            WindowType::MemMisalign => "Load/Store Misalign",
            WindowType::IllegalInstr => "Illegal Instruction",
            WindowType::MemDisambiguation => "Memory Disambiguation",
            WindowType::BranchMispredict => "Branch Misprediction",
            WindowType::IndirectMispredict => "Indirect Jump Misprediction",
            WindowType::ReturnMispredict => "Return Address Misprediction",
            WindowType::Scenario(i) => dejavuzz_scenarios::instance_label(i),
        }
    }

    /// True for the misprediction family (requires predictor training).
    pub fn is_mispredict(self) -> bool {
        matches!(
            self.base(),
            WindowType::BranchMispredict
                | WindowType::IndirectMispredict
                | WindowType::ReturnMispredict
        )
    }

    /// The squash cause Phase 1 requires in the trace for this category.
    pub fn expected_cause(self) -> &'static str {
        match self.base() {
            WindowType::MemAccessFault => "load-access-fault",
            WindowType::MemPageFault => "load-page-fault",
            WindowType::MemMisalign => "load-misalign",
            WindowType::IllegalInstr => "illegal-instruction",
            WindowType::MemDisambiguation => "mem-disambiguation",
            WindowType::BranchMispredict => "branch-mispredict",
            WindowType::IndirectMispredict => "jump-mispredict",
            WindowType::ReturnMispredict => "return-mispredict",
            WindowType::Scenario(_) => unreachable!("base() never returns Scenario"),
        }
    }

    /// Mnemonic matching Table 5's window classes; scenario instances
    /// class by family id so bug dedup is per-family.
    pub fn table5_class(self) -> &'static str {
        match self {
            WindowType::MemAccessFault | WindowType::MemPageFault | WindowType::MemMisalign => {
                "mem-excp"
            }
            WindowType::IllegalInstr => "illegal",
            WindowType::MemDisambiguation => "mem-disamb",
            WindowType::Scenario(i) => dejavuzz_scenarios::instance_family(i),
            _ => "mispred",
        }
    }
}

/// Draws a fresh-seed window type uniformly over the base families plus
/// the active scenario instances. Both fresh-seed sites (the worker's
/// in-iteration draw and the work-stealing pre-draw) use this, so the
/// two stay in lockstep; with no scenarios active the draw is exactly
/// the historical `gen_range(0..WindowType::ALL.len())`.
pub fn draw_window_type(rng: &mut StdRng, scenarios: &[u16]) -> WindowType {
    let k = rng.gen_range(0..WindowType::ALL.len() + scenarios.len());
    match WindowType::ALL.get(k) {
        Some(wt) => *wt,
        None => WindowType::Scenario(scenarios[k - WindowType::ALL.len()]),
    }
}

/// A fuzzing seed: the window type plus the entropy that drives the random
/// instruction generator ("seeds … contain configurations for trigger
/// instructions and transient windows, as well as entropy for the random
/// instruction generator", §5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Seed {
    /// The transient-window category to trigger.
    pub window_type: WindowType,
    /// RNG entropy.
    pub entropy: u64,
    /// Mutation counter (bumped by each window-regeneration mutation).
    pub mutation: u64,
}

impl Seed {
    /// A fresh seed.
    pub fn new(window_type: WindowType, entropy: u64) -> Self {
        Seed {
            window_type,
            entropy,
            mutation: 0,
        }
    }

    /// A mutated copy: same trigger configuration, different window
    /// entropy (Phase 2's "mutate the seed to regenerate the window
    /// section").
    pub fn mutate(&self) -> Seed {
        Seed {
            window_type: self.window_type,
            entropy: self.entropy,
            mutation: self.mutation + 1,
        }
    }

    fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.entropy ^ 0x9E37_79B9_7F4A_7C15)
    }

    fn window_rng(&self) -> StdRng {
        StdRng::seed_from_u64(
            self.entropy
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                .wrapping_add(self.mutation.wrapping_mul(0xDEAD_BEEF_CAFE_F00D)),
        )
    }
}

/// The plan of a transient packet: all addresses Phase 1/2/3 need to build
/// and rebuild it (with a dummy, real, or sanitized window).
#[derive(Clone, Debug)]
pub struct TransientPlan {
    /// Window category.
    pub window_type: WindowType,
    /// Address of the trigger instruction.
    pub trigger_addr: u64,
    /// Address where the transient window body starts.
    pub window_addr: u64,
    /// Number of 4-byte window slots.
    pub window_slots: usize,
    /// Architectural exit (`ecall`) address.
    pub exit_addr: u64,
    /// Whether the secret-access block masks high address bits (the
    /// MDS/B1 attempt of §4.2.1).
    pub uses_mask: bool,
    /// Secret permission policy this plan needs.
    pub secret_policy: SecretPolicy,
}

/// What fills the transient window when the packet is built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WindowFill {
    /// Phase 1: `nop`s only.
    Dummy,
    /// Phase 2: the full secret-access + secret-encode body.
    Body(Vec<Instr>),
    /// Phase 3 sanitization: the body with the encode block nop'ed out.
    Sanitized(Vec<Instr>),
}

/// The generated window body, split into its two blocks so sanitization can
/// replace exactly the encode block (§4.3.1).
#[derive(Clone, Debug)]
pub struct WindowBody {
    /// The secret access block (fixed access + optional masking).
    pub access: Vec<Instr>,
    /// The secret encoding block (random secret-dependent gadgets).
    pub encode: Vec<Instr>,
}

impl WindowBody {
    /// Full body.
    pub fn full(&self) -> Vec<Instr> {
        let mut v = self.access.clone();
        v.extend(self.encode.iter().copied());
        v
    }

    /// Sanitized body: access block kept, encode block replaced by `nop`s
    /// ("DejaVuzz replaces the secret encoding block in the transient
    /// packet with nop instructions and re-runs the simulation").
    pub fn sanitized(&self) -> Vec<Instr> {
        let mut v = self.access.clone();
        v.extend(std::iter::repeat_n(Instr::NOP, self.encode.len()));
        v
    }
}

/// Generates the transient plan for a seed (Phase 1.1 trigger generation).
pub fn plan(seed: &Seed) -> TransientPlan {
    let mut rng = seed.rng();
    let l = DEFAULT_LAYOUT;
    let s = l.swappable;
    // Random trigger placement: the alignment nops this costs are exactly
    // the TO-vs-ETO gap of Table 3.
    let trigger_addr = s + 0x60 + 4 * rng.gen_range(0..32) as u64;
    let mut window_slots = rng.gen_range(8..16);
    // Scenario windows widen to the template's minimum *after* the draw,
    // so the RNG sequence matches the base families exactly.
    if let WindowType::Scenario(i) = seed.window_type {
        window_slots = window_slots.max(dejavuzz_scenarios::instance_min_slots(i));
    }
    let (window_addr, exit_addr) = match seed.window_type.base() {
        // Exception/disambiguation windows follow the trigger directly.
        WindowType::MemAccessFault
        | WindowType::MemPageFault
        | WindowType::MemMisalign
        | WindowType::IllegalInstr => {
            let w = trigger_addr + 4;
            (w, w + 4 * window_slots as u64)
        }
        WindowType::MemDisambiguation => {
            // The "trigger" is the bypassing load; the window follows it.
            let w = trigger_addr + 4;
            (w, w + 4 * window_slots as u64)
        }
        // Misprediction windows live at a separate (arbitrary!) address —
        // the capability swapMem buys (Figure 4).
        _ => {
            let w = trigger_addr + 8 + 4 * rng.gen_range(2..16) as u64;
            (
                w,
                w + 4 * (window_slots as u64 + 2) + 4 * rng.gen_range(0..8) as u64,
            )
        }
    };
    // Masking high address bits turns the access into an *access* fault
    // (the MDS/B1 bait), so only access-fault seeds roll for it.
    let uses_mask = seed.window_type == WindowType::MemAccessFault && rng.gen_bool(0.5);
    let secret_policy = match seed.window_type.base() {
        WindowType::MemPageFault => SecretPolicy::ProtectBeforeTransient,
        _ => SecretPolicy::AlwaysReadable,
    };
    TransientPlan {
        window_type: seed.window_type,
        trigger_addr,
        window_addr,
        window_slots,
        exit_addr,
        uses_mask,
        secret_policy,
    }
}

/// Builds the transient packet for a plan with the requested window fill.
pub fn build_transient(plan: &TransientPlan, fill: &WindowFill) -> SwapPacket {
    let l = DEFAULT_LAYOUT;
    let mut b = ProgramBuilder::new(l.swappable);
    b.label_at("secret", l.secret);
    b.label_at("leak", crate::gen::LEAK_BASE);
    b.label_at("slot", crate::gen::DISAMB_SLOT);
    b.label_at("dummy", crate::gen::DISAMB_DUMMY);
    b.la(Reg::T0, "secret");
    b.la(Reg::T2, "leak");
    if plan.uses_mask {
        // The secret-access mask: t0 |= 1 << 63 (illegal high bits; B1 bait).
        b.push(Instr::addi(Reg::T4, Reg::ZERO, 1));
        b.push(Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::T4,
            rs1: Reg::T4,
            imm: 63,
        });
        b.push(Instr::Op {
            op: AluOp::Or,
            rd: Reg::T0,
            rs1: Reg::T0,
            rs2: Reg::T4,
        });
    }
    match plan.window_type.base() {
        WindowType::MemAccessFault => {
            if !plan.uses_mask {
                // A plainly unmapped address.
                b.push(Instr::Lui {
                    rd: Reg::T0,
                    imm: 0x40000 << 12,
                });
            }
            b.pad_to(plan.trigger_addr);
            // The faulting access *is* the secret access when masked.
            b.push(Instr::Load {
                op: LoadOp::Lb,
                rd: Reg::S0,
                rs1: Reg::T0,
                offset: 0,
            });
        }
        WindowType::MemPageFault => {
            b.pad_to(plan.trigger_addr);
            b.push(Instr::Load {
                op: LoadOp::Lb,
                rd: Reg::S0,
                rs1: Reg::T0,
                offset: 0,
            });
        }
        WindowType::MemMisalign => {
            b.pad_to(plan.trigger_addr);
            b.push(Instr::Load {
                op: LoadOp::Lw,
                rd: Reg::T4,
                rs1: Reg::T0,
                offset: 1,
            });
        }
        WindowType::IllegalInstr => {
            b.pad_to(plan.trigger_addr);
            b.push(Instr::Illegal(0xFFFF_FFFF));
        }
        WindowType::MemDisambiguation => {
            b.la(Reg::A1, "slot");
            b.la(Reg::A2, "dummy");
            b.la(Reg::A3, "slot");
            // The store sits directly before the bypassing load so the
            // load issues while the (chained-div-delayed) store address is
            // still unresolved.
            b.pad_to(plan.trigger_addr - 24);
            b.push(Instr::addi(Reg::T5, Reg::ZERO, 0));
            b.push(Instr::addi(Reg::T6, Reg::ZERO, 1));
            b.push(Instr::Op {
                op: AluOp::Div,
                rd: Reg::T4,
                rs1: Reg::T5,
                rs2: Reg::T6,
            });
            b.push(Instr::Op {
                op: AluOp::Div,
                rd: Reg::T4,
                rs1: Reg::T4,
                rs2: Reg::T6,
            });
            b.push(Instr::Op {
                op: AluOp::Add,
                rd: Reg::A1,
                rs1: Reg::A1,
                rs2: Reg::T4,
            });
            b.push(Instr::sd(Reg::A2, Reg::A1, 0)); // late-resolving store
                                                    // The bypassing load reads the stale secret pointer.
            b.push(Instr::ld(Reg::T0, Reg::A3, 0));
        }
        WindowType::BranchMispredict => {
            // The chase sits directly before the branch so its latency is
            // not absorbed by the alignment pads.
            b.pad_to(plan.trigger_addr - 24);
            emit_slow_zero(&mut b);
            let off = plan.window_addr as i64 - plan.trigger_addr as i64;
            // Never-taken branch (a6 == 0), trained taken; the slow operand
            // keeps it unresolved while the window executes.
            b.push(Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A6,
                rs2: Reg::ZERO,
                offset: off,
            });
            b.push(Instr::Ecall); // architectural exit (fall-through)
        }
        WindowType::IndirectMispredict => {
            b.label_at("exit", plan.exit_addr);
            b.la(Reg::A0, "exit");
            b.pad_to(plan.trigger_addr - 28);
            emit_slow_zero(&mut b);
            // a0 += a6 (= 0): the target is exit, but its readiness waits
            // on the pointer chase.
            b.push(Instr::Op {
                op: AluOp::Add,
                rd: Reg::A0,
                rs1: Reg::A0,
                rs2: Reg::A6,
            });
            b.push(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::A0,
                offset: 0,
            });
        }
        WindowType::ReturnMispredict => {
            b.label_at("exit", plan.exit_addr);
            b.la(Reg::RA, "exit");
            b.pad_to(plan.trigger_addr - 28);
            emit_slow_zero(&mut b);
            b.push(Instr::Op {
                op: AluOp::Add,
                rd: Reg::RA,
                rs1: Reg::RA,
                rs2: Reg::A6,
            });
            b.push(Instr::ret());
        }
        WindowType::Scenario(_) => unreachable!("base() never returns Scenario"),
    }
    // Window body.
    b.pad_to(plan.window_addr);
    match fill {
        WindowFill::Dummy => {
            b.nops(plan.window_slots);
        }
        WindowFill::Body(body) | WindowFill::Sanitized(body) => {
            for &i in body.iter().take(plan.window_slots) {
                b.push(i);
            }
            if body.len() < plan.window_slots {
                b.nops(plan.window_slots - body.len());
            }
        }
    }
    b.push(Instr::Ecall);
    if plan.exit_addr >= b.here() {
        b.pad_to(plan.exit_addr);
        b.push(Instr::Ecall);
    }
    SwapPacket::new("transient", PacketKind::Transient, b.assemble())
}

/// Address of the leak array used by encode gadgets.
pub const LEAK_BASE: u64 = 0x8000;
/// Disambiguation pointer slot (initialised to `&secret`).
pub const DISAMB_SLOT: u64 = 0xE000;
/// Disambiguation replacement target.
pub const DISAMB_DUMMY: u64 = 0xE800;
/// Cold slot holding zero: the slow trigger operand (see
/// [`COND_PTR`]).
pub const COND_SLOT: u64 = 0xE100;
/// Pointer to [`COND_SLOT`]: mispredict triggers chase this pointer so
/// their resolution waits ~two cache misses, keeping the transient window
/// open across cold icache lines (the generator's ISA-simulator-computed
/// operand setup, §4.1.1).
pub const COND_PTR: u64 = 0xE200;

/// Data-region initialisation every generated stimulus needs: one
/// doubleword per address.
pub fn data_init() -> [(u64, [u8; 8]); 4] {
    [
        (DISAMB_SLOT, DEFAULT_LAYOUT.secret.to_le_bytes()),
        (DISAMB_DUMMY, [0; 8]),
        (COND_SLOT, [0; 8]),
        (COND_PTR, COND_SLOT.to_le_bytes()),
    ]
}

/// Emits the slow-zero prologue: `a6 = 0`, ready only after a cold
/// two-hop pointer chase plus a divide — ~50+ cycles, comfortably past any
/// single icache-miss stall of the window's first fetch.
fn emit_slow_zero(b: &mut ProgramBuilder) {
    b.label_at("cond_ptr", COND_PTR);
    b.la(Reg::A5, "cond_ptr");
    b.push(Instr::ld(Reg::A5, Reg::A5, 0));
    b.push(Instr::ld(Reg::A6, Reg::A5, 0));
    b.push(Instr::addi(Reg::A7, Reg::ZERO, 1));
    b.push(Instr::Op {
        op: AluOp::Div,
        rd: Reg::A6,
        rs1: Reg::A6,
        rs2: Reg::A7,
    });
}

/// Phase 1.1 training derivation: targeted trigger-training packets built
/// from the transient-execution information in the plan (§4.1.1), plus
/// `decoys` random (ineffective) training packets for the reduction pass to
/// discard.
pub fn derive_trainings(seed: &Seed, plan: &TransientPlan, decoys: usize) -> Vec<SwapPacket> {
    let mut rng = seed.rng();
    let l = DEFAULT_LAYOUT;
    let mut out = Vec::new();
    match plan.window_type.base() {
        WindowType::BranchMispredict => {
            // Train the shared-address branch in the *opposite* direction
            // of the transient outcome, with the control flow adjusted to
            // the window (always-taken beq to the window address).
            for _ in 0..2 {
                let mut b = ProgramBuilder::new(l.swappable);
                b.pad_to(plan.trigger_addr);
                let off = plan.window_addr as i64 - plan.trigger_addr as i64;
                b.push(Instr::Branch {
                    op: BranchOp::Beq,
                    rs1: Reg::A0,
                    rs2: Reg::A0,
                    offset: off,
                });
                b.pad_to(plan.window_addr);
                b.push(Instr::Ecall);
                out.push(SwapPacket::new(
                    format!("trigger_train_{}", out.len()),
                    PacketKind::TriggerTraining,
                    b.assemble(),
                ));
            }
        }
        WindowType::IndirectMispredict => {
            // Train the BTB entry of the trigger address to the window.
            let mut b = ProgramBuilder::new(l.swappable);
            b.label_at("window", plan.window_addr);
            b.la(Reg::A0, "window");
            b.pad_to(plan.trigger_addr);
            b.push(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::A0,
                offset: 0,
            });
            b.pad_to(plan.window_addr);
            b.push(Instr::Ecall);
            out.push(SwapPacket::new(
                "trigger_train_0",
                PacketKind::TriggerTraining,
                b.assemble(),
            ));
        }
        WindowType::ReturnMispredict => {
            // "DejaVuzz adjusts the caller address … to ensure that the
            // return address matches the start address of the transient
            // window", then exits without returning.
            let mut b = ProgramBuilder::new(l.swappable);
            b.pad_to(plan.window_addr - 4);
            b.push(Instr::call(8));
            b.pad_to(plan.window_addr + 4);
            b.push(Instr::Ecall);
            out.push(SwapPacket::new(
                "trigger_train_0",
                PacketKind::TriggerTraining,
                b.assemble(),
            ));
        }
        _ => {}
    }
    for _ in 0..decoys {
        out.push(random_training_packet(
            &mut rng,
            out.len(),
            plan.trigger_addr,
        ));
    }
    out
}

/// DejaVuzz* training: purely random packets, unaligned and without
/// control-flow matching (§6.2's ablation variant).
pub fn random_trainings(seed: &Seed, count: usize) -> Vec<SwapPacket> {
    let mut rng = StdRng::seed_from_u64(seed.entropy.wrapping_add(0x5EED));
    (0..count)
        .map(|i| {
            let addr = DEFAULT_LAYOUT.swappable + 4 * rng.gen_range(0..64) as u64;
            random_training_packet(&mut rng, i, addr)
        })
        .collect()
}

fn random_training_packet(rng: &mut StdRng, index: usize, align_addr: u64) -> SwapPacket {
    let l = DEFAULT_LAYOUT;
    let mut b = ProgramBuilder::new(l.swappable);
    b.pad_to(align_addr);
    // One random (data-flow) training instruction, aligned to the trigger.
    let rd = Reg::from_index(rng.gen_range(5..32));
    let rs1 = Reg::from_index(rng.gen_range(0..32));
    let rs2 = Reg::from_index(rng.gen_range(0..32));
    let instr = match rng.gen_range(0..6) {
        0 => Instr::Op {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        },
        1 => Instr::Op {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        },
        2 => Instr::Op {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2,
        },
        3 => Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm: rng.gen_range(-512..512),
        },
        // Random control transfers: occasionally they land at the right
        // address with the right shape and train something (the only way
        // DejaVuzz* ever opens a misprediction window).
        4 => Instr::Branch {
            op: if rng.gen_bool(0.5) {
                BranchOp::Beq
            } else {
                BranchOp::Bne
            },
            rs1: Reg::A0,
            rs2: Reg::A0,
            offset: 4 * rng.gen_range(1..24),
        },
        _ => Instr::call(4 * rng.gen_range(1..8)),
    };
    b.push(instr);
    b.push(Instr::Ecall);
    SwapPacket::new(
        format!("trigger_train_{index}"),
        PacketKind::TriggerTraining,
        b.assemble(),
    )
}

/// Phase 2.1 window completion: generates the secret access block and a
/// random secret-encoding block (§4.2.1).
pub fn complete_window(seed: &Seed, plan: &TransientPlan) -> WindowBody {
    let mut rng = seed.window_rng();
    let mut access = Vec::new();
    // The secret access: for fault-trigger windows the trigger *is* the
    // access (s0 already holds the secret); for the others, load it here.
    match plan.window_type {
        // Scenario instances supply their whole access block, drawn from
        // the trigger-configuration stream (stable across mutations, like
        // the base families' access op).
        WindowType::Scenario(i) => {
            let mut access_rng = seed.rng();
            access = dejavuzz_scenarios::instance_access_block(i, &mut access_rng);
        }
        WindowType::MemAccessFault | WindowType::MemPageFault => {}
        WindowType::MemDisambiguation => {
            // t0 was speculatively loaded with &secret by the trigger.
            access.push(Instr::Load {
                op: LoadOp::Lb,
                rd: Reg::S0,
                rs1: Reg::T0,
                offset: 0,
            });
        }
        _ => {
            // The access op is part of the trigger configuration (stable
            // across window mutations); only the encode block re-rolls.
            let mut access_rng = seed.rng();
            let op = [LoadOp::Lb, LoadOp::Lbu, LoadOp::Lh, LoadOp::Lw][access_rng.gen_range(0..4)];
            access.push(Instr::Load {
                op,
                rd: Reg::S0,
                rs1: Reg::T0,
                offset: 0,
            });
        }
    }
    // The secret encoding block: 2–4 random gadgets that propagate the
    // secret into distinct microarchitectural components.
    let mut encode = Vec::new();
    let gadgets = rng.gen_range(2..6);
    for _ in 0..gadgets {
        match rng.gen_range(0..6) {
            // Cache encode: touch a secret-indexed leak line.
            0 => {
                let sh = rng.gen_range(4..8);
                encode.push(Instr::OpImm {
                    op: AluOp::Sll,
                    rd: Reg::S1,
                    rs1: Reg::S0,
                    imm: sh,
                });
                encode.push(Instr::Op {
                    op: AluOp::Add,
                    rd: Reg::T1,
                    rs1: Reg::T2,
                    rs2: Reg::S1,
                });
                encode.push(Instr::ld(Reg::T3, Reg::T1, 0));
            }
            // Store encode: write to a secret-indexed slot.
            1 => {
                let sh = rng.gen_range(4..7);
                encode.push(Instr::OpImm {
                    op: AluOp::Sll,
                    rd: Reg::S1,
                    rs1: Reg::S0,
                    imm: sh,
                });
                encode.push(Instr::Op {
                    op: AluOp::Add,
                    rd: Reg::T1,
                    rs1: Reg::T2,
                    rs2: Reg::S1,
                });
                encode.push(Instr::Store {
                    op: StoreOp::Sb,
                    rs2: Reg::S0,
                    rs1: Reg::T1,
                    offset: 0,
                });
            }
            // Control encode: a secret-dependent branch (timing/refetch).
            2 => {
                let bit = 1 << rng.gen_range(0..3);
                encode.push(Instr::OpImm {
                    op: AluOp::And,
                    rd: Reg::S1,
                    rs1: Reg::S0,
                    imm: bit,
                });
                encode.push(Instr::Branch {
                    op: BranchOp::Bne,
                    rs1: Reg::S1,
                    rs2: Reg::ZERO,
                    offset: 8,
                });
                encode.push(Instr::NOP);
            }
            // FPU encode: secret-gated long divide (port contention).
            3 => {
                encode.push(Instr::FmvDX {
                    rd: Reg(1),
                    rs1: Reg::S0,
                });
                encode.push(Instr::Fp {
                    op: dejavuzz_isa::FpOp::FdivD,
                    rd: Reg(2),
                    rs1: Reg(1),
                    rs2: Reg(1),
                });
            }
            // Arithmetic propagation chain.
            4 => {
                encode.push(Instr::Op {
                    op: AluOp::Xor,
                    rd: Reg::S2,
                    rs1: Reg::S0,
                    rs2: Reg::T2,
                });
                encode.push(Instr::Op {
                    op: AluOp::Mul,
                    rd: Reg::S3,
                    rs1: Reg::S2,
                    rs2: Reg::S0,
                });
            }
            // TLB encode: touch a secret-indexed page.
            _ => {
                encode.push(Instr::OpImm {
                    op: AluOp::Sll,
                    rd: Reg::S1,
                    rs1: Reg::S0,
                    imm: 9,
                });
                encode.push(Instr::Op {
                    op: AluOp::Add,
                    rd: Reg::T1,
                    rs1: Reg::T2,
                    rs2: Reg::S1,
                });
                encode.push(Instr::Load {
                    op: LoadOp::Lb,
                    rd: Reg::T3,
                    rs1: Reg::T1,
                    offset: 0,
                });
            }
        }
    }
    // Scenario mutation bias: template-chosen encode-side instructions,
    // redrawn per mutation like the gadgets above.
    if let WindowType::Scenario(i) = plan.window_type {
        encode.extend(dejavuzz_scenarios::instance_encode_bias(i, &mut rng));
    }
    WindowBody { access, encode }
}

/// Phase 2.1 window training derivation: a warm-up packet that loads the
/// (still readable) secret so the window's access block hits warm state
/// ("DejaVuzz attempts to warm up sensitive data into the processor's
/// internal buffers in advance, such as data cache and load buffer").
pub fn derive_window_training(plan: &TransientPlan) -> Option<SwapPacket> {
    let l = DEFAULT_LAYOUT;
    match plan.window_type {
        // Faults on masked/unmapped addresses warm nothing useful.
        WindowType::MemAccessFault if plan.uses_mask => None,
        _ => {
            let mut b = ProgramBuilder::new(l.swappable);
            b.label_at("secret", l.secret);
            b.la(Reg::T0, "secret");
            b.push(Instr::ld(Reg::S1, Reg::T0, 0));
            b.push(Instr::Ecall);
            Some(SwapPacket::new(
                "window_train_warm",
                PacketKind::WindowTraining,
                b.assemble(),
            ))
        }
    }
}

/// Training-overhead accounting for a set of training packets: `(TO, ETO)`
/// — TO counts every emitted slot, ETO excludes the alignment `nop`s
/// (Table 3).
pub fn training_overhead(packets: &[SwapPacket]) -> (usize, usize) {
    let mut to = 0;
    let mut eto = 0;
    for p in packets {
        if p.kind != PacketKind::TriggerTraining {
            continue;
        }
        for &w in &p.program.words {
            to += 1;
            if dejavuzz_isa::decode(w) != Instr::NOP {
                eto += 1;
            }
        }
    }
    (to, eto)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seed(w: WindowType, e: u64) -> Seed {
        Seed::new(w, e)
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let s = seed(WindowType::BranchMispredict, 7);
        let p1 = plan(&s);
        let p2 = plan(&s);
        assert_eq!(p1.trigger_addr, p2.trigger_addr);
        assert_eq!(p1.window_addr, p2.window_addr);
    }

    #[test]
    fn mispredict_windows_are_disjoint_from_trigger() {
        for e in 0..20 {
            let p = plan(&seed(WindowType::BranchMispredict, e));
            assert!(p.window_addr > p.trigger_addr + 4);
            assert!(p.exit_addr > p.window_addr + 4 * p.window_slots as u64);
        }
    }

    #[test]
    fn exception_windows_follow_trigger() {
        let p = plan(&seed(WindowType::IllegalInstr, 3));
        assert_eq!(p.window_addr, p.trigger_addr + 4);
    }

    #[test]
    fn page_fault_plans_protect_the_secret() {
        let p = plan(&seed(WindowType::MemPageFault, 3));
        assert_eq!(p.secret_policy, SecretPolicy::ProtectBeforeTransient);
        let p2 = plan(&seed(WindowType::BranchMispredict, 3));
        assert_eq!(p2.secret_policy, SecretPolicy::AlwaysReadable);
    }

    #[test]
    fn build_transient_with_all_fills() {
        for wt in WindowType::ALL {
            let s = seed(wt, 11);
            let p = plan(&s);
            let body = complete_window(&s, &p);
            for fill in [
                WindowFill::Dummy,
                WindowFill::Body(body.full()),
                WindowFill::Sanitized(body.sanitized()),
            ] {
                let pkt = build_transient(&p, &fill);
                assert!(!pkt.program.words.is_empty(), "{wt:?} builds");
                assert!(pkt.program.base >= DEFAULT_LAYOUT.swappable);
            }
        }
    }

    #[test]
    fn sanitized_body_keeps_access_nops_encode() {
        let s = seed(WindowType::BranchMispredict, 5);
        let p = plan(&s);
        let body = complete_window(&s, &p);
        let sanitized = body.sanitized();
        assert_eq!(sanitized.len(), body.full().len());
        assert_eq!(&sanitized[..body.access.len()], &body.access[..]);
        assert!(sanitized[body.access.len()..]
            .iter()
            .all(|&i| i == Instr::NOP));
    }

    #[test]
    fn derived_branch_training_aligns_with_trigger() {
        let s = seed(WindowType::BranchMispredict, 9);
        let p = plan(&s);
        let trainings = derive_trainings(&s, &p, 2);
        assert!(trainings.len() >= 3, "2 targeted + 2 decoys");
        // The first targeted packet has its branch exactly at trigger_addr.
        let words = &trainings[0].program.words;
        let idx = ((p.trigger_addr - trainings[0].program.base) / 4) as usize;
        match dejavuzz_isa::decode(words[idx]) {
            Instr::Branch {
                op: BranchOp::Beq,
                offset,
                ..
            } => {
                assert_eq!(
                    offset,
                    p.window_addr as i64 - p.trigger_addr as i64,
                    "control flow adjusted to the window"
                );
            }
            other => panic!("expected aligned beq, got {other}"),
        }
    }

    #[test]
    fn derived_return_training_pushes_window_address() {
        let s = seed(WindowType::ReturnMispredict, 13);
        let p = plan(&s);
        let trainings = derive_trainings(&s, &p, 0);
        assert_eq!(trainings.len(), 1);
        let words = &trainings[0].program.words;
        let call_idx = ((p.window_addr - 4 - trainings[0].program.base) / 4) as usize;
        assert!(
            matches!(
                dejavuzz_isa::decode(words[call_idx]),
                Instr::Jal { rd: Reg::RA, .. }
            ),
            "caller adjusted so ra == window start"
        );
    }

    #[test]
    fn random_trainings_do_not_align() {
        let s = seed(WindowType::IndirectMispredict, 21);
        let ts = random_trainings(&s, 5);
        assert_eq!(ts.len(), 5);
    }

    #[test]
    fn training_overhead_counts_nops_in_to_only() {
        let s = seed(WindowType::BranchMispredict, 9);
        let p = plan(&s);
        let trainings = derive_trainings(&s, &p, 0);
        let (to, eto) = training_overhead(&trainings);
        assert!(to > eto, "alignment nops count toward TO only");
        assert!(eto >= 2, "the branch + ecall are effective instructions");
    }

    #[test]
    fn window_body_variety_across_mutations() {
        let s = seed(WindowType::BranchMispredict, 2);
        let p = plan(&s);
        let b0 = complete_window(&s, &p);
        let b1 = complete_window(&s.mutate(), &p);
        // Mutation regenerates the window section.
        assert_ne!(b0.encode, b1.encode);
        assert_eq!(b0.access, b1.access, "the access block is fixed per plan");
    }

    #[test]
    fn warm_training_skipped_for_masked_faults() {
        let mut found_none = false;
        let mut found_some = false;
        for e in 0..40 {
            let s = seed(WindowType::MemAccessFault, e);
            let p = plan(&s);
            match derive_window_training(&p) {
                None => found_none = true,
                Some(pkt) => {
                    assert_eq!(pkt.kind, PacketKind::WindowTraining);
                    found_some = true;
                }
            }
        }
        assert!(found_none && found_some, "mask flag varies across seeds");
    }
}
