//! Hand-written transient-execution attack test cases.
//!
//! These are the five benchmarks of Table 4 / Figure 6 ("a benchmark
//! covering common transient execution vulnerability test cases"):
//! Spectre-V1, Spectre-V2, Meltdown, Spectre-V4 and Spectre-RSB, each
//! expressed as a swapMem schedule exactly the way the paper's Figure 4
//! stages them — training packets first, the transient packet last, with
//! training instructions pinned to the same addresses as their trigger
//! instructions.

use dejavuzz_isa::asm::ProgramBuilder;
use dejavuzz_isa::instr::{AluOp, BranchOp, Instr, LoadOp, Reg};
use dejavuzz_swapmem::{Layout, PacketKind, SecretPolicy, SwapMem, SwapPacket, DEFAULT_LAYOUT};

/// Address of the leak array (256 cache lines) inside the data region.
pub const LEAK_BASE: u64 = 0x8000;
/// Address of the Spectre-V4 pointer slot.
pub const V4_SLOT: u64 = 0xE000;
/// Address of the Spectre-V4 harmless replacement target.
pub const V4_DUMMY: u64 = 0xE800;

/// One ready-to-run attack scenario.
#[derive(Clone, Debug)]
pub struct AttackCase {
    /// Scenario name as printed in Table 4 / Figure 6.
    pub name: &'static str,
    /// The swap schedule (training packets, then the transient packet).
    pub packets: Vec<SwapPacket>,
    /// Secret permission handling.
    pub secret_policy: SecretPolicy,
    /// `(addr, bytes)` pairs written into memory before the run.
    pub data_init: Vec<(u64, Vec<u8>)>,
}

impl AttackCase {
    /// Builds a [`SwapMem`] with this scenario installed and the secret
    /// pair planted (variant 2 = bit-flip, per §3.3).
    pub fn build_mem(&self, secret: &[u8]) -> SwapMem {
        self.build_mem_with(secret, false)
    }

    /// Like [`AttackCase::build_mem`], but optionally planting *identical*
    /// secrets in both variants (the diffIFT_FN study of Figure 6).
    pub fn build_mem_with(&self, secret: &[u8], identical_secrets: bool) -> SwapMem {
        let mut mem = SwapMem::new(DEFAULT_LAYOUT);
        for (addr, bytes) in &self.data_init {
            mem.write_bytes(*addr, bytes);
        }
        if identical_secrets {
            mem.plant_secret_identical(secret);
        } else {
            mem.plant_secret(secret);
        }
        mem.set_secret_policy(self.secret_policy);
        mem.set_schedule(self.packets.clone());
        mem
    }
}

/// The canonical secret-access + secret-encode window body (paper Figure 1
/// steps 3: `lb s0, 0(t0); add t0, t0, s0; ld t0, 0(t0)` modulo register
/// allocation): loads one secret byte and touches a secret-indexed cache
/// line of the leak array.
fn emit_window_body(b: &mut ProgramBuilder) {
    b.push(Instr::Load {
        op: LoadOp::Lb,
        rd: Reg::S0,
        rs1: Reg::T0,
        offset: 0,
    });
    b.push(Instr::OpImm {
        op: AluOp::Sll,
        rd: Reg::S0,
        rs1: Reg::S0,
        imm: 6,
    });
    b.push(Instr::Op {
        op: AluOp::Add,
        rd: Reg::T1,
        rs1: Reg::T2,
        rs2: Reg::S0,
    });
    b.push(Instr::ld(Reg::T3, Reg::T1, 0));
    b.push(Instr::Ecall);
}

/// Register setup shared by the transient packets: `t0 = &secret`,
/// `t2 = &leak`.
fn emit_setup(b: &mut ProgramBuilder, layout: Layout) {
    b.label_at("secret", layout.secret);
    b.label_at("leak", LEAK_BASE);
    b.la(Reg::T0, "secret");
    b.la(Reg::T2, "leak");
}

/// Spectre-V1: a conditional branch trained taken, transiently executing
/// the taken path while the architectural path falls through.
pub fn spectre_v1() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let branch_addr = l.swappable + 0x40;
    // Training packet: `beq a0, a0, +8` at the shared branch address.
    let train = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.pad_to(branch_addr);
        b.push(Instr::Branch {
            op: BranchOp::Beq,
            rs1: Reg::A0,
            rs2: Reg::A0,
            offset: 8,
        });
        b.push(Instr::NOP);
        b.push(Instr::Ecall); // branch target
        SwapPacket::new(
            "trigger_train_taken",
            PacketKind::TriggerTraining,
            b.assemble(),
        )
    };
    // Transient packet: `bne a0, a0, win` at the same address — never
    // taken, predicted taken.
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        emit_setup(&mut b, l);
        b.pad_to(branch_addr);
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 0,
            },
            "win",
        );
        b.push(Instr::Ecall); // architectural exit
        b.label("win");
        emit_window_body(&mut b);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Spectre-V1",
        packets: vec![train.clone(), train, transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![],
    }
}

/// Spectre-V2: an indirect jump whose BTB entry is trained to the window,
/// then invoked with a different architectural target (paper Figure 1: the
/// same code, different `a0`).
pub fn spectre_v2() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let jump_addr = l.swappable + 0x40;
    let window_addr = l.swappable + 0x60;
    let exit_addr = l.swappable + 0x80;
    let train = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("window", window_addr);
        b.la(Reg::A0, "window");
        b.pad_to(jump_addr);
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::A0,
            offset: 0,
        });
        b.pad_to(window_addr);
        b.push(Instr::Ecall);
        SwapPacket::new(
            "trigger_train_btb",
            PacketKind::TriggerTraining,
            b.assemble(),
        )
    };
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("exit", exit_addr);
        emit_setup(&mut b, l);
        b.la(Reg::A0, "exit");
        b.pad_to(jump_addr);
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::A0,
            offset: 0,
        });
        b.pad_to(window_addr);
        emit_window_body(&mut b);
        b.pad_to(exit_addr);
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Spectre-V2",
        packets: vec![train, transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![],
    }
}

/// Spectre-RSB: the trigger training packet performs a call whose return
/// address equals the window start and exits *without* returning (paper
/// Figure 5: "exit w/o ret"); the transient packet's bare `ret` then pops
/// the stale entry and speculatively returns into the window.
pub fn spectre_rsb() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let window_addr = l.swappable + 0x60;
    let ret_addr = l.swappable + 0x40;
    let exit_addr = l.swappable + 0x80;
    let train = {
        let mut b = ProgramBuilder::new(l.swappable);
        // The call sits at window_addr - 4 so the pushed return address is
        // exactly the window start.
        b.pad_to(window_addr - 4);
        b.push(Instr::call(8)); // jal ra, +8 -> pushes window_addr
        b.pad_to(window_addr + 4);
        b.push(Instr::Ecall); // exit without ret: the RAS entry stays
        SwapPacket::new(
            "trigger_train_ras",
            PacketKind::TriggerTraining,
            b.assemble(),
        )
    };
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("exit", exit_addr);
        emit_setup(&mut b, l);
        b.la(Reg::RA, "exit"); // architectural return target
        b.pad_to(ret_addr);
        b.push(Instr::ret()); // RAS predicts window_addr
        b.pad_to(window_addr);
        emit_window_body(&mut b);
        b.pad_to(exit_addr);
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Spectre-RSB",
        packets: vec![train, transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![],
    }
}

/// Spectre-V4 (memory disambiguation): a pointer slot holds `&secret`; a
/// late-resolving store overwrites it with `&dummy`, and the younger load
/// speculatively bypasses the store, dereferencing the stale secret
/// pointer.
pub fn spectre_v4() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("slot", V4_SLOT);
        b.label_at("dummy", V4_DUMMY);
        emit_setup(&mut b, l);
        b.la(Reg::T0, "slot"); // overrides t0: the slot, not the secret
        b.la(Reg::A2, "dummy");
        // Long-latency address computation delays the store's resolution.
        b.push(Instr::addi(Reg::T5, Reg::ZERO, 0));
        b.push(Instr::addi(Reg::T6, Reg::ZERO, 1));
        b.push(Instr::Op {
            op: AluOp::Div,
            rd: Reg::T4,
            rs1: Reg::T5,
            rs2: Reg::T6,
        }); // = 0
        b.push(Instr::Op {
            op: AluOp::Add,
            rd: Reg::A1,
            rs1: Reg::T0,
            rs2: Reg::T4,
        });
        b.push(Instr::sd(Reg::A2, Reg::A1, 0)); // resolves late
        b.push(Instr::ld(Reg::A3, Reg::T0, 0)); // bypasses: stale &secret
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::A3,
            offset: 0,
        });
        b.push(Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 6,
        });
        b.push(Instr::Op {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::T2,
            rs2: Reg::S0,
        });
        b.push(Instr::ld(Reg::T3, Reg::T1, 0));
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Spectre-V4",
        packets: vec![transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![
            (V4_SLOT, DEFAULT_LAYOUT.secret.to_le_bytes().to_vec()),
            (V4_DUMMY, vec![0u8; 8]),
        ],
    }
}

/// Meltdown: the window training packet warms the (still readable) secret
/// into the data cache; the swap runtime then revokes read permission, and
/// the transient packet's faulting load forwards the secret to its
/// dependents before the exception commits.
pub fn meltdown() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let warm = {
        let mut b = ProgramBuilder::new(l.swappable);
        b.label_at("secret", l.secret);
        b.la(Reg::T0, "secret");
        b.push(Instr::ld(Reg::S1, Reg::T0, 0));
        b.push(Instr::Ecall);
        SwapPacket::new(
            "window_train_warm",
            PacketKind::WindowTraining,
            b.assemble(),
        )
    };
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        emit_setup(&mut b, l);
        emit_window_body(&mut b); // the lb faults; dependents run transiently
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Meltdown",
        packets: vec![warm, transient],
        secret_policy: SecretPolicy::ProtectBeforeTransient,
        data_init: vec![],
    }
}

/// The five benchmark scenarios in Table 4's row order.
pub fn all() -> Vec<AttackCase> {
    vec![
        spectre_v1(),
        spectre_v2(),
        meltdown(),
        spectre_v4(),
        spectre_rsb(),
    ]
}

/// Address of the condition slot loaded (slowly) by the B2 trigger branch.
pub const B2_COND_SLOT: u64 = 0xE100;
/// Address of the pointer to [`B2_COND_SLOT`] (the first hop of the
/// pointer chase that keeps the B2 trigger branch unresolved).
pub const B2_COND_PTR: u64 = 0xE200;

/// B1 MeltDown-Sampling (CVE-2024-44594): the secret-access block masks the
/// high bits of the address ("DejaVuzz generates illegal addresses through
/// the secret access blocks with masks"); on the buggy XiangShan the mask
/// is truncated on the way to the load unit, sampling the aliased target.
pub fn meltdown_sampling() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let transient = {
        let mut b = ProgramBuilder::new(l.swappable);
        emit_setup(&mut b, l);
        // t0 |= 1 << 63: an illegal masked address aliasing the secret.
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
        emit_window_body(&mut b); // lb faults (access fault), samples anyway
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "MeltDown-Sampling (B1)",
        packets: vec![transient],
        secret_policy: SecretPolicy::ProtectBeforeTransient,
        data_init: vec![],
    }
}

/// B2 Phantom-RSB (CVE-2024-44591): transient returns pop below the
/// checkpointed TOS and a transient call through a secret-dependent target
/// overwrites the slot; BOOM's recovery restores only TOS + the top entry,
/// leaving the secret-dependent return address live in the stack.
pub fn phantom_rsb() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let s = l.swappable;
    let (c2_site, c1_ret, gadgets, exit) = (s + 0x4C, s + 0x60, s + 0x180, s + 0x100);
    // Trigger training: two calls leave RAS entries [c1_ret, c2_site+4].
    let train = {
        let mut b = ProgramBuilder::new(s);
        b.jal_to(Reg::ZERO, "start");
        b.pad_to(c2_site);
        b.push(Instr::call(8)); // pushes c2_site + 4 (top entry)
        b.pad_to(c2_site + 8);
        b.push(Instr::Ecall); // exit without ret: entries stay
        b.pad_to(c1_ret - 4);
        b.label("start");
        b.jal_to(Reg::RA, "back"); // pushes c1_ret (slot below top)
        b.label_at("back", c2_site);
        SwapPacket::new(
            "trigger_train_ras",
            PacketKind::TriggerTraining,
            b.assemble(),
        )
    };
    // Window training: warm the secret line so the window body runs far
    // ahead of the (deliberately cold) trigger condition.
    let warm = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("secret", l.secret);
        b.la(Reg::T0, "secret");
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S1,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::Ecall);
        SwapPacket::new(
            "window_train_warm",
            PacketKind::WindowTraining,
            b.assemble(),
        )
    };
    let transient = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("cond_ptr", B2_COND_PTR);
        b.label_at("gadgets", gadgets);
        b.label_at("exit", exit);
        b.label_at("c2ret", c2_site + 4);
        emit_setup(&mut b, l);
        // Slow trigger condition: a cold two-hop pointer chase keeps the
        // branch unresolved while the return chain plays out.
        b.la(Reg::A5, "cond_ptr");
        b.push(Instr::ld(Reg::A5, Reg::A5, 0)); // cold hop 1 -> &cond
        b.push(Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::A0,
            rs1: Reg::A5,
            offset: 0,
        }); // cold hop 2
            // Secret-dependent gadget pointer: gadgets + (secret & 1) * 64.
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::OpImm {
            op: AluOp::And,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 1,
        });
        b.push(Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 6,
        });
        b.la(Reg::T5, "gadgets");
        b.push(Instr::Op {
            op: AluOp::Add,
            rd: Reg::T5,
            rs1: Reg::T5,
            rs2: Reg::S0,
        });
        b.la(Reg::RA, "c2ret"); // makes the transient rets "return to next"
                                // The trigger: actually taken (a0 == 0), predicted not-taken.
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Beq,
                rs1: Reg::A0,
                rs2: Reg::ZERO,
                offset: 0,
            },
            "exit",
        );
        // ---- transient window (fall-through) ----
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        }); // ret #1: pop -> c2ret
        b.pad_to(c2_site + 4);
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 16,
        }); // ret #2: pop -> c1_ret
        b.pad_to(c1_ret);
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::T5,
            offset: 0,
        }); // secret-dep jump
        b.pad_to(exit);
        b.push(Instr::Ecall);
        b.pad_to(gadgets);
        b.push(Instr::call(8)); // pushes a secret-dependent (diverged-PC) ra
        b.push(Instr::NOP);
        b.push(Instr::NOP);
        b.pad_to(gadgets + 64);
        b.push(Instr::call(8)); // plane-b flavour of the same gadget
        b.push(Instr::NOP);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Phantom-RSB (B2)",
        packets: vec![warm, train, transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![
            (B2_COND_SLOT, vec![0u8; 8]),
            (B2_COND_PTR, B2_COND_SLOT.to_le_bytes().to_vec()),
        ],
    }
}

/// B3 Phantom-BTB (CVE-2024-44590), parameterised by the nop padding
/// between the excepting load and the mispredicted indirect jump — the race
/// only fires when the misprediction resolves in the exception's commit
/// cycle, so the fuzzer (and [`find_phantom_btb`]) scans the offset.
pub fn phantom_btb(nops: usize) -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let s = l.swappable;
    // The jump follows the excepting load after `nops` pads; the scan moves
    // it until its resolution lands in the exception's commit cycle.
    let jump_site = s + 0x2C + 4 * nops as u64;
    let jtarget_a = s + 0x400;
    let jtarget_b = s + 0x440;
    // Train the BTB entry of the jump site to jtarget_a.
    let train = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("jta", jtarget_a);
        b.la(Reg::T5, "jta");
        b.pad_to(jump_site);
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::T5,
            offset: 0,
        });
        b.pad_to(jtarget_a);
        b.push(Instr::Ecall);
        SwapPacket::new(
            "trigger_train_btb",
            PacketKind::TriggerTraining,
            b.assemble(),
        )
    };
    let warm = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("secret", l.secret);
        b.la(Reg::T0, "secret");
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S1,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::Ecall);
        SwapPacket::new(
            "window_train_warm",
            PacketKind::WindowTraining,
            b.assemble(),
        )
    };
    let transient = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("jta", jtarget_a);
        b.label_at("jtb", jtarget_b);
        emit_setup(&mut b, l);
        // t5 = secret-dependent jump target (jta or jtb); bit 1 of the
        // secret selects, scaled by 32 so the offset lands on jtb.
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::OpImm {
            op: AluOp::And,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 2,
        });
        b.push(Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 5,
        });
        b.la(Reg::T5, "jta");
        b.push(Instr::Op {
            op: AluOp::Add,
            rd: Reg::T5,
            rs1: Reg::T5,
            rs2: Reg::S0,
        });
        // The excepting instruction: lw t4, 1(x0) — misaligned.
        b.push(Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::T4,
            rs1: Reg::ZERO,
            offset: 1,
        });
        b.nops(nops);
        b.pad_to(jump_site);
        // Mispredicted (BTB says jta, actual is secret-dependent): the
        // correction races the exception commit.
        b.push(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::T5,
            offset: 0,
        });
        b.pad_to(jtarget_a);
        b.push(Instr::Ecall);
        b.pad_to(jtarget_b);
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    AttackCase {
        name: "Phantom-BTB (B3)",
        packets: vec![train, warm, transient],
        secret_policy: SecretPolicy::AlwaysReadable,
        data_init: vec![],
    }
}

/// B4 Spectre-Refetch (CVE-2024-44592/3): a secret-dependent branch inside
/// the window steers fetch onto a cold icache line in one variant only; the
/// occupied fetch port delays the first post-window fetch.
pub fn spectre_refetch() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let mut case = spectre_v1();
    // Replace the transient packet's encode block with a secret-dependent
    // *control* dependency instead of a data access.
    let s = l.swappable;
    let branch_addr = s + 0x40;
    let transient = {
        let mut b = ProgramBuilder::new(s);
        emit_setup(&mut b, l);
        b.pad_to(branch_addr);
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 0,
            },
            "win",
        );
        b.push(Instr::Ecall);
        b.label("win");
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::OpImm {
            op: AluOp::And,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 1,
        });
        // Secret-dependent branch: plane divergence lands one variant on a
        // far (cold) icache line.
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::S0,
                rs2: Reg::ZERO,
                offset: 0,
            },
            "far",
        );
        b.push(Instr::NOP);
        b.push(Instr::Ecall);
        b.pad_to(s + 0x800); // a line never fetched before
        b.label("far");
        b.push(Instr::NOP);
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    let n = case.packets.len();
    case.packets[n - 1] = transient;
    case.name = "Spectre-Refetch (B4)";
    case
}

/// B5 Spectre-Reload (CVE-2024-44595): a cache-missing load is in flight
/// when a secret-dependent *cache-hitting* load claims the shared load
/// write-back port, delaying the miss's write-back in one variant only.
pub fn spectre_reload() -> AttackCase {
    let l = DEFAULT_LAYOUT;
    let s = l.swappable;
    let branch_addr = s + 0x40;
    let case = spectre_v1();
    let transient = {
        let mut b = ProgramBuilder::new(s);
        b.label_at("warm_a", LEAK_BASE);
        b.label_at("cold", V4_DUMMY);
        emit_setup(&mut b, l);
        b.la(Reg::A4, "warm_a");
        b.push(Instr::ld(Reg::A6, Reg::A4, 0)); // warm leak[0]
        b.la(Reg::A5, "cold");
        b.pad_to(branch_addr);
        b.branch_to(
            Instr::Branch {
                op: BranchOp::Bne,
                rs1: Reg::A0,
                rs2: Reg::A0,
                offset: 0,
            },
            "win",
        );
        b.push(Instr::Ecall);
        b.label("win");
        // The older cache-missing load…
        b.push(Instr::ld(Reg::A7, Reg::A5, 0));
        // …and a secret-dependent load that hits in one variant only
        // (leak[0] warm, leak[64] cold).
        b.push(Instr::Load {
            op: LoadOp::Lb,
            rd: Reg::S0,
            rs1: Reg::T0,
            offset: 0,
        });
        b.push(Instr::OpImm {
            op: AluOp::And,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 1,
        });
        b.push(Instr::OpImm {
            op: AluOp::Sll,
            rd: Reg::S0,
            rs1: Reg::S0,
            imm: 6,
        });
        b.push(Instr::Op {
            op: AluOp::Add,
            rd: Reg::T1,
            rs1: Reg::A4,
            rs2: Reg::S0,
        });
        b.push(Instr::ld(Reg::T3, Reg::T1, 0));
        b.push(Instr::Ecall);
        SwapPacket::new("transient", PacketKind::Transient, b.assemble())
    };
    let mut case = case;
    let n = case.packets.len();
    case.packets[n - 1] = transient;
    case.name = "Spectre-Reload (B5)";
    case
}

/// PC of the excepting (misaligned) load in [`phantom_btb`] stimuli — the
/// address whose BTB entry the B3 race corrupts.
pub const B3_EXCEPTING_PC: u64 = DEFAULT_LAYOUT.swappable + 0x28;

/// Scans the B3 race window by varying the nop padding, returning the first
/// padding for which the *excepting PC's* BTB entry ends up tainted and
/// valid — the deterministic analogue of the fuzzer stumbling onto the
/// race. (A tainted entry at the jump's own PC is ordinary speculative BTB
/// training, not the bug.)
pub fn find_phantom_btb(
    cfg: &crate::config::CoreConfig,
    max_nops: usize,
) -> Option<(usize, crate::core::RunResult)> {
    use crate::core::Core;
    let index = ((B3_EXCEPTING_PC >> 2) as usize) % cfg.btb_entries;
    for nops in 0..=max_nops {
        let case = phantom_btb(nops);
        let mut mem = case.build_mem(&[0x2A]);
        let r = Core::new(*cfg, dejavuzz_ift::IftMode::DiffIft).run(&mut mem, 10_000);
        if r.sinks
            .iter()
            .any(|s| s.module == dejavuzz_ift::Module::Btb && s.index == index && s.exploitable())
        {
            return Some((nops, r));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::boom_small;
    use crate::core::Core;
    use dejavuzz_ift::{IftMode, Module};

    fn run(case: &AttackCase) -> crate::core::RunResult {
        let mut mem = case.build_mem(&[0x2A]);
        Core::new(boom_small(), IftMode::DiffIft).run(&mut mem, 5_000)
    }

    #[test]
    fn spectre_v1_triggers_window_and_taints_dcache() {
        let r = run(&spectre_v1());
        assert_eq!(r.end, crate::core::EndReason::Done);
        let w = r.window().expect("transient window triggered");
        assert!(w.triggered());
        assert!(w.squashed >= 2, "window body executed transiently: {w:?}");
        // Secret-indexed leak-array line: dcache divergence + taint.
        assert!(
            r.sinks
                .iter()
                .any(|s| s.module == Module::Dcache && s.exploitable()),
            "dcache must hold a live tainted line: {:?}",
            r.sinks
        );
    }

    #[test]
    fn spectre_v2_mispredicts_into_trained_target() {
        let r = run(&spectre_v2());
        assert_eq!(r.end, crate::core::EndReason::Done);
        let w = r.window().expect("indirect-jump window");
        assert!(w.triggered());
        assert!(r
            .sinks
            .iter()
            .any(|s| s.module == Module::Dcache && s.exploitable()));
    }

    #[test]
    fn spectre_rsb_returns_into_window() {
        let r = run(&spectre_rsb());
        assert_eq!(r.end, crate::core::EndReason::Done);
        let w = r.window().expect("return-mispredict window");
        assert!(w.triggered());
        assert!(r
            .sinks
            .iter()
            .any(|s| s.module == Module::Dcache && s.exploitable()));
    }

    #[test]
    fn spectre_v4_bypasses_store() {
        let r = run(&spectre_v4());
        assert_eq!(r.end, crate::core::EndReason::Done);
        let w = r.window().expect("disambiguation window");
        assert!(w.triggered());
        assert!(r
            .sinks
            .iter()
            .any(|s| s.module == Module::Dcache && s.exploitable()));
    }

    #[test]
    fn meltdown_forwards_faulting_secret() {
        let r = run(&meltdown());
        assert_eq!(r.end, crate::core::EndReason::Done);
        let w = r.window().expect("exception window");
        assert!(w.triggered());
        assert!(r
            .sinks
            .iter()
            .any(|s| s.module == Module::Dcache && s.exploitable()));
    }

    #[test]
    fn meltdown_fixed_hardware_leaks_nothing() {
        let mut cfg = boom_small();
        cfg.bugs.meltdown_forward = false;
        let case = meltdown();
        let mut mem = case.build_mem(&[0x2A]);
        let fixed = Core::new(cfg, IftMode::DiffIft).run(&mut mem, 5_000);
        let vulnerable = run(&meltdown());
        // The warm-up packet legitimately leaves the secret's own line
        // tainted in both runs (Phase 3's encode sanitization subtracts
        // it); what the fixed design must NOT have is the *additional*
        // secret-indexed leak-array lines the forwarded data touches.
        let count = |r: &crate::core::RunResult| {
            r.sinks
                .iter()
                .filter(|s| s.module == Module::Dcache && s.exploitable())
                .count()
        };
        assert!(
            count(&vulnerable) > count(&fixed),
            "forwarding must taint extra leak lines: vulnerable={} fixed={}",
            count(&vulnerable),
            count(&fixed)
        );
        assert_eq!(
            count(&fixed),
            1,
            "fixed design: only the warmed secret line is tainted"
        );
    }

    #[test]
    fn all_cases_build() {
        let cases = all();
        assert_eq!(cases.len(), 5);
        for c in &cases {
            assert!(!c.packets.is_empty());
            assert_eq!(c.packets.last().unwrap().kind, PacketKind::Transient);
        }
    }

    // ---- the five paper bugs (B1–B5, §6.4) ----

    fn run_on(case: &AttackCase, cfg: crate::config::CoreConfig) -> crate::core::RunResult {
        let mut mem = case.build_mem(&[0x2A]);
        Core::new(cfg, IftMode::DiffIft).run(&mut mem, 10_000)
    }

    #[test]
    fn b1_meltdown_sampling_leaks_on_xiangshan_only() {
        use crate::config::xiangshan_minimal;
        let case = meltdown_sampling();
        let xs = run_on(&case, xiangshan_minimal());
        assert!(
            xs.sinks
                .iter()
                .any(|s| s.module == Module::Dcache && s.exploitable()),
            "B1: truncated illegal address samples the secret on XiangShan"
        );
        let boom = run_on(&case, boom_small());
        assert!(
            !boom
                .sinks
                .iter()
                .any(|s| s.module == Module::Dcache && s.exploitable()),
            "BOOM's full-width wire blocks the illegal address outright"
        );
    }

    #[test]
    fn b2_phantom_rsb_corrupts_entry_below_tos() {
        let case = phantom_rsb();
        let boom = run_on(&case, boom_small());
        let ras_leak = boom
            .sinks
            .iter()
            .any(|s| s.module == Module::Ras && s.exploitable());
        assert!(
            ras_leak,
            "B2: BOOM leaves a secret-dependent RAS entry below TOS: {:?}",
            boom.sinks
        );
        // XiangShan (full RAS checkpointing) does not exhibit B2.
        let xs = run_on(&case, crate::config::xiangshan_minimal());
        assert!(
            !xs.sinks
                .iter()
                .any(|s| s.module == Module::Ras && s.exploitable()),
            "full restore must fix B2: {:?}",
            xs.sinks
        );
    }

    #[test]
    fn b3_phantom_btb_race_found_by_scanning() {
        let cfg = boom_small();
        let found = find_phantom_btb(&cfg, 48);
        assert!(
            found.is_some(),
            "B3: some padding must hit the race on BOOM"
        );
        // The fixed design never exhibits it, at any padding.
        let mut fixed = cfg;
        fixed.bugs.phantom_btb = false;
        assert!(find_phantom_btb(&fixed, 48).is_none());
    }

    #[test]
    fn b4_spectre_refetch_diverges_fetch_timing() {
        let case = spectre_refetch();
        let r = run_on(&case, boom_small());
        assert!(
            r.timing_events.iter().any(|t| t.resource == Module::Icache),
            "B4: the secret-dependent transient fetch must diverge icache timing: {:?}",
            r.timing_events
        );
        assert!(r.timing_diverged(), "variants finish at different times");
    }

    #[test]
    fn b5_spectre_reload_contends_on_writeback() {
        use crate::config::xiangshan_minimal;
        let case = spectre_reload();
        let r = run_on(&case, xiangshan_minimal());
        assert!(
            r.timing_events.iter().any(|t| t.resource == Module::Dcache
                || t.resource == Module::LsuWb
                || t.resource == Module::Lsu),
            "B5: load-path timing must diverge: {:?}",
            r.timing_events
        );
        assert!(r.timing_diverged());
    }
}
