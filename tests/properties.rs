//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use dejavuzz_ift::{IftMode, Policy, TMem, TWord};
use dejavuzz_isa::instr::{AluOp, BranchOp, Instr, LoadOp, Reg, StoreOp};
use dejavuzz_isa::{decode, encode};

fn arb_tword() -> impl Strategy<Value = TWord> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(a, b, t)| TWord::with_taint(a, b, t))
}

proptest! {
    /// Soundness of the data-flow policies: an untainted output implies no
    /// tainted input bit could have changed it. We check the contrapositive
    /// on AND: flipping a tainted input bit never changes untainted output
    /// bits.
    #[test]
    fn and_taint_is_sound(x in arb_tword(), y in arb_tword(), bit in 0u32..64) {
        let o = x.and(y);
        let mask = 1u64 << bit;
        if x.t & mask != 0 {
            let x2 = TWord { a: x.a ^ mask, b: x.b ^ mask, t: x.t };
            let o2 = x2.and(y);
            // Output bits that changed must be tainted.
            let changed = (o.a ^ o2.a) | (o.b ^ o2.b);
            prop_assert_eq!(changed & !o.t, 0,
                "untainted output bit changed under a tainted input flip");
        }
    }

    /// Same soundness property for OR and XOR.
    #[test]
    fn or_xor_taint_is_sound(x in arb_tword(), y in arb_tword(), bit in 0u32..64) {
        let mask = 1u64 << bit;
        if x.t & mask != 0 {
            let x2 = TWord { a: x.a ^ mask, b: x.b ^ mask, t: x.t };
            for (o, o2) in [(x.or(y), x2.or(y)), (x.xor(y), x2.xor(y))] {
                let changed = (o.a ^ o2.a) | (o.b ^ o2.b);
                prop_assert_eq!(changed & !o.t, 0);
            }
        }
    }

    /// ADD's upward smear: bits below the lowest tainted input bit stay
    /// untainted and value-stable.
    #[test]
    fn add_taint_is_sound(x in arb_tword(), y in arb_tword(), bit in 0u32..64) {
        let mask = 1u64 << bit;
        if x.t & mask != 0 {
            let o = x.add(y);
            let x2 = TWord { a: x.a ^ mask, b: x.b ^ mask, t: x.t };
            let o2 = x2.add(y);
            let changed = (o.a ^ o2.a) | (o.b ^ o2.b);
            prop_assert_eq!(changed & !o.t, 0);
        }
    }

    /// The mux policies agree with per-plane selection semantics in every
    /// mode, and Base never taints.
    #[test]
    fn mux_value_semantics(s in arb_tword(), x in arb_tword(), y in arb_tword()) {
        for mode in IftMode::ALL {
            let p = Policy::new(mode);
            let o = p.mux(s, x, y);
            prop_assert_eq!(o.a, if s.a != 0 { x.a } else { y.a });
            prop_assert_eq!(o.b, if s.b != 0 { x.b } else { y.b });
            if mode == IftMode::Base {
                prop_assert_eq!(o.t, 0);
            }
        }
    }

    /// diffIFT's control taints are a subset of CellIFT's (the precision
    /// relation the paper claims: diffIFT only *removes* over-taint).
    #[test]
    fn diffift_taint_subset_of_cellift(s in arb_tword(), x in arb_tword(), y in arb_tword()) {
        let d = Policy::new(IftMode::DiffIft).mux(s, x, y);
        let c = Policy::new(IftMode::CellIft).mux(s, x, y);
        prop_assert_eq!(d.t & !c.t, 0, "diffIFT tainted a bit CellIFT did not");
        let de = Policy::new(IftMode::DiffIft).eq(x, y);
        let ce = Policy::new(IftMode::CellIft).eq(x, y);
        prop_assert_eq!(de.t & !ce.t, 0);
    }

    /// Tainted memory roundtrip: what is stored (with untainted, equal
    /// addresses) is loaded back bit-exactly, taint included.
    #[test]
    fn tmem_roundtrip(addr in 0usize..32, val in arb_tword()) {
        let p = Policy::new(IftMode::DiffIft);
        let mut m = TMem::new(32);
        m.write(p, TWord::lit(1), TWord::lit(addr as u64), val);
        let o = m.read(p, TWord::lit(addr as u64));
        prop_assert_eq!(o.a, val.a);
        prop_assert_eq!(o.b, val.b);
        prop_assert_eq!(o.t, val.t);
    }

    /// Instruction encode/decode is a bijection on the modelled subset.
    #[test]
    fn encode_decode_roundtrip(
        rd in 0u8..32, rs1 in 0u8..32, rs2 in 0u8..32,
        imm in -2048i64..2048, off in -1024i64..1024,
    ) {
        let instrs = vec![
            Instr::addi(Reg(rd), Reg(rs1), imm),
            Instr::Op { op: AluOp::Xor, rd: Reg(rd), rs1: Reg(rs1), rs2: Reg(rs2) },
            Instr::Op { op: AluOp::Mulhu, rd: Reg(rd), rs1: Reg(rs1), rs2: Reg(rs2) },
            Instr::Load { op: LoadOp::Lwu, rd: Reg(rd), rs1: Reg(rs1), offset: imm },
            Instr::Store { op: StoreOp::Sh, rs2: Reg(rs2), rs1: Reg(rs1), offset: imm },
            Instr::Branch { op: BranchOp::Bgeu, rs1: Reg(rs1), rs2: Reg(rs2), offset: off * 2 },
            Instr::Jal { rd: Reg(rd), offset: off * 2 },
            Instr::Jalr { rd: Reg(rd), rs1: Reg(rs1), offset: imm },
        ];
        for i in instrs {
            prop_assert_eq!(decode(encode(i)), i, "{}", i);
        }
    }

    /// ALU evaluation matches a reference implementation on W-suffixed ops.
    #[test]
    fn alu_w_ops_sign_extend(x in any::<u64>(), y in any::<u64>()) {
        for op in [AluOp::AddW, AluOp::SubW, AluOp::MulW, AluOp::SllW, AluOp::SrlW, AluOp::SraW] {
            let r = op.eval(x, y);
            prop_assert_eq!(r, r as u32 as i32 as i64 as u64, "{:?} not sign-extended", op);
        }
    }

    /// The branch predicate and its encoded/decoded twin agree.
    #[test]
    fn branch_semantics_stable(x in any::<u64>(), y in any::<u64>()) {
        prop_assert_eq!(BranchOp::Blt.taken(x, y), (x as i64) < (y as i64));
        prop_assert_eq!(BranchOp::Bltu.taken(x, y), x < y);
        prop_assert_eq!(BranchOp::Beq.taken(x, y), x == y);
        prop_assert!(BranchOp::Bge.taken(x, y) != BranchOp::Blt.taken(x, y));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any secret pair produces identical *architectural* results in both
    /// planes for the Spectre-V1 benchmark (committed paths are secret-
    /// independent; only microarchitecture diverges).
    #[test]
    fn committed_paths_are_plane_identical(secret in any::<u8>()) {
        use dejavuzz_uarch::{attacks, boom_small};
        use dejavuzz_uarch::core::Core;
        let case = attacks::spectre_v1();
        let mut mem = case.build_mem(&[secret]);
        let r = Core::new(boom_small(), IftMode::DiffIft).run(&mut mem, 20_000);
        prop_assert_eq!(r.end, dejavuzz_uarch::EndReason::Done);
        // The trace (structural, plane-1) commits the same instruction
        // count regardless of the secret.
        prop_assert!(r.trace.committed() > 0);
    }
}

/// One backend request: a plan, its schedule, an IFT mode and a cycle
/// budget.
type Request = (
    dejavuzz::TransientPlan,
    Vec<dejavuzz_swapmem::SwapPacket>,
    IftMode,
    u64,
);

/// Draws the next request of a random run sequence. `seed` carries the
/// window type and entropy over from the previous request two times in
/// three, so consecutive runs usually share their training and prologue;
/// each request draws a mutation, a window fill, an IFT mode and a cycle
/// budget.
fn draw_request(rng: &mut dejavuzz::rand::rngs::StdRng, seed: &mut dejavuzz::Seed) -> Request {
    use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
    use dejavuzz::rand::Rng;

    if rng.gen_range(0..3) == 0 {
        *seed = Seed::new(WindowType::ALL[rng.gen_range(0..8)], rng.gen_range(0..4));
    }
    let seed = Seed {
        mutation: rng.gen_range(0..3),
        ..*seed
    };
    let plan = gen::plan(&seed);
    let body = gen::complete_window(&seed, &plan);
    let fill = match rng.gen_range(0..3) {
        0 => WindowFill::Dummy,
        1 => WindowFill::Body(body.full()),
        _ => WindowFill::Sanitized(body.sanitized()),
    };
    let mut schedule = gen::derive_trainings(&seed, &plan, 1);
    schedule.push(gen::build_transient(&plan, &fill));
    let mode = IftMode::ALL[rng.gen_range(0..3)];
    let max_cycles = if rng.gen() {
        20_000
    } else {
        rng.gen_range(0..64)
    };
    (plan, schedule, mode, max_cycles)
}

/// Asserts two outcomes of the same request are the same answer.
fn assert_same_outcome(a: &dejavuzz::RunOutcome, b: &dejavuzz::RunOutcome) {
    assert_eq!(a.trace.events(), b.trace.events());
    assert!(a.taint_log.iter().eq(b.taint_log.iter()));
    assert_eq!(a.sinks, b.sinks);
    assert_eq!(a.timing_events, b.timing_events);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.packets_run, b.packets_run);
}

/// Whether a behavioural taint log reached CellIFT's taint explosion:
/// only the exploded census reports the `mem` module.
fn exploded(log: &dejavuzz_ift::TaintLog) -> bool {
    log.iter().any(|(_, c)| c.module_tainted("mem").is_some())
}

/// The first CellIFT request, over window types and entropies with the
/// full window body, whose run on the behavioural BOOM explodes.
fn exploding_cellift_request() -> &'static Request {
    use std::sync::OnceLock;

    use dejavuzz::backend::{BehaviouralBackend, SimBackend};
    use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
    use dejavuzz_uarch::boom_small;

    static REQUEST: OnceLock<Request> = OnceLock::new();
    REQUEST.get_or_init(|| {
        for window_type in WindowType::ALL {
            for entropy in 0..4 {
                let seed = Seed::new(window_type, entropy);
                let plan = gen::plan(&seed);
                let body = gen::complete_window(&seed, &plan);
                let mut schedule = gen::derive_trainings(&seed, &plan, 1);
                schedule.push(gen::build_transient(&plan, &WindowFill::Body(body.full())));
                let out = BehaviouralBackend::new(boom_small())
                    .run(&plan, &schedule, IftMode::CellIft, 20_000)
                    .unwrap();
                if exploded(&out.taint_log) {
                    return (plan, schedule, IftMode::CellIft, 20_000);
                }
            }
        }
        panic!("no CellIFT request explodes the behavioural BOOM");
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One netlist backend serving a random sequence of runs gives each
    /// run exactly a fresh backend's outcome, whether or not the run
    /// restored the backend's checkpoint.
    #[test]
    fn netlist_checkpoint_reuse_matches_fresh_backends(draws in any::<u64>(), runs in 4usize..10) {
        use dejavuzz::backend::{NetlistBackend, SimBackend};
        use dejavuzz::gen::{Seed, WindowType};
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::SeedableRng;
        use dejavuzz_rtl::examples::SMALL_SCALE;

        let mut rng = StdRng::seed_from_u64(draws);
        let mut reused = NetlistBackend::synthetic(SMALL_SCALE);
        let mut seed = Seed::new(WindowType::BranchMispredict, 0);
        for _ in 0..runs {
            let (plan, schedule, mode, max_cycles) = draw_request(&mut rng, &mut seed);
            let a = reused.run(&plan, &schedule, mode, max_cycles).unwrap();
            let b = NetlistBackend::synthetic(SMALL_SCALE)
                .run(&plan, &schedule, mode, max_cycles)
                .unwrap();
            assert_same_outcome(&a, &b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One behavioural backend serving a random sequence of runs gives
    /// each run exactly a fresh backend's outcome: the swap memory it
    /// resets and reloads carries nothing from one run into the next.
    /// The exploding CellIFT request runs at a random point of every
    /// sequence, so CellIFT's exploded census is covered too.
    #[test]
    fn behavioural_backend_reuse_matches_fresh_backends(draws in any::<u64>(), runs in 3usize..8) {
        use dejavuzz::backend::{BehaviouralBackend, SimBackend};
        use dejavuzz::gen::{Seed, WindowType};
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_uarch::boom_small;

        let mut rng = StdRng::seed_from_u64(draws);
        let mut reused = BehaviouralBackend::new(boom_small());
        let mut seed = Seed::new(WindowType::BranchMispredict, 0);
        let explode_at = rng.gen_range(0..runs);
        for run in 0..runs {
            let (plan, schedule, mode, max_cycles) = if run == explode_at {
                exploding_cellift_request().clone()
            } else {
                draw_request(&mut rng, &mut seed)
            };
            let a = reused.run(&plan, &schedule, mode, max_cycles).unwrap();
            let b = BehaviouralBackend::new(boom_small())
                .run(&plan, &schedule, mode, max_cycles)
                .unwrap();
            assert_same_outcome(&a, &b);
            prop_assert!(run != explode_at || exploded(&a.taint_log));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The change-coded taint log answers every accessor exactly as a
    /// plain per-cycle `Vec<Census>` does. Sequences repeat the previous
    /// census in runs, bring back earlier ones, report zero counts and
    /// include empty censuses; some use one module only, and the empty
    /// log is among them. Module names are the same text behind one of
    /// two pointers, as decoded names are. Cycles are pushed by value or
    /// by reference at random, and clones (`clone`, and `clone_from` into
    /// a log that held other cycles) must answer alike.
    #[test]
    fn change_coded_log_equals_per_cycle_log(draws in any::<u64>(), cycles in 0usize..40) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_ift::{Census, CoveragePoint, TaintLog};

        const MODULES: [&str; 3] = ["rob", "lsu", "dcache"];
        let copies: [&'static str; 3] = MODULES.map(|m| &*String::leak(m.to_owned()));
        let mut rng = StdRng::seed_from_u64(draws);
        let modules = if rng.gen_range(0..4) == 0 { 1 } else { MODULES.len() };
        let fresh_census = |rng: &mut StdRng| {
            let mut census = Census::new();
            for m in 0..rng.gen_range(0..modules + 1) {
                let name = if rng.gen() { MODULES[m] } else { copies[m] };
                census.report_counts(name, rng.gen_range(0..3), 4);
            }
            census
        };
        let mut model: Vec<Census> = Vec::new();
        let mut log = TaintLog::new();
        let mut census = Census::new();
        for _ in 0..cycles {
            match rng.gen_range(0..6) {
                0..=2 => {}
                3 if !model.is_empty() => census = model[rng.gen_range(0..model.len())].clone(),
                _ => census = fresh_census(&mut rng),
            }
            model.push(census.clone());
            if rng.gen() {
                log.push(census.clone());
            } else {
                log.push_ref(&census);
            }
        }

        let sums: Vec<usize> = model.iter().map(Census::taint_sum).collect();
        let mut points: Vec<CoveragePoint> = Vec::new();
        for p in model.iter().flat_map(Census::points) {
            if !points.contains(&p) {
                points.push(p);
            }
        }
        let check = |log: &TaintLog| {
            assert_eq!(log.len(), model.len());
            assert_eq!(log.is_empty(), model.is_empty());
            for c in 0..=model.len() {
                assert_eq!(log.cycle(c), model.get(c), "cycle {c}");
            }
            assert!(log.iter().eq(model.iter().enumerate()));
            assert_eq!(log.taint_sums(), sums);
            for from in 0..=model.len() + 1 {
                for to in 0..=model.len() + 1 {
                    let rises = (from..to.min(sums.len()))
                        .any(|c| sums[c] > if c == 0 { 0 } else { sums[c - 1] });
                    assert_eq!(log.taint_increased_in(from, to), rises, "[{from}, {to})");
                }
            }
            assert_eq!(log.peak_taint(), sums.iter().copied().max().unwrap_or(0));
            assert_eq!(log.final_taint(), sums.last().copied().unwrap_or(0));
            assert_eq!(log.distinct_points(), points);
        };
        check(&log);
        check(&log.clone());
        let mut other = TaintLog::new();
        for _ in 0..rng.gen_range(0..8) {
            other.push(fresh_census(&mut rng));
        }
        other.clone_from(&log);
        check(&other);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every uarch structure that keeps its census count current at its
    /// write sites reports exactly what a scan of its entry taints counts,
    /// after every operation of a random sequence. This holds in release
    /// builds too, where the scan each `census` runs in a debug build is
    /// compiled out. Tables are tiny so entries are overwritten often,
    /// and values are clean, tainted or secret-dependent at random.
    #[test]
    fn maintained_census_counts_equal_scans(draws in any::<u64>(), ops in 1usize..300) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_ift::{Census, ModuleCensus};
        use dejavuzz_uarch::cache::{Cache, LineFillBuffer, Tlb};
        use dejavuzz_uarch::predict::{Bht, Btb, LoopPredictor, Ras};

        fn word(rng: &mut StdRng) -> TWord {
            let a = rng.gen_range(0..4u64) * 0x1040;
            match rng.gen_range(0..4) {
                0 | 1 => TWord::lit(a),
                2 => TWord::secret(a, rng.gen_range(0..4u64) * 0x1040),
                _ => TWord::with_taint(a, a, rng.gen_range(0..2u64) << rng.gen_range(0..64)),
            }
        }
        fn scan(name: &'static str, taints: impl Iterator<Item = u64>) -> ModuleCensus {
            let taints: Vec<u64> = taints.collect();
            ModuleCensus {
                module: name,
                tainted: taints.iter().filter(|&&t| t != 0).count(),
                total: taints.len(),
            }
        }

        let mut rng = StdRng::seed_from_u64(draws);
        let mut dcache = Cache::new("dcache", 4, 64, 2, 20);
        let mut tlb = Tlb::new(2, 4, 4096, 12);
        let mut lfb = LineFillBuffer::new(3);
        let mut bht = Bht::new(4);
        let mut btb = Btb::new(4);
        let mut ras = Ras::new(3, rng.gen());
        let mut loopp = LoopPredictor::new(2);
        let mut checkpoints = vec![ras.checkpoint()];
        for cycle in 0..ops as u64 {
            let policy = Policy::new(IftMode::ALL[rng.gen_range(1..3)]);
            let pc = rng.gen_range(0..12u64) * 4;
            let taint = if rng.gen() { 0 } else { rng.gen::<u64>() };
            match rng.gen_range(0..16) {
                0 => {
                    dcache.access(word(&mut rng), taint);
                }
                1 => dcache.flush(),
                2 => {
                    tlb.translate(word(&mut rng), taint);
                }
                3 => lfb.allocate(rng.gen_range(0..4u64) * 64, word(&mut rng), cycle + 2),
                4 => lfb.tick(cycle),
                5 => bht.update(policy, pc, word(&mut rng).map(|v| v & 1)),
                6 => btb.update(pc, word(&mut rng)),
                7 => ras.push(word(&mut rng)),
                8 => {
                    ras.pop();
                }
                9 => checkpoints.push(ras.checkpoint()),
                10 => ras.restore(&checkpoints[rng.gen_range(0..checkpoints.len())]),
                11 => loopp.update(pc, word(&mut rng).map(|v| v & 1)),
                12 => loopp.update(pc, TWord::with_taint(1, 0, 1)),
                _ => match rng.gen_range(0..7) {
                    0 => dcache.reset(),
                    1 => tlb.reset(),
                    2 => lfb.reset(),
                    3 => bht.reset(),
                    4 => btb.reset(),
                    5 => ras.reset(),
                    _ => loopp.reset(),
                },
            }
            let mut census = Census::new();
            dcache.census(&mut census);
            tlb.census(&mut census);
            lfb.census(&mut census);
            bht.census(&mut census);
            btb.census(&mut census);
            ras.census(&mut census);
            loopp.census(&mut census);
            let scans = [
                scan("dcache", dcache.taints()),
                scan("tlb", tlb.taints()),
                scan("l2tlb", tlb.l2_taints()),
                scan("lfb", lfb.taints()),
                scan("bht", bht.taints()),
                scan("btb", btb.taints()),
                scan("ras", ras.taints()),
                scan("loop", loopp.taints()),
            ];
            prop_assert_eq!(census.modules(), &scans[..]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Folding a taint log's distinct points, as the executor's run
    /// digests do, has exactly the effect of folding the log census by
    /// census. The log repeats whole censuses, reports zero counts,
    /// reorders and drops modules, and brings points back cycles later;
    /// both folds start from the same partly populated view and observed
    /// matrix, and must agree on the fresh count, the `recorded` and
    /// `observed_recorded` sequences and the view, observed and shared
    /// sets.
    #[test]
    fn digest_fold_equals_census_fold(draws in any::<u64>(), cycles in 0usize..48) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_ift::{
            Census, CoverageMatrix, CoveragePoint, RecordingCoverage, SharedCoverage,
            TaintCoverage, TaintLog,
        };

        const MODULES: [&str; 4] = ["rob", "lsu", "dcache", "bht"];
        let mut rng = StdRng::seed_from_u64(draws);
        let mut log = TaintLog::new();
        let mut prev = Census::new();
        for _ in 0..cycles {
            if rng.gen_range(0..3) != 0 {
                let mut modules = MODULES;
                if rng.gen_range(0..4) == 0 {
                    modules.reverse();
                }
                prev = Census::new();
                for m in modules {
                    if rng.gen_range(0..8) != 0 {
                        prev.report_counts(m, rng.gen_range(0..4), 8);
                    }
                }
            }
            log.push(prev.clone());
        }
        let start: Vec<CoveragePoint> = (0..rng.gen_range(0..6))
            .map(|_| CoveragePoint {
                module: MODULES[rng.gen_range(0..4)],
                index: rng.gen_range(1..4),
            })
            .collect();

        let fold = |by_digest: bool| {
            let mut view = CoverageMatrix::new();
            let mut observed = CoverageMatrix::new();
            for (i, p) in start.iter().enumerate() {
                if i % 2 == 0 {
                    view.insert(*p);
                } else {
                    observed.insert(*p);
                }
            }
            let shared = SharedCoverage::default();
            let (mut recorded, mut observed_recorded) = (Vec::new(), Vec::new());
            let mut sink = RecordingCoverage {
                view: &mut view,
                recorded: &mut recorded,
                observed: &mut observed,
                observed_recorded: &mut observed_recorded,
                shared: &shared,
            };
            let fresh = if by_digest {
                sink.observe_points(&log.distinct_points())
            } else {
                sink.observe_log(&log)
            };
            (
                fresh,
                recorded,
                observed_recorded,
                view.sorted_points(),
                observed.sorted_points(),
                shared.snapshot().sorted_points(),
            )
        };
        prop_assert_eq!(fold(true), fold(false));
    }
}

/// The payloads the byte-mutation property edits.
struct DecoderFixtures {
    /// A halted pipelined campaign's snapshot, framed.
    snapshot: Vec<u8>,
    /// One of its gossip frames, framed.
    gossip: Vec<u8>,
    /// A process-pool run request for a trained, full-body window.
    request: Vec<u8>,
    /// The behavioural BOOM's reply to it: a multi-cycle taint log that
    /// changes taint state, sinks and a trace.
    reply: Vec<u8>,
}

/// Real payloads for the byte-mutation property. Favoured picks, one
/// scenario family and a halt inside the pipeline populate every snapshot
/// field the decoder checks: policy state, scenario specs, corpus,
/// coverage, per-stream states and the pending round.
fn decoder_fixtures() -> &'static DecoderFixtures {
    use std::sync::{Arc, Mutex, OnceLock};

    use dejavuzz::backend::{BehaviouralBackend, SimBackend};
    use dejavuzz::builder::CampaignBuilder;
    use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
    use dejavuzz::gossip::{shared_link, GossipFrame, GossipLink};
    use dejavuzz::procproto::{encode_run_request, encode_run_response, RunRequest};
    use dejavuzz::scheduler::{PolicySpec, PolicyState};
    use dejavuzz_uarch::boom_small;

    /// Keeps every published frame and delivers none, which leaves the
    /// campaign exactly as it runs without gossip.
    struct Capture(Arc<Mutex<Vec<GossipFrame>>>);
    impl GossipLink for Capture {
        fn publish(&mut self, frame: &GossipFrame) {
            self.0.lock().unwrap().push(frame.clone());
        }
        fn drain(&mut self) -> Vec<GossipFrame> {
            Vec::new()
        }
    }

    static FIXTURES: OnceLock<DecoderFixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let published = Arc::new(Mutex::new(Vec::new()));
        let (_, snap) = CampaignBuilder::new()
            .workers(2)
            .seed(0xF022)
            .seed_policy(PolicySpec::FavouredQuota)
            .scenarios(&["zenbleed"])
            .pipelined(true)
            .gossip(shared_link(Capture(Arc::clone(&published))))
            .gossip_every(1)
            .halt_after(16)
            .build()
            .unwrap()
            .run_snapshotting(48);
        assert!(snap.pending.is_some(), "a pipelined halt leaves a round pending");
        assert!(!snap.scenarios.is_empty());
        assert!(matches!(&snap.policy_state, PolicyState::Favoured { favours, .. } if !favours.is_empty()));
        assert!(!snap.corpus.is_empty() && snap.coverage.points() > 0);
        let frame = published
            .lock()
            .unwrap()
            .iter()
            .rev()
            .find(|f| !f.delta.is_empty() && !f.favoured.is_empty())
            .cloned()
            .expect("a frame with a delta and favoured seeds");

        let seed = Seed::new(WindowType::BranchMispredict, 1);
        let plan = gen::plan(&seed);
        let body = gen::complete_window(&seed, &plan);
        let mut schedule = gen::derive_trainings(&seed, &plan, 1);
        schedule.push(gen::build_transient(&plan, &WindowFill::Body(body.full())));
        let request = RunRequest {
            plan,
            schedule,
            mode: IftMode::DiffIft,
            max_cycles: 20_000,
        };
        let reply = BehaviouralBackend::new(boom_small()).run(
            &request.plan,
            &request.schedule,
            request.mode,
            request.max_cycles,
        );
        let out = reply.as_ref().unwrap();
        let sums = out.taint_log.taint_sums();
        assert!(sums.len() > 1 && sums.iter().any(|&s| s != sums[0]));
        assert!(!out.sinks.is_empty() && !out.trace.events().is_empty());
        DecoderFixtures {
            snapshot: snap.to_bytes(),
            gossip: frame.to_bytes(),
            request: encode_run_request(&request),
            reply: encode_run_response(&reply),
        }
    })
}

/// One random edit of a payload: a bit flip, a byte overwrite, an
/// insertion or a deletion of up to eight bytes.
fn mutate_payload(payload: &mut Vec<u8>, rng: &mut dejavuzz::rand::rngs::StdRng) {
    use dejavuzz::rand::Rng;

    let at = rng.gen_range(0..payload.len() + 1);
    let n = rng.gen_range(1..9);
    match (rng.gen_range(0..4), at < payload.len()) {
        (0, true) => payload[at] ^= 1 << rng.gen_range(0..8),
        (1, true) => payload[at] = rng.gen(),
        (2, _) => {
            for _ in 0..n {
                payload.insert(at, rng.gen());
            }
        }
        (_, true) => {
            payload.drain(at..(at + n).min(payload.len()));
        }
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Random edits of real payloads: a snapshot's and a gossip frame's,
    /// re-sealed with a valid checksum so the payload decoders run, and a
    /// process-pool run request and run reply, whose frames the pool
    /// checksums before these decoders see them. Decoding returns, with a
    /// value or a structured error, and never panics.
    #[test]
    fn mutated_payloads_never_panic_the_decoders(draws in any::<u64>(), edits in 1usize..6) {
        use dejavuzz::gossip::GossipFrame;
        use dejavuzz::procproto::{decode_run_request, decode_run_response};
        use dejavuzz::rand::SeedableRng;
        use dejavuzz::snapshot::{CampaignSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        use dejavuzz_persist::{seal, GOSSIP_MAGIC, GOSSIP_VERSION, HEADER_LEN};

        let fixtures = decoder_fixtures();
        let mut rng = dejavuzz::rand::rngs::StdRng::seed_from_u64(draws);
        let mut edited = |payload: &[u8]| {
            let mut payload = payload.to_vec();
            for _ in 0..edits {
                mutate_payload(&mut payload, &mut rng);
            }
            payload
        };
        let payload = edited(&fixtures.snapshot[HEADER_LEN..]);
        let _ = CampaignSnapshot::from_bytes(&seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload));
        let payload = edited(&fixtures.gossip[HEADER_LEN..]);
        let _ = GossipFrame::from_bytes(&seal(GOSSIP_MAGIC, GOSSIP_VERSION, &payload));
        let _ = decode_run_request(&edited(&fixtures.request));
        let _ = decode_run_response(&edited(&fixtures.reply));
    }
}
