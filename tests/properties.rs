//! Property-based tests over the core data structures and invariants.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use proptest::prelude::*;

use dejavuzz_ift::{IftMode, Module, Policy, TMem, TWord};
use dejavuzz_isa::instr::{AluOp, BranchOp, Instr, LoadOp, Reg, StoreOp};
use dejavuzz_isa::{decode, encode};

/// This test binary's allocator: the system allocator, counting per
/// thread the bytes allocated and not yet freed, so a test can measure
/// what it leaves live while other tests run on other threads.
struct ThreadCounting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn count(bytes: isize) {
    let _ = LIVE.try_with(|live| live.set(live.get() + bytes));
}

/// Bytes this thread has allocated and not freed.
fn live_heap() -> isize {
    LIVE.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System` and
// returns its result unchanged, so `System` upholds the `GlobalAlloc`
// contract; the counter only reads the sizes, and its const-initialised
// thread-local never allocates.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` meets the caller's contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: ThreadCounting = ThreadCounting;

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
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A memory's kept tainted-slot count equals a scan of its taint plane
    /// after every store: random writes in all three modes (enables zero,
    /// non-zero, tainted or differing between the planes; addresses equal
    /// or diverged), pokes, resets, taint clearing and copies. This holds
    /// in release builds too, where the scan `tainted_slots` runs in a
    /// debug build is compiled out.
    #[test]
    fn tmem_tainted_count_equals_scan(draws in any::<u64>(), ops in 1usize..200) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};

        fn word(rng: &mut StdRng, range: u64) -> TWord {
            let a = rng.gen_range(0..range);
            match rng.gen_range(0..4) {
                0 | 1 => TWord::lit(a),
                2 => TWord::secret(a, rng.gen_range(0..range)),
                _ => TWord::with_taint(a, rng.gen_range(0..range), rng.gen::<u64>() & 3),
            }
        }
        fn scan(m: &TMem) -> usize {
            m.taints().filter(|&t| t != 0).count()
        }

        let mut rng = StdRng::seed_from_u64(draws);
        let mut m = TMem::new(8);
        let mut other = TMem::new(8);
        // A CellIFT write through a zero but tainted enable changes no
        // value, yet taints the addressed slot.
        let cell = Policy::new(IftMode::CellIft);
        m.write(cell, TWord::with_taint(0, 0, 1), TWord::lit(3), TWord::lit(5));
        prop_assert_eq!(m.tainted_slots(), 1);
        prop_assert_eq!(scan(&m), 1);
        for _ in 0..ops {
            let policy = Policy::new(IftMode::ALL[rng.gen_range(0..3)]);
            match rng.gen_range(0..12) {
                0..=5 => {
                    let (wen, addr, data) = (word(&mut rng, 2), word(&mut rng, 12), word(&mut rng, 4));
                    m.write(policy, wen, addr, data);
                }
                6 | 7 => m.poke(rng.gen_range(0..8), word(&mut rng, 4)),
                8 => other.poke(rng.gen_range(0..8), word(&mut rng, 4)),
                9 => m.clone_from(&other),
                10 => m.clear_taint(),
                _ => m.reset(),
            }
            prop_assert_eq!(m.tainted_slots(), scan(&m));
            prop_assert_eq!(m.clone().tainted_slots(), scan(&m));
            prop_assert_eq!(other.tainted_slots(), scan(&other));
        }
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
    log.iter()
        .any(|(_, c)| c.module_tainted(Module::Mem).is_some())
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
    /// resets and reloads, and the core it resets, carry nothing from one
    /// run into the next. The exploding CellIFT request runs at a random
    /// point of every sequence, so CellIFT's exploded census is covered
    /// too.
    #[test]
    fn behavioural_backend_reuse_matches_fresh_backends(draws in any::<u64>(), runs in 3usize..16) {
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
    /// log is among them. Cycles are pushed by value, by reference, as a
    /// repeat of the last cycle or as runs of 0–2 cycles at random. Clones
    /// (`clone`, and `clone_from` into a log that held other cycles) and a
    /// log rebuilt from the runs it reports must answer alike, and a
    /// cleared log and an `empty_like` one equal a new log.
    #[test]
    fn change_coded_log_equals_per_cycle_log(draws in any::<u64>(), cycles in 0usize..40) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_ift::{Census, CoveragePoint, TaintLog};

        const MODULES: [Module; 3] = [Module::Rob, Module::Lsu, Module::Dcache];
        let mut rng = StdRng::seed_from_u64(draws);
        let modules = if rng.gen_range(0..4) == 0 { 1 } else { MODULES.len() };
        let fresh_census = |rng: &mut StdRng| {
            let mut census = Census::new();
            for module in &MODULES[..rng.gen_range(0..modules + 1)] {
                census.report_counts(*module, rng.gen_range(0..3), 4);
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
            let n = match rng.gen_range(0..4) {
                0 => {
                    log.push(census.clone());
                    1
                }
                1 => {
                    log.push_ref(&census);
                    1
                }
                2 if !model.is_empty() => {
                    census = model[model.len() - 1].clone();
                    log.repeat_last();
                    1
                }
                _ => {
                    let n = rng.gen_range(0..3);
                    log.push_run(n, &census);
                    n
                }
            };
            model.extend(std::iter::repeat_n(census.clone(), n));
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
            let runs: Vec<(usize, &Census)> = log.runs().collect();
            assert!(runs.iter().all(|&(n, _)| n > 0));
            assert!(runs.windows(2).all(|w| w[0].1 != w[1].1));
            assert!(runs
                .iter()
                .flat_map(|&(n, census)| std::iter::repeat_n(census, n))
                .eq(model.iter()));
        };
        check(&log);
        check(&log.clone());
        let mut rebuilt = TaintLog::new();
        for (n, census) in log.runs() {
            rebuilt.push_run(n, census);
        }
        check(&rebuilt);
        let mut other = TaintLog::new();
        for _ in 0..rng.gen_range(0..8) {
            other.push(fresh_census(&mut rng));
        }
        other.clone_from(&log);
        check(&other);
        prop_assert_eq!(log.empty_like(), TaintLog::new());
        other.clear();
        prop_assert_eq!(other, TaintLog::new());
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
        fn scan(module: Module, taints: impl Iterator<Item = u64>) -> ModuleCensus {
            let taints: Vec<u64> = taints.collect();
            ModuleCensus {
                module,
                tainted: taints.iter().filter(|&&t| t != 0).count(),
                total: taints.len(),
            }
        }

        let mut rng = StdRng::seed_from_u64(draws);
        let mut dcache = Cache::new(Module::Dcache, 4, 64, 2, 20);
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
                scan(Module::Dcache, dcache.taints()),
                scan(Module::Tlb, tlb.taints()),
                scan(Module::L2tlb, tlb.l2_taints()),
                scan(Module::Lfb, lfb.taints()),
                scan(Module::Bht, bht.taints()),
                scan(Module::Btb, btb.taints()),
                scan(Module::Ras, ras.taints()),
                scan(Module::Loop, loopp.taints()),
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
    /// reorders and drops modules, and brings points back cycles later.
    /// Both folds run through a slot's sink over the same partly populated
    /// round view and a shared union that holds more than the view. Both
    /// must equal the fan-out the sink replaced, written out here as the
    /// reference: the round view plus a per-slot overlay, and a separate
    /// observed set, folded census by census. All three agree on the
    /// fresh count, the fresh and observed sequences and the shared set.
    #[test]
    fn digest_fold_equals_census_fold(draws in any::<u64>(), cycles in 0usize..48) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_ift::{
            Census, CoverageMatrix, CoveragePoint, RecordingCoverage, SharedCoverage,
            TaintCoverage, TaintLog,
        };

        const MODULES: [Module; 4] = [Module::Rob, Module::Lsu, Module::Dcache, Module::Bht];
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
        let point = |rng: &mut StdRng| CoveragePoint {
            module: MODULES[rng.gen_range(0..4)],
            index: rng.gen_range(1..4),
        };
        let mut view = CoverageMatrix::new();
        for _ in 0..rng.gen_range(0..6) {
            view.insert(point(&mut rng));
        }
        // The shared union holds the round view plus whatever other slots
        // committed since the round's dispatch; freshness must not read
        // those.
        let mut live = view.clone();
        for _ in 0..rng.gen_range(0..4) {
            live.insert(point(&mut rng));
        }
        let seeded = || {
            let shared = SharedCoverage::default();
            for p in live.iter() {
                shared.observe_point(*p);
            }
            shared
        };

        let fold = |by_digest: bool| {
            let shared = seeded();
            let mut sink = RecordingCoverage::new(&view, &shared);
            let fresh = if by_digest {
                sink.observe_points(&log.distinct_points())
            } else {
                sink.observe_log(&log)
            };
            (fresh, sink.fresh, sink.observed, shared.snapshot().sorted_points())
        };
        let reference = {
            let shared = seeded();
            let (mut overlay, mut observed) = (CoverageMatrix::new(), CoverageMatrix::new());
            let (mut fresh, mut recorded, mut observed_recorded) = (0, Vec::new(), Vec::new());
            for p in log.iter().flat_map(|(_, c)| c.points()) {
                if observed.insert(p) {
                    observed_recorded.push(p);
                }
                if !view.contains_point(&p) && overlay.insert(p) {
                    shared.observe_point(p);
                    recorded.push(p);
                    fresh += 1;
                }
            }
            (fresh, recorded, observed_recorded, shared.snapshot().sorted_points())
        };
        prop_assert_eq!(fold(true), reference.clone());
        prop_assert_eq!(fold(false), reference);
    }
}

/// The payloads the byte-mutation property edits.
struct DecoderFixtures {
    /// A halted pipelined campaign's snapshot, framed.
    snapshot: Vec<u8>,
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
    use std::sync::OnceLock;

    use dejavuzz::backend::{BehaviouralBackend, SimBackend};
    use dejavuzz::builder::CampaignBuilder;
    use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
    use dejavuzz::procproto::{encode_run_request, encode_run_response, RunRequest};
    use dejavuzz::scheduler::{PolicySpec, PolicyState};
    use dejavuzz_uarch::boom_small;

    static FIXTURES: OnceLock<DecoderFixtures> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let (_, snap) = CampaignBuilder::new()
            .workers(2)
            .seed(0xF022)
            .seed_policy(PolicySpec::FavouredQuota)
            .scenarios(&["zenbleed"])
            .pipelined(true)
            .halt_after(16)
            .build()
            .unwrap()
            .run_snapshotting(48);
        assert!(snap.pending.is_some(), "a pipelined halt leaves a round pending");
        assert!(!snap.scenarios.is_empty());
        assert!(matches!(&snap.policy_state, PolicyState::Favoured { favours, .. } if !favours.is_empty()));
        assert!(!snap.corpus.is_empty() && snap.coverage.points() > 0);

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

    /// Random edits of real payloads: a snapshot's, re-sealed with a
    /// valid checksum so the payload decoder runs, and a process-pool run
    /// request and run reply, whose frames the pool checksums before
    /// these decoders see them. Decoding returns, with a value or a
    /// structured error, and never panics.
    #[test]
    fn mutated_payloads_never_panic_the_decoders(draws in any::<u64>(), edits in 1usize..6) {
        use dejavuzz::procproto::{decode_run_request, decode_run_response};
        use dejavuzz::rand::SeedableRng;
        use dejavuzz::snapshot::{CampaignSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        use dejavuzz_persist::{seal, HEADER_LEN};

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
        let max_cycles = decode_run_request(&fixtures.request).unwrap().max_cycles;
        let _ = decode_run_request(&edited(&fixtures.request));
        let _ = decode_run_response(&edited(&fixtures.reply), max_cycles);
    }
}

/// `bytes` with the first occurrence of `from` overwritten by `to`, which
/// has the same length.
fn overwritten(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    let at = bytes
        .windows(from.len())
        .position(|w| w == from)
        .expect("the bytes hold the pattern");
    let mut out = bytes.to_vec();
    out[at..at + to.len()].copy_from_slice(to);
    out
}

/// Hostile names cost nothing that outlives their decode: 100,000
/// coverage matrices, decoded with the codec snapshots use, that each
/// name a distinct unknown module, a snapshot naming an unknown module, and process-pool replies carrying an unknown module
/// and an unknown squash cause each fail with a structured error, and
/// once the errors are dropped this thread's live heap is back within
/// 64 KiB of where it started. So does a reply whose taint log claims a
/// run of 2^32 cycles, past its request's budget: it fails before any
/// cycle is stored.
#[test]
fn decoding_unknown_names_leaves_nothing_live() {
    use dejavuzz::backend::RunOutcome;
    use dejavuzz::procproto::{decode_run_response, encode_run_response};
    use dejavuzz::snapshot::{CampaignSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
    use dejavuzz_ift::{Census, CoverageMatrix, CoveragePoint, TaintLog};
    use dejavuzz_persist::{seal, DecodeError, HEADER_LEN};
    use dejavuzz_uarch::trace::{RobEvent, Trace};

    let mut known = CoverageMatrix::new();
    known.insert(CoveragePoint {
        module: Module::Regfile,
        index: 1,
    });
    let known = dejavuzz_persist::to_bytes(&known);
    let matrix = |i: usize| overwritten(&known, b"regfile", format!("m{i:06}").as_bytes());
    let payload = &decoder_fixtures().snapshot[HEADER_LEN..];
    let snapshot = seal(
        SNAPSHOT_MAGIC,
        SNAPSHOT_VERSION,
        &overwritten(payload, b"dcache", b"zcache"),
    );
    // A reply's tag bytes sit next to a marker field: the module tag
    // right before its census entry's tainted count, the cause tag
    // right after its squash's killed count.
    const MARK: usize = 0x5EED_F00D;
    let mark = (MARK as u64).to_le_bytes();
    let mut taint_log = TaintLog::new();
    let mut census = Census::new();
    census.report_counts(Module::Top, MARK, MARK);
    taint_log.push(census);
    let mut module_reply = encode_run_response(&Ok(RunOutcome {
        taint_log,
        ..RunOutcome::default()
    }));
    let at = module_reply.windows(8).position(|w| w == mark).unwrap();
    let mut long_reply = module_reply.clone();
    module_reply[at - 1] = 0xEE;
    // The run's cycle count leads its census: the module count and the
    // module tag stand between it and the tainted count.
    long_reply[at - 17..at - 9].copy_from_slice(&(1u64 << 32).to_le_bytes());
    let mut trace = Trace::new();
    trace.push(RobEvent::Squash {
        cycle: 1,
        skew_b: 0,
        after_idx: 0,
        killed: MARK,
        cause: "branch-mispredict",
    });
    let mut cause_reply = encode_run_response(&Ok(RunOutcome {
        trace,
        ..RunOutcome::default()
    }));
    let at = cause_reply.windows(8).position(|w| w == mark).unwrap();
    cause_reply[at + 8] = 0xEE;

    let decode = |names: usize| {
        for i in 0..names {
            let err = dejavuzz_persist::from_bytes::<CoverageMatrix>(&matrix(i)).unwrap_err();
            assert!(
                matches!(err, DecodeError::InvalidValue { what: "Module", .. }),
                "{err}"
            );
        }
        let err = CampaignSnapshot::from_bytes(&snapshot).unwrap_err();
        assert!(
            matches!(err, DecodeError::InvalidValue { what: "Module", .. }),
            "{err}"
        );
        let err = decode_run_response(&module_reply, 1).unwrap_err();
        assert!(
            matches!(err, DecodeError::InvalidTag { what: "Module", .. }),
            "{err}"
        );
        let err = decode_run_response(&long_reply, 20_000).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::LengthOverflow {
                    what: "RunOutcome.taint_log cycles",
                    len: 0x1_0000_0000,
                    limit: 20_000
                }
            ),
            "{err}"
        );
        let err = decode_run_response(&cause_reply, 0).unwrap_err();
        assert!(
            matches!(
                err,
                DecodeError::InvalidTag {
                    what: "squash cause",
                    ..
                }
            ),
            "{err}"
        );
    };
    // A first pass initialises whatever the decoders set up once.
    decode(1);
    let start = live_heap();
    decode(100_000);
    let grown = live_heap() - start;
    assert!(grown <= 64 << 10, "decoding left {grown} bytes live");
}

/// A random netlist for [`gated_evaluation_equals_full_evaluation`]: every
/// combinational cell kind over earlier signals and registers, registers
/// with and without an enable (some fed by other registers, some never
/// connected), and several small memories, some with a write port or a
/// liveness mask. Returns the netlist, its input ports, registers and
/// memory sizes.
fn random_netlist(
    rng: &mut dejavuzz::rand::rngs::StdRng,
) -> (dejavuzz_rtl::ir::Netlist, usize, Vec<usize>, Vec<usize>) {
    use dejavuzz::rand::Rng;
    use dejavuzz_rtl::builder::NetlistBuilder;

    // Mostly recent signals, so chains run deep and cross blocks.
    fn pick(rng: &mut dejavuzz::rand::rngs::StdRng, sigs: &[usize]) -> usize {
        if rng.gen_bool(0.5) {
            sigs[sigs.len() - 1 - rng.gen_range(0..sigs.len().min(6))]
        } else {
            sigs[rng.gen_range(0..sigs.len())]
        }
    }

    const MODULES: [Module; 3] = [Module::Rob, Module::Lsu, Module::Dcache];
    let mut b = NetlistBuilder::new();
    let inputs = rng.gen_range(1..5);
    let mut regs = Vec::new();
    for _ in 0..rng.gen_range(1..40) {
        b.module(MODULES[rng.gen_range(0..3)]);
        regs.push(b.reg(rng.gen_range(0..3)));
    }
    let words: Vec<usize> = (0..rng.gen_range(1..4))
        .map(|_| rng.gen_range(1..9))
        .collect();
    let mems: Vec<_> = (0..words.len())
        .map(|k| b.mem(words[k], format!("m{k}")))
        .collect();
    let mut sigs = regs.clone();
    for port in 0..inputs {
        sigs.push(b.input(port));
    }
    for _ in 0..rng.gen_range(16..400) {
        let (x, y, z) = (pick(rng, &sigs), pick(rng, &sigs), pick(rng, &sigs));
        let s = match rng.gen_range(0..13) {
            0 => b.constant(rng.gen_range(0..3)),
            1 => b.input(rng.gen_range(0..inputs)),
            2 => b.and(x, y),
            3 => b.or(x, y),
            4 => b.xor(x, y),
            5 => b.not(x),
            6 => b.add(x, y),
            7 => b.sub(x, y),
            8 => b.eq(x, y),
            9 => b.lt(x, y),
            10 => b.mux(x, y, z),
            _ => b.mem_read(mems[rng.gen_range(0..mems.len())], x),
        };
        sigs.push(s);
    }
    for &r in &regs {
        match rng.gen_range(0..6) {
            0 => {}
            1 => {
                let from = regs[rng.gen_range(0..regs.len())];
                b.connect_reg(r, from, None);
            }
            2 | 3 => {
                let d = pick(rng, &sigs);
                b.connect_reg(r, d, None);
            }
            _ => {
                let (d, en) = (pick(rng, &sigs), pick(rng, &sigs));
                b.connect_reg(r, d, Some(en));
            }
        }
    }
    for (&m, &n) in mems.iter().zip(&words) {
        if rng.gen_bool(0.7) {
            let (wen, addr, data) = (pick(rng, &sigs), pick(rng, &sigs), pick(rng, &sigs));
            b.connect_mem_write(m, wen, addr, data);
        }
        if rng.gen_bool(0.5) {
            let live = (0..rng.gen_range(0..n + 1))
                .map(|_| pick(rng, &sigs))
                .collect();
            b.liveness_mask(m, live);
        }
    }
    (b.finish(), inputs, regs, words)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Activity gating is exact. A simulator that skips unmarked blocks
    /// and edges is driven by a random call sequence on a random netlist,
    /// in every IFT mode: inputs that are tainted or differ between the
    /// planes (and inputs rewritten with the value they hold),
    /// `taint_reg`, `mem_poke`, `eval_comb` twice without a step, `save`
    /// and `restore` mid-run, and `reset` into another mode. Before every
    /// evaluation the reference saves its state and restores it into a
    /// copy of a simulator that has never evaluated, so it runs every op
    /// and every edge whatever `restore` records. Every signal, the
    /// census, every memory slot and the sink reports must be equal after
    /// every call.
    #[test]
    fn gated_evaluation_equals_full_evaluation(draws in any::<u64>(), calls in 1usize..160) {
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_rtl::{NetlistSim, SimState};

        fn word(rng: &mut StdRng) -> TWord {
            let a = rng.gen_range(0..4u64);
            match rng.gen_range(0..6) {
                0..=2 => TWord::lit(a),
                3 => TWord::secret(a, rng.gen_range(0..4u64)),
                4 => TWord::with_taint(a, a, 1),
                _ => TWord::with_taint(a, rng.gen_range(0..4u64), 0),
            }
        }

        let mut rng = StdRng::seed_from_u64(draws);
        let (netlist, inputs, regs, words) = random_netlist(&mut rng);
        let mode = IftMode::ALL[rng.gen_range(0..3)];
        let mut sim = NetlistSim::new(netlist.clone(), mode);
        let pristine = sim.clone();
        let mut reference = sim.clone();
        let mut scratch = SimState::default();
        let mut in_full = |reference: &mut NetlistSim| {
            reference.save(&mut scratch);
            reference.clone_from(&pristine);
            reference.restore(&scratch);
        };
        let (mut saved, mut ref_saved) = (SimState::default(), SimState::default());
        let mut have_saved = false;
        for call in 0..calls {
            match rng.gen_range(0..20) {
                0..=4 => {
                    let port = rng.gen_range(0..inputs);
                    let w = word(&mut rng);
                    sim.set_input(port, w);
                    reference.set_input(port, w);
                }
                5 => {
                    let r = regs[rng.gen_range(0..regs.len())];
                    sim.taint_reg(r);
                    reference.taint_reg(r);
                }
                6 => {
                    let m = rng.gen_range(0..words.len());
                    let (idx, w) = (rng.gen_range(0..words[m]), word(&mut rng));
                    sim.mem_poke(m, idx, w);
                    reference.mem_poke(m, idx, w);
                }
                7 | 8 => {
                    sim.eval_comb();
                    in_full(&mut reference);
                    reference.eval_comb();
                }
                9 => {
                    sim.save(&mut saved);
                    reference.save(&mut ref_saved);
                    have_saved = true;
                }
                10 if have_saved => {
                    sim.restore(&saved);
                    reference.restore(&ref_saved);
                }
                11 => {
                    let mode = IftMode::ALL[rng.gen_range(0..3)];
                    sim.reset(mode);
                    reference.reset(mode);
                }
                _ => {
                    sim.step();
                    in_full(&mut reference);
                    reference.step();
                }
            }
            prop_assert_eq!((sim.cycle(), sim.mode()), (reference.cycle(), reference.mode()));
            for s in 0..netlist.cell_count() {
                prop_assert_eq!(sim.signal(s), reference.signal(s), "signal {} after call {}", s, call);
            }
            prop_assert_eq!(sim.census(), reference.census(), "census after call {}", call);
            for (m, &n) in words.iter().enumerate() {
                for idx in 0..n {
                    prop_assert_eq!(sim.mem_peek(m, idx), reference.mem_peek(m, idx));
                }
            }
            prop_assert_eq!(sim.sink_reports(), reference.sink_reports(), "sinks after call {}", call);
        }
    }
}
