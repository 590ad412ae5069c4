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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// One netlist backend serving a random sequence of runs gives each
    /// run exactly a fresh backend's outcome, whether or not the run
    /// restored the backend's checkpoint. Every run draws a window type
    /// and entropy (usually the previous run's, so runs share clean
    /// prefixes), a mutation, a window fill, an IFT mode and a cycle
    /// budget.
    #[test]
    fn netlist_checkpoint_reuse_matches_fresh_backends(draws in any::<u64>(), runs in 4usize..10) {
        use dejavuzz::backend::{NetlistBackend, SimBackend};
        use dejavuzz::gen::{self, Seed, WindowFill, WindowType};
        use dejavuzz::rand::rngs::StdRng;
        use dejavuzz::rand::{Rng, SeedableRng};
        use dejavuzz_rtl::examples::SMALL_SCALE;

        let mut rng = StdRng::seed_from_u64(draws);
        let mut reused = NetlistBackend::synthetic(SMALL_SCALE);
        let mut seed = Seed::new(WindowType::BranchMispredict, 0);
        for _ in 0..runs {
            if rng.gen_range(0..3) == 0 {
                seed = Seed::new(WindowType::ALL[rng.gen_range(0..8)], rng.gen_range(0..4));
            }
            let seed = Seed { mutation: rng.gen_range(0..3), ..seed };
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
            let max_cycles = if rng.gen() { 20_000 } else { rng.gen_range(0..64) };

            let a = reused.run(&plan, &schedule, mode, max_cycles).unwrap();
            let b = NetlistBackend::synthetic(SMALL_SCALE)
                .run(&plan, &schedule, mode, max_cycles)
                .unwrap();
            prop_assert_eq!(a.trace.events(), b.trace.events());
            prop_assert!(a.taint_log.iter().eq(b.taint_log.iter()));
            prop_assert_eq!(a.sinks, b.sinks);
            prop_assert_eq!(a.total_cycles, b.total_cycles);
            prop_assert_eq!(a.packets_run, b.packets_run);
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

/// A real pipelined campaign's halted snapshot and one of its gossip
/// frames, framed. Favoured picks, one scenario family and a halt inside
/// the pipeline populate every snapshot field the decoder checks: policy
/// state, scenario specs, corpus, coverage, per-stream states and the
/// pending round.
fn decoder_fixtures() -> &'static (Vec<u8>, Vec<u8>) {
    use std::sync::{Arc, Mutex, OnceLock};

    use dejavuzz::builder::CampaignBuilder;
    use dejavuzz::gossip::{shared_link, GossipFrame, GossipLink};
    use dejavuzz::scheduler::{PolicySpec, PolicyState};

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

    static FIXTURES: OnceLock<(Vec<u8>, Vec<u8>)> = OnceLock::new();
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
        (snap.to_bytes(), frame.to_bytes())
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

    /// Random edits of a real snapshot's and a real gossip frame's
    /// payload, re-sealed with a valid checksum so the payload decoders
    /// run: decoding returns, with a value or a structured error, and
    /// never panics.
    #[test]
    fn mutated_payloads_never_panic_the_decoders(draws in any::<u64>(), edits in 1usize..6) {
        use dejavuzz::gossip::GossipFrame;
        use dejavuzz::rand::SeedableRng;
        use dejavuzz::snapshot::{CampaignSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
        use dejavuzz_persist::{seal, GOSSIP_MAGIC, GOSSIP_VERSION, HEADER_LEN};

        let (snapshot, gossip) = decoder_fixtures();
        let mut rng = dejavuzz::rand::rngs::StdRng::seed_from_u64(draws);
        let mut edited = |framed: &[u8]| {
            let mut payload = framed[HEADER_LEN..].to_vec();
            for _ in 0..edits {
                mutate_payload(&mut payload, &mut rng);
            }
            payload
        };
        let payload = edited(snapshot);
        let _ = CampaignSnapshot::from_bytes(&seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload));
        let payload = edited(gossip);
        let _ = GossipFrame::from_bytes(&seal(GOSSIP_MAGIC, GOSSIP_VERSION, &payload));
    }
}
