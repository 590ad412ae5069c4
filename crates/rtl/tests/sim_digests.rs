//! Pins the netlist simulator's observable behaviour.
//!
//! Each circuit runs a fixed stimulus in every IFT mode. The stimulus
//! mixes background words, a secret access, a tainted store, the
//! Figure 2 rollback cycle (control tainted but equal in both planes)
//! and a secret-dependent tail pointer. Every cycle's census, every
//! signal and every memory slot, plus the final sink sweep, are folded
//! into FNV-1a digests. The constants were recorded with the per-cell
//! interpreter the compiled simulator replaced, so they pin the compiled
//! form to the old semantics bit for bit. A run interrupted by a saved
//! state, a detour and a restore must digest exactly like one that was
//! not.

use dejavuzz_ift::{IftMode, TWord};
use dejavuzz_rtl::examples::{rob_entry_circuit, synthetic_core, BOOM_SCALE, SMALL_SCALE};
use dejavuzz_rtl::ir::{CellKind, Netlist};
use dejavuzz_rtl::{NetlistSim, SimState};

/// Cycles each run simulates.
const CYCLES: u64 = 24;

/// Cycles after which a run saves its state and takes a detour: after
/// cycle 1, mid-run, and one cycle before the end.
const SPLITS: [u64; 3] = [1, CYCLES / 2, CYCLES - 1];

/// Cycles of different, tainted input a detour drives before restoring.
const DETOUR: u64 = 3;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for byte in s.bytes() {
            self.u64(byte as u64);
        }
    }

    fn word(&mut self, w: TWord) {
        self.u64(w.a);
        self.u64(w.b);
        self.u64(w.t);
    }
}

/// Digests of one run, one per observable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Digest {
    census: u64,
    signals: u64,
    mems: u64,
    sinks: u64,
}

/// Input ports of the stimulus roles.
struct Io {
    data: usize,
    control: usize,
    index: usize,
    aux: &'static [usize],
}

const SYNTH_IO: Io = Io {
    data: 4,
    control: 2,
    index: 3,
    aux: &[0, 1],
};

const ROB_IO: Io = Io {
    data: 0,
    control: 1,
    index: 2,
    aux: &[],
};

fn drive(sim: &mut NetlistSim, io: &Io, cycle: u64) {
    let word = (cycle + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let (data, control, index, aux) = match cycle % 8 {
        // Secret access into index 0.
        2 => (
            TWord::secret(0x5AC3, !0x5AC3),
            TWord::lit(1),
            TWord::lit(0),
            word,
        ),
        // Encode store: secret-derived tainted data into index 1.
        4 => (
            TWord::with_taint(word, !word, u64::MAX),
            TWord::lit(1),
            TWord::lit(1),
            word,
        ),
        // Figure 2 rollback: control tainted but equal, fresh data.
        6 => (
            TWord::lit(0x55),
            TWord::with_taint(1, 1, 1),
            TWord::with_taint(2, 2, u64::MAX),
            0,
        ),
        // A secret-dependent tail pointer: the planes disagree.
        7 => (TWord::lit(0x42), TWord::lit(1), TWord::secret(2, 5), word),
        _ => (
            TWord::lit(word >> 3),
            TWord::lit(0),
            TWord::lit(word % 8),
            word,
        ),
    };
    for (k, &a) in io.aux.iter().enumerate() {
        sim.set_input(a, TWord::lit(aux.rotate_left(17 * k as u32)));
    }
    sim.set_input(io.data, data);
    sim.set_input(io.control, control);
    sim.set_input(io.index, index);
}

/// Drives cycle `k` of a detour: every role secret-dependent, so the
/// detour leaves taint and plane differences everywhere it reaches.
fn drive_detour(sim: &mut NetlistSim, io: &Io, k: u64) {
    let word = (k + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    for (j, &a) in io.aux.iter().enumerate() {
        sim.set_input(a, TWord::secret(word >> j, !word >> j));
    }
    sim.set_input(io.data, TWord::secret(word, word.rotate_left(7)));
    sim.set_input(io.control, TWord::with_taint(1, k & 1, 1));
    sim.set_input(io.index, TWord::secret(k, k + 3));
}

/// Runs the stimulus on `sim` (fresh or freshly reset) and digests it.
fn run(sim: &mut NetlistSim, netlist: &Netlist, io: &Io) -> Digest {
    run_with_detour(sim, netlist, io, None)
}

/// [`run`], except that with `split = Some(c)` the run saves its state
/// after cycle `c`, resets into another mode, drives [`DETOUR`] cycles of
/// tainted input, then restores and finishes the stimulus.
fn run_with_detour(sim: &mut NetlistSim, netlist: &Netlist, io: &Io, split: Option<u64>) -> Digest {
    let (mut census, mut signals, mut mems, mut sinks) =
        (Fnv::new(), Fnv::new(), Fnv::new(), Fnv::new());
    // Testbench-side taint sources: a planted secret in the first memory
    // and a directly tainted register.
    if !netlist.mems.is_empty() {
        sim.mem_poke(0, 3, TWord::secret(0xC0DE, 0xBEEF));
    }
    if let Some(r) = netlist
        .cells
        .iter()
        .position(|c| matches!(c.kind, CellKind::Reg { .. }))
    {
        sim.taint_reg(r);
    }
    let mut state = SimState::default();
    for cycle in 0..CYCLES {
        if split == Some(cycle) {
            sim.save(&mut state);
            sim.reset(match sim.mode() {
                IftMode::Base => IftMode::CellIft,
                IftMode::CellIft => IftMode::DiffIft,
                IftMode::DiffIft => IftMode::Base,
            });
            for k in 0..DETOUR {
                drive_detour(sim, io, k);
                sim.step();
            }
            sim.restore(&state);
            assert_eq!(sim.cycle(), cycle, "the cycle count is restored");
        }
        drive(sim, io, cycle);
        sim.step();
        census.u64(sim.cycle());
        for m in sim.census().modules() {
            census.str(m.module.name());
            census.u64(m.tainted as u64);
            census.u64(m.total as u64);
        }
        for s in 0..netlist.cell_count() {
            signals.word(sim.signal(s));
        }
        for (mi, m) in netlist.mems.iter().enumerate() {
            for idx in 0..m.words {
                mems.word(sim.mem_peek(mi, idx));
            }
        }
    }
    // Same-cycle comb outputs feed the liveness bits of the final sweep.
    sim.eval_comb();
    for r in sim.sink_reports() {
        sinks.str(r.module.name());
        sinks.str(&r.array);
        sinks.u64(r.index as u64);
        sinks.u64(r.taint);
        sinks.u64(r.live as u64);
    }
    Digest {
        census: census.0,
        signals: signals.0,
        mems: mems.0,
        sinks: sinks.0,
    }
}

fn circuits() -> Vec<(&'static str, Netlist, &'static Io)> {
    vec![
        ("rob16", rob_entry_circuit(16).netlist, &ROB_IO),
        ("small", synthetic_core(SMALL_SCALE), &SYNTH_IO),
        ("boom", synthetic_core(BOOM_SCALE), &SYNTH_IO),
    ]
}

/// Digests recorded with the per-cell interpreter, per circuit and mode.
const PINNED: [(&str, IftMode, Digest); 9] = [
    (
        "rob16",
        IftMode::Base,
        Digest {
            census: 0x8375aece13955abd,
            signals: 0x4036744cbb07870b,
            mems: 0xcbf29ce484222325,
            sinks: 0xcbf29ce484222325,
        },
    ),
    (
        "rob16",
        IftMode::CellIft,
        Digest {
            census: 0xc64ebbcf2a7ea87d,
            signals: 0x57aa20839a7260ab,
            mems: 0xcbf29ce484222325,
            sinks: 0xcbf29ce484222325,
        },
    ),
    (
        "rob16",
        IftMode::DiffIft,
        Digest {
            census: 0x7cd1644de0fe613b,
            signals: 0x296656c3359d59b2,
            mems: 0xcbf29ce484222325,
            sinks: 0xcbf29ce484222325,
        },
    ),
    (
        "small",
        IftMode::Base,
        Digest {
            census: 0xcaacc6b2bc18d93d,
            signals: 0x9eb2f98b00a1235a,
            mems: 0x1faf156e74bc49c1,
            sinks: 0xcf6aba6f3816f654,
        },
    ),
    (
        "small",
        IftMode::CellIft,
        Digest {
            census: 0xca07496b173114cb,
            signals: 0x75ed61469ee4193a,
            mems: 0x5ae4f60afdc6b6c1,
            sinks: 0x8034871759db0fd4,
        },
    ),
    (
        "small",
        IftMode::DiffIft,
        Digest {
            census: 0x7afa406bdb8c782b,
            signals: 0x9360ee53df95fc55,
            mems: 0x47399f09a12dcc91,
            sinks: 0x8034871759db0fd4,
        },
    ),
    (
        "boom",
        IftMode::Base,
        Digest {
            census: 0xb0b3fe705de2be7d,
            signals: 0x25b359e8d6165352,
            mems: 0xc2c3488fd56dd481,
            sinks: 0xcf6aba6f3816f654,
        },
    ),
    (
        "boom",
        IftMode::CellIft,
        Digest {
            census: 0xe963eae0f9f0982e,
            signals: 0x8d91faae1ca8e902,
            mems: 0x60b1bf04e3766561,
            sinks: 0xe6e2efd9c5325ad4,
        },
    ),
    (
        "boom",
        IftMode::DiffIft,
        Digest {
            census: 0x3c20812b500d9f5e,
            signals: 0x2f0a50eeed831002,
            mems: 0x4e329896748f9951,
            sinks: 0xe6e2efd9c5325ad4,
        },
    ),
];

fn pinned(circuit: &str, mode: IftMode) -> Digest {
    PINNED
        .iter()
        .find(|(c, m, _)| *c == circuit && *m == mode)
        .map(|&(_, _, d)| d)
        .expect("every circuit and mode is pinned")
}

#[test]
fn fresh_simulators_match_pinned_digests() {
    let mut actual = Vec::new();
    for (name, netlist, io) in circuits() {
        for mode in IftMode::ALL {
            let mut sim = NetlistSim::new(netlist.clone(), mode);
            actual.push((name, mode, run(&mut sim, &netlist, io)));
        }
    }
    for &(name, mode, d) in &actual {
        assert_eq!(d, pinned(name, mode), "{name} in {mode:?}");
    }
}

/// One simulator serves a whole campaign slot: reset between runs, in the
/// Base -> diffIFT -> Base order phases 1, 2 and 3 use, after a CellIFT
/// run has left taint behind. Every run must equal a fresh simulator's.
#[test]
fn reset_simulators_match_fresh_ones() {
    for (name, netlist, io) in circuits() {
        let mut sim = NetlistSim::new(netlist.clone(), IftMode::CellIft);
        run(&mut sim, &netlist, io);
        for mode in [IftMode::Base, IftMode::DiffIft, IftMode::Base] {
            sim.reset(mode);
            let fresh = run(&mut NetlistSim::new(netlist.clone(), mode), &netlist, io);
            assert_eq!(
                run(&mut sim, &netlist, io),
                fresh,
                "{name} in {mode:?} after reset"
            );
        }
    }
}

/// A run that saves after cycle `c`, takes a detour through another mode
/// and tainted input, then restores, must digest exactly like the pinned
/// uninterrupted run: census, every signal, every memory slot and the
/// final sink sweep.
#[test]
fn restored_simulators_match_pinned_digests() {
    for (name, netlist, io) in circuits() {
        for mode in IftMode::ALL {
            let mut sim = NetlistSim::new(netlist.clone(), mode);
            for split in SPLITS {
                sim.reset(mode);
                assert_eq!(
                    run_with_detour(&mut sim, &netlist, io, Some(split)),
                    pinned(name, mode),
                    "{name} in {mode:?}, restored after cycle {split}"
                );
            }
        }
    }
}
