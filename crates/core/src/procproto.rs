//! The typed wire protocol between [`crate::procbackend::ProcBackend`] and
//! the `dejavuzz-simd` worker binary.
//!
//! `dejavuzz-procsim` moves opaque byte frames; this module gives the
//! bytes meaning. Two message pairs exist:
//!
//! * **Handshake** ([`Hello`] → [`HelloAck`]): sent once per spawned
//!   worker. The hello pins the protocol version, the behavioural core
//!   configuration name and the inner backend spec; the ack echoes the
//!   worker-side backend's identity (`name`/`dut_name`/`supports_taint`)
//!   or a configuration error. The pool layer requires every worker of a
//!   pool — including respawns — to produce byte-identical acks, which
//!   makes the handshake double as a protocol-purity check.
//! * **Run** ([`RunRequest`] → `RunResponse`): one simulation. The
//!   request is a full serialization of [`crate::backend::SimBackend::run`]'s arguments;
//!   the response is its `Result<RunOutcome, BackendError>`. Requests
//!   are pure — every run starts from the same state (a netlist
//!   backend keeps only its compiled simulator, reset before each run)
//!   — which is what makes the pool's respawn-and-retry crash recovery
//!   sound.
//!
//! Everything here is hand-rolled free functions over the
//! [`dejavuzz_persist`] codec rather than `Persist` impls: most of the
//! types crossing the wire (`Trace`, `TaintLog`, `SwapPacket`, ...) live
//! in other crates, and the orphan rule keeps their `Persist` impls out
//! of this one. The encodings are deterministic (field order is fixed,
//! no maps), so equal values produce equal bytes — the property the
//! pool-of-M determinism contract and the handshake pinning rely on.

use dejavuzz_ift::{Census, IftMode, SinkReport, TaintLog};
use dejavuzz_isa::asm::Program;
use dejavuzz_persist::{intern, DecodeError, Decoder, Encoder, Persist};
use dejavuzz_swapmem::{PacketKind, SecretPolicy, SwapPacket};
use dejavuzz_uarch::core::TimingEvent;
use dejavuzz_uarch::trace::{RobEvent, Trace};

use crate::backend::{BackendError, RunOutcome};
use crate::gen::TransientPlan;

/// Wire protocol version, checked by the handshake (on top of the frame
/// envelope's own version byte, which guards the *framing*). Bump on any
/// change to the message encodings below — v2: [`crate::gen::
/// WindowType`] gained the variable-length scenario encoding, which
/// rides in every [`TransientPlan`] crossing the pipe; v3:
/// [`BackendError`] gained `InvalidMemory` (tag 3).
pub const PROTO_VERSION: u32 = 3;

/// The handshake request: who the embedder is and what it wants served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hello {
    /// [`PROTO_VERSION`] of the spawning side.
    pub proto: u32,
    /// Behavioural core configuration name (e.g. `"BOOM"`); the worker
    /// refuses names it cannot reconstruct.
    pub core: String,
    /// The inner backend spec argument (e.g. `"netlist:boom"`).
    pub inner: String,
}

/// The handshake reply: the worker-side backend's identity, or why it
/// could not be built.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HelloAck {
    /// `SimBackend::name()` of the worker's backend.
    pub name: String,
    /// `SimBackend::dut_name()` of the worker's backend.
    pub dut: String,
    /// `SimBackend::supports_taint()` of the worker's backend.
    pub supports_taint: bool,
}

/// One serialized [`SimBackend::run`](crate::backend::SimBackend::run)
/// call.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The transient plan.
    pub plan: TransientPlan,
    /// The swap schedule.
    pub schedule: Vec<SwapPacket>,
    /// Taint tracking mode.
    pub mode: IftMode,
    /// Simulation cycle budget.
    pub max_cycles: u64,
}

// ---------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------

/// Encodes a [`Hello`] payload.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.u32(hello.proto);
    enc.str(&hello.core);
    enc.str(&hello.inner);
    enc.into_bytes()
}

/// Decodes a [`Hello`] payload.
pub fn decode_hello(bytes: &[u8]) -> Result<Hello, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let hello = Hello {
        proto: dec.u32()?,
        core: dec.string()?,
        inner: dec.string()?,
    };
    dec.finish()?;
    Ok(hello)
}

/// Encodes a handshake reply: `Ok` with the backend identity, or `Err`
/// with a human-readable refusal.
pub fn encode_hello_ack(ack: &Result<HelloAck, String>) -> Vec<u8> {
    let mut enc = Encoder::new();
    match ack {
        Ok(ack) => {
            enc.u8(0);
            enc.str(&ack.name);
            enc.str(&ack.dut);
            enc.bool(ack.supports_taint);
        }
        Err(msg) => {
            enc.u8(1);
            enc.str(msg);
        }
    }
    enc.into_bytes()
}

/// Decodes a handshake reply.
pub fn decode_hello_ack(bytes: &[u8]) -> Result<Result<HelloAck, String>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let ack = match dec.u8()? {
        0 => Ok(HelloAck {
            name: dec.string()?,
            dut: dec.string()?,
            supports_taint: dec.bool()?,
        }),
        1 => Err(dec.string()?),
        tag => {
            return Err(DecodeError::InvalidTag {
                what: "HelloAck",
                tag: tag as u32,
            })
        }
    };
    dec.finish()?;
    Ok(ack)
}

// ---------------------------------------------------------------------
// Run request
// ---------------------------------------------------------------------

fn encode_plan(enc: &mut Encoder, plan: &TransientPlan) {
    plan.window_type.encode(enc);
    enc.u64(plan.trigger_addr);
    enc.u64(plan.window_addr);
    enc.usize(plan.window_slots);
    enc.u64(plan.exit_addr);
    enc.bool(plan.uses_mask);
    enc.u8(match plan.secret_policy {
        SecretPolicy::ProtectBeforeTransient => 0,
        SecretPolicy::AlwaysReadable => 1,
    });
}

fn decode_plan(dec: &mut Decoder<'_>) -> Result<TransientPlan, DecodeError> {
    Ok(TransientPlan {
        window_type: Persist::decode(dec)?,
        trigger_addr: dec.u64()?,
        window_addr: dec.u64()?,
        window_slots: dec.usize()?,
        exit_addr: dec.u64()?,
        uses_mask: dec.bool()?,
        secret_policy: match dec.u8()? {
            0 => SecretPolicy::ProtectBeforeTransient,
            1 => SecretPolicy::AlwaysReadable,
            tag => {
                return Err(DecodeError::InvalidTag {
                    what: "SecretPolicy",
                    tag: tag as u32,
                })
            }
        },
    })
}

fn encode_packet(enc: &mut Encoder, packet: &SwapPacket) {
    enc.str(&packet.name);
    enc.u8(match packet.kind {
        PacketKind::WindowTraining => 0,
        PacketKind::TriggerTraining => 1,
        PacketKind::Transient => 2,
    });
    enc.u64(packet.program.base);
    enc.usize(packet.program.words.len());
    for w in &packet.program.words {
        enc.u32(*w);
    }
    enc.u64(packet.entry);
}

fn decode_packet(dec: &mut Decoder<'_>) -> Result<SwapPacket, DecodeError> {
    let name = dec.string()?;
    let kind = match dec.u8()? {
        0 => PacketKind::WindowTraining,
        1 => PacketKind::TriggerTraining,
        2 => PacketKind::Transient,
        tag => {
            return Err(DecodeError::InvalidTag {
                what: "PacketKind",
                tag: tag as u32,
            })
        }
    };
    let base = dec.u64()?;
    let n = dec.len_prefix("Program.words", 4)?;
    let mut words = Vec::with_capacity(n);
    for _ in 0..n {
        words.push(dec.u32()?);
    }
    let entry = dec.u64()?;
    Ok(SwapPacket {
        name,
        kind,
        program: Program { base, words },
        entry,
    })
}

/// Encodes a [`RunRequest`] payload.
pub fn encode_run_request(req: &RunRequest) -> Vec<u8> {
    let mut enc = Encoder::new();
    encode_plan(&mut enc, &req.plan);
    enc.usize(req.schedule.len());
    for p in &req.schedule {
        encode_packet(&mut enc, p);
    }
    req.mode.encode(&mut enc);
    enc.u64(req.max_cycles);
    enc.into_bytes()
}

/// Decodes a [`RunRequest`] payload.
pub fn decode_run_request(bytes: &[u8]) -> Result<RunRequest, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let plan = decode_plan(&mut dec)?;
    let n = dec.len_prefix("RunRequest.schedule", 8)?;
    let mut schedule = Vec::with_capacity(n);
    for _ in 0..n {
        schedule.push(decode_packet(&mut dec)?);
    }
    let mode = IftMode::decode(&mut dec)?;
    let max_cycles = dec.u64()?;
    dec.finish()?;
    Ok(RunRequest {
        plan,
        schedule,
        mode,
        max_cycles,
    })
}

// ---------------------------------------------------------------------
// Run response
// ---------------------------------------------------------------------

fn encode_rob_event(enc: &mut Encoder, e: &RobEvent) {
    match e {
        RobEvent::Enq {
            cycle,
            skew_b,
            idx,
            pc,
            packet,
        } => {
            enc.u8(0);
            enc.u64(*cycle);
            enc.i64(*skew_b);
            enc.usize(*idx);
            enc.u64(*pc);
            enc.usize(*packet);
        }
        RobEvent::Commit { cycle, skew_b, idx } => {
            enc.u8(1);
            enc.u64(*cycle);
            enc.i64(*skew_b);
            enc.usize(*idx);
        }
        RobEvent::Squash {
            cycle,
            skew_b,
            after_idx,
            killed,
            cause,
        } => {
            enc.u8(2);
            enc.u64(*cycle);
            enc.i64(*skew_b);
            enc.usize(*after_idx);
            enc.usize(*killed);
            enc.str(cause);
        }
        RobEvent::Trap {
            cycle,
            skew_b,
            cause,
        } => {
            enc.u8(3);
            enc.u64(*cycle);
            enc.i64(*skew_b);
            enc.str(cause);
        }
    }
}

fn decode_rob_event(dec: &mut Decoder<'_>) -> Result<RobEvent, DecodeError> {
    Ok(match dec.u8()? {
        0 => RobEvent::Enq {
            cycle: dec.u64()?,
            skew_b: dec.i64()?,
            idx: dec.usize()?,
            pc: dec.u64()?,
            packet: dec.usize()?,
        },
        1 => RobEvent::Commit {
            cycle: dec.u64()?,
            skew_b: dec.i64()?,
            idx: dec.usize()?,
        },
        2 => RobEvent::Squash {
            cycle: dec.u64()?,
            skew_b: dec.i64()?,
            after_idx: dec.usize()?,
            killed: dec.usize()?,
            cause: intern(&dec.string()?),
        },
        3 => RobEvent::Trap {
            cycle: dec.u64()?,
            skew_b: dec.i64()?,
            cause: intern(&dec.string()?),
        },
        tag => {
            return Err(DecodeError::InvalidTag {
                what: "RobEvent",
                tag: tag as u32,
            })
        }
    })
}

/// Census cycles repeat the same module hierarchy every simulated cycle,
/// so the taint log is encoded against a per-outcome name dictionary:
/// the distinct module names once, then each cycle's entries as
/// `(name index, tainted, total)`. This is a size *and* time win — the
/// log dominates a reply's bytes, and decoding indexes skips a string
/// allocation per module per cycle on the RPC hot path.
fn census_name_dict(log: &TaintLog) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    for (_, census) in log.iter() {
        for m in census.modules() {
            // Linear scan: the vocabulary is the DUT's module list,
            // a few dozen entries at most.
            if !names.contains(&m.module) {
                names.push(m.module);
            }
        }
    }
    names
}

fn encode_census(enc: &mut Encoder, census: &Census, names: &[&'static str]) {
    enc.usize(census.modules().len());
    for m in census.modules() {
        let idx = names
            .iter()
            .position(|n| *n == m.module)
            .expect("dictionary built from this log");
        enc.usize(idx);
        enc.usize(m.tainted);
        enc.usize(m.total);
    }
}

/// Decodes one cycle's census into `census`, reusing its buffer.
fn decode_census(
    dec: &mut Decoder<'_>,
    names: &[&'static str],
    census: &mut Census,
) -> Result<(), DecodeError> {
    let n = dec.len_prefix("Census.modules", 8)?;
    census.clear();
    for _ in 0..n {
        let idx = dec.usize()?;
        let module = *names.get(idx).ok_or(DecodeError::InvalidTag {
            what: "Census module name index",
            tag: idx as u32,
        })?;
        let tainted = dec.usize()?;
        let total = dec.usize()?;
        census.report_counts(module, tainted, total);
    }
    Ok(())
}

fn encode_outcome(enc: &mut Encoder, out: &RunOutcome) {
    enc.usize(out.trace.events().len());
    for e in out.trace.events() {
        encode_rob_event(enc, e);
    }
    let names = census_name_dict(&out.taint_log);
    enc.usize(names.len());
    for n in &names {
        enc.str(n);
    }
    enc.usize(out.taint_log.len());
    for (_, census) in out.taint_log.iter() {
        encode_census(enc, census, &names);
    }
    enc.usize(out.sinks.len());
    for s in &out.sinks {
        enc.str(s.module);
        enc.str(&s.array);
        enc.usize(s.index);
        enc.u64(s.taint);
        enc.bool(s.live);
    }
    enc.usize(out.timing_events.len());
    for t in &out.timing_events {
        enc.u64(t.cycle);
        enc.str(t.resource);
        enc.u64(t.wait_a);
        enc.u64(t.wait_b);
    }
    enc.u64(out.total_cycles.0);
    enc.u64(out.total_cycles.1);
    enc.usize(out.packets_run);
}

fn decode_outcome(dec: &mut Decoder<'_>) -> Result<RunOutcome, DecodeError> {
    let n = dec.len_prefix("RunOutcome.trace", 8)?;
    let mut trace = Trace::new();
    for _ in 0..n {
        trace.push(decode_rob_event(dec)?);
    }
    let n = dec.len_prefix("RunOutcome.census_names", 8)?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        names.push(intern(&dec.string()?));
    }
    let n = dec.len_prefix("RunOutcome.taint_log", 8)?;
    let mut taint_log = TaintLog::new();
    let mut census = Census::new();
    for _ in 0..n {
        decode_census(dec, &names, &mut census)?;
        taint_log.push_ref(&census);
    }
    let n = dec.len_prefix("RunOutcome.sinks", 8)?;
    let mut sinks = Vec::with_capacity(n);
    for _ in 0..n {
        sinks.push(SinkReport {
            module: intern(&dec.string()?),
            array: dec.string()?,
            index: dec.usize()?,
            taint: dec.u64()?,
            live: dec.bool()?,
        });
    }
    let n = dec.len_prefix("RunOutcome.timing_events", 8)?;
    let mut timing_events = Vec::with_capacity(n);
    for _ in 0..n {
        timing_events.push(TimingEvent {
            cycle: dec.u64()?,
            resource: intern(&dec.string()?),
            wait_a: dec.u64()?,
            wait_b: dec.u64()?,
        });
    }
    let total_cycles = (dec.u64()?, dec.u64()?);
    let packets_run = dec.usize()?;
    Ok(RunOutcome {
        trace,
        taint_log,
        sinks,
        timing_events,
        total_cycles,
        packets_run,
    })
}

fn encode_backend_error(enc: &mut Encoder, e: &BackendError) {
    match e {
        BackendError::InvalidNetlist { cell } => {
            enc.u8(0);
            enc.usize(*cell);
        }
        BackendError::NoSuchInput {
            role,
            index,
            inputs,
        } => {
            enc.u8(1);
            enc.str(role);
            enc.usize(*index);
            enc.usize(*inputs);
        }
        BackendError::Worker { detail } => {
            enc.u8(2);
            enc.str(detail);
        }
        BackendError::InvalidMemory { mem } => {
            enc.u8(3);
            enc.usize(*mem);
        }
    }
}

fn decode_backend_error(dec: &mut Decoder<'_>) -> Result<BackendError, DecodeError> {
    Ok(match dec.u8()? {
        0 => BackendError::InvalidNetlist { cell: dec.usize()? },
        1 => BackendError::NoSuchInput {
            role: intern(&dec.string()?),
            index: dec.usize()?,
            inputs: dec.usize()?,
        },
        2 => BackendError::Worker {
            detail: dec.string()?,
        },
        3 => BackendError::InvalidMemory { mem: dec.usize()? },
        tag => {
            return Err(DecodeError::InvalidTag {
                what: "BackendError",
                tag: tag as u32,
            })
        }
    })
}

/// Encodes a run reply: the worker backend's `Result`.
pub fn encode_run_response(res: &Result<RunOutcome, BackendError>) -> Vec<u8> {
    let mut enc = Encoder::new();
    match res {
        Ok(out) => {
            enc.u8(0);
            encode_outcome(&mut enc, out);
        }
        Err(e) => {
            enc.u8(1);
            encode_backend_error(&mut enc, e);
        }
    }
    enc.into_bytes()
}

/// Decodes a run reply.
pub fn decode_run_response(bytes: &[u8]) -> Result<Result<RunOutcome, BackendError>, DecodeError> {
    let mut dec = Decoder::new(bytes);
    let res = match dec.u8()? {
        0 => Ok(decode_outcome(&mut dec)?),
        1 => Err(decode_backend_error(&mut dec)?),
        tag => {
            return Err(DecodeError::InvalidTag {
                what: "RunResponse",
                tag: tag as u32,
            })
        }
    };
    dec.finish()?;
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::WindowType;
    use dejavuzz_uarch::trace::WindowInfo;

    fn sample_request() -> RunRequest {
        RunRequest {
            plan: TransientPlan {
                window_type: WindowType::BranchMispredict,
                trigger_addr: 0x1000,
                window_addr: 0x1010,
                window_slots: 6,
                exit_addr: 0x1040,
                uses_mask: true,
                secret_policy: SecretPolicy::AlwaysReadable,
            },
            schedule: vec![
                SwapPacket {
                    name: "trigger_train_0".into(),
                    kind: PacketKind::TriggerTraining,
                    program: Program {
                        base: 0x2000,
                        words: vec![0x13, 0x6f, 0xdead_beef],
                    },
                    entry: 0x2000,
                },
                SwapPacket {
                    name: "transient".into(),
                    kind: PacketKind::Transient,
                    program: Program {
                        base: 0x1000,
                        words: vec![0x93],
                    },
                    entry: 0x1004,
                },
            ],
            mode: IftMode::DiffIft,
            max_cycles: 4096,
        }
    }

    #[test]
    fn hello_round_trips() {
        let hello = Hello {
            proto: PROTO_VERSION,
            core: "BOOM".into(),
            inner: "netlist:boom".into(),
        };
        let decoded = decode_hello(&encode_hello(&hello)).unwrap();
        assert_eq!(decoded, hello);
    }

    #[test]
    fn hello_ack_round_trips_both_arms() {
        let ok = Ok(HelloAck {
            name: "netlist".into(),
            dut: "synthetic-core".into(),
            supports_taint: true,
        });
        assert_eq!(decode_hello_ack(&encode_hello_ack(&ok)).unwrap(), ok);
        let err: Result<HelloAck, String> = Err("unknown inner backend".into());
        assert_eq!(decode_hello_ack(&encode_hello_ack(&err)).unwrap(), err);
    }

    #[test]
    fn run_request_round_trips() {
        let req = sample_request();
        let decoded = decode_run_request(&encode_run_request(&req)).unwrap();
        assert_eq!(decoded.plan.window_type, req.plan.window_type);
        assert_eq!(decoded.plan.trigger_addr, req.plan.trigger_addr);
        assert_eq!(decoded.plan.window_slots, req.plan.window_slots);
        assert_eq!(decoded.plan.uses_mask, req.plan.uses_mask);
        assert_eq!(decoded.plan.secret_policy, req.plan.secret_policy);
        assert_eq!(decoded.schedule, req.schedule);
        assert_eq!(decoded.mode, req.mode);
        assert_eq!(decoded.max_cycles, req.max_cycles);
    }

    #[test]
    fn run_response_round_trips_an_outcome() {
        let mut trace = Trace::new();
        trace.push(RobEvent::Enq {
            cycle: 1,
            skew_b: 0,
            idx: 0,
            pc: 0x1000,
            packet: 0,
        });
        trace.push(RobEvent::Squash {
            cycle: 5,
            skew_b: -2,
            after_idx: 0,
            killed: 3,
            cause: "branch-mispredict",
        });
        trace.push(RobEvent::Trap {
            cycle: 9,
            skew_b: 1,
            cause: "ecall",
        });
        trace.push(RobEvent::Commit {
            cycle: 10,
            skew_b: 1,
            idx: 0,
        });
        let mut taint_log = TaintLog::new();
        let mut census = Census::new();
        census.report_counts("rob", 3, 16);
        census.report_counts("dcache", 0, 8);
        taint_log.push(census);
        let out = RunOutcome {
            trace,
            taint_log,
            sinks: vec![SinkReport {
                module: "dcache",
                array: "tag".into(),
                index: 4,
                taint: 0xff,
                live: true,
            }],
            timing_events: vec![TimingEvent {
                cycle: 7,
                resource: "dcache-port",
                wait_a: 1,
                wait_b: 3,
            }],
            total_cycles: (128, 130),
            packets_run: 2,
        };
        let decoded = decode_run_response(&encode_run_response(&Ok(out.clone())))
            .unwrap()
            .unwrap();
        assert_eq!(decoded.trace.events(), out.trace.events());
        assert_eq!(decoded.taint_log.len(), out.taint_log.len());
        assert_eq!(
            decoded.taint_log.cycle(0).unwrap().modules(),
            out.taint_log.cycle(0).unwrap().modules()
        );
        assert_eq!(decoded.sinks, out.sinks);
        assert_eq!(decoded.timing_events, out.timing_events);
        assert_eq!(decoded.total_cycles, out.total_cycles);
        assert_eq!(decoded.packets_run, out.packets_run);
        // Interning restores pointer-comparable &'static strs.
        assert_eq!(decoded.sinks[0].module, "dcache");
        let _: Option<WindowInfo> = decoded.window();
    }

    #[test]
    fn run_response_round_trips_every_error() {
        for err in [
            BackendError::InvalidNetlist { cell: 7 },
            BackendError::InvalidMemory { mem: 3 },
            BackendError::NoSuchInput {
                role: "trigger",
                index: 9,
                inputs: 4,
            },
            BackendError::Worker {
                detail: "worker exited (signal: 6)".into(),
            },
        ] {
            let decoded = decode_run_response(&encode_run_response(&Err(err.clone()))).unwrap();
            assert_eq!(decoded.unwrap_err(), err);
        }
    }

    #[test]
    fn encoding_is_deterministic() {
        let req = sample_request();
        assert_eq!(encode_run_request(&req), encode_run_request(&req));
    }

    #[test]
    fn garbage_fails_structurally() {
        assert!(decode_run_response(&[9, 9, 9]).is_err());
        assert!(decode_hello_ack(&[]).is_err());
    }
}
