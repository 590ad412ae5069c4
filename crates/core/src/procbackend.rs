//! The process-pool simulator backend: [`ProcBackend`] forwards
//! [`SimBackend::run`] calls over the [`crate::procproto`] wire protocol
//! to a pool of `dejavuzz-simd` worker processes, and [`serve_stdio`] is
//! the worker side of the same conversation.
//!
//! The split buys two things over an in-process backend:
//!
//! * **Crash isolation.** A simulator that segfaults, gets OOM-killed or
//!   corrupts its own state takes down one worker *process*; the pool
//!   respawns it and retries the request once, and only a repeat failure
//!   surfaces — as a per-run [`BackendError::Worker`], counted in
//!   `CampaignStats::failed_runs`, never as a campaign death.
//! * **M-way scale-out.** One `ProcBackend` value (cheaply cloned per
//!   executor worker thread) multiplexes all callers over `M` worker
//!   processes through `dejavuzz-procsim`'s shared request queue.
//!   Requests are pure — a run's reply is a function of its request
//!   bytes — so out-of-order completion across processes cannot change
//!   any result, and campaign output stays byte-deterministic per
//!   `(seed, workers, batch, pipelined, pool)`.
//!
//! Note the two levels of "in flight" here: the executor's claim
//! queues track *slots*, while the pool tracks *RPCs* — one slot
//! issues many RPCs (phase 1 trigger evaluation, the phase 2 mutation
//! loop, phase 3 sanitization each call [`SimBackend::run`]). The
//! `dejavuzz_pool_in_flight` gauge counts RPCs.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dejavuzz_ift::IftMode;
use dejavuzz_procsim::{read_frame, write_frame, Pool, PoolOptions};
use dejavuzz_swapmem::SwapPacket;
use dejavuzz_telemetry::Timer;
use dejavuzz_uarch::{boom_small, xiangshan_minimal, CoreConfig};

use crate::backend::{BackendError, BackendSpec, ProcSpec, RunOutcome, SimBackend};
use crate::gen::TransientPlan;
use crate::procproto::{
    decode_hello, decode_hello_ack, decode_run_request, decode_run_response, encode_hello,
    encode_hello_ack, encode_run_request, encode_run_response, Hello, HelloAck, RunRequest,
    PROTO_VERSION,
};

/// Overrides worker binary discovery with an explicit path.
pub const WORKER_BIN_ENV: &str = "DEJAVUZZ_SIMD_BIN";

/// Set by the pool (to the respawn ordinal) on respawned workers only.
pub const RESPAWN_ENV: &str = "DEJAVUZZ_SIMD_RESPAWN";

/// Crash injection: abort the worker process instead of answering its
/// N-th run request (per process spawn). For the crash-isolation tests
/// — a real worker never reads this in anger.
pub const ABORT_AFTER_ENV: &str = "DEJAVUZZ_SIMD_ABORT_AFTER";

/// Crash injection modifier: disarm [`ABORT_AFTER_ENV`] when the worker
/// is a respawn ([`RESPAWN_ENV`] set), so exactly the first incarnation
/// crashes and the retried campaign completes.
pub const ABORT_UNLESS_RESPAWN_ENV: &str = "DEJAVUZZ_SIMD_ABORT_UNLESS_RESPAWN";

/// Crash injection: corrupt the worker's N-th run reply frame (flip a
/// payload byte after sealing, so the checksum fails structurally).
pub const CORRUPT_AFTER_ENV: &str = "DEJAVUZZ_SIMD_CORRUPT_AFTER";

/// Locates the `dejavuzz-simd` worker binary: the [`WORKER_BIN_ENV`]
/// override if set (taken verbatim — a bogus value is a spawn error, not
/// a fallback), else a sibling of the current executable, else a sibling
/// of its parent directory (which finds `target/debug/dejavuzz-simd`
/// from a `target/debug/deps/...` test binary).
pub fn worker_binary() -> Option<PathBuf> {
    if let Some(p) = std::env::var_os(WORKER_BIN_ENV) {
        return Some(PathBuf::from(p));
    }
    let exe = std::env::current_exe().ok()?;
    let name = format!("dejavuzz-simd{}", std::env::consts::EXE_SUFFIX);
    let dir = exe.parent()?;
    let sibling = dir.join(&name);
    if sibling.is_file() {
        return Some(sibling);
    }
    let uncle = dir.parent()?.join(&name);
    if uncle.is_file() {
        return Some(uncle);
    }
    None
}

/// The pool-side state every [`ProcBackend`] clone shares: the process
/// pool itself plus the backend identity its handshake confirmed.
#[derive(Clone, Debug)]
pub struct ProcShared {
    pool: Arc<Pool>,
    dut: &'static str,
    supports_taint: bool,
    /// Pool respawn total already folded into the process-global
    /// counter; see [`ProcBackend::run`].
    respawns_seen: Arc<AtomicU64>,
    /// Our own active-RPC count, mirrored into the in-flight gauge.
    active: Arc<AtomicU64>,
}

impl ProcShared {
    /// Worker processes respawned over the pool's lifetime.
    pub fn respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// Worker process count.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }
}

/// Spawns and handshakes the worker pool for `spec`. The error string is
/// the human-readable reason (missing binary, spawn failure, worker
/// refusal or DUT mismatch), which the builder wraps in
/// `BuildError::ProcPool`.
pub fn spawn_shared(spec: &ProcSpec) -> Result<ProcShared, String> {
    // The DUT is this process's own: an extension's constructor builds
    // one to ask, as it would in-process.
    let dut = match &*spec.inner {
        BackendSpec::Behavioural(cfg) => cfg.name,
        BackendSpec::Netlist(scale) => scale.name,
        inner => inner.try_build().map_err(|e| e.to_string())?.dut_name(),
    };
    let program = worker_binary().ok_or_else(|| {
        format!(
            "worker binary dejavuzz-simd not found next to {} (set {WORKER_BIN_ENV} to its path)",
            std::env::current_exe()
                .map(|p| p.display().to_string())
                .unwrap_or_else(|_| "the current executable".into())
        )
    })?;
    let hello = Hello {
        proto: PROTO_VERSION,
        core: spec.core.clone(),
        inner: spec.inner_arg.clone(),
    };
    let (pool, ack) = Pool::spawn(
        PoolOptions {
            program,
            args: vec![],
            envs: vec![],
            handshake: encode_hello(&hello),
            respawn_env: Some(RESPAWN_ENV.to_string()),
        },
        spec.pool,
    )
    .map_err(|e| e.to_string())?;
    let ack = accept_ack(&ack, &spec.inner_arg, dut)?;
    Ok(ProcShared {
        pool: Arc::new(pool),
        dut,
        supports_taint: ack.supports_taint,
        respawns_seen: Arc::new(AtomicU64::new(0)),
        active: Arc::new(AtomicU64::new(0)),
    })
}

/// Decodes a worker's handshake reply, refusing a worker that serves
/// `inner` as a DUT other than `dut`, the one bug reports will name.
fn accept_ack(bytes: &[u8], inner: &str, dut: &str) -> Result<HelloAck, String> {
    let ack = decode_hello_ack(bytes)
        .map_err(|e| format!("undecodable handshake reply: {e}"))?
        .map_err(|refusal| format!("worker refused the configuration: {refusal}"))?;
    if ack.dut != dut {
        return Err(format!(
            "the worker serves {inner:?} as DUT {:?}, but this process resolves it to DUT {dut:?}",
            ack.dut
        ));
    }
    Ok(ack)
}

/// A [`SimBackend`] that simulates by RPC to a shared pool of
/// `dejavuzz-simd` worker processes. Clones share the pool; the executor
/// builds one clone per worker thread exactly as it would build any
/// other backend.
#[derive(Clone, Debug)]
pub struct ProcBackend {
    shared: ProcShared,
}

impl ProcBackend {
    /// Wraps an already-spawned pool (the builder's shared-pool path).
    pub fn from_shared(shared: ProcShared) -> Self {
        ProcBackend { shared }
    }

    /// Spawns a dedicated pool for `spec` and wraps it — the direct
    /// embedding path, equivalent to `BackendSpec::Proc(spec).build()`.
    pub fn spawn(spec: &ProcSpec) -> Result<Self, String> {
        Ok(ProcBackend {
            shared: spawn_shared(spec)?,
        })
    }

    /// The shared pool state (for tests and embedders that want the
    /// respawn count).
    pub fn shared(&self) -> &ProcShared {
        &self.shared
    }
}

impl SimBackend for ProcBackend {
    fn name(&self) -> &'static str {
        "proc"
    }

    fn dut_name(&self) -> &'static str {
        self.shared.dut
    }

    fn supports_taint(&self) -> bool {
        self.shared.supports_taint
    }

    /// The worker processes run in-tree backends, which are pure.
    fn replayable(&self) -> bool {
        true
    }

    fn run(
        &mut self,
        plan: &TransientPlan,
        schedule: &[SwapPacket],
        mode: IftMode,
        max_cycles: u64,
    ) -> Result<RunOutcome, BackendError> {
        let m = crate::metrics::handles();
        let payload = encode_run_request(&RunRequest {
            plan: plan.clone(),
            schedule: schedule.to_vec(),
            mode,
            max_cycles,
        });
        m.pool_in_flight
            .set(self.shared.active.fetch_add(1, Ordering::Relaxed) + 1);
        let span = Timer::start(&m.pool_rpc_nanos);
        let reply = self.shared.pool.request(payload);
        drop(span);
        m.pool_in_flight
            .set(self.shared.active.fetch_sub(1, Ordering::Relaxed) - 1);
        // Fold the pool's monotonic respawn total into the global
        // counter as a delta, so several pools (or campaign runs) in one
        // process accumulate rather than overwrite.
        let total = self.shared.pool.respawns();
        let seen = self.shared.respawns_seen.swap(total, Ordering::Relaxed);
        if total > seen {
            m.pool_respawns_total.add(total - seen);
        }
        match reply {
            Ok(bytes) => {
                decode_run_response(&bytes, max_cycles).map_err(|e| BackendError::Worker {
                    detail: format!("undecodable reply: {e}"),
                })?
            }
            Err(e) => Err(BackendError::Worker {
                detail: e.to_string(),
            }),
        }
    }
}

fn core_config(name: &str) -> Option<CoreConfig> {
    match name {
        "BOOM" => Some(boom_small()),
        "XiangShan" => Some(xiangshan_minimal()),
        _ => None,
    }
}

fn env_count(var: &str) -> Option<u64> {
    std::env::var(var).ok()?.parse().ok()
}

/// The `dejavuzz-simd` worker side: serve framed requests on
/// stdin/stdout until the embedder closes the pipe. Returns an error
/// string (for exit-code mapping) only when the transport itself breaks;
/// configuration problems are answered in-band as a refusing
/// [`HelloAck`] so the embedder gets a structured diagnosis.
pub fn serve_stdio() -> Result<(), String> {
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    // Rust's stdout handle is line-buffered: a reply frame would be
    // split into a write syscall per embedded 0x0A byte. Replies are
    // binary, so on unix write the raw descriptor instead (one syscall
    // per frame). ManuallyDrop: fd 1 must not be closed on scope exit.
    #[cfg(unix)]
    let raw_stdout = {
        use std::os::unix::io::FromRawFd;
        std::mem::ManuallyDrop::new(unsafe { std::fs::File::from_raw_fd(1) })
    };
    #[cfg(unix)]
    let mut output = &*raw_stdout;
    #[cfg(not(unix))]
    let stdout = std::io::stdout();
    #[cfg(not(unix))]
    let mut output = stdout.lock();

    // Crash injection (tests/CI only): counts are per process spawn, so
    // "abort on request 3" on a respawned worker counts afresh.
    let respawned = std::env::var_os(RESPAWN_ENV).is_some();
    let disarm = std::env::var_os(ABORT_UNLESS_RESPAWN_ENV).is_some() && respawned;
    let abort_after = if disarm {
        None
    } else {
        env_count(ABORT_AFTER_ENV)
    };
    let corrupt_after = env_count(CORRUPT_AFTER_ENV);

    let hello = match read_frame(&mut input).map_err(|e| e.to_string())? {
        Some(frame) => frame,
        None => return Ok(()), // probed and closed without a handshake
    };
    let mut backend = match handshake(&hello) {
        Ok((ack, backend)) => {
            write_frame(&mut output, &encode_hello_ack(&Ok(ack))).map_err(|e| e.to_string())?;
            backend
        }
        Err(refusal) => {
            // The refusal is the reply; the embedder fails its build
            // with the message and drops (kills) us.
            write_frame(&mut output, &encode_hello_ack(&Err(refusal)))
                .map_err(|e| e.to_string())?;
            return Ok(());
        }
    };

    let mut served: u64 = 0;
    while let Some(frame) = read_frame(&mut input).map_err(|e| e.to_string())? {
        served += 1;
        let response = match decode_run_request(&frame) {
            Ok(req) => backend.run(&req.plan, &req.schedule, req.mode, req.max_cycles),
            // Reply in-band and stay alive: the request/reply framing is
            // still in sync even if one payload was garbage.
            Err(e) => Err(BackendError::Worker {
                detail: format!("worker could not decode the request: {e}"),
            }),
        };
        if abort_after == Some(served) {
            std::process::abort();
        }
        let payload = encode_run_response(&response);
        if corrupt_after == Some(served) {
            use std::io::Write;
            let mut framed = dejavuzz_procsim::seal_frame(&payload);
            let last = framed.len() - 1;
            framed[last] ^= 0xff; // payload byte flip => checksum mismatch
            output
                .write_all(&framed)
                .and_then(|()| output.flush())
                .map_err(|e| e.to_string())?;
        } else {
            write_frame(&mut output, &payload).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Validates a [`Hello`] and builds the inner backend it asks for.
fn handshake(frame: &[u8]) -> Result<(HelloAck, Box<dyn SimBackend>), String> {
    let hello = decode_hello(frame).map_err(|e| format!("undecodable hello: {e}"))?;
    if hello.proto != PROTO_VERSION {
        return Err(format!(
            "protocol version mismatch: embedder speaks {}, worker speaks {PROTO_VERSION}",
            hello.proto
        ));
    }
    let cfg = core_config(&hello.core)
        .ok_or_else(|| format!("unknown behavioural core configuration {:?}", hello.core))?;
    if hello.inner.starts_with("proc:") {
        return Err("proc pools do not nest".to_string());
    }
    let spec = BackendSpec::parse(&hello.inner, cfg)?;
    let backend = spec.try_build().map_err(|e| e.to_string())?;
    Ok((
        HelloAck {
            name: backend.name().to_string(),
            dut: backend.dut_name().to_string(),
            supports_taint: backend.supports_taint(),
        },
        backend,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handshake_refuses_unknown_core_and_inner() {
        let bad_core = encode_hello(&Hello {
            proto: PROTO_VERSION,
            core: "Cortex".into(),
            inner: "netlist:small".into(),
        });
        let err = handshake(&bad_core).unwrap_err();
        assert!(err.contains("unknown behavioural core"), "{err}");

        let bad_inner = encode_hello(&Hello {
            proto: PROTO_VERSION,
            core: "BOOM".into(),
            inner: "bogus".into(),
        });
        let err = handshake(&bad_inner).unwrap_err();
        assert!(err.contains("unknown backend"), "{err}");

        let nested = encode_hello(&Hello {
            proto: PROTO_VERSION,
            core: "BOOM".into(),
            inner: "proc:netlist:small:2".into(),
        });
        let err = handshake(&nested).unwrap_err();
        assert!(err.contains("do not nest"), "{err}");

        let wrong_proto = encode_hello(&Hello {
            proto: PROTO_VERSION + 1,
            core: "BOOM".into(),
            inner: "netlist:small".into(),
        });
        let err = handshake(&wrong_proto).unwrap_err();
        assert!(err.contains("protocol version mismatch"), "{err}");
    }

    #[test]
    fn handshake_reports_backend_identity() {
        let hello = encode_hello(&Hello {
            proto: PROTO_VERSION,
            core: "BOOM".into(),
            inner: "netlist:small".into(),
        });
        let (ack, backend) = handshake(&hello).unwrap();
        assert_eq!(ack.name, "netlist");
        assert_eq!(ack.name, backend.name());
        assert_eq!(ack.dut, backend.dut_name());
        assert_eq!(ack.supports_taint, backend.supports_taint());
    }

    #[test]
    fn an_ack_naming_another_dut_is_refused_naming_both() {
        let dut = BackendSpec::parse("netlist:small", boom_small())
            .unwrap()
            .build()
            .dut_name();
        assert_eq!(dut, "SynthSmall");
        let ack = |dut: &str| {
            encode_hello_ack(&Ok(HelloAck {
                name: "netlist".into(),
                dut: dut.into(),
                supports_taint: true,
            }))
        };
        assert_eq!(
            accept_ack(&ack(dut), "netlist:small", dut).unwrap().dut,
            dut
        );
        let err = accept_ack(&ack("Rocket"), "netlist:small", dut).unwrap_err();
        assert!(
            err.contains("\"Rocket\"") && err.contains("\"SynthSmall\""),
            "{err}"
        );
        let err = accept_ack(&encode_hello_ack(&Err("no".into())), "netlist:small", dut);
        assert!(err.unwrap_err().contains("worker refused"));
    }

    #[test]
    fn missing_worker_binary_is_a_structured_error() {
        // The override is taken verbatim, so pointing it at a
        // nonexistent path must fail the spawn (not fall back to
        // discovery). Env mutation is process-global; the path is
        // so specific no parallel test can be probing it.
        std::env::set_var(WORKER_BIN_ENV, "/nonexistent/dejavuzz-simd-test");
        let spec = ProcSpec {
            inner_arg: "netlist:small".into(),
            inner: Box::new(BackendSpec::parse("netlist:small", boom_small()).unwrap()),
            pool: 1,
            core: "BOOM".into(),
        };
        let err = spawn_shared(&spec).unwrap_err();
        std::env::remove_var(WORKER_BIN_ENV);
        assert!(err.contains("/nonexistent/dejavuzz-simd-test"), "{err}");
    }
}
