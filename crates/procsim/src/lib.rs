//! Crash-isolated subprocess worker pools over a framed stdio protocol.
//!
//! This crate is the *transport* half of the process-pool simulator
//! backend: it knows how to spawn worker processes, speak
//! length-prefixed request/response frames over their stdin/stdout
//! (reusing the checksummed [`dejavuzz_persist::frame`] envelope), and
//! keep a pool of `M` such workers serving a shared request queue —
//! respawning, with bounded backoff, any worker that segfaults, gets
//! OOM-killed, or answers with a malformed frame. Payloads are opaque
//! byte vectors; the typed protocol (what a request *means*) lives with
//! the embedder — for DejaVuzz, in `dejavuzz::procbackend`.
//!
//! Design constraints, in order:
//!
//! * **A worker death is a request error, never a pool death.** Every
//!   failure mode of a child process — spawn failure, pipe closed
//!   mid-write, truncated reply, checksum mismatch — surfaces as a
//!   [`ProcError`] on the one request that hit it. The pool respawns
//!   the worker (bounded attempts, doubling backoff) and retries the
//!   request once on the fresh process; only a second failure reaches
//!   the caller.
//! * **Requests must be pure.** The retry-on-respawn is only sound
//!   because the embedder's requests are stateless: any worker must
//!   produce the same reply bytes for the same request bytes. The
//!   handshake enforces the observable half of this — a respawned
//!   worker must answer the handshake byte-identically to the original
//!   pool, or the respawn fails with [`ProcError::HandshakeMismatch`].
//! * **Blocking, caller-threaded dispatch.** [`Pool::request`] blocks
//!   the calling thread until its reply arrives; concurrency comes from
//!   many caller threads sharing the pool. An in-flight table tracks
//!   which worker is serving which request id for error attribution and
//!   the [`Pool::in_flight`] gauge.

mod child;
mod pool;

pub use child::{read_frame, seal_frame, write_frame, ChildProc};
pub use pool::{Pool, PoolOptions};

use std::fmt;

/// Frame magic for the worker protocol. Distinct from the snapshot magic
/// so a frame fed to the wrong decoder fails loudly with `BadMagic`
/// instead of misparsing.
pub const PROC_MAGIC: [u8; 8] = *b"DJVZPROC";

/// Version of the frame envelope this build speaks.
pub const PROC_VERSION: u32 = 1;

/// Everything that can go wrong between the pool and a worker process.
///
/// `Clone + PartialEq` so embedders can store these in result types that
/// are themselves comparable (the DejaVuzz campaign pins error strings
/// in its deterministic telemetry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcError {
    /// The worker binary could not be spawned at all.
    Spawn {
        /// The program we tried to execute.
        program: String,
        /// The OS error.
        detail: String,
    },
    /// The worker died or closed its pipes mid-request (segfault,
    /// OOM-kill, clean-but-early exit).
    WorkerLost {
        /// What the transport observed.
        detail: String,
    },
    /// The worker replied with bytes that are not a valid frame
    /// (truncated or corrupt length prefix, bad magic, checksum
    /// mismatch).
    BadFrame {
        /// The envelope decoder's diagnosis.
        detail: String,
    },
    /// A respawned worker answered the handshake differently from the
    /// pool's original workers — it is not serving the same protocol
    /// and must not serve retried requests.
    HandshakeMismatch,
    /// The pool is shutting down and no longer accepts requests.
    Closed,
}

impl fmt::Display for ProcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcError::Spawn { program, detail } => {
                write!(f, "cannot spawn worker {program:?}: {detail}")
            }
            ProcError::WorkerLost { detail } => write!(f, "worker lost: {detail}"),
            ProcError::BadFrame { detail } => write!(f, "malformed reply frame: {detail}"),
            ProcError::HandshakeMismatch => write!(
                f,
                "respawned worker answered the handshake differently from the original pool"
            ),
            ProcError::Closed => write!(f, "worker pool is shut down"),
        }
    }
}

impl std::error::Error for ProcError {}
