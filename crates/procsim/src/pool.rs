//! The M-way worker pool: callers check an idle worker process out of a
//! shared rack, drive the framed round trip on their own thread, and
//! check it back in — with respawn-and-retry crash isolation.
//!
//! The checkout model (rather than a request queue served by dedicated
//! pump threads) keeps the per-RPC overhead to two uncontended mutex
//! acquisitions: the calling thread blocks directly on the worker's
//! pipe, so a request costs exactly one cross-process round trip with
//! no intra-process thread handoffs on top.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Duration;

use crate::child::ChildProc;
use crate::ProcError;

/// Respawn attempts per incident before the failure is surfaced.
const RESPAWN_ATTEMPTS: u32 = 3;

/// Backoff before the second respawn attempt; doubles per attempt.
const RESPAWN_BACKOFF: Duration = Duration::from_millis(10);

/// How a pool spawns (and respawns) its worker processes.
#[derive(Clone, Debug)]
pub struct PoolOptions {
    /// The worker binary.
    pub program: PathBuf,
    /// Arguments passed to every worker.
    pub args: Vec<String>,
    /// Environment set on every worker (inheriting the parent's).
    pub envs: Vec<(String, String)>,
    /// Handshake request sent to every spawned worker before it serves.
    /// The first worker's reply is the pool's pinned protocol identity:
    /// [`Pool::spawn`] returns it, and every later spawn (including
    /// respawns) must answer byte-identically.
    pub handshake: Vec<u8>,
    /// Environment variable set (to the running respawn ordinal, from
    /// `"1"`) on *respawned* workers only — lets crash-injection
    /// harnesses distinguish a retry process from a first spawn.
    pub respawn_env: Option<String>,
}

impl PoolOptions {
    fn command(&self, respawn_ordinal: u64) -> Command {
        let mut cmd = Command::new(&self.program);
        cmd.args(&self.args);
        for (k, v) in &self.envs {
            cmd.env(k, v);
        }
        if respawn_ordinal > 0 {
            if let Some(var) = &self.respawn_env {
                cmd.env(var, respawn_ordinal.to_string());
            }
        }
        cmd
    }
}

/// One worker process plus its stable pool index (survives respawns).
struct Worker {
    index: usize,
    child: ChildProc,
}

/// The rack of idle workers plus the closed flag, under one lock.
struct Rack {
    idle: Vec<Worker>,
    closed: bool,
}

/// State shared between the pool handle and outstanding checkouts.
struct Shared {
    rack: Mutex<Rack>,
    available: Condvar,
    /// Request id → index of the worker currently serving it. The error
    /// attribution and [`Pool::in_flight`] source of truth.
    in_flight: Mutex<HashMap<u64, usize>>,
    /// Workers respawned over the pool's lifetime (successful respawns).
    respawns: AtomicU64,
    /// Monotonic request id source for untagged requests.
    next_id: AtomicU64,
}

/// A pool of `M` worker processes serving framed byte requests. See the
/// crate docs for the crash-isolation and purity contracts.
pub struct Pool {
    shared: Arc<Shared>,
    opts: PoolOptions,
    expected_ack: Vec<u8>,
    workers: usize,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.workers)
            .field("in_flight", &self.in_flight())
            .field("respawns", &self.respawns())
            .finish()
    }
}

/// Returns a checked-out worker to the rack on every exit path (success,
/// error, unwind), so a panicking caller can never strand a pool slot.
struct Checkout<'a> {
    shared: &'a Shared,
    worker: Option<Worker>,
}

impl std::ops::Deref for Checkout<'_> {
    type Target = Worker;
    fn deref(&self) -> &Worker {
        self.worker.as_ref().expect("worker present until drop")
    }
}

impl std::ops::DerefMut for Checkout<'_> {
    fn deref_mut(&mut self) -> &mut Worker {
        self.worker.as_mut().expect("worker present until drop")
    }
}

impl Drop for Checkout<'_> {
    fn drop(&mut self) {
        let worker = self.worker.take().expect("worker present until drop");
        let mut rack = self.shared.rack.lock().expect("pool rack poisoned");
        if rack.closed {
            return; // dropping the Worker kills the process
        }
        rack.idle.push(worker);
        drop(rack);
        self.shared.available.notify_one();
    }
}

impl Pool {
    /// Spawns `workers` processes and handshakes each; returns the pool
    /// plus the (identical) handshake reply, which the embedder decodes
    /// for protocol/metadata validation. Any spawn or handshake failure
    /// fails the whole call — a pool either starts complete or not at
    /// all (this is the build-time validation path: a missing binary or
    /// a worker that rejects the configuration is a structured error
    /// before any campaign work starts).
    pub fn spawn(opts: PoolOptions, workers: usize) -> Result<(Pool, Vec<u8>), ProcError> {
        assert!(workers >= 1, "a pool needs at least one worker");
        let mut idle = Vec::with_capacity(workers);
        let mut ack: Option<Vec<u8>> = None;
        for index in 0..workers {
            let mut child = ChildProc::spawn(&mut opts.command(0))?;
            let reply = child.request(&opts.handshake)?;
            match &ack {
                None => ack = Some(reply),
                Some(first) if *first == reply => {}
                Some(_) => return Err(ProcError::HandshakeMismatch),
            }
            idle.push(Worker { index, child });
        }
        let ack = ack.expect("workers >= 1");
        let shared = Arc::new(Shared {
            rack: Mutex::new(Rack {
                idle,
                closed: false,
            }),
            available: Condvar::new(),
            in_flight: Mutex::new(HashMap::new()),
            respawns: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
        });
        Ok((
            Pool {
                shared,
                opts,
                expected_ack: ack.clone(),
                workers,
            },
            ack,
        ))
    }

    /// Submits a request and blocks until its reply (or error) arrives.
    /// The auto-assigned request id only matters for error attribution;
    /// use [`Pool::request_tagged`] to key the in-flight table yourself.
    pub fn request(&self, payload: Vec<u8>) -> Result<Vec<u8>, ProcError> {
        let id = self.shared.next_id.fetch_add(1, Ordering::Relaxed);
        self.request_tagged(id, payload)
    }

    /// [`Pool::request`] with a caller-chosen id keyed into the
    /// in-flight table (request ids need not be unique across callers,
    /// but concurrent duplicates blur attribution).
    pub fn request_tagged(&self, id: u64, payload: Vec<u8>) -> Result<Vec<u8>, ProcError> {
        let mut worker = self.checkout()?;
        self.shared
            .in_flight
            .lock()
            .expect("in-flight table poisoned")
            .insert(id, worker.index);
        let result = self.serve(&mut worker, id, &payload);
        self.shared
            .in_flight
            .lock()
            .expect("in-flight table poisoned")
            .remove(&id);
        result
    }

    /// Blocks until an idle worker is available (more concurrent callers
    /// than workers simply wait their turn) or the pool closes.
    fn checkout(&self) -> Result<Checkout<'_>, ProcError> {
        let mut rack = self.shared.rack.lock().expect("pool rack poisoned");
        loop {
            if rack.closed {
                return Err(ProcError::Closed);
            }
            if let Some(worker) = rack.idle.pop() {
                return Ok(Checkout {
                    shared: &self.shared,
                    worker: Some(worker),
                });
            }
            rack = self
                .shared
                .available
                .wait(rack)
                .expect("pool rack poisoned");
        }
    }

    /// Serves one request: first attempt on the checked-out child; on
    /// any failure, respawn the worker (bounded attempts, doubling
    /// backoff, handshake re-validated) and retry the request exactly
    /// once. Requests are pure (see the crate docs), so the retry can
    /// only produce what the first attempt would have.
    fn serve(&self, worker: &mut Worker, id: u64, payload: &[u8]) -> Result<Vec<u8>, ProcError> {
        let first = match worker.child.request(payload) {
            Ok(reply) => return Ok(reply),
            Err(e) => e,
        };
        let index = worker.index;
        match self.respawn(worker) {
            Ok(()) => worker.child.request(payload).map_err(|retry| {
                // The fresh worker failed the same request: report the
                // whole incident on this request id and leave the (again
                // dead) worker to the next request's respawn.
                ProcError::WorkerLost {
                    detail: format!(
                        "request {id} on worker {index}: {first}; \
                         retry on respawned worker: {retry}"
                    ),
                }
            }),
            Err(e) => Err(ProcError::WorkerLost {
                detail: format!("request {id} on worker {index}: {first}; respawn failed: {e}"),
            }),
        }
    }

    /// Replaces a dead (or misbehaving — it is killed either way) worker
    /// with a freshly spawned, handshake-validated process.
    fn respawn(&self, worker: &mut Worker) -> Result<(), ProcError> {
        let mut backoff = RESPAWN_BACKOFF;
        let mut last = ProcError::Closed;
        for attempt in 0..RESPAWN_ATTEMPTS {
            if attempt > 0 {
                thread::sleep(backoff);
                backoff *= 2;
            }
            let ordinal = self.shared.respawns.load(Ordering::Relaxed) + 1;
            match ChildProc::spawn(&mut self.opts.command(ordinal)) {
                Ok(mut fresh) => match fresh.request(&self.opts.handshake) {
                    Ok(ack) if ack == self.expected_ack => {
                        self.shared.respawns.fetch_add(1, Ordering::Relaxed);
                        worker.child = fresh; // the old child is killed by Drop
                        return Ok(());
                    }
                    Ok(_) => last = ProcError::HandshakeMismatch,
                    Err(e) => last = e,
                },
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Requests currently being served by a worker process.
    pub fn in_flight(&self) -> usize {
        self.shared
            .in_flight
            .lock()
            .expect("in-flight table poisoned")
            .len()
    }

    /// Worker processes respawned over the pool's lifetime.
    pub fn respawns(&self) -> u64 {
        self.shared.respawns.load(Ordering::Relaxed)
    }

    /// Worker process count.
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        let drained = {
            let mut rack = self.shared.rack.lock().expect("pool rack poisoned");
            rack.closed = true;
            std::mem::take(&mut rack.idle)
        };
        drop(drained); // ChildProc::drop kills and reaps each worker
        self.shared.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::child::{read_frame, write_frame};

    /// `/bin/cat` is a perfectly valid worker: it echoes our own sealed
    /// frames back verbatim, so every request's reply equals its payload.
    fn cat_pool(workers: usize) -> (Pool, Vec<u8>) {
        Pool::spawn(
            PoolOptions {
                program: "/bin/cat".into(),
                args: vec![],
                envs: vec![],
                handshake: b"hello".to_vec(),
                respawn_env: None,
            },
            workers,
        )
        .expect("spawn cat pool")
    }

    #[test]
    fn echo_pool_round_trips_requests() {
        let (pool, ack) = cat_pool(2);
        assert_eq!(ack, b"hello");
        assert_eq!(pool.workers(), 2);
        for i in 0..8u64 {
            let payload = format!("request-{i}").into_bytes();
            assert_eq!(pool.request(payload.clone()).unwrap(), payload);
        }
        assert_eq!(pool.respawns(), 0);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let (pool, _) = cat_pool(3);
        let pool = Arc::new(pool);
        let handles: Vec<_> = (0..6u64)
            .map(|i| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    for j in 0..4u64 {
                        let payload = format!("{i}:{j}").into_bytes();
                        assert_eq!(pool.request_tagged(i, payload.clone()).unwrap(), payload);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// A worker that serves the handshake then exits: the first real
    /// request finds the pipe closed, the pool respawns, and the retry
    /// succeeds on the fresh process — the caller never sees the crash.
    #[test]
    fn crashing_worker_is_respawned_and_the_request_retried() {
        // head -c N copies exactly one sealed handshake frame (9-byte
        // payload => 37 bytes) and exits, killing the next request.
        let hs = b"handshake".to_vec();
        let framed = crate::seal_frame(&hs);
        let (pool, ack) = Pool::spawn(
            PoolOptions {
                program: "/bin/sh".into(),
                args: vec![
                    "-c".into(),
                    format!(
                        "head -c {} ; if [ -n \"$RESPAWNED\" ]; then exec cat; fi",
                        framed.len()
                    ),
                ],
                envs: vec![],
                handshake: hs.clone(),
                respawn_env: Some("RESPAWNED".into()),
            },
            1,
        )
        .expect("spawn crashing pool");
        assert_eq!(ack, hs);
        // First spawn echoed only the handshake and exited; the request
        // below rides entirely on the respawned `exec cat` process.
        let payload = b"after-crash".to_vec();
        assert_eq!(pool.request(payload.clone()).unwrap(), payload);
        assert_eq!(pool.respawns(), 1);
    }

    /// A worker that always writes garbage: both the first attempt and
    /// the respawn-retry fail, and the caller gets a structured error
    /// naming the malformed frame — never a hang or a panic.
    #[test]
    fn persistent_garbage_is_a_structured_error() {
        let hs = b"hi".to_vec();
        let framed = crate::seal_frame(&hs);
        let (pool, _) = Pool::spawn(
            PoolOptions {
                program: "/bin/sh".into(),
                args: vec![
                    "-c".into(),
                    format!(
                        "head -c {} ; head -c 28 > /dev/null ; \
                         printf 'XXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXXX' ; exec cat > /dev/null",
                        framed.len()
                    ),
                ],
                envs: vec![],
                handshake: hs.clone(),
                respawn_env: None,
            },
            1,
        )
        .expect("spawn garbage pool");
        let err = pool.request(b"doomed".to_vec()).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("magic") || text.contains("header") || text.contains("frame"),
            "error names the malformed frame: {text}"
        );
        assert!(pool.respawns() >= 1, "the pool did try a fresh worker");
    }

    #[test]
    fn missing_binary_is_a_spawn_error() {
        let err = Pool::spawn(
            PoolOptions {
                program: "/nonexistent/dejavuzz-simd".into(),
                args: vec![],
                envs: vec![],
                handshake: vec![],
                respawn_env: None,
            },
            1,
        )
        .unwrap_err();
        assert!(
            matches!(err, ProcError::Spawn { ref program, .. }
                if program.contains("/nonexistent/dejavuzz-simd")),
            "{err:?}"
        );
    }

    #[test]
    fn dropped_pool_rejects_pending_and_later_requests() {
        let (pool, _) = cat_pool(1);
        drop(pool);
        // Nothing to assert beyond "drop returned": the workers were
        // killed and reaped. A second pool proves the machinery is
        // reusable in-process.
        let (pool2, _) = cat_pool(1);
        assert_eq!(pool2.request(b"x".to_vec()).unwrap(), b"x".to_vec());
    }

    #[test]
    fn frame_helpers_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), Some(b"payload".to_vec()));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// A valid header declaring a `u64::MAX`-byte body is refused before
    /// any body byte is read or allocated.
    #[test]
    fn hostile_frame_length_is_a_bad_frame() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        buf[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        let err = read_frame(&mut std::io::Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, ProcError::BadFrame { .. }), "{err:?}");
    }
}
