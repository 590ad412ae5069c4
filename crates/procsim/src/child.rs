//! One worker process: spawn, framed request/response, kill on drop.

use std::io::{BufReader, Read, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use dejavuzz_persist::frame::{self, HEADER_LEN, MAX_FRAME};

use crate::{ProcError, PROC_MAGIC, PROC_VERSION};

/// Reads one framed payload from `r`. Returns `Ok(None)` on a clean EOF
/// *before* any header byte (the peer closed the stream between
/// requests); anything else that prevents a whole valid frame from
/// arriving is an error. This is the serve-loop half of the transport —
/// worker binaries call it on their locked stdin.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProcError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ProcError::BadFrame {
                    detail: format!("stream ended {got} byte(s) into a {HEADER_LEN}-byte header"),
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                return Err(ProcError::WorkerLost {
                    detail: format!("read error: {e}"),
                })
            }
        }
    }
    // Validate the header before trusting its length field: a garbage
    // header would otherwise make us allocate (or wait for) up to 2^64
    // bytes of "body". Magic and version mismatches here get the same
    // diagnosis `frame::open` would give on a whole frame.
    if header[..8] != PROC_MAGIC {
        return Err(ProcError::BadFrame {
            detail: format!(
                "bad magic: found {:?}, expected {:?}",
                &header[..8],
                &PROC_MAGIC[..]
            ),
        });
    }
    let version = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes"));
    if version != PROC_VERSION {
        return Err(ProcError::BadFrame {
            detail: format!("unsupported version: found {version}, expected {PROC_VERSION}"),
        });
    }
    let total = frame::framed_len(&header).expect("HEADER_LEN bytes are a full header");
    if total > MAX_FRAME {
        return Err(ProcError::BadFrame {
            detail: format!("frame of {total} bytes exceeds the {MAX_FRAME}-byte limit"),
        });
    }
    let mut buf = vec![0u8; total];
    buf[..HEADER_LEN].copy_from_slice(&header);
    if let Err(e) = r.read_exact(&mut buf[HEADER_LEN..]) {
        return Err(ProcError::BadFrame {
            detail: format!(
                "stream ended inside a frame body ({} byte(s) expected): {e}",
                total - HEADER_LEN
            ),
        });
    }
    match frame::open_with(PROC_MAGIC, PROC_VERSION, &buf, frame::fnv1a64_x4) {
        Ok(payload) => Ok(Some(payload.to_vec())),
        Err(e) => Err(ProcError::BadFrame {
            detail: e.to_string(),
        }),
    }
}

/// Seals one payload into a wire frame. The RPC stream runs the striped
/// checksum ([`frame::fnv1a64_x4`]): at thousands of frames per second
/// the byte-serial snapshot checksum is a measurable per-RPC tax.
pub fn seal_frame(payload: &[u8]) -> Vec<u8> {
    frame::seal_with(PROC_MAGIC, PROC_VERSION, payload, frame::fnv1a64_x4)
}

/// Writes one framed payload to `w` and flushes it.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProcError> {
    let framed = seal_frame(payload);
    w.write_all(&framed)
        .and_then(|()| w.flush())
        .map_err(|e| ProcError::WorkerLost {
            detail: format!("write error: {e}"),
        })
}

/// A spawned worker process with piped stdin/stdout. Stderr is
/// inherited: worker diagnostics land on the embedder's stderr, where
/// campaign chatter already goes. The child is killed (and reaped) on
/// drop, so a dropped pool never leaks processes.
#[derive(Debug)]
pub struct ChildProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ChildProc {
    /// Spawns the worker. The caller configures program, args and env on
    /// the `Command`; stdio wiring is imposed here.
    pub fn spawn(cmd: &mut Command) -> Result<Self, ProcError> {
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| ProcError::Spawn {
                program: cmd.get_program().to_string_lossy().into_owned(),
                detail: e.to_string(),
            })?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(ChildProc {
            child,
            stdin,
            stdout,
        })
    }

    /// One blocking request/response round trip. Any failure leaves the
    /// child in an unknown state — the caller must kill and respawn it
    /// (dropping this value kills it).
    pub fn request(&mut self, payload: &[u8]) -> Result<Vec<u8>, ProcError> {
        write_frame(&mut self.stdin, payload).map_err(|e| self.attribute_exit(e))?;
        match read_frame(&mut self.stdout) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(self.attribute_exit(ProcError::WorkerLost {
                detail: "worker closed its stdout before replying".into(),
            })),
            Err(e) => Err(self.attribute_exit(e)),
        }
    }

    /// Folds the child's exit status (if it already died) into a
    /// transport error, so "pipe closed" failures report *why* — the
    /// difference between a segfault and a clean crash-injection exit.
    fn attribute_exit(&mut self, e: ProcError) -> ProcError {
        match self.child.try_wait() {
            Ok(Some(status)) => match e {
                // A malformed frame from a live worker stays a frame
                // error; once the worker is known dead, the death is the
                // story.
                ProcError::WorkerLost { detail } | ProcError::BadFrame { detail } => {
                    ProcError::WorkerLost {
                        detail: format!("worker exited ({status}): {detail}"),
                    }
                }
                other => other,
            },
            _ => e,
        }
    }
}

impl Drop for ChildProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
