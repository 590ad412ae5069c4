//! Shard gossip: the live cross-campaign exchange of coverage deltas
//! and favoured corpus entries.
//!
//! A fleet of shards used to meet only at the end of a campaign
//! (`dejavuzz-merge` over snapshots), so every shard re-discovered the
//! same coverage from scratch. Gossip makes the fleet *live*: at a
//! configurable round interval
//! ([`crate::builder::CampaignBuilder::gossip`]), the orchestrator
//! exports a [`GossipFrame`] — the points its union gained since its
//! last export (O(delta), via the [`dejavuzz_ift::CoverageLog`]
//! watermark API) plus its highest-energy corpus entries — and imports
//! whatever frames its peers shipped since the previous boundary.
//!
//! Three contracts keep a gossiping campaign as analysable as a solo
//! one:
//!
//! * **Imports happen only at round boundaries** — the one seam between
//!   committing a round and cloning the union into the next round's
//!   view, so imported points reach the workers with that view and
//!   determinism *within* the shard is untouched (peer timing decides
//!   only *which* boundary a frame lands at).
//! * **Every import is an explicit observer event**
//!   ([`crate::observer::PeerDeltaImported`],
//!   [`crate::observer::SeedImported`]) — the telemetry stream accounts
//!   for every point of coverage that did not come from a committed slot.
//! * **Zero peers is byte-identical to no gossip** — a link that never
//!   delivers frames leaves stdout, telemetry and snapshots untouched
//!   (`tests/fleet.rs`; for an ignored `--gossip-every`, the CLI test
//!   `solo_gossip_every_warns_and_leaves_stdout_untouched`).
//!
//! Transport is pluggable through [`GossipLink`]: `dejavuzz-fleet`
//! provides an in-process broadcast bus for `dejavuzz-serve`'s co-owned
//! campaigns, and [`UnixGossipLink`] here dials a hub socket for
//! cross-process fleets (`dejavuzz-fuzz --peers unix:PATH`). The wire
//! format rides the `dejavuzz-persist` envelope — framed, checksummed,
//! versioned ([`dejavuzz_persist::GOSSIP_MAGIC`]) — so a truncated or
//! corrupted frame is a structured decode error, never a misparse, and a
//! header declaring more than [`dejavuzz_persist::MAX_FRAME`] bytes
//! fails the link instead of growing its buffer.

use std::sync::{Arc, Mutex};

use dejavuzz_ift::CoveragePoint;
use dejavuzz_persist::{
    frame, DecodeError, Decoder, Encoder, Persist, GOSSIP_MAGIC, GOSSIP_VERSION,
};

use crate::corpus::CorpusEntry;

/// One shard's gossip export: a coverage delta plus favoured corpus
/// entries, stamped with the exporter's identity and progress.
#[derive(Clone, Debug, PartialEq)]
pub struct GossipFrame {
    /// Exporting shard's id.
    pub shard: u32,
    /// Iterations the exporter had committed at export time.
    pub iterations: usize,
    /// Points the exporter's union gained since its previous export, in
    /// discovery order.
    pub delta: Vec<CoveragePoint>,
    /// The exporter's highest-energy corpus entries (capped at
    /// [`FAVOURED_PER_FRAME`]).
    pub favoured: Vec<CorpusEntry>,
}

/// Corpus entries shipped per frame: enough to pollinate a peer's
/// scheduling without letting one shard's corpus flood another's.
pub const FAVOURED_PER_FRAME: usize = 4;

impl Persist for GossipFrame {
    fn encode(&self, enc: &mut Encoder) {
        enc.u32(self.shard);
        enc.usize(self.iterations);
        self.delta.encode(enc);
        self.favoured.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(GossipFrame {
            shard: dec.u32()?,
            iterations: dec.usize()?,
            delta: Vec::decode(dec)?,
            favoured: Vec::decode(dec)?,
        })
    }
}

impl GossipFrame {
    /// Seals the frame into its wire envelope
    /// (`[GOSSIP_MAGIC][version][len][checksum][payload]`).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        frame::seal(GOSSIP_MAGIC, GOSSIP_VERSION, &enc.into_bytes())
    }

    /// Validates and decodes one complete wire frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        dejavuzz_persist::from_bytes(frame::open(GOSSIP_MAGIC, GOSSIP_VERSION, bytes)?)
    }
}

/// A shard's connection to its peers. The orchestrator calls
/// [`GossipLink::publish`] then [`GossipLink::drain`] at each gossip
/// boundary; everything between — fan-out, buffering, sockets — is the
/// link's business. Implementations must never block the commit path
/// indefinitely: publish-and-forget, drain-what-arrived.
pub trait GossipLink: Send {
    /// Ships this shard's frame towards its peers.
    fn publish(&mut self, frame: &GossipFrame);

    /// Frames received from peers since the last drain, in arrival order.
    fn drain(&mut self) -> Vec<GossipFrame>;
}

/// A shareable link handle: the orchestrator is cloneable and runs with
/// `&self`, so the link travels behind `Arc<Mutex<..>>`.
pub type SharedGossipLink = Arc<Mutex<dyn GossipLink>>;

/// Wraps a link for [`crate::builder::CampaignBuilder::gossip`].
pub fn shared_link(link: impl GossipLink + 'static) -> SharedGossipLink {
    Arc::new(Mutex::new(link))
}

/// A link with no peers: publishes into the void, never delivers. The
/// zero-peer reference point — a campaign gossiping through a `NullLink`
/// is byte-identical to one not gossiping at all (asserted by
/// `tests/fleet.rs`).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullLink;

impl GossipLink for NullLink {
    fn publish(&mut self, _frame: &GossipFrame) {}

    fn drain(&mut self) -> Vec<GossipFrame> {
        Vec::new()
    }
}

/// Fans one shard out to several links: publishes to all, drains all (in
/// link order). `dejavuzz-fuzz --peers a,b` builds one of these over two
/// [`UnixGossipLink`]s.
#[derive(Default)]
pub struct MultiLink {
    links: Vec<Box<dyn GossipLink>>,
}

impl MultiLink {
    /// A fan-out over `links`.
    pub fn new(links: Vec<Box<dyn GossipLink>>) -> Self {
        MultiLink { links }
    }
}

impl GossipLink for MultiLink {
    fn publish(&mut self, frame: &GossipFrame) {
        for link in &mut self.links {
            link.publish(frame);
        }
    }

    fn drain(&mut self) -> Vec<GossipFrame> {
        self.links.iter_mut().flat_map(|l| l.drain()).collect()
    }
}

/// A gossip link over a Unix stream socket to a hub (`dejavuzz-serve`):
/// publish writes wire frames, drain reads whatever complete frames have
/// arrived without blocking. See [`unix::UnixGossipLink`].
#[cfg(unix)]
pub use unix::UnixGossipLink;

#[cfg(unix)]
mod unix {
    use std::io::{ErrorKind, Read, Write};
    use std::os::unix::net::UnixStream;
    use std::path::Path;

    use dejavuzz_persist::MAX_FRAME;

    use super::{GossipFrame, GossipLink};

    /// The client side of a cross-process gossip mesh: dials a
    /// `dejavuzz-serve` hub socket, announces itself with a
    /// `gossip <shard>` line, then exchanges wire frames — writes are
    /// blocking (frames are small), reads are drained non-blockingly at
    /// each boundary with partial frames buffered across drains.
    ///
    /// A broken hub never kills the campaign: on the first socket error,
    /// undecodable frame or frame header declaring more than
    /// [`dejavuzz_persist::MAX_FRAME`] bytes, the link warns on stderr
    /// and goes silent, degrading the shard to a solo run.
    pub struct UnixGossipLink {
        stream: UnixStream,
        /// Bytes read but not yet forming a complete frame.
        buf: Vec<u8>,
        /// Set on the first socket error; the link is inert afterwards.
        dead: bool,
    }

    impl UnixGossipLink {
        /// Connects to a hub socket and joins its mesh as `shard`.
        pub fn connect(path: &Path, shard: u32) -> std::io::Result<Self> {
            let mut stream = UnixStream::connect(path)?;
            stream.write_all(format!("gossip {shard}\n").as_bytes())?;
            Ok(UnixGossipLink {
                stream,
                buf: Vec::new(),
                dead: false,
            })
        }

        /// Wraps an already-connected stream (hub side, tests).
        pub fn from_stream(stream: UnixStream) -> Self {
            UnixGossipLink {
                stream,
                buf: Vec::new(),
                dead: false,
            }
        }

        /// True once the socket failed: the link is permanently inert
        /// and a relay loop holding it should drop the peer.
        pub fn is_dead(&self) -> bool {
            self.dead
        }

        fn fail(&mut self, what: &str, e: &dyn std::fmt::Display) {
            if !self.dead {
                self.dead = true;
                eprintln!("dejavuzz: gossip link {what} failed ({e}); continuing solo");
            }
        }

        /// Moves every complete frame out of the reassembly buffer into
        /// `frames`. Fails the link on an undecodable frame, and on a
        /// header declaring more than [`MAX_FRAME`] bytes as soon as the
        /// header is complete: waiting for such a body would buffer
        /// without bound.
        fn complete_frames(&mut self, frames: &mut Vec<GossipFrame>) {
            let mut consumed = 0;
            while let Some(len) = dejavuzz_persist::framed_len(&self.buf[consumed..]) {
                if len > MAX_FRAME {
                    self.fail(
                        "read",
                        &format_args!("frame of {len} bytes exceeds the {MAX_FRAME}-byte limit"),
                    );
                    self.buf.clear();
                    return;
                }
                if self.buf.len() - consumed < len {
                    break;
                }
                match GossipFrame::from_bytes(&self.buf[consumed..consumed + len]) {
                    Ok(f) => frames.push(f),
                    Err(e) => {
                        self.fail("decode", &e);
                        self.buf.clear();
                        return;
                    }
                }
                consumed += len;
            }
            self.buf.drain(..consumed);
        }
    }

    impl GossipLink for UnixGossipLink {
        fn publish(&mut self, frame: &GossipFrame) {
            if self.dead {
                return;
            }
            if let Err(e) = self.stream.write_all(&frame.to_bytes()) {
                self.fail("write", &e);
            }
        }

        fn drain(&mut self) -> Vec<GossipFrame> {
            if self.dead {
                return Vec::new();
            }
            if let Err(e) = self.stream.set_nonblocking(true) {
                self.fail("drain", &e);
                return Vec::new();
            }
            let mut frames = Vec::new();
            let mut chunk = [0u8; 4096];
            while !self.dead {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.fail("read", &"peer closed the socket");
                        break;
                    }
                    Ok(n) => {
                        // Split as bytes arrive, so an oversized header
                        // is refused before its body is buffered.
                        self.buf.extend_from_slice(&chunk[..n]);
                        self.complete_frames(&mut frames);
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => {
                        self.fail("read", &e);
                        break;
                    }
                }
            }
            let _ = self.stream.set_nonblocking(false);
            frames
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{Seed, WindowType};
    use dejavuzz_ift::Module;

    fn pt(module: Module, index: u32) -> CoveragePoint {
        CoveragePoint { module, index }
    }

    fn frame_with(shard: u32, n: usize) -> GossipFrame {
        GossipFrame {
            shard,
            iterations: 10 * n,
            delta: (1..=n).map(|i| pt(Module::Rob, i as u32)).collect(),
            favoured: vec![CorpusEntry {
                seed: Seed::new(WindowType::ALL[0], 7),
                gain: n,
                schedules: 0,
            }],
        }
    }

    #[test]
    fn frame_wire_round_trip() {
        let f = frame_with(3, 5);
        let bytes = f.to_bytes();
        assert_eq!(GossipFrame::from_bytes(&bytes).unwrap(), f);
    }

    #[test]
    fn corrupted_frames_fail_structurally() {
        let mut bytes = frame_with(1, 3).to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(GossipFrame::from_bytes(&bytes).is_err());
        assert!(GossipFrame::from_bytes(&bytes[..10]).is_err());
        // A snapshot-magic frame is a BadMagic, not a misparse.
        let other = dejavuzz_persist::seal(*b"DJVZSNAP", 1, b"x");
        assert!(matches!(
            GossipFrame::from_bytes(&other),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn null_link_never_delivers() {
        let mut link = NullLink;
        link.publish(&frame_with(0, 2));
        assert!(link.drain().is_empty());
    }

    #[test]
    fn multi_link_fans_out_and_merges() {
        use std::collections::VecDeque;
        use std::sync::{Arc, Mutex};

        /// A loopback link: publishes queue straight into its own inbox.
        struct Loop(Arc<Mutex<VecDeque<GossipFrame>>>);
        impl GossipLink for Loop {
            fn publish(&mut self, frame: &GossipFrame) {
                self.0.lock().unwrap().push_back(frame.clone());
            }
            fn drain(&mut self) -> Vec<GossipFrame> {
                self.0.lock().unwrap().drain(..).collect()
            }
        }

        let (a, b) = (
            Arc::new(Mutex::new(VecDeque::new())),
            Arc::new(Mutex::new(VecDeque::new())),
        );
        let mut multi = MultiLink::new(vec![
            Box::new(Loop(Arc::clone(&a))),
            Box::new(Loop(Arc::clone(&b))),
        ]);
        multi.publish(&frame_with(1, 1));
        assert_eq!(a.lock().unwrap().len(), 1);
        assert_eq!(b.lock().unwrap().len(), 1);
        assert_eq!(multi.drain().len(), 2, "drains every constituent link");
        assert!(multi.drain().is_empty());
    }

    #[cfg(unix)]
    #[test]
    fn unix_link_exchanges_frames_over_a_socketpair() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;

        let (left, mut raw) = UnixStream::pair().unwrap();
        let mut a = UnixGossipLink::from_stream(left);

        assert!(a.drain().is_empty(), "nothing sent yet");

        // Two back-to-back frames on the stream split apart cleanly.
        raw.write_all(&frame_with(2, 3).to_bytes()).unwrap();
        raw.write_all(&frame_with(2, 4).to_bytes()).unwrap();
        let got = a.drain();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0], frame_with(2, 3));
        assert_eq!(got[1], frame_with(2, 4));

        // A frame split mid-envelope reassembles across drains.
        let bytes = frame_with(9, 2).to_bytes();
        raw.write_all(&bytes[..10]).unwrap();
        assert!(a.drain().is_empty(), "half a frame decodes nothing");
        raw.write_all(&bytes[10..]).unwrap();
        let got = a.drain();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], frame_with(9, 2));

        // And the link's own publishes are plain wire frames.
        let (other, mut peer) = UnixStream::pair().unwrap();
        let mut b = UnixGossipLink::from_stream(other);
        b.publish(&frame_with(5, 1));
        use std::io::Read;
        peer.set_nonblocking(true).unwrap();
        let mut received = Vec::new();
        let mut chunk = [0u8; 1024];
        while let Ok(n) = peer.read(&mut chunk) {
            if n == 0 {
                break;
            }
            received.extend_from_slice(&chunk[..n]);
        }
        assert_eq!(
            GossipFrame::from_bytes(&received).unwrap(),
            frame_with(5, 1)
        );
    }

    /// A header declaring a 2^40-byte frame kills the link at the drain
    /// that completes the header, instead of buffering towards it.
    #[cfg(unix)]
    #[test]
    fn unix_link_dies_on_an_oversized_frame_header() {
        use std::io::Write;
        use std::os::unix::net::UnixStream;

        let (left, mut raw) = UnixStream::pair().unwrap();
        let mut link = UnixGossipLink::from_stream(left);
        let mut header = frame_with(1, 1).to_bytes()[..dejavuzz_persist::HEADER_LEN].to_vec();
        header[12..20].copy_from_slice(&(1u64 << 40).to_le_bytes());
        raw.write_all(&header).unwrap();
        assert!(link.drain().is_empty(), "no frame comes out of it");
        assert!(link.is_dead());
    }
}
