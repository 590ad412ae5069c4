//! Async observer transport: campaign events off the commit path.
//!
//! [`dejavuzz::observer::CampaignObserver`] implementations run inline
//! at the executor's commit points — cheap for counters, wrong for
//! anything that might block (aggregation under a fleet-wide lock, a
//! socket write, a UI). [`ChannelObserver`] decouples them: it converts
//! each borrowed event into an owned [`CampaignEvent`] and sends it down
//! a *bounded* channel, so the consumer runs on its own thread and the
//! only way the commit path stalls is a consumer that is persistently
//! slower than the campaign (backpressure, never unbounded memory).
//!
//! [`SocketObserver`] is the cross-process form: the same channel, with
//! a built-in writer thread serialising every event as one JSON line —
//! byte-identical to [`dejavuzz::observer::JsonLinesObserver`]'s output
//! for the same event (asserted by the tests below) — over a Unix
//! stream.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, OnceLock};

pub use dejavuzz::observer::CampaignEvent;
use dejavuzz::observer::EventSink;

/// Forwards every campaign event, owned, down a bounded channel. Create
/// with [`ChannelObserver::channel`]; the receiving side drains on its
/// own thread. A full channel blocks the commit path (bounded
/// backpressure — events are never dropped); a dropped receiver makes
/// every further send a silent no-op so a dead consumer cannot wedge
/// the campaign.
pub struct ChannelObserver {
    tx: SyncSender<CampaignEvent>,
}

impl ChannelObserver {
    /// An observer/receiver pair over a channel buffering at most
    /// `capacity` in-flight events.
    pub fn channel(capacity: usize) -> (Self, Receiver<CampaignEvent>) {
        let (tx, rx) = sync_channel(capacity);
        (ChannelObserver { tx }, rx)
    }
}

/// The transport's instruments in the process-global registry:
/// `(fan-out lag histogram, events-forwarded counter)`.
fn fanout_instruments() -> (
    &'static dejavuzz_telemetry::Histogram,
    &'static dejavuzz_telemetry::Counter,
) {
    static INSTRUMENTS: OnceLock<(
        Arc<dejavuzz_telemetry::Histogram>,
        Arc<dejavuzz_telemetry::Counter>,
    )> = OnceLock::new();
    let (lag, events) = INSTRUMENTS.get_or_init(|| {
        let r = dejavuzz_telemetry::global();
        (
            r.histogram(
                "dejavuzz_observer_fanout_nanos",
                "Time the commit path spent handing one event to the observer channel \
                 (blocked sends are consumer lag), nanoseconds",
            ),
            r.counter(
                "dejavuzz_observer_events_total",
                "Campaign events forwarded through the channel observer",
            ),
        )
    });
    (lag, events)
}

impl EventSink for ChannelObserver {
    fn event(&mut self, ev: CampaignEvent) {
        // The send blocks when the bounded channel is full, i.e. when
        // the consumer lags the campaign — that blocked time *is* the
        // observer fan-out lag, so time exactly it. Off the commit
        // path's state: the instrument is write-only.
        let (lag, events) = fanout_instruments();
        let span = dejavuzz_telemetry::Timer::start(lag);
        let _ = self.tx.send(ev);
        span.finish();
        events.inc();
    }
}

/// Ships campaign events as JSON lines over a Unix stream: a
/// [`ChannelObserver`] whose receiver is a built-in writer thread. The
/// commit path never touches the socket; a broken socket warns once on
/// stderr and the writer discards further events (the campaign itself
/// is unaffected). Dropping the observer closes the channel, flushes
/// what is queued and joins the writer.
#[cfg(unix)]
pub use unix::SocketObserver;

#[cfg(unix)]
mod unix {
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::path::Path;
    use std::thread::JoinHandle;

    use dejavuzz::observer::EventSink;

    use super::{CampaignEvent, ChannelObserver};

    /// See the re-export's docs in [`super`].
    pub struct SocketObserver {
        chan: Option<ChannelObserver>,
        writer: Option<JoinHandle<()>>,
    }

    impl SocketObserver {
        /// Connects to a Unix socket and streams events to it, buffering
        /// at most `capacity` in-flight events.
        pub fn connect(path: &Path, capacity: usize) -> std::io::Result<Self> {
            Ok(SocketObserver::from_stream(
                UnixStream::connect(path)?,
                capacity,
            ))
        }

        /// Streams events over an already-connected stream (socketpairs,
        /// tests, hub-accepted connections).
        pub fn from_stream(mut stream: UnixStream, capacity: usize) -> Self {
            let (chan, rx) = ChannelObserver::channel(capacity);
            let writer = std::thread::spawn(move || {
                let mut alive = true;
                while let Ok(ev) = rx.recv() {
                    if alive && writeln!(stream, "{}", ev.to_json()).is_err() {
                        eprintln!(
                            "dejavuzz-fleet: telemetry socket write failed; \
                             discarding further events"
                        );
                        alive = false;
                    }
                }
                if alive {
                    let _ = stream.flush();
                }
            });
            SocketObserver {
                chan: Some(chan),
                writer: Some(writer),
            }
        }

        fn chan(&mut self) -> &mut ChannelObserver {
            self.chan.as_mut().expect("channel lives until drop")
        }
    }

    impl EventSink for SocketObserver {
        fn event(&mut self, ev: CampaignEvent) {
            self.chan().event(ev);
        }
    }

    impl Drop for SocketObserver {
        fn drop(&mut self) {
            // Closing the sender ends the writer's recv loop after the
            // queue drains; joining guarantees every event reached the
            // socket (or the one-time failure warning fired) before the
            // campaign thread moves on.
            drop(self.chan.take());
            if let Some(writer) = self.writer.take() {
                let _ = writer.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz::campaign::CampaignStats;
    use dejavuzz::gen::WindowType;
    use dejavuzz::observer::{
        CampaignObserver, CoverageGained, JsonLinesObserver, PeerDeltaImported, RoundStarted,
        SeedImported, SlotCommitted, SnapshotWritten,
    };
    use dejavuzz_ift::{CoveragePoint, Module};
    use std::path::PathBuf;

    fn sample_events() -> Vec<CampaignEvent> {
        vec![
            CampaignEvent::RoundStarted(RoundStarted {
                first_slot: 0,
                slots: 8,
                gain_threshold_samples: 3,
            }),
            CampaignEvent::SlotCommitted(SlotCommitted {
                slot: 0,
                stream: 1,
                window_type: WindowType::ALL[0],
                triggered: true,
                to: 5,
                eto: 2,
                sim_runs: 4,
                final_gain: 3,
                fresh_points: 2,
                total_points: 2,
                error: Some("i/o \"late\"".into()),
            }),
            CampaignEvent::CoverageGained {
                slot: 0,
                points: vec![
                    CoveragePoint {
                        module: Module::Rob,
                        index: 1,
                    },
                    CoveragePoint {
                        module: Module::Lsu,
                        index: 2,
                    },
                ],
                total_points: 2,
            },
            CampaignEvent::SnapshotWritten {
                path: PathBuf::from("/tmp/c.snap"),
                iterations: 8,
                periodic: true,
            },
            CampaignEvent::PeerDeltaImported(PeerDeltaImported {
                from_shard: 3,
                peer_iterations: 40,
                boundary: 8,
                points: 5,
                fresh_points: 4,
                total_points: 6,
            }),
            CampaignEvent::SeedImported(SeedImported {
                from_shard: 3,
                boundary: 8,
                window_type: WindowType::ALL[1],
                entropy: 77,
                gain: 9,
            }),
        ]
    }

    /// The owned serialiser and [`JsonLinesObserver`] must never drift:
    /// replaying each owned event through the observer yields exactly
    /// `to_json()` plus the newline.
    #[test]
    fn to_json_matches_json_lines_observer_byte_for_byte() {
        for ev in sample_events() {
            let mut sink = Vec::new();
            {
                let mut obs = JsonLinesObserver::new(&mut sink);
                match &ev {
                    CampaignEvent::RoundStarted(e) => obs.round_started(e),
                    CampaignEvent::SlotCommitted(e) => obs.slot_committed(e),
                    CampaignEvent::CoverageGained {
                        slot,
                        points,
                        total_points,
                    } => obs.coverage_gained(&CoverageGained {
                        slot: *slot,
                        points,
                        total_points: *total_points,
                    }),
                    CampaignEvent::BugFound(e) => obs.bug_found(e),
                    CampaignEvent::SnapshotWritten {
                        path,
                        iterations,
                        periodic,
                    } => obs.snapshot_written(&SnapshotWritten {
                        path,
                        iterations: *iterations,
                        periodic: *periodic,
                    }),
                    CampaignEvent::PeerDeltaImported(e) => obs.peer_delta_imported(e),
                    CampaignEvent::SeedImported(e) => obs.seed_imported(e),
                    CampaignEvent::CampaignFinished { .. } => unreachable!("not sampled"),
                }
            }
            assert_eq!(
                String::from_utf8(sink).unwrap(),
                format!("{}\n", ev.to_json()),
                "owned serialiser drifted for {ev:?}"
            );
        }
    }

    /// The campaign_finished JSON (flattened fields) matches the
    /// observer's rendering of a null first_bug.
    #[test]
    fn campaign_finished_json_renders_null_first_bug() {
        let ev = CampaignEvent::CampaignFinished {
            stats: CampaignStats {
                iterations: 16,
                sim_runs: 64,
                sim_cycles: 4096,
                coverage_curve: vec![21],
                ..CampaignStats::default()
            },
            coverage_points: 21,
            corpus_retained: 5,
            corpus_evicted: 1,
        };
        assert_eq!(
            ev.to_json(),
            "{\"event\":\"campaign_finished\",\"iterations\":16,\"sim_runs\":64,\
             \"sim_cycles\":4096,\"coverage_points\":21,\"corpus_retained\":5,\
             \"corpus_evicted\":1,\"failed_runs\":0,\"bugs\":0,\"first_bug\":null}"
        );
    }

    #[test]
    fn channel_observer_forwards_events_in_order() {
        let (mut obs, rx) = ChannelObserver::channel(16);
        obs.round_started(&RoundStarted {
            first_slot: 0,
            slots: 4,
            gain_threshold_samples: 0,
        });
        obs.peer_delta_imported(&PeerDeltaImported {
            from_shard: 1,
            peer_iterations: 4,
            boundary: 4,
            points: 2,
            fresh_points: 2,
            total_points: 9,
        });
        drop(obs);
        let got: Vec<CampaignEvent> = rx.iter().collect();
        assert_eq!(got.len(), 2);
        assert!(matches!(got[0], CampaignEvent::RoundStarted(_)));
        assert!(matches!(
            got[1],
            CampaignEvent::PeerDeltaImported(PeerDeltaImported { from_shard: 1, .. })
        ));
    }

    #[test]
    fn dropped_receiver_does_not_wedge_the_observer() {
        let (mut obs, rx) = ChannelObserver::channel(1);
        drop(rx);
        for _ in 0..8 {
            obs.round_started(&RoundStarted {
                first_slot: 0,
                slots: 1,
                gain_threshold_samples: 0,
            });
        }
    }

    #[cfg(unix)]
    #[test]
    fn socket_observer_writes_json_lines_over_a_socketpair() {
        use std::io::Read;
        use std::os::unix::net::UnixStream;

        let (ours, mut theirs) = UnixStream::pair().unwrap();
        let mut obs = SocketObserver::from_stream(ours, 16);
        let events = sample_events();
        obs.round_started(&RoundStarted {
            first_slot: 0,
            slots: 8,
            gain_threshold_samples: 3,
        });
        obs.peer_delta_imported(&PeerDeltaImported {
            from_shard: 3,
            peer_iterations: 40,
            boundary: 8,
            points: 5,
            fresh_points: 4,
            total_points: 6,
        });
        drop(obs); // joins the writer: everything queued is on the wire
        let mut wire = String::new();
        theirs.read_to_string(&mut wire).unwrap();
        assert_eq!(
            wire,
            format!("{}\n{}\n", events[0].to_json(), events[4].to_json())
        );
    }
}
