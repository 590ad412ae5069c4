//! The RoB IO trace log and transient-window detection.
//!
//! Phase 1.2 "analyzes the RoB IO events from the trace log. If the number
//! of enqueued instructions within the transient window exceeds the number
//! of its committed instructions, it indicates that the transient window
//! has been successfully triggered."

/// Every cause a [`RobEvent::Squash`] or [`RobEvent::Trap`] can name (the
/// [`crate::core::RedirectKind`] then [`dejavuzz_isa::Exception`]
/// mnemonics): wire formats send a cause as its position here.
pub const CAUSES: [&str; 14] = [
    "branch-mispredict",
    "jump-mispredict",
    "return-mispredict",
    "mem-disambiguation",
    "fetch-access-fault",
    "load-access-fault",
    "store-access-fault",
    "load-page-fault",
    "store-page-fault",
    "load-misalign",
    "store-misalign",
    "illegal-instruction",
    "ecall",
    "ebreak",
];

/// One RoB IO event. `skew_b` snapshots the plane-2 clock skew at the
/// event, letting analyses derive per-variant timings from one structural
/// trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RobEvent {
    /// An instruction entered the RoB.
    Enq {
        /// Structural cycle.
        cycle: u64,
        /// Plane-2 clock skew at the event.
        skew_b: i64,
        /// RoB sequence number (monotonic per run).
        idx: usize,
        /// Fetch PC (plane 1).
        pc: u64,
        /// Swap-packet index the instruction belongs to.
        packet: usize,
    },
    /// An instruction committed.
    Commit {
        /// Structural cycle.
        cycle: u64,
        /// Plane-2 clock skew at the event.
        skew_b: i64,
        /// RoB sequence number.
        idx: usize,
    },
    /// Every in-flight instruction younger than `after_idx` was squashed.
    Squash {
        /// Structural cycle.
        cycle: u64,
        /// Plane-2 clock skew at the event.
        skew_b: i64,
        /// The youngest surviving sequence number.
        after_idx: usize,
        /// Number of entries killed.
        killed: usize,
        /// What caused the squash: a redirect mnemonic
        /// (`branch-mispredict`, `jump-mispredict`, `return-mispredict`,
        /// `mem-disambiguation`) or a trap cause mnemonic.
        cause: &'static str,
    },
    /// A committed trap handed control to the swap runtime.
    Trap {
        /// Structural cycle.
        cycle: u64,
        /// Plane-2 clock skew at the event.
        skew_b: i64,
        /// Mnemonic of the trap cause.
        cause: &'static str,
    },
}

impl RobEvent {
    /// The structural cycle of the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            RobEvent::Enq { cycle, .. }
            | RobEvent::Commit { cycle, .. }
            | RobEvent::Squash { cycle, .. }
            | RobEvent::Trap { cycle, .. } => cycle,
        }
    }
}

/// A detected transient window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowInfo {
    /// Swap-packet index the window occurred in.
    pub packet: usize,
    /// Cause of the squash that closed the window.
    pub cause: &'static str,
    /// Structural cycle of the first squashed instruction's enqueue.
    pub start_cycle: u64,
    /// Structural cycle of the squash.
    pub end_cycle: u64,
    /// Plane-1 window duration in cycles.
    pub cycles_a: u64,
    /// Plane-2 window duration in cycles.
    pub cycles_b: u64,
    /// Instructions enqueued inside the window.
    pub enqueued: usize,
    /// Instructions from the window range that committed.
    pub committed: usize,
    /// Instructions squashed.
    pub squashed: usize,
}

impl WindowInfo {
    /// The paper's trigger criterion: more enqueued than committed.
    pub fn triggered(&self) -> bool {
        self.enqueued > self.committed
    }

    /// Whether the window violates constant-time execution between the
    /// variants (Phase 3.1).
    pub fn timing_diverged(&self) -> bool {
        self.cycles_a != self.cycles_b
    }
}

/// The full RoB IO trace of one simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<RobEvent>,
}

impl Trace {
    /// An empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace with room for as many events as this one holds: a
    /// core handing this trace back starts its next one at about the size
    /// it will need instead of regrowing it from empty.
    pub fn empty_like(&self) -> Self {
        Trace {
            events: Vec::with_capacity(self.events.len()),
        }
    }

    /// Forgets every event, keeping the buffer.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Appends an event.
    pub fn push(&mut self, e: RobEvent) {
        self.events.push(e);
    }

    /// All events in order.
    pub fn events(&self) -> &[RobEvent] {
        &self.events
    }

    /// Number of committed instructions.
    pub fn committed(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RobEvent::Commit { .. }))
            .count()
    }

    /// Number of enqueued instructions.
    pub fn enqueued(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RobEvent::Enq { .. }))
            .count()
    }

    /// Total squashed instructions.
    pub fn squashed(&self) -> usize {
        self.events
            .iter()
            .map(|e| {
                if let RobEvent::Squash { killed, .. } = e {
                    *killed
                } else {
                    0
                }
            })
            .sum()
    }

    /// Detects the transient window inside `packet`, if any: the span from
    /// the first enqueue that later got squashed to the squash event.
    pub fn window_in_packet(&self, packet: usize) -> Option<WindowInfo> {
        self.window_in_packet_caused(packet, None)
    }

    /// Like [`Trace::window_in_packet`], but only accepting squashes whose
    /// cause matches `cause` — Phase 1 uses this to reject windows opened
    /// by the wrong mechanism (e.g. the sequence-terminating `ecall`'s trap
    /// masquerading as a misprediction window, the invalid-test-case class
    /// the paper calls out in §6.3).
    pub fn window_in_packet_caused(
        &self,
        packet: usize,
        cause: Option<&str>,
    ) -> Option<WindowInfo> {
        // Find the first squash whose killed range intersects the packet.
        for (i, e) in self.events.iter().enumerate() {
            let RobEvent::Squash {
                cycle,
                skew_b,
                after_idx,
                killed,
                cause: c,
            } = *e
            else {
                continue;
            };
            if cause.is_some_and(|want| want != c) {
                continue;
            }
            if killed == 0 {
                continue;
            }
            // Collect enqueue events of the killed range [after_idx+1, ...]
            let mut enqueued = 0;
            let mut committed = 0;
            let mut start_cycle = cycle;
            let mut start_skew = skew_b;
            let mut in_packet = false;
            for prev in &self.events[..i] {
                match *prev {
                    RobEvent::Enq {
                        cycle: c,
                        skew_b: s,
                        idx,
                        pc: _,
                        packet: p,
                    } if idx > after_idx => {
                        if enqueued == 0 {
                            start_cycle = c;
                            start_skew = s;
                        }
                        enqueued += 1;
                        if p == packet {
                            in_packet = true;
                        }
                    }
                    RobEvent::Commit { idx, .. } if idx > after_idx => committed += 1,
                    _ => {}
                }
            }
            if !in_packet {
                continue;
            }
            let cycles_a = cycle.saturating_sub(start_cycle);
            let cycles_b = (cycle as i64 + skew_b - start_cycle as i64 - start_skew).max(0) as u64;
            return Some(WindowInfo {
                packet,
                cause: c,
                start_cycle,
                end_cycle: cycle,
                cycles_a,
                cycles_b,
                enqueued,
                committed,
                squashed: killed,
            });
        }
        None
    }

    /// Detects the *last* transient window anywhere in the trace.
    pub fn last_window(&self) -> Option<WindowInfo> {
        let max_packet = self.events.iter().fold(0, |m, e| {
            if let RobEvent::Enq { packet, .. } = e {
                m.max(*packet)
            } else {
                m
            }
        });
        (0..=max_packet)
            .rev()
            .find_map(|p| self.window_in_packet(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::RedirectKind;
    use dejavuzz_isa::Exception;

    #[test]
    fn causes_name_every_redirect_and_trap() {
        let redirects = [
            RedirectKind::Branch,
            RedirectKind::IndirectJump,
            RedirectKind::Return,
            RedirectKind::Disambiguation,
        ]
        .map(RedirectKind::mnemonic);
        let traps = [
            Exception::FetchAccessFault(0),
            Exception::LoadAccessFault(0),
            Exception::StoreAccessFault(0),
            Exception::LoadPageFault(0),
            Exception::StorePageFault(0),
            Exception::LoadMisaligned(0),
            Exception::StoreMisaligned(0),
            Exception::IllegalInstruction(0),
            Exception::Ecall,
            Exception::Ebreak,
        ]
        .map(Exception::mnemonic);
        assert_eq!(CAUSES[..4], redirects);
        assert_eq!(CAUSES[4..], traps);
    }

    fn enq(cycle: u64, idx: usize, packet: usize) -> RobEvent {
        RobEvent::Enq {
            cycle,
            skew_b: 0,
            idx,
            pc: 0x1000 + 4 * idx as u64,
            packet,
        }
    }

    #[test]
    fn window_detection_from_squash() {
        let mut t = Trace::new();
        t.push(enq(1, 0, 1));
        t.push(RobEvent::Commit {
            cycle: 3,
            skew_b: 0,
            idx: 0,
        });
        t.push(enq(4, 1, 1)); // the trigger
        t.push(enq(5, 2, 1)); // transient
        t.push(enq(6, 3, 1)); // transient
        t.push(RobEvent::Squash {
            cycle: 10,
            skew_b: 4,
            after_idx: 1,
            killed: 2,
            cause: "branch-mispredict",
        });
        let w = t.window_in_packet(1).expect("window detected");
        assert!(
            w.triggered(),
            "enqueued {} > committed {}",
            w.enqueued,
            w.committed
        );
        assert_eq!(w.enqueued, 2);
        assert_eq!(w.committed, 0);
        assert_eq!(w.squashed, 2);
        assert_eq!(w.start_cycle, 5);
        assert_eq!(w.end_cycle, 10);
        assert_eq!(w.cycles_a, 5);
        assert_eq!(w.cycles_b, 9, "plane-2 skew of 4 extends its window");
        assert!(w.timing_diverged());
    }

    #[test]
    fn no_squash_means_no_window() {
        let mut t = Trace::new();
        t.push(enq(1, 0, 0));
        t.push(RobEvent::Commit {
            cycle: 2,
            skew_b: 0,
            idx: 0,
        });
        assert!(t.window_in_packet(0).is_none());
        assert!(t.last_window().is_none());
    }

    #[test]
    fn empty_squash_is_ignored() {
        let mut t = Trace::new();
        t.push(enq(1, 0, 0));
        t.push(RobEvent::Squash {
            cycle: 2,
            skew_b: 0,
            after_idx: 0,
            killed: 0,
            cause: "trap",
        });
        assert!(t.window_in_packet(0).is_none());
    }

    #[test]
    fn counting_helpers() {
        let mut t = Trace::new();
        t.push(enq(1, 0, 0));
        t.push(enq(2, 1, 0));
        t.push(RobEvent::Commit {
            cycle: 3,
            skew_b: 0,
            idx: 0,
        });
        t.push(RobEvent::Squash {
            cycle: 4,
            skew_b: 0,
            after_idx: 0,
            killed: 1,
            cause: "trap",
        });
        t.push(RobEvent::Trap {
            cycle: 5,
            skew_b: 0,
            cause: "ecall",
        });
        assert_eq!(t.enqueued(), 2);
        assert_eq!(t.committed(), 1);
        assert_eq!(t.squashed(), 1);
        assert_eq!(t.events().len(), 5);
        assert_eq!(t.events()[4].cycle(), 5);
    }

    #[test]
    fn cause_filter_rejects_wrong_mechanism() {
        let mut t = Trace::new();
        t.push(enq(1, 0, 0));
        t.push(enq(2, 1, 0));
        t.push(RobEvent::Squash {
            cycle: 3,
            skew_b: 0,
            after_idx: 0,
            killed: 1,
            cause: "ecall",
        });
        assert!(t
            .window_in_packet_caused(0, Some("branch-mispredict"))
            .is_none());
        assert!(t.window_in_packet_caused(0, Some("ecall")).is_some());
        assert_eq!(t.window_in_packet(0).unwrap().cause, "ecall");
    }

    #[test]
    fn last_window_prefers_latest_packet() {
        let mut t = Trace::new();
        // Packet 0 window.
        t.push(enq(1, 0, 0));
        t.push(enq(2, 1, 0));
        t.push(RobEvent::Squash {
            cycle: 3,
            skew_b: 0,
            after_idx: 0,
            killed: 1,
            cause: "branch-mispredict",
        });
        // Packet 2 window.
        t.push(enq(10, 2, 2));
        t.push(enq(11, 3, 2));
        t.push(RobEvent::Squash {
            cycle: 12,
            skew_b: 0,
            after_idx: 2,
            killed: 1,
            cause: "trap",
        });
        let w = t.last_window().expect("window");
        assert_eq!(w.packet, 2);
    }
}
