//! The in-process gossip bus: broadcast fan-out for campaigns that live
//! in one `dejavuzz-serve` process.
//!
//! A [`Bus`] is a set of subscriber inboxes behind one mutex. Each
//! campaign (and each socket relay bridging an external peer) takes a
//! [`BusLink`]; publishing clones the frame into every *other*
//! subscriber's inbox, draining empties the subscriber's own. The lock
//! is held only for the queue push/takes — publishes never wait on
//! peers, so the executor's commit path stays O(delta) per boundary.
//!
//! Frames never expire on the bus: a shard that gossips rarely (or
//! joined late) still receives everything published since its link was
//! created, in publish order. Dropping a link unsubscribes it, so a
//! finished campaign does not accumulate frames forever.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dejavuzz::gossip::{shared_link, GossipFrame, GossipLink, SharedGossipLink};

/// One subscriber's pending frames.
struct Inbox {
    id: usize,
    queue: VecDeque<GossipFrame>,
}

#[derive(Default)]
struct BusState {
    next_id: usize,
    inboxes: Vec<Inbox>,
}

/// An in-process gossip broadcast domain. Cheap to clone (all clones
/// share the subscriber set); see the module docs.
#[derive(Clone, Default)]
pub struct Bus {
    state: Arc<Mutex<BusState>>,
}

impl Bus {
    /// An empty bus with no subscribers.
    pub fn new() -> Self {
        Bus::default()
    }

    /// Subscribes a new link. Frames published by *other* links from
    /// this point on accumulate in its inbox until drained; the link
    /// unsubscribes when dropped.
    pub fn link(&self) -> BusLink {
        let mut state = self.state.lock().expect("gossip bus poisoned");
        let id = state.next_id;
        state.next_id += 1;
        state.inboxes.push(Inbox {
            id,
            queue: VecDeque::new(),
        });
        BusLink {
            state: Arc::clone(&self.state),
            id,
        }
    }

    /// Current subscriber count (diagnostics; the `dejavuzz-serve`
    /// status report includes it).
    pub fn subscribers(&self) -> usize {
        self.state
            .lock()
            .expect("gossip bus poisoned")
            .inboxes
            .len()
    }
}

/// One subscriber's handle on a [`Bus`]. Implements
/// [`GossipLink`], so it plugs straight into
/// [`dejavuzz::builder::CampaignBuilder::gossip`] (via
/// [`dejavuzz::gossip::shared_link`]).
pub struct BusLink {
    state: Arc<Mutex<BusState>>,
    id: usize,
}

impl GossipLink for BusLink {
    fn publish(&mut self, frame: &GossipFrame) {
        let mut state = self.state.lock().expect("gossip bus poisoned");
        for inbox in &mut state.inboxes {
            if inbox.id != self.id {
                inbox.queue.push_back(frame.clone());
            }
        }
    }

    fn drain(&mut self) -> Vec<GossipFrame> {
        let mut state = self.state.lock().expect("gossip bus poisoned");
        match state.inboxes.iter_mut().find(|i| i.id == self.id) {
            Some(inbox) => inbox.queue.drain(..).collect(),
            None => Vec::new(),
        }
    }
}

impl Drop for BusLink {
    fn drop(&mut self) {
        if let Ok(mut state) = self.state.lock() {
            state.inboxes.retain(|i| i.id != self.id);
        }
    }
}

/// Wires an `n`-shard in-process fleet in one call: one [`Bus`], one
/// [`BusLink`] per shard, each already wrapped for
/// [`dejavuzz::builder::CampaignBuilder::gossip`].
pub fn mesh(n: usize) -> Vec<SharedGossipLink> {
    let bus = Bus::new();
    (0..n).map(|_| shared_link(bus.link())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dejavuzz::corpus::CorpusEntry;
    use dejavuzz::gen::{Seed, WindowType};
    use dejavuzz_ift::{CoveragePoint, Module};

    fn frame(shard: u32, n: usize) -> GossipFrame {
        GossipFrame {
            shard,
            iterations: n,
            delta: (0..n)
                .map(|i| CoveragePoint {
                    module: Module::Top,
                    index: i as u32 + 1,
                })
                .collect(),
            favoured: vec![CorpusEntry {
                seed: Seed::new(WindowType::ALL[0], shard as u64),
                gain: n,
                schedules: 0,
            }],
        }
    }

    #[test]
    fn publishes_fan_out_to_every_other_link() {
        let bus = Bus::new();
        let (mut a, mut b, mut c) = (bus.link(), bus.link(), bus.link());
        a.publish(&frame(0, 1));
        assert!(a.drain().is_empty(), "a publisher never hears itself");
        assert_eq!(b.drain(), vec![frame(0, 1)]);
        assert_eq!(c.drain(), vec![frame(0, 1)]);
        assert!(b.drain().is_empty(), "drains consume the inbox");
    }

    #[test]
    fn frames_queue_in_publish_order_until_drained() {
        let bus = Bus::new();
        let (mut a, mut b) = (bus.link(), bus.link());
        a.publish(&frame(0, 1));
        a.publish(&frame(0, 2));
        assert_eq!(b.drain(), vec![frame(0, 1), frame(0, 2)]);
    }

    #[test]
    fn dropped_links_unsubscribe() {
        let bus = Bus::new();
        let mut a = bus.link();
        let b = bus.link();
        assert_eq!(bus.subscribers(), 2);
        drop(b);
        assert_eq!(bus.subscribers(), 1);
        // Publishing into a bus whose only other subscriber left is fine.
        a.publish(&frame(0, 3));
        let mut c = bus.link();
        assert!(
            c.drain().is_empty(),
            "a late subscriber does not see frames published before it joined"
        );
    }

    #[test]
    fn mesh_interconnects_n_shards() {
        let links = mesh(3);
        links[0].lock().unwrap().publish(&frame(0, 2));
        assert_eq!(links[1].lock().unwrap().drain(), vec![frame(0, 2)]);
        assert_eq!(links[2].lock().unwrap().drain(), vec![frame(0, 2)]);
        assert!(links[0].lock().unwrap().drain().is_empty());
    }
}
