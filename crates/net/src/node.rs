//! One mesh node: interface queues + DCF MAC + flow controller.

use ezflow_mac::Mac;
use ezflow_phy::{FrameArena, FrameId};
use ezflow_sim::SimRng;

use crate::controller::Controller;
use crate::queue::TxQueue;

/// A wireless mesh node.
pub struct Node {
    /// Node id (index into the network's node table).
    pub id: usize,
    /// The 802.11 DCF radio.
    pub mac: Mac,
    /// The flow-control program running beside the MAC.
    pub controller: Box<dyn Controller>,
    /// Transmit queues (own-traffic and per-successor forward queues).
    pub queues: Vec<TxQueue>,
    /// This node's private random stream.
    pub rng: SimRng,
    rr: usize,
}

impl Node {
    /// Builds a node with no queues yet.
    pub fn new(id: usize, mac: Mac, controller: Box<dyn Controller>, rng: SimRng) -> Self {
        Node {
            id,
            mac,
            controller,
            queues: Vec::new(),
            rng,
            rr: 0,
        }
    }

    /// Total interface-queue occupancy, packets — the paper's "buffer
    /// occupancy" (the frame currently inside the MAC is in service, not
    /// buffered, matching how ns-2 reports IFQ length).
    pub fn occupancy(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Finds or creates the queue for (`own`, `successor`).
    pub fn queue_index(&mut self, own: bool, successor: usize, cap: usize) -> usize {
        if let Some(i) = self
            .queues
            .iter()
            .position(|q| q.own == own && q.successor == successor)
        {
            return i;
        }
        self.queues.push(TxQueue::new(own, successor, cap));
        self.queues.len() - 1
    }

    /// Enqueues `frame` into the queue for (`own`, `frame.dst`); the queue
    /// must already exist (queues are created at network build time).
    /// Returns `false` on drop-tail overflow — the caller keeps ownership
    /// of the id (and must release it) on rejection.
    pub fn enqueue(&mut self, own: bool, frame: FrameId, arena: &FrameArena) -> bool {
        let f = arena.get(frame);
        let successor = f.dst;
        let src = f.src;
        let q = self
            .queues
            .iter_mut()
            .find(|q| q.own == own && q.successor == successor)
            .unwrap_or_else(|| {
                panic!(
                    "node {src} has no {} queue toward {successor}",
                    if own { "own" } else { "forward" }
                )
            });
        q.push(frame)
    }

    /// If the own-traffic queue toward `successor` exists and is at
    /// capacity, counts the tail drop against it (exactly as a failed
    /// [`TxQueue::push`] would) and returns `true` — the engine's
    /// saturated-source fast path asks this before building a frame.
    pub fn own_queue_drop(&mut self, successor: usize) -> bool {
        match self
            .queues
            .iter_mut()
            .find(|q| q.own && q.successor == successor)
        {
            Some(q) if q.len() >= q.cap() => {
                q.drops += 1;
                true
            }
            _ => false,
        }
    }

    /// Occupancy and capacity of the queue for (`own`, `successor`) —
    /// what the flight recorder's `Enqueue` record reports. `(0, 0)` if
    /// the queue does not exist.
    pub fn queue_depth(&self, own: bool, successor: usize) -> (usize, usize) {
        self.queues
            .iter()
            .find(|q| q.own == own && q.successor == successor)
            .map(|q| (q.len(), q.cap()))
            .unwrap_or((0, 0))
    }

    /// Pops the next frame to transmit, serving nonempty queues
    /// round-robin.
    pub fn pop_round_robin(&mut self) -> Option<FrameId> {
        let n = self.queues.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if let Some(f) = self.queues[i].pop() {
                self.rr = (i + 1) % n;
                return Some(f);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedController;
    use ezflow_mac::MacConfig;
    use ezflow_phy::Frame;
    use ezflow_sim::Time;

    fn node() -> Node {
        Node::new(
            1,
            Mac::new(1, MacConfig::default()),
            Box::new(FixedController::standard()),
            SimRng::new(1),
        )
    }

    fn frame(arena: &mut FrameArena, seq: u64, dst: usize) -> FrameId {
        let mut f = Frame::data(seq, 0, 0, 9, 1000, Time::ZERO);
        f.src = 1;
        f.dst = dst;
        arena.alloc(f)
    }

    #[test]
    fn queue_index_reuses_existing() {
        let mut n = node();
        let a = n.queue_index(false, 2, 50);
        let b = n.queue_index(false, 2, 50);
        let c = n.queue_index(true, 2, 50);
        assert_eq!(a, b);
        assert_ne!(a, c, "own and forward queues are distinct");
        assert_eq!(n.queues.len(), 2);
    }

    #[test]
    fn round_robin_interleaves_queues() {
        let mut arena = FrameArena::new();
        let mut n = node();
        n.queue_index(true, 2, 50);
        n.queue_index(false, 2, 50);
        for i in 0..3 {
            let own = frame(&mut arena, i, 2);
            arena.get_mut(own).origin = 1; // own traffic
            assert!(n.enqueue(true, own, &arena));
            let fwd = frame(&mut arena, 100 + i, 2);
            assert!(n.enqueue(false, fwd, &arena));
        }
        let seqs: Vec<u64> = (0..6)
            .map(|_| arena.get(n.pop_round_robin().unwrap()).seq)
            .collect();
        // Alternation between own (0..) and forwarded (100..).
        assert_eq!(seqs, vec![0, 100, 1, 101, 2, 102]);
        assert!(n.pop_round_robin().is_none());
    }

    #[test]
    fn occupancy_sums_queues() {
        let mut arena = FrameArena::new();
        let mut n = node();
        n.queue_index(true, 2, 50);
        n.queue_index(false, 3, 50);
        let a = frame(&mut arena, 1, 2);
        let b = frame(&mut arena, 2, 3);
        let c = frame(&mut arena, 3, 3);
        n.enqueue(true, a, &arena);
        n.enqueue(false, b, &arena);
        n.enqueue(false, c, &arena);
        assert_eq!(n.occupancy(), 3);
    }

    #[test]
    #[should_panic(expected = "has no")]
    fn enqueue_without_queue_panics() {
        let mut arena = FrameArena::new();
        let mut n = node();
        let f = frame(&mut arena, 1, 7);
        n.enqueue(false, f, &arena);
    }
}
