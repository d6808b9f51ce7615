//! Protocol-level fuzz of the DCF ARQ over an *independent* mini-medium.
//!
//! This harness is deliberately NOT the `ezflow-phy`/`ezflow-net` stack:
//! two MACs are connected by a small event loop that delivers frames with
//! random loss and tells each MAC when the other's carrier rises and
//! falls. If the MAC state machine and the real network layer ever
//! disagree about protocol semantics, one of the two harnesses breaks.
//!
//! Invariants checked, for random loss rates and packet counts, in each
//! direction that carries traffic:
//! * every acknowledged (TxSuccess) frame was delivered at the receiver;
//! * the receiver delivers each packet at most once (duplicate filtering);
//! * deliveries are FIFO (seq strictly increasing);
//! * accounting closes: successes + drops = packets offered;
//! * the sender MAC ends idle (no stuck state under any loss pattern);
//! * every input that takes either MAC from busy to idle emits
//!   `NeedFrame` (the network layer feeds on nothing else);
//! * every timer that fires is owed. Like the engine, the harness keeps at
//!   most one pending entry per MAC timer, moves it on a re-arm, and
//!   removes a transmit-path entry as soon as the MAC stops owing it
//!   (`Mac::tx_timer_pending`) without a re-arm; a fired transmit-path
//!   timer must be owed, and no firing may be ignored as stale.

use std::collections::BTreeMap;

use ezflow_mac::{Mac, MacConfig, MacInput, MacOutput};
use ezflow_phy::{Frame, FrameArena, FrameKind};
use ezflow_sim::{Duration, SimRng, Time};
use proptest::prelude::*;

const SND: usize = 0;
const RCV: usize = 1;

/// An event's place in the queue: `(at, tie)`, the tie breaking equal
/// instants in scheduling order.
type Key = (u64, u64);

struct Harness {
    now: u64,
    /// Shared frame store, exactly as the network layer owns one.
    arena: FrameArena,
    /// Pending events by key: a keyed timer entry can be moved or removed,
    /// as the engine's scheduler allows.
    queue: BTreeMap<Key, (usize, EvKind)>,
    seqno: u64,
    loss: f64,
    rng: SimRng,
    macs: [Mac; 2],
    mac_rngs: [SimRng; 2],
    /// Each MAC's pending entry per keyed timer, indexed by [`timer`].
    timers: [[Option<Key>; 2]; 2],
    /// Transmit-path entries removed because their MAC stopped owing them.
    cancelled: u64,
    /// Outcomes, per node: frames delivered at it, and its own frames
    /// acknowledged or dropped.
    delivered: [Vec<u64>; 2],
    success: [Vec<u64>; 2],
    dropped: [Vec<u64>; 2],
}

/// Index of the transmit-path timer in [`Harness::timers`].
const TX: usize = 0;

/// [`Harness::timers`] index of a keyed timer's event.
fn timer(kind: &EvKind) -> usize {
    match kind {
        EvKind::TimerTx => TX,
        EvKind::TimerAck => 1,
        _ => unreachable!("{kind:?} is not a keyed timer"),
    }
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EvKind {
    TimerTx,
    TimerAck,
    TimerNav,
    TxEnded,
    Rx(Box<FrameBits>),
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct FrameBits {
    kind: u8,
    seq: u64,
    src: usize,
    dst: usize,
    payload: u32,
    retry: bool,
    nav: u64,
}

fn pack(f: &Frame) -> FrameBits {
    FrameBits {
        kind: match f.kind {
            FrameKind::Data => 0,
            FrameKind::Ack => 1,
            FrameKind::Rts => 2,
            FrameKind::Cts => 3,
        },
        seq: f.seq,
        src: f.src,
        dst: f.dst,
        payload: f.payload_bytes,
        retry: f.retry,
        nav: f.nav_micros,
    }
}

fn unpack(b: &FrameBits) -> Frame {
    let mut f = Frame::data(b.seq, 0, b.src, b.dst, b.payload, Time::ZERO);
    f.kind = match b.kind {
        0 => FrameKind::Data,
        1 => FrameKind::Ack,
        2 => FrameKind::Rts,
        _ => FrameKind::Cts,
    };
    f.src = b.src;
    f.dst = b.dst;
    f.retry = b.retry;
    f.nav_micros = b.nav;
    if f.kind != FrameKind::Data {
        f.payload_bytes = 0;
    }
    f
}

impl Harness {
    fn new(loss: f64, seed: u64, rts: bool) -> Self {
        let cfg = MacConfig {
            rts_cts: rts,
            ..MacConfig::default()
        };
        Harness {
            now: 0,
            arena: FrameArena::new(),
            queue: BTreeMap::new(),
            seqno: 0,
            loss,
            rng: SimRng::new(seed),
            macs: [Mac::new(SND, cfg), Mac::new(RCV, cfg)],
            mac_rngs: [SimRng::new(1), SimRng::new(2)],
            timers: [[None; 2]; 2],
            cancelled: 0,
            delivered: Default::default(),
            success: Default::default(),
            dropped: Default::default(),
        }
    }

    fn schedule(&mut self, at: u64, who: usize, kind: EvKind) -> Key {
        let key = (at, self.seqno);
        self.seqno += 1;
        self.queue.insert(key, (who, kind));
        key
    }

    /// Arms `who`'s transmit-path or ACK-job timer `after` from now,
    /// moving its pending entry if it has one.
    fn arm(&mut self, who: usize, kind: EvKind, after: Duration) {
        let t = timer(&kind);
        if let Some(old) = self.timers[who][t].take() {
            self.queue.remove(&old);
        }
        self.timers[who][t] = Some(self.schedule(self.now + after.as_micros(), who, kind));
    }

    /// Removes `who`'s transmit-path entry if its MAC no longer owes it:
    /// the step that follows every input and carrier call.
    fn settle(&mut self, who: usize) {
        if !self.macs[who].tx_timer_pending() {
            if let Some(key) = self.timers[who][TX].take() {
                self.queue.remove(&key);
                self.cancelled += 1;
            }
        }
    }

    /// Feeds `input` to `who`'s MAC through [`Mac::input_into`] and
    /// handles what it provoked. `buf` is reused across calls (drained
    /// here).
    ///
    /// Checks the invariant a caller that feeds only on `NeedFrame` and
    /// at enqueue relies on: an input that takes the MAC from busy to
    /// idle says so with `NeedFrame`.
    fn feed(&mut self, who: usize, input: MacInput, buf: &mut Vec<MacOutput>) {
        let was_idle = self.macs[who].is_idle();
        self.macs[who].input_into(
            Time::from_micros(self.now),
            input,
            &mut self.mac_rngs[who],
            &mut self.arena,
            buf,
        );
        if !was_idle && self.macs[who].is_idle() {
            assert!(
                buf.iter().any(|o| matches!(o, MacOutput::NeedFrame)),
                "node {who} went idle without NeedFrame: {buf:?}"
            );
        }
        let peer = 1 - who;
        for o in buf.drain(..) {
            match o {
                MacOutput::StartTx { frame, air, .. } => {
                    // The peer senses the carrier at once, decodable or not.
                    self.macs[peer].medium_busy(Time::from_micros(self.now));
                    self.settle(peer);
                    let end = self.now + air.as_micros();
                    self.schedule(end, who, EvKind::TxEnded);
                    // The peer receives it unless the loss process bites.
                    let p = self.loss;
                    let survives = !self.rng.gen_bool(p);
                    if survives {
                        let bits = pack(self.arena.get(frame));
                        self.schedule(end, peer, EvKind::Rx(Box::new(bits)));
                    }
                    // The on-air copy terminates here: its bits are on the
                    // wire (or lost) either way.
                    self.arena.release(frame);
                }
                MacOutput::SetTimerTxPath { after } => self.arm(who, EvKind::TimerTx, after),
                MacOutput::SetTimerAckJob { after } => self.arm(who, EvKind::TimerAck, after),
                MacOutput::SetTimerNav { after } => {
                    self.schedule(self.now + after.as_micros(), who, EvKind::TimerNav);
                }
                MacOutput::TxSuccess { frame, .. } => {
                    let seq = self.arena.release(frame).seq;
                    self.success[who].push(seq);
                }
                MacOutput::TxDropped { frame, .. } => {
                    let seq = self.arena.release(frame).seq;
                    self.dropped[who].push(seq);
                }
                MacOutput::Deliver { frame } => {
                    let seq = self.arena.release(frame).seq;
                    self.delivered[who].push(seq);
                }
                MacOutput::NeedFrame => {}
            }
        }
        self.settle(who);
    }

    /// Runs `packets[n]` frames from node `n` to its peer, for both
    /// nodes at once.
    fn run(mut self, packets: [u64; 2]) -> Self {
        let mut offered = [0u64; 2];
        let mut buf = Vec::new();

        loop {
            // Feed a MAC whenever it can take a frame.
            if let Some(who) = (0..2).find(|&n| self.macs[n].is_idle() && offered[n] < packets[n]) {
                let mut f = Frame::data(offered[who], 0, who, 1 - who, 500, Time::ZERO);
                f.src = who;
                f.dst = 1 - who;
                let frame = self.arena.alloc(f);
                self.feed(who, MacInput::Enqueue { frame }, &mut buf);
                offered[who] += 1;
                continue;
            }
            let Some(((at, _), (who, kind))) = self.queue.pop_first() else {
                break;
            };
            self.now = at;
            if matches!(kind, EvKind::TimerTx | EvKind::TimerAck) {
                self.timers[who][timer(&kind)] = None;
            }
            let input = match kind {
                EvKind::TimerTx => {
                    assert!(
                        self.macs[who].tx_timer_pending(),
                        "node {who}: a transmit-path timer fired that its MAC does not owe"
                    );
                    MacInput::TimerTxPath
                }
                EvKind::TimerAck => MacInput::TimerAckJob,
                EvKind::TimerNav => MacInput::TimerNav,
                EvKind::TxEnded => {
                    // The peer's carrier falls before the transmitter hears
                    // its own `TxEnded`, as in the engine.
                    let peer = 1 - who;
                    if let Some(after) = self.macs[peer].medium_idle(Time::from_micros(at)) {
                        self.arm(peer, EvKind::TimerTx, after);
                    }
                    MacInput::TxEnded
                }
                EvKind::Rx(bits) => {
                    let f = unpack(&bits);
                    if f.dst != who {
                        continue;
                    }
                    MacInput::Rx {
                        frame: self.arena.alloc(f),
                    }
                }
            };
            self.feed(who, input, &mut buf);
            assert_eq!(
                self.macs[who].stats().stale_timers,
                0,
                "node {who}: a timer fired that its MAC did not owe"
            );
            if self.now > 120_000_000_000 {
                panic!("harness ran away past 120k simulated seconds");
            }
        }
        assert_eq!(offered, packets);
        // Ownership audit: once the event queue drains, every allocated
        // frame has been released except what the MACs admit to holding.
        assert_eq!(
            self.arena.live(),
            self.macs[SND].held_frames() + self.macs[RCV].held_frames(),
            "arena leak: live frames unaccounted for"
        );
        self
    }
}

fn check_invariants(h: &Harness, src: usize, packets: u64, loss: f64) {
    let dst = 1 - src;
    // Accounting closes.
    assert_eq!(
        h.success[src].len() + h.dropped[src].len(),
        packets as usize,
        "every offered packet ends as success or drop"
    );
    assert!(h.macs[src].is_idle(), "sender must end idle");
    // No duplicate deliveries; FIFO order.
    for w in h.delivered[dst].windows(2) {
        assert!(w[0] < w[1], "deliveries must be strictly increasing");
    }
    // Every acknowledged frame was delivered.
    let delivered: std::collections::HashSet<u64> = h.delivered[dst].iter().copied().collect();
    for s in &h.success[src] {
        assert!(delivered.contains(s), "acked seq {s} never delivered");
    }
    if loss == 0.0 {
        assert_eq!(h.delivered[dst].len() as u64, packets);
        assert!(h.dropped[src].is_empty(), "no drops on a perfect link");
        assert_eq!(h.macs[src].stats().retries, 0);
    }
}

#[test]
fn two_way_traffic_cancels_frozen_countdowns() {
    // Traffic both ways makes each station freeze its countdown under the
    // other's frames and its own ACKs: the cancellations the engine's
    // timer slots exist for, exercised here outside the engine.
    let h = Harness::new(0.1, 42, false).run([150, 150]);
    check_invariants(&h, SND, 150, 0.1);
    check_invariants(&h, RCV, 150, 0.1);
    assert!(h.cancelled > 0, "no countdown was ever cancelled");
    for mac in &h.macs {
        assert!(mac.stats().cca_busy > 0, "no countdown was ever frozen");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arq_invariants_hold_under_random_loss(
        seed in any::<u64>(),
        loss in 0f64..0.6,
        packets in 1u64..120,
        back in 0u64..120,
        rts in any::<bool>(),
    ) {
        let h = Harness::new(loss, seed, rts).run([packets, back]);
        check_invariants(&h, SND, packets, loss);
        check_invariants(&h, RCV, back, loss);
    }

    #[test]
    fn perfect_link_delivers_everything(
        seed in any::<u64>(),
        packets in 1u64..200,
        rts in any::<bool>(),
    ) {
        let h = Harness::new(0.0, seed, rts).run([packets, 0]);
        check_invariants(&h, SND, packets, 0.0);
        let (snd, rcv) = (&h.macs[SND], &h.macs[RCV]);
        prop_assert_eq!(rcv.stats().delivered, packets);
        prop_assert_eq!(snd.stats().tx_success, packets);
        if rts {
            prop_assert_eq!(snd.stats().rts_sent, packets);
            prop_assert_eq!(rcv.stats().cts_sent, packets);
        }
    }

    #[test]
    fn total_loss_drops_everything(seed in any::<u64>(), packets in 1u64..40, rts in any::<bool>()) {
        let h = Harness::new(1.0, seed, rts).run([packets, 0]);
        let (snd, rcv) = (&h.macs[SND], &h.macs[RCV]);
        prop_assert_eq!(h.dropped[SND].len() as u64, packets);
        prop_assert!(h.success[SND].is_empty());
        prop_assert_eq!(rcv.stats().delivered, 0);
        prop_assert_eq!(snd.stats().drops_retry, packets);
    }
}
