//! Protocol-level fuzz of the DCF ARQ over an *independent* mini-medium.
//!
//! This harness is deliberately NOT the `ezflow-phy`/`ezflow-net` stack: a
//! sender MAC and a receiver MAC are connected by a ~60-line event loop
//! that delivers frames with random loss. If the MAC state machine and the
//! real network layer ever disagree about protocol semantics, one of the
//! two harnesses breaks.
//!
//! Invariants checked, for random loss rates and packet counts:
//! * every acknowledged (TxSuccess) frame was delivered at the receiver;
//! * the receiver delivers each packet at most once (duplicate filtering);
//! * deliveries are FIFO (seq strictly increasing);
//! * accounting closes: successes + drops = packets offered;
//! * the sender MAC ends idle (no stuck state under any loss pattern);
//! * every input that takes either MAC from busy to idle emits
//!   `NeedFrame` (the network layer feeds on nothing else).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ezflow_mac::{Mac, MacConfig, MacInput, MacOutput};
use ezflow_phy::{Frame, FrameArena, FrameKind};
use ezflow_sim::{SimRng, Time};
use proptest::prelude::*;

const SND: usize = 0;
const RCV: usize = 1;

struct Harness {
    now: u64,
    /// Shared frame store, exactly as the network layer owns one.
    arena: FrameArena,
    queue: BinaryHeap<Reverse<(u64, u64, usize, EvKind)>>,
    seqno: u64,
    loss: f64,
    rng: SimRng,
    /// Outcomes.
    delivered: Vec<u64>,
    success: Vec<u64>,
    dropped: Vec<u64>,
}

#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EvKind {
    TimerTx(u64),
    TimerAck(u64),
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
    fn new(loss: f64, seed: u64) -> Self {
        Harness {
            now: 0,
            arena: FrameArena::new(),
            queue: BinaryHeap::new(),
            seqno: 0,
            loss,
            rng: SimRng::new(seed),
            delivered: Vec::new(),
            success: Vec::new(),
            dropped: Vec::new(),
        }
    }

    fn schedule(&mut self, at: u64, who: usize, kind: EvKind) {
        let tie = self.seqno;
        self.seqno += 1;
        self.queue.push(Reverse((at, tie, who, kind)));
    }

    /// Feeds `input` to `mac` through [`Mac::input_into`] and handles
    /// what it provoked. `buf` is reused across calls (drained here).
    ///
    /// Checks the invariant a caller that feeds only on `NeedFrame` and
    /// at enqueue relies on: an input that takes the MAC from busy to
    /// idle says so with `NeedFrame`.
    fn feed(
        &mut self,
        who: usize,
        mac: &mut Mac,
        input: MacInput,
        rng: &mut SimRng,
        buf: &mut Vec<MacOutput>,
    ) {
        let was_idle = mac.is_idle();
        mac.input_into(
            Time::from_micros(self.now),
            input,
            rng,
            &mut self.arena,
            buf,
        );
        if !was_idle && mac.is_idle() {
            assert!(
                buf.iter().any(|o| matches!(o, MacOutput::NeedFrame)),
                "node {who} went idle without NeedFrame: {buf:?}"
            );
        }
        for o in buf.drain(..) {
            match o {
                MacOutput::StartTx { frame, air, .. } => {
                    let end = self.now + air.as_micros();
                    self.schedule(end, who, EvKind::TxEnded);
                    // The peer receives it unless the loss process bites.
                    let p = self.loss;
                    let survives = !self.rng.gen_bool(p);
                    if survives {
                        let peer = 1 - who;
                        let bits = pack(self.arena.get(frame));
                        self.schedule(end, peer, EvKind::Rx(Box::new(bits)));
                    }
                    // The on-air copy terminates here: its bits are on the
                    // wire (or lost) either way.
                    self.arena.release(frame);
                }
                MacOutput::SetTimerTxPath { after, epoch } => {
                    self.schedule(self.now + after.as_micros(), who, EvKind::TimerTx(epoch));
                }
                MacOutput::SetTimerAckJob { after, epoch } => {
                    self.schedule(self.now + after.as_micros(), who, EvKind::TimerAck(epoch));
                }
                MacOutput::SetTimerNav { after } => {
                    self.schedule(self.now + after.as_micros(), who, EvKind::TimerNav);
                }
                MacOutput::TxSuccess { frame, .. } => {
                    let seq = self.arena.release(frame).seq;
                    self.success.push(seq);
                }
                MacOutput::TxDropped { frame, .. } => {
                    let seq = self.arena.release(frame).seq;
                    self.dropped.push(seq);
                }
                MacOutput::Deliver { frame } => {
                    let seq = self.arena.release(frame).seq;
                    self.delivered.push(seq);
                }
                MacOutput::NeedFrame => {}
            }
        }
    }

    /// Runs `packets` frames from SND to RCV; returns the MACs for
    /// post-mortem inspection.
    fn run(mut self, packets: u64, rts: bool) -> (Self, Mac, Mac) {
        let cfg = MacConfig {
            rts_cts: rts,
            ..MacConfig::default()
        };
        let mut snd = Mac::new(SND, cfg);
        let mut rcv = Mac::new(RCV, cfg);
        let mut snd_rng = SimRng::new(1);
        let mut rcv_rng = SimRng::new(2);
        let mut offered = 0u64;
        let mut buf = Vec::new();

        loop {
            // Feed the sender whenever it can take a frame.
            if snd.is_idle() && offered < packets {
                let mut f = Frame::data(offered, 0, SND, RCV, 500, Time::ZERO);
                f.src = SND;
                f.dst = RCV;
                let frame = self.arena.alloc(f);
                let input = MacInput::Enqueue { frame };
                self.feed(SND, &mut snd, input, &mut snd_rng, &mut buf);
                offered += 1;
                continue;
            }
            let Some(Reverse((at, _, who, kind))) = self.queue.pop() else {
                break;
            };
            self.now = at;
            let input = match kind {
                EvKind::TimerTx(epoch) => MacInput::TimerTxPath { epoch },
                EvKind::TimerAck(epoch) => MacInput::TimerAckJob { epoch },
                EvKind::TimerNav => MacInput::TimerNav,
                EvKind::TxEnded => MacInput::TxEnded,
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
            if who == SND {
                self.feed(SND, &mut snd, input, &mut snd_rng, &mut buf);
            } else {
                self.feed(RCV, &mut rcv, input, &mut rcv_rng, &mut buf);
            }
            if self.now > 120_000_000_000 {
                panic!("harness ran away past 120k simulated seconds");
            }
        }
        assert_eq!(offered, packets);
        // Ownership audit: once the event queue drains, every allocated
        // frame has been released except what the MACs admit to holding.
        assert_eq!(
            self.arena.live(),
            snd.held_frames() + rcv.held_frames(),
            "arena leak: live frames unaccounted for"
        );
        (self, snd, rcv)
    }
}

fn check_invariants(h: &Harness, snd: &Mac, packets: u64, loss: f64) {
    // Accounting closes.
    assert_eq!(
        h.success.len() + h.dropped.len(),
        packets as usize,
        "every offered packet ends as success or drop"
    );
    assert!(snd.is_idle(), "sender must end idle");
    // No duplicate deliveries; FIFO order.
    for w in h.delivered.windows(2) {
        assert!(w[0] < w[1], "deliveries must be strictly increasing");
    }
    // Every acknowledged frame was delivered.
    let delivered: std::collections::HashSet<u64> = h.delivered.iter().copied().collect();
    for s in &h.success {
        assert!(delivered.contains(s), "acked seq {s} never delivered");
    }
    if loss == 0.0 {
        assert_eq!(h.delivered.len() as u64, packets);
        assert!(h.dropped.is_empty(), "no drops on a perfect link");
        assert_eq!(snd.stats().retries, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arq_invariants_hold_under_random_loss(
        seed in any::<u64>(),
        loss in 0f64..0.6,
        packets in 1u64..120,
        rts in any::<bool>(),
    ) {
        let h = Harness::new(loss, seed);
        let (h, snd, _rcv) = h.run(packets, rts);
        check_invariants(&h, &snd, packets, loss);
    }

    #[test]
    fn perfect_link_delivers_everything(
        seed in any::<u64>(),
        packets in 1u64..200,
        rts in any::<bool>(),
    ) {
        let h = Harness::new(0.0, seed);
        let (h, snd, rcv) = h.run(packets, rts);
        check_invariants(&h, &snd, packets, 0.0);
        prop_assert_eq!(rcv.stats().delivered, packets);
        prop_assert_eq!(snd.stats().tx_success, packets);
        if rts {
            prop_assert_eq!(snd.stats().rts_sent, packets);
            prop_assert_eq!(rcv.stats().cts_sent, packets);
        }
    }

    #[test]
    fn total_loss_drops_everything(seed in any::<u64>(), packets in 1u64..40, rts in any::<bool>()) {
        let h = Harness::new(1.0, seed);
        let (h, snd, rcv) = h.run(packets, rts);
        prop_assert_eq!(h.dropped.len() as u64, packets);
        prop_assert!(h.success.is_empty());
        prop_assert_eq!(rcv.stats().delivered, 0);
        prop_assert_eq!(snd.stats().drops_retry, packets);
    }
}
