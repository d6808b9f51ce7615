//! Flows: one record per flow, and how its source paces itself.
//!
//! §5.1: *"To ensure that the systems run in saturated mode, we generate at
//! the source a Constant Bit Rate (CBR) traffic at a rate of 2 Mb/s."* —
//! i.e. deliberately more than the 1 Mb/s channel can carry, so the source
//! queue is always backlogged and the MAC, not the application, paces the
//! flow. The harness also models a closed-loop fixed-window transport
//! (TCP-like self-clocking) and a bursty on-off source.
//!
//! A `Flow` is built once per [`FlowSpec`] and holds its identity, its
//! tick interval and its `Pacing` state. The pacing state never calls
//! the engine: a tick, a credit timeout or a returning ACK yields a count
//! of data packets to send, and the engine emits them and hands each
//! sequence number back through `Flow::sent`.

use std::collections::BTreeMap;

use ezflow_sim::{Duration, SimRng, Time};

use crate::topo::FlowSpec;

/// Flow ids at or above this offset are internal transport-ACK streams of
/// windowed flows (ack flow id = `TRANSPORT_ACK_FLOW + data flow id`);
/// they carry no user payload and are excluded from the user metrics.
pub const TRANSPORT_ACK_FLOW: u32 = 1 << 24;

/// How a flow's source paces itself.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Transport {
    /// Open-loop constant bit rate (the paper's workload: UDP-like, no
    /// feedback whatsoever).
    #[default]
    Cbr,
    /// Closed-loop fixed-window transport: at most `window` data packets
    /// are in flight; the sink returns a small end-to-end ACK packet
    /// (routed hop-by-hop over the reverse path) that releases the next
    /// one. A minimal stand-in for TCP's self-clocking — no
    /// retransmission or congestion control, just window flow control
    /// (lost packets are written off by a credit timeout).
    Windowed {
        /// Maximum packets in flight.
        window: usize,
        /// Transport-ACK payload bytes (a real TCP ACK is ~40), at most
        /// [`MAX_PAYLOAD_BYTES`](crate::scenario::MAX_PAYLOAD_BYTES).
        ack_payload: u32,
    },
    /// Open-loop bursty on-off source: CBR at `rate_bps` during ON
    /// periods, silent during OFF periods. ON durations are drawn from a
    /// bounded Pareto (heavy-tailed, shape `alpha`) with mean `mean_on`,
    /// OFF durations from an exponential with mean `mean_off` — the
    /// classic self-similar-traffic generator. All draws come from a
    /// per-flow `SimRng` stream derived at build time, so runs stay a
    /// pure function of `(spec, seed)`.
    OnOff {
        /// Mean ON-period duration.
        mean_on: Duration,
        /// Mean OFF-period duration.
        mean_off: Duration,
        /// Pareto shape for ON durations; must exceed 1 so the mean
        /// exists. Smaller ⇒ heavier tail (longer rare bursts).
        alpha: f64,
    },
}

/// The exact inter-packet interval in µs of `payload_bytes`-byte packets
/// at `rate_bps`, when it is under the clock's 1 µs resolution: such a
/// source would re-arm its tick at the instant it fired, forever.
pub(crate) fn sub_microsecond_interval(rate_bps: u64, payload_bytes: u32) -> Option<f64> {
    let bit_micros = payload_bytes as u64 * 8 * 1_000_000;
    (rate_bps > bit_micros).then(|| bit_micros as f64 / rate_bps as f64)
}

/// Period of a windowed flow's credit timer.
pub(crate) const REFRESH_PERIOD: Duration = Duration::from_secs(1);

/// Credit timeout: an unacked packet older than this is written off.
const RTO: Duration = Duration::from_secs(3);

/// ON periods are capped at this multiple of the mean: a bounded Pareto,
/// so a single astronomically rare draw cannot freeze a flow ON for the
/// entire run. At `alpha = 1.5` the cap trims the mean by about 5%.
const ON_CAP_FACTOR: f64 = 50.0;

/// One flow: who sends to whom, when, how often, and its pacing state.
#[derive(Debug)]
pub(crate) struct Flow {
    /// Flow id (the spec's; not the flow's index).
    pub(crate) id: u32,
    /// Source node.
    pub(crate) src: usize,
    /// Final destination node.
    pub(crate) dst: usize,
    /// Transport payload per data packet, bytes.
    pub(crate) payload: u32,
    /// First tick.
    pub(crate) start: Time,
    /// No packets are generated at or after `stop`.
    pub(crate) stop: Time,
    /// Source tick interval (the CBR interval clocks every pacing).
    pub(crate) interval: Duration,
    pacing: Pacing,
}

/// A flow's pacing state.
#[derive(Debug)]
enum Pacing {
    /// Open-loop constant bit rate: one packet per tick.
    Cbr,
    /// Closed-loop fixed window; lost packets are written off by a credit
    /// timeout — no retransmission.
    Windowed {
        window: usize,
        ack_payload: u32,
        /// Outstanding data packets: seq -> send time. A `BTreeMap` so the
        /// RTO write-off walks packets in sequence order — write-off order
        /// (and thus counter/trace order) is a pure function of the seed.
        outstanding: BTreeMap<u64, Time>,
    },
    /// CBR during ON periods, silent during OFF periods. All draws come
    /// from the flow's own stream, derived (not consumed) from the master
    /// seed, so adding an on-off flow never perturbs other flows' draws.
    OnOff {
        mean_on: Duration,
        mean_off: Duration,
        alpha: f64,
        rng: SimRng,
        on: bool,
        /// When the current period ends. Starts at the flow's start,
        /// OFF: the first tick (= flow start) flips the flow ON and draws
        /// the first period, so phase draws happen in event order.
        boundary: Time,
    },
}

impl Flow {
    /// The flow `f` describes; `rng` is its private stream, which only
    /// on-off pacing keeps.
    pub(crate) fn new(f: &FlowSpec, rng: SimRng) -> Flow {
        let pacing = match f.transport {
            Transport::Cbr => Pacing::Cbr,
            Transport::Windowed {
                window,
                ack_payload,
            } => Pacing::Windowed {
                window,
                ack_payload,
                outstanding: BTreeMap::new(),
            },
            Transport::OnOff {
                mean_on,
                mean_off,
                alpha,
            } => Pacing::OnOff {
                mean_on,
                mean_off,
                alpha,
                rng,
                on: false,
                boundary: f.start,
            },
        };
        // Round to nearest microsecond; CBR at 2 Mb/s with 1000 B packets
        // is exactly 4 ms. At least 1 µs for a spec that passed
        // `NetworkSpec::validate`.
        debug_assert!(f.rate_bps > 0);
        let bits = f.payload_bytes as u64 * 8;
        let interval = Duration::from_micros((bits * 1_000_000 + f.rate_bps / 2) / f.rate_bps);
        Flow {
            id: f.id,
            src: f.path[0],
            dst: *f.path.last().expect("non-empty path"),
            payload: f.payload_bytes,
            start: f.start,
            stop: f.stop,
            interval,
            pacing,
        }
    }

    /// Whether the flow generates at `now`: `[start, stop)`.
    pub(crate) fn active_at(&self, now: Time) -> bool {
        now >= self.start && now < self.stop
    }

    /// Period of the flow's credit timer; only windowed flows have one.
    pub(crate) fn refresh_period(&self) -> Option<Duration> {
        matches!(self.pacing, Pacing::Windowed { .. }).then_some(REFRESH_PERIOD)
    }

    /// Data packets to send at a tick of the active flow at `now`.
    pub(crate) fn tick(&mut self, now: Time) -> usize {
        match &mut self.pacing {
            Pacing::Cbr => 1,
            Pacing::Windowed { .. } => self.credits(now),
            Pacing::OnOff {
                mean_on,
                mean_off,
                alpha,
                rng,
                on,
                boundary,
            } => {
                while now >= *boundary {
                    *on = !*on;
                    *boundary += if *on {
                        draw_on(rng, *mean_on, *alpha)
                    } else {
                        draw_off(rng, *mean_off)
                    };
                }
                usize::from(*on)
            }
        }
    }

    /// Credit timeout: writes off outstanding packets older than the RTO
    /// (lost in the network; nothing is retransmitted) and returns the
    /// packets that top the window up — or `None` once the flow has
    /// stopped, which disarms the timer.
    pub(crate) fn refresh(&mut self, now: Time) -> Option<usize> {
        if let Pacing::Windowed { outstanding, .. } = &mut self.pacing {
            outstanding.retain(|_, &mut sent| now.saturating_since(sent) < RTO);
        }
        let credits = self.credits(now);
        (now < self.stop).then_some(credits)
    }

    /// The transport ACK of data packet `ack_ref` came home: releases its
    /// credit and returns the packets that top the window up.
    pub(crate) fn acked(&mut self, ack_ref: u64, now: Time) -> usize {
        if let Pacing::Windowed { outstanding, .. } = &mut self.pacing {
            outstanding.remove(&ack_ref);
        }
        self.credits(now)
    }

    /// Data packet `seq` left the source at `now`.
    pub(crate) fn sent(&mut self, seq: u64, now: Time) {
        if let Pacing::Windowed { outstanding, .. } = &mut self.pacing {
            outstanding.insert(seq, now);
        }
    }

    /// The end-to-end ACK a windowed flow's sink returns for each
    /// delivered data packet: `(ack flow id, from, to, payload)`, over
    /// the reverse path. `None` for open-loop pacing.
    pub(crate) fn ack_packet(&self) -> Option<(u32, usize, usize, u32)> {
        match self.pacing {
            Pacing::Windowed { ack_payload, .. } => Some((
                self.id + TRANSPORT_ACK_FLOW,
                self.dst,
                self.src,
                ack_payload,
            )),
            _ => None,
        }
    }

    /// Packets a windowed flow may send at `now`: up to its window while
    /// active (before `stop`). Zero for open-loop pacing.
    fn credits(&self, now: Time) -> usize {
        match &self.pacing {
            Pacing::Windowed {
                window,
                outstanding,
                ..
            } if now < self.stop => window - outstanding.len(),
            _ => 0,
        }
    }
}

/// Bounded-Pareto ON duration with mean `mean_on`.
fn draw_on(rng: &mut SimRng, mean_on: Duration, alpha: f64) -> Duration {
    // For Pareto(x_m, alpha) the mean is x_m * alpha / (alpha - 1);
    // pick x_m so the (unbounded) mean lands on mean_on.
    let mean = mean_on.as_micros() as f64;
    let x_m = mean * (alpha - 1.0) / alpha;
    let u = rng.gen_f64();
    let x = x_m / (1.0 - u).powf(1.0 / alpha);
    Duration::from_micros((x.min(mean * ON_CAP_FACTOR)).max(1.0) as u64)
}

/// Exponential OFF duration with mean `mean_off`.
fn draw_off(rng: &mut SimRng, mean_off: Duration) -> Duration {
    let mean = mean_off.as_micros() as f64;
    let u = rng.gen_f64();
    Duration::from_micros(((-(1.0 - u).ln()) * mean).max(1.0) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(id: u32, path: Vec<usize>, rate_bps: u64, transport: Transport) -> Flow {
        let spec = FlowSpec {
            rate_bps,
            transport,
            ..FlowSpec::saturating(id, path, Time::ZERO, Time::from_secs(100))
        };
        Flow::new(&spec, SimRng::new(0))
    }

    fn cbr(rate: u64) -> Flow {
        let mut f = flow(0, vec![0, 4], rate, Transport::Cbr);
        (f.start, f.stop) = (Time::from_secs(5), Time::from_secs(10));
        f
    }

    #[test]
    fn paper_cbr_interval_is_4ms() {
        assert_eq!(cbr(2_000_000).interval, Duration::from_millis(4));
    }

    #[test]
    fn interval_rounds_to_nearest_us() {
        // 8000 bits at 3 Mb/s = 2666.67 µs -> 2667.
        assert_eq!(cbr(3_000_000).interval, Duration::from_micros(2667));
    }

    #[test]
    fn activity_window_is_half_open() {
        let s = cbr(2_000_000);
        assert!(!s.active_at(Time::from_micros(4_999_999)));
        assert!(s.active_at(Time::from_secs(5)));
        assert!(s.active_at(Time::from_micros(9_999_999)));
        assert!(!s.active_at(Time::from_secs(10)));
    }

    /// A scripted source: sends what the flow asks for, numbering
    /// packets from 0, and logs `(flow, src, dst, payload, ack_ref)`.
    #[derive(Default)]
    struct Sender {
        next_seq: u64,
        sent: Vec<(u32, usize, usize, u32, u64)>,
    }

    impl Sender {
        fn data(&mut self, f: &mut Flow, count: usize, now: Time) {
            for _ in 0..count {
                self.sent.push((f.id, f.src, f.dst, f.payload, 0));
                f.sent(self.next_seq, now);
                self.next_seq += 1;
            }
        }

        fn ack(&mut self, f: &Flow, seq: u64) {
            let (flow, src, dst, payload) = f.ack_packet().expect("a windowed flow");
            self.sent.push((flow, src, dst, payload, seq));
            self.next_seq += 1;
        }
    }

    fn windowed(window: usize) -> Flow {
        let transport = Transport::Windowed {
            window,
            ack_payload: 40,
        };
        flow(0, vec![0, 1, 2, 3], 2_000_000, transport)
    }

    fn outstanding(f: &Flow) -> &BTreeMap<u64, Time> {
        match &f.pacing {
            Pacing::Windowed { outstanding, .. } => outstanding,
            _ => unreachable!("a windowed flow"),
        }
    }

    #[test]
    fn cbr_sends_one_packet_per_tick() {
        let mut ctx = Sender::default();
        let mut t = flow(7, vec![1, 2, 3, 4], 2_000_000, Transport::Cbr);
        for _ in 0..2 {
            let n = t.tick(Time::ZERO);
            ctx.data(&mut t, n, Time::ZERO);
        }
        assert_eq!(ctx.sent, vec![(7, 1, 4, 1000, 0), (7, 1, 4, 1000, 0)]);
        assert_eq!(t.refresh_period(), None, "CBR needs no transport timer");
        assert_eq!(t.ack_packet(), None, "CBR sinks send no ACKs");
    }

    #[test]
    fn window_fills_to_cap_and_acks_release_credits() {
        let mut ctx = Sender::default();
        let mut t = windowed(4);
        let n = t.tick(Time::ZERO);
        ctx.data(&mut t, n, Time::ZERO);
        assert_eq!(ctx.sent.len(), 4, "fills straight to the window");
        assert_eq!(t.tick(Time::ZERO), 0, "window full: no further sends");

        // The sink's delivery emits the reverse-path ACK.
        ctx.ack(&t, 0);
        let ack = *ctx.sent.last().unwrap();
        assert_eq!(ack, (TRANSPORT_ACK_FLOW, 3, 0, 40, 0));

        // The ACK coming home releases one credit.
        let n = t.acked(0, Time::ZERO);
        ctx.data(&mut t, n, Time::ZERO);
        assert_eq!(outstanding(&t).len(), 4, "refilled to the window");
        assert_eq!(ctx.sent.len(), 6, "one data packet clocked out");
    }

    #[test]
    fn refresh_writes_off_old_packets_in_seq_order() {
        let mut ctx = Sender::default();
        let mut t = windowed(3);
        let n = t.tick(Time::ZERO);
        ctx.data(&mut t, n, Time::ZERO);
        assert_eq!(outstanding(&t).len(), 3);

        // Past the RTO: everything outstanding is written off and the
        // window refills at the new instant.
        let now = Time::from_secs(5);
        let n = t.refresh(now);
        assert!(n.is_some(), "flow still active: keep the timer");
        ctx.data(&mut t, n.unwrap(), now);
        assert_eq!(outstanding(&t).len(), 3);
        assert!(outstanding(&t).values().all(|&s| s == now));

        // After stop the timer asks to be disarmed.
        assert_eq!(t.refresh(Time::from_secs(100)), None);
    }

    #[test]
    fn write_off_order_is_deterministic() {
        // The BTreeMap guarantees the retain walk visits sequence
        // numbers in order — the determinism fix for the RTO path.
        let mut t = windowed(8);
        for seq in [5, 1, 7, 3] {
            t.sent(seq, Time::ZERO);
        }
        let keys: Vec<u64> = outstanding(&t).keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    fn onoff(seed: u64) -> Flow {
        let transport = Transport::OnOff {
            mean_on: Duration::from_secs(1),
            mean_off: Duration::from_secs(1),
            alpha: 1.5,
        };
        let spec = FlowSpec {
            transport,
            ..FlowSpec::saturating(0, vec![0, 3], Time::ZERO, Time::from_secs(100))
        };
        Flow::new(&spec, SimRng::new(seed))
    }

    /// Drives `t` at the 4 ms CBR tick for `secs` of simulated time and
    /// returns the fraction of ticks that produced a packet.
    fn duty_cycle(t: &mut Flow, secs: u64) -> f64 {
        let mut ctx = Sender::default();
        let mut now = Time::ZERO;
        let tick = Duration::from_millis(4);
        let ticks = secs * 250;
        for _ in 0..ticks {
            let n = t.tick(now);
            ctx.data(t, n, now);
            now += tick;
        }
        ctx.sent.len() as f64 / ticks as f64
    }

    #[test]
    fn onoff_mean_offered_load_tracks_duty_cycle() {
        // mean_on = mean_off ⇒ nominal duty cycle 1/2, i.e. offered load
        // = rate/2. The Pareto bound trims the ON mean by ~5% at
        // alpha = 1.5; ±15% comfortably covers trim plus sampling noise
        // over 4000 s while still catching a broken generator (which
        // lands near 0 or 1).
        let duty = duty_cycle(&mut onoff(11), 4000);
        assert!(
            (duty - 0.5).abs() < 0.075,
            "duty cycle {duty:.3} strayed from nominal 0.5"
        );
    }

    #[test]
    fn onoff_alternates_on_and_off_periods() {
        let mut t = onoff(3);
        let duty = duty_cycle(&mut t, 100);
        assert!(duty > 0.0 && duty < 1.0, "must both send and pause");
        let Pacing::OnOff { boundary, .. } = t.pacing else {
            unreachable!("an on-off flow")
        };
        assert!(boundary > t.start, "the phase timeline started");
    }

    #[test]
    fn onoff_is_deterministic_per_seed() {
        let (a, b) = (
            duty_cycle(&mut onoff(7), 200),
            duty_cycle(&mut onoff(7), 200),
        );
        assert_eq!(a, b, "same seed ⇒ identical phase timeline");
        let c = duty_cycle(&mut onoff(8), 200);
        assert_ne!(a, c, "different seed ⇒ different timeline");
    }
}
