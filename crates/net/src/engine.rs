//! The scheduler event loop.
//!
//! This module is the *dynamic* half of [`Network`] (the builder is the
//! static half): the event vocabulary (`Ev`, private), the `run_until`
//! dispatch loop, and the MAC/channel/controller/transport mediation that
//! turns one popped event into the next batch of scheduled ones.
//!
//! The engine drives four explicit interfaces and owns nothing else:
//!
//! * the MAC's `input → [output]` state machine (via the worklist drain),
//! * the channel's `start_tx`/`end_tx` calls,
//! * the [`crate::controller::Controller`] observation hooks,
//! * the [`crate::transport::FlowTransport`] pacing callbacks.
//!
//! Everything here is deterministic: events pop in `(time, seq)` order
//! from the [`ezflow_sim::Scheduler`] (whose `peek_time`/`len`/`is_empty`
//! are the only queue state the engine reads), and all randomness flows
//! through per-node streams derived from the master seed.

use ezflow_mac::{MacInput, MacOutput};
use ezflow_phy::{DecodeOutcome, Frame, FrameId, FrameKind, TxId};
use ezflow_sim::{
    BoeVerdict, DropCause, Duration, FrameClass, JsonValue, RxOutcome, Time, TraceKind,
    TracePayload,
};

use crate::controller::ControllerEvent;
use crate::hot::TimerSlot;
use crate::network::Network;
use crate::snapshot::{
    LatencySnapshot, NodeSnapshot, PerfSnapshot, QueueSnapshot, RunSnapshot, SchedulerSnapshot,
};
use crate::transport::{TransportCtx, TRANSPORT_ACK_FLOW};

/// The engine's event vocabulary.
#[derive(Clone, Debug)]
pub(crate) enum Ev {
    /// Source generation tick of flow index `i` (all transports).
    Traffic(usize),
    /// Periodic transport timer for a flow (by flow id).
    WindowRefresh(u32),
    MacTxPath {
        node: usize,
        epoch: u64,
    },
    MacAckJob {
        node: usize,
        epoch: u64,
    },
    MacNav {
        node: usize,
    },
    TxEnd {
        tx: TxId,
        node: usize,
    },
    Sample,
    Backlog,
    /// Telemetry sampler tick (only scheduled when the spec sets
    /// `telemetry_every`). Dispatched *outside* the event accounting so
    /// telemetry-on runs snapshot byte-identically to telemetry-off ones
    /// — see [`crate::telemetry`].
    Telemetry,
}

/// Number of *counted* [`Ev`] kinds, for the per-kind dispatch counters.
/// `Ev::Telemetry` is deliberately not one of them: the sampler is
/// intercepted before kind accounting (zero interference).
pub(crate) const EV_KINDS: usize = 8;

/// Stable names of the [`Ev`] kinds, in [`ev_index`] order — the keys of
/// the snapshot's `dispatched_by_kind` object.
const EV_NAMES: [&str; EV_KINDS] = [
    "traffic",
    "window_refresh",
    "mac_tx_path",
    "mac_ack_job",
    "mac_nav",
    "tx_end",
    "sample",
    "backlog",
];

/// Number of self-profiler slots: every counted event kind plus one for
/// the telemetry sampler.
pub const PROFILE_KINDS: usize = EV_KINDS + 1;

/// Names of the self-profiler slots, in slot order — the keys of the
/// perf snapshot's `handler_ns_by_kind` object.
pub const PROFILE_NAMES: [&str; PROFILE_KINDS] = [
    "traffic",
    "window_refresh",
    "mac_tx_path",
    "mac_ack_job",
    "mac_nav",
    "tx_end",
    "sample",
    "backlog",
    "telemetry",
];

fn ev_index(ev: &Ev) -> usize {
    match ev {
        Ev::Traffic(_) => 0,
        Ev::WindowRefresh(_) => 1,
        Ev::MacTxPath { .. } => 2,
        Ev::MacAckJob { .. } => 3,
        Ev::MacNav { .. } => 4,
        Ev::TxEnd { .. } => 5,
        Ev::Sample => 6,
        Ev::Backlog => 7,
        Ev::Telemetry => unreachable!("telemetry bypasses kind accounting"),
    }
}

/// Compact worklist descriptor — [`MacInput`] minus the frame payload.
///
/// Only the transmission fan-out queues here: the busy toggles raised by
/// a `StartTx` and the per-receiver markers of a `TxEnd` (everything
/// scheduler-driven goes straight through `mac_event`, and the rest of
/// the tx-end fan-out is dispatched inline). Queuing full `MacInput`
/// values would memcpy ~112 bytes per entry twice (push and pop); this
/// mirror carries 16 bytes and the drain loop rebuilds the real
/// `MacInput` at the single dispatch point. `Rx*` entries park their
/// frame in [`Network::rx_frames`](crate::network::Network) — both
/// queues are FIFOs fed in lockstep, so the frame at the front is always
/// the one the front `Rx*` marker refers to.
#[derive(Clone, Copy, Debug)]
pub(crate) enum WorkInput {
    MediumBusy,
    NavSet { until: Time },
    RxData,
    RxAck,
    RxRts,
    RxCts,
}

fn frame_class(kind: FrameKind) -> FrameClass {
    match kind {
        FrameKind::Data => FrameClass::Data,
        FrameKind::Ack => FrameClass::Ack,
        FrameKind::Rts => FrameClass::Rts,
        FrameKind::Cts => FrameClass::Cts,
    }
}

fn frame_payload(frame: &Frame) -> TracePayload {
    TracePayload::Frame {
        class: frame_class(frame.kind),
        seq: frame.seq,
        flow: frame.flow,
        src: frame.src,
        dst: frame.dst,
        retry: frame.retry as u32,
    }
}

fn rx_outcome(o: DecodeOutcome) -> RxOutcome {
    match o {
        DecodeOutcome::Clean => RxOutcome::Clean,
        DecodeOutcome::Capture => RxOutcome::Capture,
        DecodeOutcome::Collision => RxOutcome::Collision,
        DecodeOutcome::Loss => RxOutcome::Loss,
    }
}

/// Frees `slot` when the timer entry just dispatched under `epoch` is the
/// one it holds: the entry's handle died with the pop.
fn release_slot(slot: &mut TimerSlot, epoch: u64) {
    if matches!(*slot, TimerSlot::Armed { epoch: e, .. } if e == epoch) {
        *slot = TimerSlot::Idle;
    }
}

impl Network {
    /// Runs the simulation up to and including instant `until`.
    pub fn run_until(&mut self, until: Time) {
        debug_assert!(self.worklist.is_empty());
        debug_assert!(self.rx_frames.is_empty());
        let t0 = std::time::Instant::now();
        while let Some((at, ev)) = self.sched.pop_before(until) {
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            // Zero-interference dispatch: the telemetry sampler never
            // touches `events` or the per-kind counters, so a
            // telemetry-on run's accounting equals the telemetry-off
            // run's (its scheduler traffic is compensated in `snapshot`).
            if matches!(ev, Ev::Telemetry) {
                if self.profile {
                    let h0 = std::time::Instant::now();
                    self.on_telemetry();
                    self.handler_ns[EV_KINDS] += h0.elapsed().as_nanos() as u64;
                } else {
                    self.on_telemetry();
                }
                continue;
            }
            self.events += 1;
            let kind = ev_index(&ev);
            self.dispatched[kind] += 1;
            if self.profile {
                let h0 = std::time::Instant::now();
                self.handle(ev);
                self.handler_ns[kind] += h0.elapsed().as_nanos() as u64;
            } else {
                self.handle(ev);
            }
        }
        self.now = until;
        // Leak audit at quiescence: every frame the arena thinks is live
        // must be accounted for by a queue slot, a MAC holding it, or a
        // transmission still on the air. A mismatch means some terminal
        // event forgot its release (or released twice — the generation
        // check catches that side).
        #[cfg(debug_assertions)]
        {
            let queued: usize = self.hot.occupancy.iter().map(|&o| o as usize).sum();
            let held: usize = self.nodes.iter().map(|n| n.mac.held_frames()).sum();
            let on_air = self.channel.active_count();
            debug_assert_eq!(
                self.arena.live(),
                queued + held + on_air,
                "frame arena leak: live frames unaccounted for"
            );
        }
        self.wall += t0.elapsed();
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::Traffic(i) => self.on_traffic(i),
            Ev::WindowRefresh(flow) => self.on_window_refresh(flow),
            // A timer that dispatches is its slot's one pending entry and
            // carries its MAC's current epoch: `after_mac` removes an
            // invalidated entry before control returns to the pop loop.
            // Checked here in debug builds; in release a stale timer that
            // got through is ignored by the MAC, which counts it in
            // `MacStats::stale_epochs`.
            Ev::MacTxPath { node, epoch } => {
                debug_assert_eq!(epoch, self.nodes[node].mac.tx_epoch());
                release_slot(&mut self.hot.tx_timer[node], epoch);
                self.mac_event(node, MacInput::TimerTxPath { epoch }, true)
            }
            Ev::MacAckJob { node, epoch } => {
                debug_assert_eq!(epoch, self.nodes[node].mac.ack_epoch());
                release_slot(&mut self.hot.ack_timer[node], epoch);
                self.mac_event(node, MacInput::TimerAckJob { epoch }, true)
            }
            Ev::MacNav { node } => self.mac_event(node, MacInput::TimerNav, false),
            Ev::TxEnd { tx, node } => self.on_tx_end(tx, node),
            Ev::Sample => self.on_sample(),
            Ev::Backlog => self.on_backlog(),
            // Intercepted in `run_until` before kind accounting; kept
            // here so the dispatcher stays total over the vocabulary.
            Ev::Telemetry => self.on_telemetry(),
        }
    }

    /// Arms (or re-arms) node `id`'s transmit-path timer `after` from
    /// now. The slot decides the scheduler verb: a pending entry is moved
    /// in place, a parked one revived, and only a truly idle slot pays a
    /// fresh schedule — so freeze/restart churn never leaves an abandoned
    /// entry in the queue.
    fn arm_tx_timer(&mut self, id: usize, after: Duration, epoch: u64) {
        let at = self.now + after;
        let ev = Ev::MacTxPath { node: id, epoch };
        let h = match self.hot.tx_timer[id] {
            TimerSlot::Armed { h, .. } => self.sched.reschedule(Some(h), at, ev),
            TimerSlot::Parked => self.sched.reschedule(None, at, ev),
            TimerSlot::Idle => self.sched.schedule_keyed(at, ev),
        };
        self.hot.tx_timer[id] = TimerSlot::Armed { h, epoch };
    }

    /// [`Network::arm_tx_timer`] for the ACK-job timer.
    fn arm_ack_timer(&mut self, id: usize, after: Duration, epoch: u64) {
        let at = self.now + after;
        let ev = Ev::MacAckJob { node: id, epoch };
        let h = match self.hot.ack_timer[id] {
            TimerSlot::Armed { h, .. } => self.sched.reschedule(Some(h), at, ev),
            TimerSlot::Parked => self.sched.reschedule(None, at, ev),
            TimerSlot::Idle => self.sched.schedule_keyed(at, ev),
        };
        self.hot.ack_timer[id] = TimerSlot::Armed { h, epoch };
    }

    /// The step that follows every MAC interaction, bringing the two pieces
    /// of engine state that mirror node `id`'s MAC back in line with it.
    ///
    /// *Timer slot.* If the MAC has invalidated its transmit-path timer
    /// (epoch moved on) without re-arming, the scheduler entry is
    /// physically removed now, so no stale timer is ever dispatched
    /// (`handle` asserts it); a live or empty slot is a two-word compare
    /// and fall-through. The ACK-job timer needs no counterpart:
    /// `ack_epoch` only ever advances in the same input that arms the
    /// replacement timer, so an armed ACK slot is always current.
    ///
    /// *Listening bit.* The channel reports a node's busy/idle transitions
    /// only while [`Mac::counting_phase`](ezflow_mac::Mac::counting_phase)
    /// holds — the one time they freeze or resume a countdown (and bump
    /// `cca_busy`); every other phase would only write the carrier mirror,
    /// which [`Network::mac_input`] refreshes from the channel instead.
    fn after_mac(&mut self, id: usize) {
        let mac = &self.nodes[id].mac;
        if let TimerSlot::Armed { h, epoch } = self.hot.tx_timer[id] {
            if epoch != mac.tx_epoch() {
                let found = self.sched.remove(h);
                debug_assert!(found, "armed slot held a dead handle");
                self.hot.tx_timer[id] = TimerSlot::Parked;
            }
        }
        self.channel.set_listening(id, mac.counting_phase());
    }

    /// Feeds node `id`'s MAC one input that may read the carrier, after
    /// pulling the carrier state from the channel — the single
    /// `input_into` site for such inputs.
    ///
    /// Why the pull is exact, not approximately right: the channel's busy
    /// count only moves in `start_tx_into` / `end_tx_into`. A `StartTx` is
    /// only ever produced by a timer event dispatched through `mac_event`
    /// on an empty worklist, and the busy toggles it raises — which
    /// produce no outputs — are all that is drained before control
    /// returns; `on_tx_end` delivers its idle transitions before it issues
    /// any input. So whenever an input reaches a MAC, a mirror fed every
    /// transition would equal `Channel::is_busy` already; a MAC that was
    /// only fed transitions while counting gets the same value written
    /// here, and a counting MAC has it written over itself
    /// (`Mac::sync_carrier` asserts that in debug builds).
    fn mac_input(&mut self, id: usize, input: MacInput, outs: &mut Vec<MacOutput>) {
        let node = &mut self.nodes[id];
        node.mac.sync_carrier(self.channel.is_busy(id));
        node.mac
            .input_into(self.now, input, &mut node.rng, &mut self.arena, outs);
    }

    /// Feeds one `MacInput` straight to a node — the direct-dispatch
    /// counterpart of a one-entry worklist drain, for inputs that arrive
    /// alone from the scheduler rather than as part of a transmission
    /// fan-out. Processing order is the drain's exactly: the input's
    /// outputs, then the feed probe, then whatever those two worklisted
    /// (a `StartTx` busy fan-out) — minus the deque round trip.
    fn mac_event(&mut self, id: usize, input: MacInput, feed: bool) {
        let mut outs = self.mac_out_pool.pop().unwrap_or_default();
        self.mac_input(id, input, &mut outs);
        for o in outs.drain(..) {
            self.handle_output(id, o);
        }
        self.mac_out_pool.push(outs);
        if feed {
            self.try_feed(id);
        }
        self.after_mac(id);
        if !self.worklist.is_empty() {
            self.drain();
        }
    }

    fn on_traffic(&mut self, i: usize) {
        let s = self.sources[i]; // Copy — no per-tick clone
        if s.active_at(self.now) {
            self.with_transport(s.flow, |t, net| t.on_tick(net));
            if !self.worklist.is_empty() {
                self.drain();
            }
        }
        let next = self.now + self.source_intervals[i];
        if next < s.stop {
            self.sched.schedule(next, Ev::Traffic(i));
        }
    }

    /// Periodic transport timer (credit timeouts and the like).
    fn on_window_refresh(&mut self, flow: u32) {
        let mut rearm = None;
        self.with_transport(flow, |t, net| {
            if t.on_refresh(net) {
                rearm = t.refresh_period();
            }
        });
        if !self.worklist.is_empty() {
            self.drain();
        }
        if let Some(p) = rearm {
            self.sched.schedule(self.now + p, Ev::WindowRefresh(flow));
        }
    }

    /// Creates one packet at `src` bound for `dst` and offers it to the
    /// source's own-traffic queue. The single packet entry point — the
    /// transports reach it through [`TransportCtx::send`].
    pub(crate) fn emit_packet(
        &mut self,
        flow: u32,
        src: usize,
        dst: usize,
        payload: u32,
        ack_ref: u64,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        let nh = self
            .routing
            .next_hop(src, dst)
            .expect("source must be routed");
        // Born into a full source queue: the drop's only observable
        // effects are the consumed seq, the queue and flow drop counters,
        // the observers' records and the feed probe — all of which happen
        // here in the order an enqueue attempt would produce them, so the
        // frame is never built and the arena never touched.
        if self.nodes[src].own_queue_drop(nh) {
            *self.metrics.source_drops.entry(flow).or_insert(0) += 1;
            let dropped = TracePayload::Drop {
                cause: DropCause::SourceQueueFull,
                seq,
            };
            if self.trace.enabled() {
                self.trace.push(self.now, src, TraceKind::Drop, dropped);
            }
            // The journey the admission opens is the one the drop ends.
            if let Some(mut j) = self.flight.admit(self.now, src, seq, flow) {
                j.push(self.now, src, TraceKind::Drop, dropped);
                j.complete();
            }
            self.try_feed(src);
            return seq;
        }
        let mut frame = Frame::data(seq, flow, src, dst, payload, self.now);
        frame.ack_ref = ack_ref;
        frame.src = src;
        frame.dst = nh;
        self.flight.admit(self.now, src, seq, flow);
        let id = self.arena.alloc(frame);
        let accepted = self.nodes[src].enqueue(true, id, &self.arena);
        debug_assert!(accepted, "own_queue_drop found room in the source queue");
        self.hot.occupancy[src] += 1;
        self.record_enqueue(src, true, nh, seq, flow);
        self.try_feed(src);
        seq
    }

    /// The `Drop` record: to the trace ring if armed and, ending it, to
    /// the packet's journey if tracked.
    fn record_drop(&mut self, node: usize, cause: DropCause, seq: u64) {
        let payload = TracePayload::Drop { cause, seq };
        if self.trace.enabled() {
            self.trace.push(self.now, node, TraceKind::Drop, payload);
        }
        if let Some(mut j) = self.flight.journey_mut(seq) {
            j.push(self.now, node, TraceKind::Drop, payload);
            j.complete();
        }
    }

    /// The `Enqueue` record of a tracked packet just queued at `node`
    /// toward `nh`, with the depth of the queue it joined.
    fn record_enqueue(&mut self, node: usize, own: bool, nh: usize, seq: u64, flow: u32) {
        if let Some(mut j) = self.flight.journey_mut(seq) {
            let (occ, cap) = self.nodes[node].queue_depth(own, nh);
            j.push(
                self.now,
                node,
                TraceKind::Enqueue,
                TracePayload::Enqueue {
                    seq,
                    flow,
                    occupancy: occ as u32,
                    cap: cap as u32,
                },
            );
        }
    }

    /// Pulls the estimate `node`'s controller just made, if any, into the
    /// audit ledger beside the true occupancy of the successor it names.
    fn audit_sample(&mut self, node: usize) {
        if self.audit.enabled() {
            if let Some((succ, est)) = self.nodes[node].controller.take_estimate() {
                let truth = self.hot.occupancy[succ];
                self.audit.record_sample(self.now, node, succ, est, truth);
            }
        }
    }

    /// Pulls the `CWmin` decision `node`'s controller just took, if any,
    /// into the audit ledger.
    fn audit_decision(&mut self, node: usize) {
        if self.audit.enabled() {
            if let Some(rec) = self.nodes[node].controller.take_decision() {
                self.audit.record_decision(self.now, node, rec);
            }
        }
    }

    fn on_tx_end(&mut self, tx: TxId, node: usize) {
        // Take-out/put-back (the `transports` pattern): the scratch report
        // is refilled in place by the channel — no per-transmission Vec
        // allocations — and must be out of `self` while deliveries fan out
        // through `&mut self` controller/trace calls.
        let mut report = std::mem::take(&mut self.end_report);
        self.channel
            .end_tx_into(self.now, tx, &mut self.chan_rng, &mut report);
        // One arena read per transmission: the fan-out below works off
        // this local copy; the id itself either transfers to the single
        // addressed clean receiver or is released when the fan-out ends.
        let frame = *self.arena.get(report.frame);
        let frame = &frame;
        if self.trace.enabled() {
            self.trace
                .push(self.now, node, TraceKind::TxEnd, frame_payload(frame));
        }
        let mut transferred = false;
        for d in &report.deliveries {
            // Decode-outcome attribution at the addressed receiver: where
            // the PHY says what actually happened to this transmission.
            if d.node == frame.dst {
                if let Some(mut j) = self.flight.journey_mut(frame.seq) {
                    j.push(
                        self.now,
                        d.node,
                        TraceKind::RxOutcome,
                        TracePayload::RxOutcome {
                            seq: frame.seq,
                            class: frame_class(frame.kind),
                            outcome: rx_outcome(d.outcome),
                        },
                    );
                }
            }
            if !d.clean {
                if self.trace.enabled() && d.node == frame.dst {
                    self.trace.push(
                        self.now,
                        d.node,
                        TraceKind::Collision,
                        TracePayload::Collision {
                            seq: frame.seq,
                            src: frame.src,
                        },
                    );
                }
                continue;
            }
            if d.node == frame.dst {
                // The addressed receiver takes ownership of the on-air
                // frame itself — no copy at all; everyone else borrows the
                // local read above. The id goes to the side FIFO; the
                // worklist carries only the kind marker.
                let marker = match frame.kind {
                    FrameKind::Data => WorkInput::RxData,
                    FrameKind::Ack => WorkInput::RxAck,
                    FrameKind::Rts => WorkInput::RxRts,
                    FrameKind::Cts => WorkInput::RxCts,
                };
                self.rx_frames.push_back(report.frame);
                transferred = true;
                self.worklist.push_back((d.node, marker));
            } else {
                match frame.kind {
                    FrameKind::Data => {
                        // Passive overhearing: the controller gets it for
                        // free. For tracked packets, the BOE's verdict is
                        // read back as a counter delta — the controller
                        // interface stays untouched.
                        let mut journey = self.flight.journey_mut(frame.seq);
                        let before = journey
                            .is_some()
                            .then(|| self.nodes[d.node].controller.counters());
                        let cmd = self.nodes[d.node]
                            .controller
                            .on_event(self.now, ControllerEvent::Overheard { frame });
                        if let (Some(j), Some(b)) = (journey.as_mut(), before) {
                            let a = self.nodes[d.node].controller.counters();
                            let verdict = if a.boe_hits > b.boe_hits {
                                Some(BoeVerdict::Hit)
                            } else if a.boe_ambiguous > b.boe_ambiguous {
                                Some(BoeVerdict::Ambiguous)
                            } else if a.boe_misses > b.boe_misses {
                                Some(BoeVerdict::Miss)
                            } else {
                                None
                            };
                            if let Some(verdict) = verdict {
                                j.push(
                                    self.now,
                                    d.node,
                                    TraceKind::BoeOverhear,
                                    TracePayload::BoeOverhear {
                                        seq: frame.seq,
                                        verdict,
                                    },
                                );
                            }
                        }
                        // Provenance probes (pull-based, read-only): the
                        // overhearing happened *before* the transmitter's
                        // own `TxEnded`, so the occupancy mirror still
                        // holds exactly the queue depth the BOE estimated.
                        self.audit_sample(d.node);
                        self.audit_decision(d.node);
                        self.apply_cw(d.node, cmd);
                    }
                    // Virtual carrier sense: overheard RTS/CTS reserve the
                    // medium from the end of the frame.
                    FrameKind::Rts | FrameKind::Cts if frame.nav_micros > 0 => {
                        let until = self.now + ezflow_sim::Duration::from_micros(frame.nav_micros);
                        self.worklist
                            .push_back((d.node, WorkInput::NavSet { until }));
                    }
                    _ => {}
                }
            }
        }
        if !transferred {
            // Nobody took ownership: the transmission died on the air
            // (collision, loss, or no addressed receiver in range).
            self.arena.release(report.frame);
        }
        // Direct dispatch of the carrier-sense transitions, in the order
        // the worklist used to impose: EIFS marks must precede the idle
        // transitions so the resumed deferral uses the extended space,
        // and both precede the transmitter's own `TxEnded`. None of the
        // three can produce anything but a single timer arm (scheduled
        // inline for `MediumIdle`), so no output buffer is needed; the
        // receiver markers queued above still drain *after* `TxEnded`,
        // through `mac_event`'s trailing drain.
        //
        // An EIFS mark is sticky until the station's next deferral, so it
        // goes to every station that sensed the frame without decoding it,
        // listening or not; the idle transitions go to the listeners only.
        if self.eifs {
            for r in self.channel.undecoded(frame.src, &report.deliveries) {
                self.nodes[r].mac.eifs_mark();
            }
        }
        for &r in &report.became_idle {
            if let Some((after, epoch)) = self.nodes[r].mac.medium_idle(self.now) {
                self.arm_tx_timer(r, after, epoch);
            }
        }
        self.end_report = report;
        self.mac_event(node, MacInput::TxEnded, true);
    }

    fn on_sample(&mut self) {
        for id in 0..self.nodes.len() {
            let occ = self.hot.occupancy[id] as usize;
            debug_assert_eq!(occ, self.nodes[id].occupancy(), "occupancy mirror drift");
            debug_assert_eq!(
                self.channel.listening(id),
                self.nodes[id].mac.counting_phase(),
                "listening bit drift at node {id}"
            );
            let cw = self.nodes[id].mac.cw_min();
            self.metrics.on_sample(self.now, id, occ, cw);
        }
        self.sched
            .schedule(self.now + self.sample_every, Ev::Sample);
    }

    fn on_backlog(&mut self) {
        for id in 0..self.nodes.len() {
            if self.nodes[id].controller.backlog_period().is_none() {
                continue;
            }
            for si in 0..self.successors[id].len() {
                let s = self.successors[id][si];
                let backlog = self.hot.occupancy[s] as usize;
                let own_backlog = self.hot.occupancy[id] as usize;
                let cmd = self.nodes[id].controller.on_event(
                    self.now,
                    ControllerEvent::NeighborBacklog {
                        neighbor: s,
                        backlog,
                        own_backlog,
                    },
                );
                self.audit_decision(id);
                self.apply_cw(id, cmd);
            }
        }
        self.drain();
        if let Some(p) = self.backlog_every {
            self.sched.schedule(self.now + p, Ev::Backlog);
        }
    }

    /// One telemetry sample window closing at `self.now` — reads queue
    /// depths, airtime deltas, MAC counter deltas and per-flow delivered
    /// bits into the telemetry rings, then re-arms the sampler.
    ///
    /// Interference-free by construction: the airtime settle splits the
    /// lazy integer-microsecond accrual exactly (totals every later
    /// reader sees are unchanged), every other access is a pure read,
    /// and the one push this makes is compensated in [`Network::snapshot`].
    fn on_telemetry(&mut self) {
        self.channel.accrue_airtime(self.now);
        self.telemetry.begin_window(self.now);
        for id in 0..self.nodes.len() {
            let occ = self.hot.occupancy[id] as f64;
            let air = self.channel.airtime_breakdown(id);
            let mac = self.nodes[id].mac.stats();
            self.telemetry.node_sample(id, occ, air, mac);
        }
        for (i, series) in self.metrics.throughput.values().enumerate() {
            self.telemetry.flow_sample(i, series.total_bits());
        }
        self.telemetry.finish_window();
        let next = self.now + self.telemetry.every();
        self.telemetry.note_push();
        self.sched.schedule(next, Ev::Telemetry);
    }

    /// Processes queued MAC inputs until quiescence.
    fn drain(&mut self) {
        let mut outs = self.mac_out_pool.pop().unwrap_or_default();
        while let Some((id, work)) = self.worklist.pop_front() {
            // Carrier-sense busy toggles (one per *listening* neighbour of
            // a new transmission) can never produce an output, and never
            // change `Mac::is_idle` (a pure function of phase + held
            // frame) — dispatched inline with no `MacInput` build, no
            // output loop, no feed probe.
            if let WorkInput::MediumBusy = work {
                self.nodes[id].mac.medium_busy(self.now);
                // A busy toggle freezes any running countdown: park the
                // invalidated timer entry.
                self.after_mac(id);
                continue;
            }
            // NAV reservations pause a countdown but cannot change
            // `Mac::is_idle` or any queue either, so the feed probe after
            // them is always a no-op; only received frames need it.
            let feed = !matches!(work, WorkInput::NavSet { .. });
            // Rebuild the full `MacInput` only here, at the dispatch
            // point — a freshly built large enum passed by value costs a
            // discriminant write plus the payload, not a deque round trip.
            let mut rx = || self.rx_frames.pop_front().expect("rx marker has a frame");
            let input = match work {
                WorkInput::MediumBusy => unreachable!("dispatched inline above"),
                WorkInput::NavSet { until } => MacInput::NavSet { until },
                WorkInput::RxData => MacInput::RxData { frame: rx() },
                WorkInput::RxAck => MacInput::RxAck { frame: rx() },
                WorkInput::RxRts => MacInput::RxRts { frame: rx() },
                WorkInput::RxCts => MacInput::RxCts { frame: rx() },
            };
            self.mac_input(id, input, &mut outs);
            for o in outs.drain(..) {
                self.handle_output(id, o);
            }
            if feed {
                self.try_feed(id);
            }
            self.after_mac(id);
        }
        self.mac_out_pool.push(outs);
    }

    fn handle_output(&mut self, id: usize, out: MacOutput) {
        match out {
            MacOutput::StartTx { frame, air, info } => {
                let f = *self.arena.get(frame);
                if self.trace.enabled() {
                    self.trace
                        .push(self.now, id, TraceKind::TxStart, frame_payload(&f));
                }
                // One DCF attempt with its contention state. Recorded for
                // the data frame only (an RTS preceding it shares the same
                // attempt; SIFS responses carry no contention info).
                if let Some(i) = info.filter(|_| f.is_data()) {
                    if let Some(mut j) = self.flight.journey_mut(f.seq) {
                        j.push(
                            self.now,
                            id,
                            TraceKind::Attempt,
                            TracePayload::Attempt {
                                seq: f.seq,
                                attempt: i.attempt,
                                cw: i.cw,
                                slots: i.slots,
                            },
                        );
                    }
                }
                let end = self.now + air;
                // Scratch report: `start_tx_into` refills it in place.
                // Disjoint-field borrows, so no take-out dance is needed.
                // The channel caches `src`/`dst` and never dereferences
                // the id; ownership stays with the engine until `TxEnd`.
                self.channel.start_tx_into(
                    self.now,
                    frame,
                    f.src,
                    f.dst,
                    end,
                    &mut self.start_report,
                );
                self.sched.schedule(
                    end,
                    Ev::TxEnd {
                        tx: self.start_report.tx_id,
                        node: id,
                    },
                );
                for &r in &self.start_report.became_busy {
                    self.worklist.push_back((r, WorkInput::MediumBusy));
                }
            }
            MacOutput::SetTimerTxPath { after, epoch } => self.arm_tx_timer(id, after, epoch),
            MacOutput::SetTimerAckJob { after, epoch } => self.arm_ack_timer(id, after, epoch),
            MacOutput::SetTimerNav { after } => {
                self.sched
                    .schedule(self.now + after, Ev::MacNav { node: id });
            }
            MacOutput::TxSuccess { frame, .. } => {
                // Terminal event: the MAC handed the id back; release it
                // and do the bookkeeping off the returned copy.
                let f = self.arena.release(frame);
                // Hop latency: enqueue at this node → acknowledged
                // transmission. Always on — deterministic, no RNG touched.
                self.metrics.hop_latency[id]
                    .record(self.now.saturating_since(f.hop_entered).as_micros());
                let cmd = self.nodes[id].controller.on_event(
                    self.now,
                    ControllerEvent::SentToSuccessor {
                        successor: f.dst,
                        frame: &f,
                    },
                );
                // Sink successors never transmit, so their zero-backlog
                // samples arrive through this event; a CAA round can
                // complete (and decide) here just as on an overhearing.
                self.audit_decision(id);
                self.apply_cw(id, cmd);
            }
            MacOutput::TxDropped { frame, .. } => {
                let f = self.arena.release(frame);
                self.metrics.retry_drops[id] += 1;
                self.record_drop(id, DropCause::RetryLimit, f.seq);
            }
            MacOutput::Deliver { frame } => self.on_deliver(id, frame),
            MacOutput::NeedFrame => self.try_feed(id),
        }
    }

    fn on_deliver(&mut self, id: usize, frame: FrameId) {
        let f = *self.arena.get(frame);
        if f.final_dst == id {
            // Terminal event: release before the bookkeeping; everything
            // below works off the returned copy.
            self.arena.release(frame);
            // Terminal record for the packet's journey — transport ACKs
            // are packets too and end theirs here.
            if let Some(mut j) = self.flight.journey_mut(f.seq) {
                j.push(
                    self.now,
                    id,
                    TraceKind::Deliver,
                    TracePayload::Deliver {
                        seq: f.seq,
                        flow: f.flow,
                    },
                );
                j.complete();
            }
            if f.flow >= TRANSPORT_ACK_FLOW {
                // A transport ACK made it back to the source.
                let data_flow = f.flow - TRANSPORT_ACK_FLOW;
                let ack_ref = f.ack_ref;
                self.with_transport(data_flow, |t, net| t.on_ack_delivered(net, ack_ref));
                return;
            }
            self.metrics.on_delivery(self.now, &f);
            let seq = f.seq;
            self.with_transport(f.flow, |t, net| t.on_data_delivered(net, seq));
            return;
        }
        let Some(nh) = self.routing.next_hop(id, f.final_dst) else {
            // A frame we cannot route: topology bug; count as a drop.
            self.arena.release(frame);
            self.metrics.queue_drops[id] += 1;
            self.record_drop(id, DropCause::Unroutable, f.seq);
            return;
        };
        // Hop rewrite in place — the frame never leaves its slot.
        {
            let fwd = self.arena.get_mut(frame);
            fwd.src = id;
            fwd.dst = nh;
            fwd.retry = false;
            // Per-hop latency clock restarts at every relay.
            fwd.hop_entered = self.now;
        }
        let seq = f.seq;
        let flow = f.flow;
        if !self.nodes[id].enqueue(false, frame, &self.arena) {
            self.arena.release(frame);
            self.metrics.queue_drops[id] += 1;
            self.record_drop(id, DropCause::QueueFull, seq);
        } else {
            self.hot.occupancy[id] += 1;
            self.record_enqueue(id, false, nh, seq, flow);
        }
        self.try_feed(id);
    }

    /// Feeds the MAC its next frame if it is idle and a queue is backlogged.
    pub(crate) fn try_feed(&mut self, id: usize) {
        if !self.nodes[id].mac.is_idle() {
            return;
        }
        let Some((frame, qidx)) = self.nodes[id].pop_round_robin() else {
            return;
        };
        self.hot.occupancy[id] -= 1;
        let f = {
            let g = self.arena.get_mut(frame);
            if g.origin == id && g.entered_net == g.created {
                g.entered_net = self.now;
            }
            *g
        };
        if let Some(mut j) = self.flight.journey_mut(f.seq) {
            j.push(
                self.now,
                id,
                TraceKind::Dequeue,
                TracePayload::Dequeue {
                    seq: f.seq,
                    flow: f.flow,
                },
            );
        }
        // §7 extension: per-successor windows. If the controller keeps a
        // distinct window for this frame's successor, program it for this
        // frame's contention (the 802.11e per-queue CWmin pattern).
        if let Some(cw) = self.nodes[id].controller.queue_window(f.dst) {
            if cw != self.nodes[id].mac.cw_min() {
                let node = &mut self.nodes[id];
                let outs = node.mac.input(
                    self.now,
                    MacInput::SetCwMin { cw_min: cw },
                    &mut node.rng,
                    &mut self.arena,
                );
                debug_assert!(outs.is_empty());
            }
        }
        let mut outs = self.mac_out_pool.pop().unwrap_or_default();
        self.mac_input(id, MacInput::Enqueue { frame, queue: qidx }, &mut outs);
        for o in outs.drain(..) {
            self.handle_output(id, o);
        }
        self.mac_out_pool.push(outs);
        // An enqueue into a running post-backoff freezes the countdown
        // (the frame attaches to the remaining slots) — park it; one from
        // `Idle` starts contending — listen.
        self.after_mac(id);
    }

    fn apply_cw(&mut self, id: usize, cmd: Option<u32>) {
        let Some(cw) = cmd else { return };
        if cw == self.nodes[id].mac.cw_min() {
            return;
        }
        if self.trace.enabled() {
            self.trace.push(
                self.now,
                id,
                TraceKind::CwChange,
                TracePayload::CwChange {
                    from: self.nodes[id].mac.cw_min(),
                    to: cw,
                },
            );
        }
        let node = &mut self.nodes[id];
        let outs = node.mac.input(
            self.now,
            MacInput::SetCwMin { cw_min: cw },
            &mut node.rng,
            &mut self.arena,
        );
        debug_assert!(outs.is_empty());
    }

    /// Takes a [`RunSnapshot`] of the whole network at the current
    /// simulated instant. Mutable because the channel's airtime accounts
    /// are brought up to date first.
    ///
    /// The latency histograms are cloned into the owned snapshot; callers
    /// that only want the JSON document should use
    /// [`Network::snapshot_json`], which serialises them from borrows.
    pub fn snapshot(&mut self, label: &str) -> RunSnapshot {
        let mut snap = self.snapshot_sans_latency(label);
        snap.latency = LatencySnapshot {
            per_flow: self
                .metrics
                .flow_latency
                .iter()
                .map(|(&f, h)| (f, h.clone()))
                .collect(),
            per_hop: self.metrics.hop_latency.clone(),
        };
        snap
    }

    /// The snapshot's JSON document, with the latency section serialised
    /// straight from the engine's histograms — no clone of the bucket
    /// vectors. Byte-identical to `self.snapshot(label).to_json()`; the
    /// benches use this form so the measurement epilogue does not charge
    /// the run a histogram copy per flow and per node.
    pub fn snapshot_json(&mut self, label: &str) -> JsonValue {
        let snap = self.snapshot_sans_latency(label);
        let latency = crate::snapshot::latency_json(
            self.metrics.flow_latency.iter().map(|(&f, h)| (f, h)),
            self.metrics.hop_latency.iter(),
        );
        snap.to_json_with_latency(latency)
    }

    /// Everything in a [`RunSnapshot`] except the latency histograms
    /// (left default): the shared core of [`Network::snapshot`] and
    /// [`Network::snapshot_json`].
    fn snapshot_sans_latency(&mut self, label: &str) -> RunSnapshot {
        self.channel.accrue_airtime(self.now);
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(id, node)| NodeSnapshot {
                id,
                controller: node.controller.name().to_string(),
                cw_min: node.mac.cw_min(),
                airtime: self.channel.airtime_breakdown(id),
                mac: node.mac.stats(),
                counters: node.controller.counters(),
                queues: node
                    .queues
                    .iter()
                    .map(|q| QueueSnapshot {
                        own: q.own,
                        successor: q.successor,
                        occupancy: q.len(),
                        cap: q.cap(),
                        high_water: q.high_water,
                        drops: q.drops,
                        accepted: q.accepted,
                    })
                    .collect(),
            })
            .collect();
        let wall_secs = self.wall.as_secs_f64();
        let sim_secs = self.now.as_micros() as f64 / 1e6;
        let per_wall = |x: f64| if wall_secs > 0.0 { x / wall_secs } else { 0.0 };
        // Telemetry compensation: with the sampler armed there is always
        // exactly one resident sampler entry (popped, then re-armed
        // before anything else is pushed), every push candidate for the
        // depth high-water mark is therefore exactly one higher than in
        // the telemetry-off run, and `pushes` counts the sampler's
        // schedule() calls. Subtracting all three makes the scheduler
        // block *equal* to a telemetry-off run's, not just close.
        let tel_resident = self.telemetry.enabled() as usize;
        // The MAC's epoch check is the one place a stale timer can be
        // seen; both stale keys of the schema carry its count.
        let stale_timers: u64 = self.nodes.iter().map(|n| n.mac.stats().stale_epochs).sum();
        RunSnapshot {
            label: label.to_string(),
            at_us: self.now.as_micros(),
            nodes,
            channel: self.channel.stats(),
            scheduler: SchedulerSnapshot {
                scheduled_total: self.sched.scheduled_total() - self.telemetry.pushes(),
                dispatched_total: self.events,
                stale_elided: stale_timers,
                rescheduled_total: self.sched.rescheduled_total(),
                removed_total: self.sched.removed_total(),
                pending: self.sched.len() - tel_resident,
                depth_high_water: self.sched.depth_high_water() - tel_resident,
                dispatched_by_kind: EV_NAMES
                    .iter()
                    .zip(self.dispatched.iter())
                    .map(|(&name, &n)| (name.to_string(), n))
                    .collect(),
            },
            perf: {
                let wheel = self.sched.wheel_stats();
                PerfSnapshot {
                    wall_secs,
                    sim_secs,
                    events_per_sec: per_wall((self.events + self.sched.rescheduled_total()) as f64),
                    sim_rate: per_wall(sim_secs),
                    sched_depth_high_water: (self.sched.depth_high_water() - tel_resident) as u64,
                    stale_epoch_drops: stale_timers,
                    sched_rotations: wheel.rotations,
                    sched_overflow_refills: wheel.overflow_refills,
                    sched_bucket_high_water: wheel.bucket_high_water,
                    trace_evictions: self.trace.pushed_total() - self.trace.len() as u64,
                    arena_high_water: self.arena.high_water() as u64,
                    handler_ns: self.handler_ns,
                    telemetry_windows: self.telemetry.windows(),
                    telemetry_windows_per_sec: per_wall(self.telemetry.windows() as f64),
                }
            },
            latency: LatencySnapshot::default(),
            trace_records: self.trace.pushed_total(),
            stability: self.telemetry.stability_snapshot(),
            controller: self.audit.controller_snapshot(),
        }
    }
}

impl TransportCtx for Network {
    fn now(&self) -> Time {
        Network::now(self)
    }

    fn send(&mut self, flow: u32, src: usize, dst: usize, payload: u32, ack_ref: u64) -> u64 {
        self.emit_packet(flow, src, dst, payload, ack_ref)
    }
}

#[cfg(test)]
mod tests {
    use crate::controller::{Controller, FixedController};
    use crate::network::{Network, NetworkSpec};
    use crate::snapshot::PerfSnapshot;
    use crate::topo;
    use ezflow_sim::Time;

    fn std_controller(_id: usize) -> Box<dyn Controller> {
        Box::new(FixedController::standard())
    }

    fn run_chain(hops: usize, secs: u64, seed: u64) -> Network {
        let t = topo::chain(hops, Time::ZERO, Time::from_secs(secs));
        let mut net = Network::from_topology(&t, seed, &std_controller);
        net.run_until(Time::from_secs(secs));
        net
    }

    #[test]
    fn single_hop_link_saturates_near_ideal_capacity() {
        let net = run_chain(1, 60, 1);
        let kbps = net
            .metrics
            .mean_kbps(0, Time::from_secs(10), Time::from_secs(60));
        // Analytic loss-free capacity is ~880 kb/s (see calibrate.rs).
        assert!(
            (850.0..905.0).contains(&kbps),
            "1-hop saturation throughput {kbps} kb/s"
        );
        // No relay: no queue drops anywhere but the source.
        assert_eq!(net.metrics.queue_drops.iter().sum::<u64>(), 0);
        assert!(net.metrics.source_drops[&0] > 0, "2 Mb/s CBR must overflow");
    }

    #[test]
    fn two_hop_throughput_is_roughly_half() {
        let net = run_chain(2, 60, 2);
        let kbps = net
            .metrics
            .mean_kbps(0, Time::from_secs(10), Time::from_secs(60));
        // Two mutually-sensing transmitters share the channel.
        assert!(
            (350.0..480.0).contains(&kbps),
            "2-hop saturation throughput {kbps} kb/s"
        );
    }

    #[test]
    fn delivery_counters_are_consistent() {
        let net = run_chain(3, 30, 3);
        let delivered = net.metrics.delivered[&0];
        assert!(delivered > 0);
        let bits = net.metrics.throughput[&0].total_bits();
        assert_eq!(bits as u64, delivered * 8000);
        // Delays are positive and time-ordered.
        let pts = net.metrics.delay_net[&0].points();
        assert_eq!(pts.len() as u64, delivered);
        assert!(pts.iter().all(|&(_, d)| d > 0.0));
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let a = run_chain(4, 20, 42);
        let b = run_chain(4, 20, 42);
        assert_eq!(a.metrics.delivered[&0], b.metrics.delivered[&0]);
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.mac_stats(0).tx_attempts, b.mac_stats(0).tx_attempts);
        let ka = a.metrics.mean_kbps(0, Time::ZERO, Time::from_secs(20));
        let kb = b.metrics.mean_kbps(0, Time::ZERO, Time::from_secs(20));
        assert_eq!(ka, kb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_chain(4, 20, 1);
        let b = run_chain(4, 20, 2);
        let sig = |n: &Network| {
            (0..4)
                .map(|i| n.mac_stats(i).tx_attempts)
                .collect::<Vec<_>>()
        };
        assert_ne!(
            sig(&a),
            sig(&b),
            "independent randomness should change micro-behaviour"
        );
    }

    #[test]
    fn without_capture_hidden_terminals_collide() {
        // Fault-model check: disabling capture turns the hidden pair
        // (0, 3) of a 4-hop chain into a collision source, and the MAC
        // recovers by retrying.
        let t = topo::chain(4, Time::ZERO, Time::from_secs(30));
        let mut spec = NetworkSpec::from_topology(&t, 5);
        spec.channel.cs_range = 550.0; // 3-hop neighbours hidden again
        spec.channel.capture_ratio = f64::INFINITY;
        let mut net = Network::new(spec, &std_controller);
        net.run_until(Time::from_secs(30));
        assert!(
            net.channel_stats().collisions_at_dst > 0,
            "hidden terminals must collide without capture"
        );
        assert!(net.mac_stats(0).retries > 0, "the MAC must retry");
        assert!(
            net.metrics.delivered[&0] > 0,
            "traffic still flows end to end"
        );
    }

    #[test]
    fn four_hop_first_relay_buffer_builds_up() {
        // The paper's Fig. 1: in a 4-hop chain under standard 802.11, the
        // first relay's buffer grows to saturation.
        let net = run_chain(4, 120, 7);
        let b1 = net.metrics.buffer[1].window(Time::from_secs(60), Time::from_secs(120));
        assert!(
            b1.mean > 40.0,
            "node 1 buffer should build toward 50, got mean {}",
            b1.mean
        );
        assert!(
            net.metrics.queue_drops[1] > 500,
            "the saturated relay must shed overflow, got {}",
            net.metrics.queue_drops[1]
        );
    }

    #[test]
    fn three_hop_chain_is_stable() {
        // "Stable" in the paper's sense: the relay buffer fluctuates but
        // does not ratchet to saturation, and overflow drops stay
        // negligible — contrast with `four_hop_first_relay_buffer_builds_up`.
        let net = run_chain(3, 120, 7);
        let b1 = net.metrics.buffer[1].window(Time::from_secs(60), Time::from_secs(120));
        assert!(
            b1.mean < 35.0,
            "3-hop node-1 mean buffer should stay off the ceiling, got {}",
            b1.mean
        );
        assert!(
            net.metrics.queue_drops[1] < 200,
            "3-hop relay overflow drops should be negligible, got {}",
            net.metrics.queue_drops[1]
        );
    }

    #[test]
    fn traffic_stops_at_flow_end() {
        let t = topo::chain(1, Time::ZERO, Time::from_secs(5));
        let mut net = Network::from_topology(&t, 9, &std_controller);
        net.run_until(Time::from_secs(30));
        let before = net.metrics.mean_kbps(0, Time::ZERO, Time::from_secs(5));
        let after = net
            .metrics
            .mean_kbps(0, Time::from_secs(10), Time::from_secs(30));
        assert!(before > 100.0);
        assert_eq!(after, 0.0, "no deliveries after the flow stops");
    }

    #[test]
    fn snapshot_captures_cross_layer_state_and_round_trips() {
        let t = topo::chain(3, Time::ZERO, Time::from_secs(20));
        let mut spec = NetworkSpec::from_topology(&t, 13);
        spec.trace_cap = 256;
        let mut net = Network::new(spec, &std_controller);
        net.run_until(Time::from_secs(20));
        let snap = net.snapshot("chain-3");

        assert_eq!(snap.label, "chain-3");
        assert_eq!(snap.at_us, 20_000_000);
        assert_eq!(snap.nodes.len(), 4);
        assert!(snap.scheduler.dispatched_total > 0);
        assert_eq!(
            snap.scheduler.dispatched_total,
            snap.scheduler
                .dispatched_by_kind
                .iter()
                .map(|(_, n)| n)
                .sum::<u64>(),
            "per-kind counts must sum to the total"
        );
        assert!(snap.scheduler.scheduled_total >= snap.scheduler.dispatched_total);
        assert!(snap.scheduler.depth_high_water > 0);
        assert!(snap.trace_records > 0);
        let tx_ends = snap
            .scheduler
            .dispatched_by_kind
            .iter()
            .find(|(k, _)| k == "tx_end")
            .expect("tx_end kind present")
            .1;
        assert!(tx_ends > 0, "a saturated chain transmits");
        for node in &snap.nodes {
            assert_eq!(node.controller, "802.11");
            assert_eq!(
                node.airtime.total_us(),
                snap.at_us,
                "airtime buckets must partition the run"
            );
        }
        // The source transmits; its counters show up.
        assert!(snap.nodes[0].mac.tx_attempts > 0);
        assert!(snap.nodes[0].airtime.tx_us > 0);
        assert!(snap.nodes[0].queues[0].high_water > 0);
        // Wall-clock accounting ran.
        assert!(snap.perf.wall_secs > 0.0);
        assert!(snap.perf.events_per_sec > 0.0);

        // JSON round trip through the sim JSON kernel.
        let text = snap.to_json().to_pretty();
        let parsed = ezflow_sim::JsonValue::parse(&text).unwrap();
        let back = crate::snapshot::RunSnapshot::from_json(&parsed).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_json_is_stable_across_identical_runs() {
        // Two identical runs must serialise byte-identically once the
        // (honestly non-deterministic) wall-clock block is zeroed: all
        // metric maps are ordered, so key order is a pure function of the
        // spec and seed.
        let snap_text = || {
            let t = topo::chain(3, Time::ZERO, Time::from_secs(15));
            let mut spec = NetworkSpec::from_topology(&t, 17);
            spec.trace_cap = 64;
            let mut net = Network::new(spec, &std_controller);
            net.run_until(Time::from_secs(15));
            let mut snap = net.snapshot("stability");
            snap.perf = PerfSnapshot::zeroed();
            snap.to_json().to_pretty()
        };
        assert_eq!(snap_text(), snap_text(), "snapshot JSON must be stable");
    }

    #[test]
    fn snapshot_json_matches_owned_snapshot_byte_for_byte() {
        // The borrowed-histogram fast path must be observationally
        // invisible: `snapshot_json` (no latency clones) and
        // `snapshot().to_json()` (owned histograms) must serialise the
        // same bytes. Taken at the same quiescent instant, the two calls
        // see identical state — `snapshot` is idempotent apart from
        // wall-clock noise, which lives in the perf block both paths
        // serialise identically from the same counters.
        let t = topo::chain(3, Time::ZERO, Time::from_secs(15));
        let spec = NetworkSpec::from_topology(&t, 17);
        let mut net = Network::new(spec, &std_controller);
        net.run_until(Time::from_secs(15));
        let owned = net.snapshot("pin").to_json().to_pretty();
        let borrowed = net.snapshot_json("pin").to_pretty();
        assert_eq!(owned, borrowed, "snapshot_json drifted from snapshot()");
        assert!(
            owned.contains("per_hop"),
            "pin run must exercise the latency section"
        );
    }

    #[test]
    fn trace_exports_typed_payloads_as_jsonl() {
        let t = topo::chain(2, Time::ZERO, Time::from_secs(10));
        let mut spec = NetworkSpec::from_topology(&t, 21);
        spec.trace_cap = 4096;
        let mut net = Network::new(spec, &std_controller);
        net.run_until(Time::from_secs(10));
        let jsonl = net.trace.to_jsonl();
        let parsed = ezflow_sim::TraceRing::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.len(), net.trace.len());
        // Typed payloads survived the trip: at least one frame record.
        assert!(parsed
            .iter()
            .any(|ev| matches!(ev.payload, ezflow_sim::TracePayload::Frame { .. })));
    }

    #[test]
    fn sample_traces_cover_the_run() {
        let net = run_chain(2, 10, 11);
        assert_eq!(net.metrics.buffer[0].len(), 10);
        assert_eq!(net.metrics.cw[1].len(), 10);
        // Standard controller: cw stays at the default.
        let cw = net.metrics.cw[1].window(Time::ZERO, Time::from_secs(10));
        assert_eq!(cw.mean, 32.0);
    }
}
