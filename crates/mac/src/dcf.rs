//! The DCF transmit/receive state machine.
//!
//! One [`Mac`] instance models one half-duplex 802.11 radio. Every input
//! has exactly one way in: [`Mac::input_into`] for a [`MacInput`], whose
//! outputs are appended to a caller-owned buffer, and three direct calls
//! for the carrier-sense signals, which can arm at most one timer. The
//! caller (the network layer) is responsible for:
//!
//! * feeding carrier-sense transitions ([`Mac::medium_busy`] /
//!   [`Mac::medium_idle`]) derived from the shared channel — at least
//!   while [`Mac::counting_phase`] holds, the only time a transition does
//!   anything but update the carrier mirror; a caller that skips the rest
//!   refreshes the mirror with [`Mac::sync_carrier`] before its next input,
//!   and marking undecodable energy with [`Mac::eifs_mark`],
//! * arming the timers the MAC requests, one pending entry per timer (a
//!   re-arm moves it), and feeding back the ones that fire
//!   ([`MacInput::TimerTxPath`] / [`MacInput::TimerAckJob`]); the caller
//!   cancels the transmit-path entry when [`Mac::tx_timer_pending`] turns
//!   false without a re-arm, and a firing the MAC does not owe is ignored
//!   and counted in [`MacStats::stale_timers`],
//! * actually putting frames on the air when told to
//!   ([`MacOutput::StartTx`]) and reporting when they leave the air
//!   ([`MacInput::TxEnded`]),
//! * delivering clean received frames addressed to this node
//!   ([`MacInput::Rx`]; the MAC reads the frame's kind itself).
//!
//! The transmit path is a textbook DCF cycle:
//!
//! ```text
//!   Idle --Enqueue--> Contend --(DIFS + backoff slots idle)--> TxData
//!        <--ACK ok--- WaitAck <--------- frame left the air ---'
//!          (success)     |
//!                        '--timeout--> Contend (attempt+1, window doubled)
//!                              ... until RETRY_LIMIT -> drop
//! ```
//!
//! Every input that takes the MAC from busy to [`Mac::is_idle`] emits
//! [`MacOutput::NeedFrame`], so a caller that feeds on that output and at
//! every enqueue never leaves an idle MAC beside a backlogged queue.

use ezflow_phy::{Frame, FrameArena, FrameId, FrameKind};
use ezflow_sim::{Duration, SimRng, Time};

use crate::config::{
    ack_timeout, cts_timeout, data_air, eifs, rts_nav, window, MacConfig, ACK_AIR, CTS_AIR,
    CW_MIN_DEFAULT, DIFS, RETRY_LIMIT, RTS_AIR, SIFS, SLOT,
};

/// Everything the network layer can tell the MAC through
/// [`Mac::input_into`]. Carrier sense is not here: it enters through
/// [`Mac::medium_busy`], [`Mac::medium_idle`] and [`Mac::eifs_mark`].
#[derive(Clone, Debug)]
pub enum MacInput {
    /// Hand the MAC the next data frame to transmit. Only legal when
    /// [`Mac::is_idle`] is true.
    Enqueue {
        /// Arena handle of the frame to send (hop addressing already set).
        /// Ownership moves to the MAC until a terminal completion.
        frame: FrameId,
    },
    /// A transmit-path timer armed via [`MacOutput::SetTimerTxPath`] fired.
    TimerTxPath,
    /// An ACK-response timer armed via [`MacOutput::SetTimerAckJob`] fired.
    TimerAckJob,
    /// The frame this MAC was transmitting has left the air. Whether the
    /// carrier is busy now that our own energy is gone is read from the
    /// mirror ([`Mac::sync_carrier`]).
    TxEnded,
    /// A clean frame addressed to this node arrived; the MAC dispatches
    /// on its kind and takes ownership of the handle. A data frame is
    /// re-emitted as [`MacOutput::Deliver`] or released (duplicate); an
    /// ACK, RTS or CTS is released.
    Rx {
        /// Arena handle of the received frame.
        frame: FrameId,
    },
    /// An overheard RTS/CTS reserved the medium (virtual carrier sense):
    /// treat it as busy until `until`.
    NavSet {
        /// End of the reservation.
        until: Time,
    },
    /// A NAV-expiry timer armed via [`MacOutput::SetTimerNav`] fired.
    TimerNav,
}

/// Contention state behind one DCF transmission attempt, captured when
/// the frame hits the air. This is the flight recorder's per-attempt
/// hook: `cw`/`slots` are the window and backoff actually drawn for the
/// attempt, not the MAC's current configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxAttempt {
    /// 0-based attempt number (0 = first transmission).
    pub attempt: u32,
    /// Contention window the backoff was drawn from.
    pub cw: u32,
    /// Backoff slots drawn for this attempt.
    pub slots: u32,
}

/// Everything the MAC can ask of the network layer.
#[derive(Clone, Debug)]
pub enum MacOutput {
    /// Put `frame` on the air for `air` time, then report `TxEnded`.
    /// The handle is a fresh per-attempt copy owned by the caller; the
    /// engine releases it when the transmission's fan-out completes.
    StartTx {
        /// Arena handle of the frame to transmit.
        frame: FrameId,
        /// Air time (PLCP + serialization).
        air: Duration,
        /// Attempt metadata for contended (data/RTS) transmissions;
        /// `None` for SIFS responses (ACK/CTS), which never contend.
        info: Option<TxAttempt>,
    },
    /// Arm (or re-arm, moving the pending entry) the transmit-path timer
    /// `after` from now.
    SetTimerTxPath {
        /// Delay from the current instant.
        after: Duration,
    },
    /// Arm (or re-arm) the ACK-response timer `after` from now.
    SetTimerAckJob {
        /// Delay from the current instant.
        after: Duration,
    },
    /// Arm a NAV-expiry wakeup `after` from now. Never cancelled: the
    /// handler re-checks the live NAV.
    SetTimerNav {
        /// Delay from the current instant.
        after: Duration,
    },
    /// The frame was acknowledged. The moment the packet verifiably sits in
    /// the successor's queue — the BOE's "transmission of packet p" hook.
    TxSuccess {
        /// Arena handle of the acknowledged frame; ownership returns to
        /// the caller, which releases it after its bookkeeping.
        frame: FrameId,
        /// Attempts used (1 = first try).
        attempts: u32,
    },
    /// The frame exhausted its retries and was dropped.
    TxDropped {
        /// Arena handle of the dropped frame; ownership returns to the
        /// caller, which releases it after its bookkeeping.
        frame: FrameId,
        /// Attempts used.
        attempts: u32,
    },
    /// A new (non-duplicate) data frame addressed to this node arrived;
    /// forward or consume it.
    Deliver {
        /// Arena handle of the received frame; ownership moves to the
        /// caller (forward, consume at the sink, or release).
        frame: FrameId,
    },
    /// The MAC just became idle; the network layer may enqueue the next
    /// frame.
    NeedFrame,
}

/// Counters a [`Mac`] keeps about itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Data transmission attempts put on the air.
    pub tx_attempts: u64,
    /// Frames acknowledged.
    pub tx_success: u64,
    /// ACK-timeout retries.
    pub retries: u64,
    /// Frames dropped at the retry limit.
    pub drops_retry: u64,
    /// ACKs transmitted.
    pub acks_sent: u64,
    /// Pending ACK/CTS responses never sent: the job was replaced by a
    /// newer reception before its SIFS timer fired (or, defensively, the
    /// timer found the radio busy, which DCF timing rules out).
    pub acks_suppressed: u64,
    /// Duplicate data frames received (re-ACKed, not re-delivered).
    pub dup_rx: u64,
    /// ACKs and CTSs received that matched no outstanding data frame or
    /// RTS.
    pub spurious_ack: u64,
    /// Clean data frames received and delivered upward.
    pub delivered: u64,
    /// RTS frames transmitted.
    pub rts_sent: u64,
    /// CTS frames transmitted.
    pub cts_sent: u64,
    /// CTS timeouts (failed RTS handshakes).
    pub cts_timeouts: u64,
    /// Backoff slots drawn across all contention rounds — a direct read
    /// on how much the station has been backing off.
    pub backoff_slots: u64,
    /// Countdown freezes caused by carrier sense reporting busy.
    pub cca_busy: u64,
    /// Countdowns that started with EIFS instead of DIFS (penalty after
    /// an undecodable frame).
    pub eifs_starts: u64,
    /// Timer firings ignored because the MAC no longer owed them: a
    /// transmit-path timer fed while [`Mac::tx_timer_pending`] is false
    /// (or while a missed freeze left a countdown running that cannot
    /// run), an ACK-job timer with no job.
    /// Zero under a caller that removes a cancelled timer before it fires.
    pub stale_timers: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// No frame, post-backoff completed: the next enqueue on an idle
    /// medium gets *immediate access* (DIFS only, no random backoff) —
    /// the standard rule that lets a relay forward a just-received packet
    /// ahead of the source's next contention round.
    Idle,
    /// No frame, but the mandatory post-transmission backoff is still
    /// counting down. An enqueue during this phase *attaches* to the
    /// remaining slots.
    PostBackoff,
    Contend,
    /// Transmitting an RTS (RTS/CTS mode only).
    TxRts,
    /// Waiting for the CTS answering our RTS.
    WaitCts,
    /// CTS received; waiting SIFS before the data frame.
    SifsData,
    TxData,
    WaitAck,
}

#[derive(Clone, Copy, Debug)]
struct Current {
    /// Arena handle of the frame being worked; the MAC owns it from
    /// `Enqueue` until `TxSuccess`/`TxDropped` hands it back.
    frame: FrameId,
    /// 0-based attempt counter.
    attempt: u32,
    slots_left: u32,
    /// Contention window the current attempt's backoff was drawn from.
    cw_drawn: u32,
    /// Backoff slots drawn for the current attempt (before countdown).
    slots_drawn: u32,
}

/// One 802.11 DCF radio.
pub struct Mac {
    cfg: MacConfig,
    node: usize,
    cw_min: u32,
    phase: Phase,
    cur: Option<Current>,
    /// Carrier-sense mirror (other transmitters only): kept current by
    /// the busy/idle inputs while counting, by [`Mac::sync_carrier`]
    /// otherwise.
    medium_busy: bool,
    /// True while this radio is itself transmitting (data or ACK).
    radio_busy: bool,
    txing_kind: Option<FrameKind>,
    /// When the current DIFS+countdown run started; `None` while frozen.
    countdown_from: Option<Time>,
    /// Remaining post-backoff slots (meaningful in `Phase::PostBackoff`).
    post_slots: u32,
    /// Virtual carrier sense: the medium is reserved until this instant.
    nav_until: Time,
    /// EIFS pending: the next countdown defers EIFS instead of DIFS.
    eifs_pending: bool,
    /// The inter-frame space the running countdown was started with.
    current_ifs: Duration,
    ack_job: Option<FrameId>,
    /// Per-sender id of the last received frame, for duplicate filtering.
    /// A tiny association list, not a hash map: a node hears at most a
    /// handful of senders, and the linear probe beats hashing on every
    /// received frame.
    last_rx: Vec<(usize, u64)>,
    stats: MacStats,
}

impl Mac {
    /// Creates an idle MAC for `node`.
    pub fn new(node: usize, cfg: MacConfig) -> Self {
        Mac {
            cfg,
            node,
            cw_min: CW_MIN_DEFAULT,
            phase: Phase::Idle,
            cur: None,
            medium_busy: false,
            radio_busy: false,
            txing_kind: None,
            countdown_from: None,
            post_slots: 0,
            nav_until: Time::ZERO,
            eifs_pending: false,
            current_ifs: DIFS,
            ack_job: None,
            last_rx: Vec::new(),
            stats: MacStats::default(),
        }
    }

    /// The node this MAC belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Current minimum contention window.
    pub fn cw_min(&self) -> u32 {
        self.cw_min
    }

    /// Sets the minimum contention window (the controller's — EZ-flow's —
    /// one actuator), at least one slot. Takes effect at the next backoff
    /// draw.
    pub fn set_cw_min(&mut self, cw_min: u32) {
        self.cw_min = cw_min.max(1);
    }

    /// True iff the MAC can accept an [`MacInput::Enqueue`] — it has no
    /// frame in flight. During post-backoff the enqueue attaches to the
    /// remaining countdown.
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::Idle | Phase::PostBackoff) && self.cur.is_none()
    }

    /// Counters.
    pub fn stats(&self) -> MacStats {
        self.stats
    }

    /// Number of arena frames this MAC currently owns (the in-flight data
    /// frame and any pending ACK/CTS job) — the MAC's contribution to the
    /// engine's arena leak audit.
    pub fn held_frames(&self) -> usize {
        usize::from(self.cur.is_some()) + usize::from(self.ack_job.is_some())
    }

    /// True while the MAC owes its transmit-path timer a firing: a
    /// countdown is running, or a CTS/ACK timeout or the SIFS before a
    /// data frame is pending. A caller holding a pending entry while this
    /// is false removes it; one that feeds it anyway has it ignored and
    /// counted in [`MacStats::stale_timers`].
    pub fn tx_timer_pending(&self) -> bool {
        match self.phase {
            Phase::Contend | Phase::PostBackoff => self.countdown_from.is_some(),
            Phase::WaitAck | Phase::WaitCts | Phase::SifsData => true,
            Phase::Idle | Phase::TxRts | Phase::TxData => false,
        }
    }

    /// Feeds one input, appending the outputs it provoked to `out`.
    ///
    /// The buffer is *not* cleared: the caller owns its lifecycle, so a
    /// drained buffer can be reused across millions of inputs without a
    /// single allocation — the network layer keeps a small pool for exactly
    /// that (MAC handling can recurse through frame delivery).
    pub fn input_into(
        &mut self,
        now: Time,
        input: MacInput,
        rng: &mut SimRng,
        arena: &mut FrameArena,
        out: &mut Vec<MacOutput>,
    ) {
        match input {
            MacInput::Enqueue { frame } => self.on_enqueue(now, frame, rng, out),
            MacInput::TimerTxPath => self.on_timer_tx(now, rng, arena, out),
            MacInput::TimerAckJob => self.on_timer_ack(now, arena, out),
            MacInput::TxEnded => self.on_tx_ended(now, out),
            MacInput::Rx { frame } => match arena.get(frame).kind {
                FrameKind::Data => self.on_rx_data(frame, arena, out),
                FrameKind::Ack => self.on_rx_ack(now, frame, rng, arena, out),
                FrameKind::Rts => self.on_rx_rts(frame, arena, out),
                FrameKind::Cts => self.on_rx_cts(frame, arena, out),
            },
            MacInput::NavSet { until } => self.on_nav_set(now, until, out),
            MacInput::TimerNav => self.on_timer_nav(now, out),
        }
    }

    fn draw_slots(&mut self, attempt: u32, rng: &mut SimRng) -> u32 {
        let window = window(self.cw_min, attempt);
        let slots = rng.gen_range(window.max(1));
        self.stats.backoff_slots += slots as u64;
        slots
    }

    fn can_count_down(&self, now: Time) -> bool {
        !self.medium_busy && !self.radio_busy && now >= self.nav_until
    }

    /// Number of backoff slots still owed in the current phase.
    fn slots_left(&self) -> u32 {
        match self.phase {
            Phase::Contend => self.cur.as_ref().expect("contend without frame").slots_left,
            Phase::PostBackoff => self.post_slots,
            _ => unreachable!("no countdown in {:?}", self.phase),
        }
    }

    /// True while a backoff countdown is owed (contending for a frame, or
    /// in post-transmission backoff) — the only phases in which a carrier
    /// transition freezes or resumes anything. In every other phase
    /// [`Mac::medium_busy`] / [`Mac::medium_idle`] merely write the
    /// mirror, so a caller may skip them there and call
    /// [`Mac::sync_carrier`] before the next input instead.
    pub fn counting_phase(&self) -> bool {
        matches!(self.phase, Phase::Contend | Phase::PostBackoff)
    }

    /// Overwrites the carrier-sense mirror with the channel's truth. To be
    /// called immediately before any input that may read the carrier, by a
    /// caller that delivers busy/idle transitions only while
    /// [`Mac::counting_phase`] holds. A counting MAC has been told every
    /// transition, so for it the write must be a no-op.
    pub fn sync_carrier(&mut self, busy: bool) {
        debug_assert!(
            !self.counting_phase() || self.medium_busy == busy,
            "node {}: a counting MAC missed a carrier transition",
            self.node
        );
        self.medium_busy = busy;
    }

    /// Starts (or restarts) the DIFS + remaining-slots countdown at `now`.
    fn start_countdown(&mut self, now: Time, out: &mut Vec<MacOutput>) {
        if let Some(after) = self.arm_countdown(now) {
            out.push(MacOutput::SetTimerTxPath { after });
        }
    }

    /// The countdown arm itself, returned as its delay instead of pushed
    /// as a [`MacOutput`] — the engine's direct dispatch path schedules it
    /// without an output buffer round trip.
    fn arm_countdown(&mut self, now: Time) -> Option<Duration> {
        debug_assert!(self.counting_phase());
        debug_assert!(self.can_count_down(now));
        if self.countdown_from.is_some() {
            return None; // already counting
        }
        let slots = self.slots_left();
        self.countdown_from = Some(now);
        // EIFS applies to the first deferral after the undecodable frame.
        self.current_ifs = if std::mem::take(&mut self.eifs_pending) {
            self.stats.eifs_starts += 1;
            eifs()
        } else {
            DIFS
        };
        Some(self.current_ifs + SLOT * slots as u64)
    }

    /// Freezes the countdown at `now`, banking fully elapsed slots. The
    /// armed timer is no longer owed ([`Mac::tx_timer_pending`]).
    fn freeze_countdown(&mut self, now: Time) {
        let Some(started) = self.countdown_from.take() else {
            return;
        };
        let elapsed = now.saturating_since(started);
        if elapsed <= self.current_ifs {
            return;
        }
        let consumed = (elapsed - self.current_ifs).div_floor(SLOT) as u32;
        match self.phase {
            Phase::Contend => {
                let cur = self.cur.as_mut().expect("contend without frame");
                cur.slots_left = cur.slots_left.saturating_sub(consumed);
            }
            Phase::PostBackoff => {
                self.post_slots = self.post_slots.saturating_sub(consumed);
            }
            _ => {}
        }
    }

    /// Begins the mandatory post-transmission backoff.
    fn begin_post_backoff(&mut self, now: Time, rng: &mut SimRng, out: &mut Vec<MacOutput>) {
        self.post_slots = self.draw_slots(0, rng);
        self.phase = Phase::PostBackoff;
        self.countdown_from = None;
        if self.can_count_down(now) {
            self.start_countdown(now, out);
        }
    }

    fn on_enqueue(
        &mut self,
        now: Time,
        frame: FrameId,
        rng: &mut SimRng,
        out: &mut Vec<MacOutput>,
    ) {
        assert!(self.is_idle(), "Enqueue on a non-idle MAC");
        let slots_left = match self.phase {
            Phase::PostBackoff => {
                // Attach to the running post-backoff: bank elapsed slots,
                // inherit the remainder.
                self.freeze_countdown(now);
                self.post_slots
            }
            _ if self.can_count_down(now) => 0, // immediate access (DIFS only)
            _ => self.draw_slots(0, rng),
        };
        self.cur = Some(Current {
            frame,
            attempt: 0,
            slots_left,
            cw_drawn: window(self.cw_min, 0),
            slots_drawn: slots_left,
        });
        self.phase = Phase::Contend;
        if self.can_count_down(now) {
            self.start_countdown(now, out);
        }
    }

    /// The carrier went idle -> busy.
    ///
    /// Carrier-sense transitions are the bulk of all MAC inputs (every
    /// transmission toggles busy/idle at every sensing neighbour) and can
    /// never produce an output, so they bypass [`Mac::input_into`] and
    /// its output buffer.
    pub fn medium_busy(&mut self, now: Time) {
        self.medium_busy = true;
        if self.counting_phase() {
            if self.countdown_from.is_some() {
                self.stats.cca_busy += 1;
            }
            self.freeze_countdown(now);
        }
    }

    /// The carrier went busy -> idle. The only possible output is a
    /// single tx-path timer arm, returned as its delay for the caller to
    /// schedule itself.
    pub fn medium_idle(&mut self, now: Time) -> Option<Duration> {
        self.medium_busy = false;
        if self.counting_phase() && self.can_count_down(now) {
            self.arm_countdown(now)
        } else {
            None
        }
    }

    /// The node sensed a frame it could not decode (energy without a
    /// clean reception). With EIFS enabled, the next deferral uses the
    /// extended inter-frame space. No outputs.
    pub fn eifs_mark(&mut self) {
        if self.cfg.eifs {
            self.eifs_pending = true;
        }
    }

    fn on_timer_tx(
        &mut self,
        now: Time,
        rng: &mut SimRng,
        arena: &mut FrameArena,
        out: &mut Vec<MacOutput>,
    ) {
        // A countdown that cannot run now should have been frozen, which
        // cancels its timer: both are firings the MAC does not owe.
        if !self.tx_timer_pending() || (self.counting_phase() && !self.can_count_down(now)) {
            self.stats.stale_timers += 1;
            return;
        }
        match self.phase {
            Phase::Contend => {
                self.countdown_from = None;
                let cur = self.cur.as_mut().expect("contend without frame");
                cur.slots_left = 0;
                // The MAC keeps its handle for further retries; what goes
                // on the air is a per-attempt arena copy with the retry
                // bit stamped.
                let mut frame = *arena.get(cur.frame);
                frame.retry = cur.attempt > 0;
                let info = Some(TxAttempt {
                    attempt: cur.attempt,
                    cw: cur.cw_drawn,
                    slots: cur.slots_drawn,
                });
                if self.cfg.rts_cts {
                    // Reserve the medium first.
                    let nav = rts_nav(frame.payload_bytes);
                    let mut rts = Frame::rts_for(&frame, nav.as_micros());
                    rts.retry = frame.retry;
                    self.phase = Phase::TxRts;
                    self.radio_busy = true;
                    self.txing_kind = Some(FrameKind::Rts);
                    self.stats.rts_sent += 1;
                    let air = RTS_AIR;
                    out.push(MacOutput::StartTx {
                        frame: arena.alloc(rts),
                        air,
                        info,
                    });
                } else {
                    self.phase = Phase::TxData;
                    self.radio_busy = true;
                    self.txing_kind = Some(FrameKind::Data);
                    self.stats.tx_attempts += 1;
                    let air = data_air(frame.payload_bytes);
                    out.push(MacOutput::StartTx {
                        frame: arena.alloc(frame),
                        air,
                        info,
                    });
                }
            }
            Phase::PostBackoff => {
                // Post-backoff served: the MAC is now truly idle and the
                // next enqueue gets immediate access.
                self.countdown_from = None;
                self.post_slots = 0;
                self.phase = Phase::Idle;
                out.push(MacOutput::NeedFrame);
            }
            Phase::WaitAck => {
                // ACK timeout.
                self.retry_or_drop(now, rng, out);
            }
            Phase::WaitCts => {
                // CTS timeout: the handshake failed.
                self.stats.cts_timeouts += 1;
                self.retry_or_drop(now, rng, out);
            }
            Phase::SifsData => {
                // SIFS elapsed after the CTS: send the data frame
                // unconditionally (SIFS-priority, no carrier sense).
                let cur = self.cur.as_mut().expect("sifsdata without frame");
                let mut frame = *arena.get(cur.frame);
                frame.retry = cur.attempt > 0;
                let info = Some(TxAttempt {
                    attempt: cur.attempt,
                    cw: cur.cw_drawn,
                    slots: cur.slots_drawn,
                });
                self.phase = Phase::TxData;
                self.radio_busy = true;
                self.txing_kind = Some(FrameKind::Data);
                self.stats.tx_attempts += 1;
                let air = data_air(frame.payload_bytes);
                out.push(MacOutput::StartTx {
                    frame: arena.alloc(frame),
                    air,
                    info,
                });
            }
            _ => {}
        }
    }

    /// Shared ACK/CTS-timeout path: retry with a doubled window or drop
    /// at the attempt limit.
    fn retry_or_drop(&mut self, now: Time, rng: &mut SimRng, out: &mut Vec<MacOutput>) {
        let cur = self.cur.as_mut().expect("retry without frame");
        cur.attempt += 1;
        self.stats.retries += 1;
        if cur.attempt >= RETRY_LIMIT {
            self.stats.drops_retry += 1;
            let cur = self.cur.take().expect("checked above");
            self.begin_post_backoff(now, rng, out);
            out.push(MacOutput::TxDropped {
                frame: cur.frame,
                attempts: cur.attempt,
            });
            out.push(MacOutput::NeedFrame);
        } else {
            let attempt = cur.attempt;
            let slots = self.draw_slots(attempt, rng);
            let cw = window(self.cw_min, attempt);
            let cur = self.cur.as_mut().expect("checked above");
            cur.slots_left = slots;
            cur.cw_drawn = cw;
            cur.slots_drawn = slots;
            self.phase = Phase::Contend;
            if self.can_count_down(now) {
                self.start_countdown(now, out);
            }
        }
    }

    fn on_timer_ack(&mut self, now: Time, arena: &mut FrameArena, out: &mut Vec<MacOutput>) {
        let Some(ack) = self.ack_job.take() else {
            self.stats.stale_timers += 1;
            return;
        };
        if self.radio_busy {
            // Cannot happen under DCF timing (SIFS < DIFS); tolerate it.
            self.stats.acks_suppressed += 1;
            arena.release(ack);
            return;
        }
        // Our own transmission freezes the data-path countdown.
        if self.counting_phase() {
            self.freeze_countdown(now);
        }
        let kind = arena.get(ack).kind;
        self.radio_busy = true;
        self.txing_kind = Some(kind);
        let air = match kind {
            FrameKind::Cts => {
                self.stats.cts_sent += 1;
                CTS_AIR
            }
            _ => {
                self.stats.acks_sent += 1;
                ACK_AIR
            }
        };
        out.push(MacOutput::StartTx {
            frame: ack,
            air,
            info: None,
        });
    }

    fn on_tx_ended(&mut self, now: Time, out: &mut Vec<MacOutput>) {
        self.radio_busy = false;
        match self.txing_kind.take() {
            Some(FrameKind::Data) => {
                debug_assert_eq!(self.phase, Phase::TxData);
                self.phase = Phase::WaitAck;
                out.push(MacOutput::SetTimerTxPath {
                    after: ack_timeout(),
                });
            }
            Some(FrameKind::Rts) => {
                debug_assert_eq!(self.phase, Phase::TxRts);
                self.phase = Phase::WaitCts;
                out.push(MacOutput::SetTimerTxPath {
                    after: cts_timeout(),
                });
            }
            Some(FrameKind::Ack) | Some(FrameKind::Cts) => {
                // A response left the radio; resume any paused countdown.
                if self.counting_phase() && self.can_count_down(now) {
                    self.start_countdown(now, out);
                }
            }
            None => debug_assert!(false, "TxEnded with no transmission in flight"),
        }
    }

    fn on_rx_data(&mut self, frame: FrameId, arena: &mut FrameArena, out: &mut Vec<MacOutput>) {
        let f = *arena.get(frame);
        debug_assert_eq!(f.dst, self.node);
        // Always (re-)acknowledge after SIFS, even for duplicates.
        if let Some(old) = self.ack_job.take() {
            // Two clean overlapping receptions are impossible; if the
            // network layer ever produces this, prefer the newest.
            self.stats.acks_suppressed += 1;
            arena.release(old);
        }
        self.ack_job = Some(arena.alloc(Frame::ack_for(&f)));
        out.push(MacOutput::SetTimerAckJob { after: SIFS });
        // Duplicate filtering: a retry repeats the most recent id from that
        // sender (per-link FIFO makes equality sufficient).
        match self.last_rx.iter_mut().find(|(src, _)| *src == f.src) {
            Some((_, seq)) if *seq == f.seq => {
                self.stats.dup_rx += 1;
                arena.release(frame);
                return;
            }
            Some((_, seq)) => *seq = f.seq,
            None => self.last_rx.push((f.src, f.seq)),
        }
        self.stats.delivered += 1;
        out.push(MacOutput::Deliver { frame });
    }

    fn on_rx_ack(
        &mut self,
        now: Time,
        frame: FrameId,
        rng: &mut SimRng,
        arena: &mut FrameArena,
        out: &mut Vec<MacOutput>,
    ) {
        // An ACK terminates at its receiver either way: copy, release.
        let ack = arena.release(frame);
        let matches = self.phase == Phase::WaitAck
            && self.cur.as_ref().is_some_and(|c| {
                let cf = arena.get(c.frame);
                cf.seq == ack.seq && ack.src == cf.dst
            });
        if !matches {
            self.stats.spurious_ack += 1;
            return;
        }
        // Post-backoff re-arms or cancels the ACK timeout.
        let cur = self.cur.take().expect("matched above");
        self.stats.tx_success += 1;
        self.begin_post_backoff(now, rng, out);
        out.push(MacOutput::TxSuccess {
            frame: cur.frame,
            attempts: cur.attempt + 1,
        });
        out.push(MacOutput::NeedFrame);
    }

    fn on_rx_rts(&mut self, frame: FrameId, arena: &mut FrameArena, out: &mut Vec<MacOutput>) {
        let frame = arena.release(frame);
        debug_assert_eq!(frame.dst, self.node);
        // Answer with a CTS after SIFS, reserving the rest of the
        // handshake. As in the standard, the CTS duration is derived from
        // the RTS's own duration field (the RTS does not carry the data
        // length): NAV_cts = NAV_rts - SIFS - T_cts.
        // (Standard nuance: a station whose NAV is set should stay
        // silent; with our geometry an addressed station's NAV is never
        // set by a third party mid-handshake, so we always answer.)
        let nav = Duration::from_micros(
            frame
                .nav_micros
                .saturating_sub((SIFS + CTS_AIR).as_micros()),
        );
        if let Some(old) = self.ack_job.take() {
            self.stats.acks_suppressed += 1;
            arena.release(old);
        }
        self.ack_job = Some(arena.alloc(Frame::cts_for(&frame, nav.as_micros())));
        out.push(MacOutput::SetTimerAckJob { after: SIFS });
    }

    fn on_rx_cts(&mut self, frame: FrameId, arena: &mut FrameArena, out: &mut Vec<MacOutput>) {
        // A CTS terminates at its receiver either way: copy, release.
        let cts = arena.release(frame);
        let matches = self.phase == Phase::WaitCts
            && self.cur.as_ref().is_some_and(|c| {
                let cf = arena.get(c.frame);
                cf.seq == cts.seq && cts.src == cf.dst
            });
        if !matches {
            self.stats.spurious_ack += 1;
            return;
        }
        // The SIFS timer replaces the CTS timeout.
        self.phase = Phase::SifsData;
        out.push(MacOutput::SetTimerTxPath { after: SIFS });
    }

    fn on_nav_set(&mut self, now: Time, until: Time, out: &mut Vec<MacOutput>) {
        if until <= self.nav_until || until <= now {
            return;
        }
        self.nav_until = until;
        if self.counting_phase() {
            self.freeze_countdown(now);
        }
        out.push(MacOutput::SetTimerNav {
            after: until.since(now),
        });
    }

    fn on_timer_nav(&mut self, now: Time, out: &mut Vec<MacOutput>) {
        // A stale wakeup (the NAV was extended since) simply re-checks.
        if self.counting_phase() && self.can_count_down(now) {
            self.start_countdown(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_sim::Duration;

    const SLOT: u64 = 20;
    const DIFS: u64 = 50;
    const SIFS: u64 = 10;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    fn data(seq: u64, src: usize, dst: usize) -> Frame {
        let mut f = Frame::data(seq, 0, src, dst, 1000, Time::ZERO);
        f.src = src;
        f.dst = dst;
        f
    }

    /// A MAC with cw_min = 1 always draws 0 backoff slots, making timer
    /// delays exact and tests deterministic.
    fn det_mac(node: usize) -> (Mac, SimRng, FrameArena) {
        let mut mac = Mac::new(node, MacConfig::default());
        mac.set_cw_min(1);
        (mac, SimRng::new(99), FrameArena::new())
    }

    /// Feeds one input through [`Mac::input_into`], reusing `buf` (cleared
    /// first), and returns the outputs it provoked.
    fn feed<'a>(
        mac: &mut Mac,
        now: Time,
        input: MacInput,
        rng: &mut SimRng,
        arena: &mut FrameArena,
        buf: &'a mut Vec<MacOutput>,
    ) -> &'a [MacOutput] {
        buf.clear();
        mac.input_into(now, input, rng, arena, buf);
        buf
    }

    fn timer_delay(out: &[MacOutput]) -> Duration {
        out.iter()
            .find_map(|o| match o {
                MacOutput::SetTimerTxPath { after } => Some(*after),
                _ => None,
            })
            .expect("expected a tx-path timer")
    }

    #[test]
    fn happy_path_tx_cycle() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        assert!(mac.is_idle());

        // Enqueue on an idle medium: DIFS + 0 slots.
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let after = timer_delay(out);
        assert_eq!(after, Duration::from_micros(DIFS));
        assert!(!mac.is_idle());

        // Backoff completes: frame goes on the air.
        let out = feed(
            &mut mac,
            t(DIFS),
            MacInput::TimerTxPath,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let air = match &out[0] {
            MacOutput::StartTx { frame, air, .. } => {
                assert_eq!(arena.get(*frame).seq, 1);
                assert!(!arena.get(*frame).retry);
                *air
            }
            o => panic!("expected StartTx, got {o:?}"),
        };
        assert_eq!(air, Duration::from_micros(8416));

        // Frame leaves the air: ACK timeout armed.
        let end = t(DIFS) + air;
        let out = feed(
            &mut mac,
            t(end.as_micros()),
            MacInput::TxEnded,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let after = timer_delay(out);
        assert_eq!(after, Duration::from_micros(SIFS + 304 + SLOT));

        // ACK arrives in time.
        let ack = arena.alloc(Frame::ack_for(&data(1, 0, 1)));
        let out = feed(
            &mut mac,
            end + Duration::from_micros(SIFS + 304),
            MacInput::Rx { frame: ack },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::TxSuccess { attempts: 1, .. })));
        assert!(out.iter().any(|o| matches!(o, MacOutput::NeedFrame)));
        // A post-transmission backoff is armed before the next access.
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::SetTimerTxPath { .. })));
        assert!(mac.is_idle(), "post-backoff still accepts the next frame");
        assert_eq!(mac.stats().tx_success, 1);
    }

    #[test]
    fn backoff_freezes_and_resumes_with_remaining_slots() {
        let mut mac = Mac::new(0, MacConfig::default());
        let mut rng = SimRng::new(7);
        let mut arena = FrameArena::new();
        let mut buf = Vec::new();
        mac.set_cw_min(16);
        // Enqueue while the medium is busy: a random backoff is drawn
        // (immediate access does not apply).
        mac.medium_busy(t(0));
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty());
        let after = mac.medium_idle(t(0)).expect("the countdown resumes");
        let total_slots = (after.as_micros() - DIFS) / SLOT;

        // Busy after DIFS + 2 full slots + half a slot.
        let busy_at = DIFS + 2 * SLOT + 10;
        assert!(
            total_slots >= 3,
            "need >= 3 slots for this test, redraw seed"
        );
        mac.medium_busy(t(busy_at));
        // Idle again later: remaining = total - 2 (the half slot is lost).
        let after2 = mac.medium_idle(t(1000)).expect("the countdown resumes");
        let remaining = (after2.as_micros() - DIFS) / SLOT;
        assert_eq!(remaining, total_slots - 2);
    }

    #[test]
    fn busy_during_difs_consumes_nothing() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let after = timer_delay(out);
        assert_eq!(after.as_micros(), DIFS);
        mac.medium_busy(t(20)); // mid-DIFS
        let after2 = mac.medium_idle(t(500)).expect("the countdown resumes");
        assert_eq!(after2.as_micros(), DIFS, "DIFS restarts in full");
    }

    /// Pins the same-slot tie as the simulator resolves it today: a
    /// neighbour's transmission that starts at the instant this station's
    /// countdown ends freezes the countdown with every slot consumed, and
    /// the station sends one DIFS after that frame instead of colliding
    /// with it. Real radios and ns-2 collide here; this is the deviation
    /// that colliding ties (ROADMAP.md, item 13(d)) flip, and this test
    /// flips with it.
    #[test]
    fn countdown_due_at_a_busy_instant_is_serialised_not_collided() {
        let mut mac = Mac::new(0, MacConfig::default());
        let mut rng = SimRng::new(7);
        let mut arena = FrameArena::new();
        let mut buf = Vec::new();
        mac.set_cw_min(16);
        mac.medium_busy(t(0));
        feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let after = mac.medium_idle(t(0)).expect("the countdown resumes");
        assert!(after.as_micros() > DIFS, "need >= 1 slot, redraw seed");
        // The neighbour's frame starts exactly when the countdown is due,
        // before this station's timer fires.
        let due = t(0) + after;
        mac.medium_busy(due);
        assert!(!mac.tx_timer_pending(), "the tie cancelled the timer");
        assert_eq!(mac.stats().cca_busy, 1);
        let air = Duration::from_micros(8416);
        assert_eq!(
            mac.medium_idle(due + air),
            Some(Duration::from_micros(DIFS)),
            "every slot was consumed: DIFS alone remains"
        );
    }

    #[test]
    fn stale_timer_is_ignored() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        timer_delay(out);
        mac.medium_busy(t(10)); // cancels the timer
        assert!(!mac.tx_timer_pending());
        let out = feed(
            &mut mac,
            t(DIFS),
            MacInput::TimerTxPath,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty(), "stale timer must do nothing, got {out:?}");
        assert_eq!(mac.stats().tx_attempts, 0);
        assert_eq!(mac.stats().stale_timers, 1);
    }

    #[test]
    fn ack_timeout_retries_then_drops() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        let max = RETRY_LIMIT;
        let mut now = 0u64;
        let out = feed(
            &mut mac,
            t(now),
            MacInput::Enqueue {
                frame: arena.alloc(data(5, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let mut after = timer_delay(out);
        let mut attempts_seen = 0;
        let dropped = loop {
            now += after.as_micros();
            let out = feed(
                &mut mac,
                t(now),
                MacInput::TimerTxPath,
                &mut rng,
                &mut arena,
                &mut buf,
            );
            if let Some(attempts) = out.iter().find_map(|o| match o {
                MacOutput::TxDropped { attempts, .. } => Some(*attempts),
                _ => None,
            }) {
                assert_eq!(attempts, max);
                assert!(out.iter().any(|o| matches!(o, MacOutput::NeedFrame)));
                break true;
            }
            if let Some(air) = out.iter().find_map(|o| match o {
                MacOutput::StartTx { frame, air, .. } => {
                    if attempts_seen > 0 {
                        assert!(arena.get(*frame).retry, "retries must set the retry flag");
                    }
                    Some(*air)
                }
                _ => None,
            }) {
                attempts_seen += 1;
                now += air.as_micros();
                let out = feed(
                    &mut mac,
                    t(now),
                    MacInput::TxEnded,
                    &mut rng,
                    &mut arena,
                    &mut buf,
                );
                after = timer_delay(out);
            } else {
                // Timeout fired and a new contention round began.
                after = timer_delay(out);
            }
            if now > 10_000_000 {
                break false;
            }
        };
        assert!(dropped, "frame must eventually be dropped");
        assert_eq!(attempts_seen, max);
        assert_eq!(mac.stats().drops_retry, 1);
        assert_eq!(mac.stats().retries as u32, max);
        assert!(mac.is_idle());
    }

    #[test]
    fn receiver_acks_and_delivers_then_filters_duplicate() {
        let (mut mac, mut rng, mut arena) = det_mac(1);
        let mut buf = Vec::new();
        let f = data(9, 0, 1);
        let out = feed(
            &mut mac,
            t(100),
            MacInput::Rx {
                frame: arena.alloc(f),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        // ACK armed at SIFS, frame delivered.
        let ack_after = out
            .iter()
            .find_map(|o| match o {
                MacOutput::SetTimerAckJob { after } => Some(*after),
                _ => None,
            })
            .expect("ack timer");
        assert_eq!(ack_after, Duration::from_micros(SIFS));
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::Deliver { frame } if arena.get(*frame).seq == 9)));

        let out = feed(
            &mut mac,
            t(100 + SIFS),
            MacInput::TimerAckJob,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        match &out[0] {
            MacOutput::StartTx { frame, air, .. } => {
                let ack = arena.get(*frame);
                assert_eq!(ack.kind, FrameKind::Ack);
                assert_eq!(ack.dst, 0);
                assert_eq!(ack.seq, 9);
                assert_eq!(*air, Duration::from_micros(304));
            }
            o => panic!("expected ack StartTx, got {o:?}"),
        }
        feed(
            &mut mac,
            t(100 + SIFS + 304),
            MacInput::TxEnded,
            &mut rng,
            &mut arena,
            &mut buf,
        );

        // Duplicate (retry) arrives: re-ACK, no second Deliver.
        let mut dup = f;
        dup.retry = true;
        let out = feed(
            &mut mac,
            t(10_000),
            MacInput::Rx {
                frame: arena.alloc(dup),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(
            !out.iter().any(|o| matches!(o, MacOutput::Deliver { .. })),
            "duplicate must not be delivered"
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::SetTimerAckJob { .. })));
        assert_eq!(mac.stats().dup_rx, 1);
        assert_eq!(mac.stats().delivered, 1);
    }

    #[test]
    fn own_ack_transmission_freezes_data_countdown() {
        let mut mac = Mac::new(1, MacConfig::default());
        let mut rng = SimRng::new(3);
        let mut arena = FrameArena::new();
        let mut buf = Vec::new();
        mac.set_cw_min(64);
        // Contending with a data frame (enqueued under a busy medium so a
        // random backoff is drawn)...
        mac.medium_busy(t(0));
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(2, 1, 2)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty());
        let after = mac.medium_idle(t(0)).expect("the countdown resumes");
        let total_slots = (after.as_micros() - DIFS) / SLOT;
        assert!(total_slots >= 2, "redraw seed: need >= 2 slots");

        // ...the medium goes busy (incoming frame), which freezes us mid-run.
        let busy_at = DIFS + SLOT + 5; // one full slot elapsed
        mac.medium_busy(t(busy_at));
        // The incoming frame is for us; it ends and the medium goes idle.
        let rx_end = busy_at + 8416;
        let out = feed(
            &mut mac,
            t(rx_end),
            MacInput::Rx {
                frame: arena.alloc(data(7, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out
            .iter()
            .any(|o| matches!(o, MacOutput::SetTimerAckJob { .. })));
        let resume_after = mac.medium_idle(t(rx_end)).expect("the countdown resumes");
        assert_eq!(
            (resume_after.as_micros() - DIFS) / SLOT,
            total_slots - 1,
            "one slot was consumed before the freeze"
        );

        // SIFS later the ACK starts: countdown freezes again (radio busy),
        // and no slot is lost because less than DIFS elapsed.
        let out = feed(
            &mut mac,
            t(rx_end + SIFS),
            MacInput::TimerAckJob,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(matches!(out[0], MacOutput::StartTx { .. }));
        assert!(!mac.tx_timer_pending(), "the ACK froze the countdown");
        // While radio-busy a medium-idle input must not start a countdown.
        assert_eq!(mac.medium_idle(t(rx_end + SIFS + 1)), None);
        // ACK done: countdown resumes with the same remaining slots.
        let ack_done = rx_end + SIFS + 304;
        let out = feed(
            &mut mac,
            t(ack_done),
            MacInput::TxEnded,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let resume2 = timer_delay(out);
        assert_eq!((resume2.as_micros() - DIFS) / SLOT, total_slots - 1);
    }

    #[test]
    fn spurious_ack_is_counted_not_acted_on() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        let ack = arena.alloc(Frame::ack_for(&data(77, 0, 1)));
        let out = feed(
            &mut mac,
            t(5),
            MacInput::Rx { frame: ack },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty());
        assert_eq!(mac.stats().spurious_ack, 1);
    }

    #[test]
    fn ack_for_wrong_seq_does_not_complete() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        let out = feed(
            &mut mac,
            t(0),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        timer_delay(out);
        let out = feed(
            &mut mac,
            t(DIFS),
            MacInput::TimerTxPath,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let air = match &out[0] {
            MacOutput::StartTx { air, .. } => *air,
            _ => panic!(),
        };
        feed(
            &mut mac,
            t(DIFS) + air,
            MacInput::TxEnded,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        let wrong = arena.alloc(Frame::ack_for(&data(2, 0, 1)));
        let out = feed(
            &mut mac,
            t(DIFS) + air + Duration::from_micros(100),
            MacInput::Rx { frame: wrong },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty());
        assert!(!mac.is_idle(), "still waiting for the right ACK");
    }

    #[test]
    fn enqueue_while_medium_busy_defers() {
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        mac.medium_busy(t(0));
        let out = feed(
            &mut mac,
            t(5),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty(), "no timer while busy");
        let after = mac.medium_idle(t(500)).expect("the countdown resumes");
        assert_eq!(after.as_micros(), DIFS);
    }

    #[test]
    fn synced_carrier_stands_in_for_transitions_missed_while_not_counting() {
        // An idle MAC is not in a counting phase and may be told nothing;
        // the carrier state it needs arrives by `sync_carrier` instead.
        let (mut mac, mut rng, mut arena) = det_mac(0);
        let mut buf = Vec::new();
        assert!(!mac.counting_phase());
        mac.sync_carrier(true);
        let out = feed(
            &mut mac,
            t(5),
            MacInput::Enqueue {
                frame: arena.alloc(data(1, 0, 1)),
            },
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(out.is_empty(), "no timer while busy");
        // Now contending: transitions are delivered, and a sync that
        // agrees with them is a no-op.
        assert!(mac.counting_phase());
        mac.sync_carrier(true);
        let after = mac.medium_idle(t(500)).expect("resumes on idle");
        assert_eq!(after.as_micros(), DIFS);
        mac.sync_carrier(false);
        let at = t(500) + after;
        let out = feed(
            &mut mac,
            at,
            MacInput::TimerTxPath,
            &mut rng,
            &mut arena,
            &mut buf,
        );
        assert!(matches!(out[0], MacOutput::StartTx { .. }));
        assert!(!mac.counting_phase(), "transmitting: nothing to freeze");
    }

    #[test]
    fn cw_min_change_applies_to_next_draw() {
        let mut mac = Mac::new(0, MacConfig::default());
        let mut rng = SimRng::new(11);
        let mut arena = FrameArena::new();
        let mut buf = Vec::new();
        // Pin to a huge window: delays must exceed DIFS + 100 slots with
        // overwhelming probability over a few draws.
        mac.set_cw_min(32768);
        let mut big = 0;
        for i in 0..5 {
            // Enqueue under a busy medium so a random backoff is drawn.
            mac.medium_busy(t(i * 1_000_000));
            let out = feed(
                &mut mac,
                t(i * 1_000_000),
                MacInput::Enqueue {
                    frame: arena.alloc(data(i, 0, 1)),
                },
                &mut rng,
                &mut arena,
                &mut buf,
            );
            assert!(out.is_empty());
            let after = mac
                .medium_idle(t(i * 1_000_000))
                .expect("the countdown resumes");
            if after.as_micros() > DIFS + 100 * SLOT {
                big += 1;
            }
            // Rebuild the MAC each round to abort the attempt cleanly.
            mac = Mac::new(0, MacConfig::default());
            mac.set_cw_min(32768);
        }
        assert!(big >= 4, "32768-slot windows should draw large backoffs");
    }
}
