//! The shared wireless channel.
//!
//! [`Channel`] is a pure state machine: the network layer calls
//! [`Channel::start_tx_into`] and [`Channel::end_tx_into`] and gets back,
//! in reports it reuses, the carrier-sense transitions and frame
//! deliveries those calls imply. No scheduling, no callbacks — which makes collision semantics
//! unit-testable in isolation (see the tests at the bottom for the
//! hidden-terminal scenarios that drive the whole paper).
//!
//! ## Reception rule
//!
//! A node `r` receives frame `f` from `s` cleanly iff
//!
//! 1. `dist(s, r) <= tx_range` (decodable signal),
//! 2. every transmission overlapping `f`'s air time is **captured**: its
//!    sender `i` is either outside the carrier-sense range of `r` (signal
//!    negligible) or far enough that the two-ray-ground power ratio
//!    `(d(i,r)/d(s,r))^4` exceeds the 10 dB capture threshold — i.e.
//!    `d(i,r) >= 10^(1/4) · d(s,r)`. The receiver itself transmitting
//!    always destroys the reception (half-duplex radio),
//! 3. the link's loss process (see [`crate::loss`]) does not drop it.
//!
//! Rule 2 is ns-2's capture model and it is *essential* to the paper's
//! phenomena: with 200 m spacing, a frame over one hop (200 m) survives a
//! hidden transmitter two hops from the receiver (400 m ≥ 355.7 m), so the
//! hidden pair (source, third relay) of a 4-hop chain coexists without
//! losses — which is precisely why the greedy source outruns the first
//! relay's service share and turbulence appears as *queue growth* rather
//! than as collision losses. An interferer one hop from the receiver
//! (200 m < 355.7 m) still destroys the frame.
//!
//! ## Geometry
//!
//! Node positions are the only geometric state: rules 1 and 2 are
//! evaluated from them on demand, and the per-sender rows the channel
//! caches say only *whom to visit* when a transmission starts or ends —
//! O(N · degree), no per-pair table. One grid walk
//! ([`crate::geom::neighbors_within_marking`]) builds them in time linear
//! in the nodes, packed ([`Neighbors`]: one offsets array, one id array)
//! and with the decode bit already set.
//!
//! ## What a transmission costs
//!
//! A frame costs its sender's neighbourhood plus one scan of the air, not
//! the network:
//!
//! * **Interference is range-bounded.** A start scans the transmissions on
//!   the air (a handful of words each) to flag temporal overlap, but
//!   evaluates the capture rule only against senders within
//!   `cs_range + tx_range` — beyond that neither can reach a receiver of
//!   the other (proof at [`Channel::start_tx_into`]). The scan is the one
//!   cost that grows with the network: at a fixed density the air holds
//!   more transmissions as nodes are added. Within reach, the rule runs
//!   as a kernel over each decode row with no branch per receiver.
//! * **Carrier sense is pulled.** Each node keeps three *horizons*: the
//!   latest end among the transmissions it sensed, could decode or sent,
//!   or sent alone. A start writes them in three short walks: the sense
//!   walk loads one 24-byte record per sense neighbour, the decode walk
//!   one 16-byte record per receiver, and the sender writes its own.
//!   [`Channel::is_busy`] compares the sense horizon with `now`. A node
//!   appears in `became_busy` / `became_idle` only while its
//!   [`Channel::set_listening`] bit is set, so a station with no countdown
//!   to freeze or resume costs the caller nothing and asks when it next
//!   needs to know.
//! * **An end visits its receivers and its listeners, not its sense row.**
//!   Horizons need no decrement, so [`Channel::end_tx_into`] walks the
//!   sender's decode row (receptions) and the short list of listeners the
//!   transmission holds busy. Airtime needs no settling either: each node
//!   keeps three interval unions as a horizon and a gap each, and
//!   [`Channel::airtime_breakdown`] derives the tx/rx/busy/idle split.

use ezflow_sim::{SimRng, Time};

use crate::arena::FrameId;
use crate::geom::{neighbors_within_marking, Neighbors, Position, MARK};
use crate::loss::{LinkLosses, LossModel};

/// Identifier of an in-flight transmission.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct TxId(pub u64);

/// 10 dB capture threshold under a path-loss exponent of 4:
/// an interferer `10^(10/40) ≈ 1.778` times farther than the sender is
/// captured over.
pub const CAPTURE_RATIO_10DB: f64 = 1.7782794100389228;

/// Static channel parameters.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Decode range in meters (ns-2 two-ray-ground default: 250 m).
    pub tx_range: f64,
    /// Carrier-sense / interference range in meters (ns-2 default: 550 m).
    pub cs_range: f64,
    /// Capture ratio: an overlapping interferer at distance
    /// `>= capture_ratio · d(sender, receiver)` from the receiver does not
    /// destroy the reception. Set to `f64::INFINITY` to disable capture
    /// (every in-cs-range interferer collides).
    pub capture_ratio: f64,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            tx_range: 250.0,
            cs_range: 550.0,
            capture_ratio: CAPTURE_RATIO_10DB,
        }
    }
}

/// Counters the channel keeps about itself.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Transmissions started.
    pub tx_started: u64,
    /// Deliveries to the *intended* receiver destroyed by interference.
    pub collisions_at_dst: u64,
    /// Deliveries to the intended receiver destroyed by the loss process.
    pub bernoulli_losses: u64,
    /// Clean deliveries to the intended receiver.
    pub clean_deliveries: u64,
    /// Clean deliveries that survived at least one temporally overlapping
    /// transmission — the capture model doing its job.
    pub captures: u64,
    /// Collisions at the intended receiver caused by an interferer the
    /// sender could not carrier-sense (the classic hidden terminal).
    pub hidden_losses: u64,
}

/// Where one node's time went, split by radio state, in microseconds.
/// Derived by [`Channel::airtime_breakdown`]; the four buckets partition
/// elapsed time exactly, with transmit taking priority over receive over
/// carrier-sense-busy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Airtime {
    /// Transmitting.
    pub tx_us: u64,
    /// A decodable frame was arriving (and the node was not transmitting).
    pub rx_us: u64,
    /// Carrier sense held busy by a non-decodable transmission.
    pub busy_us: u64,
    /// Nothing on the air within carrier-sense range.
    pub idle_us: u64,
}

impl Airtime {
    /// Total accounted time.
    pub fn total_us(&self) -> u64 {
        self.tx_us + self.rx_us + self.busy_us + self.idle_us
    }

    /// `(tx, rx, busy, idle)` as fractions of the accounted time; all
    /// zeros before any time has passed.
    pub fn fractions(&self) -> (f64, f64, f64, f64) {
        let total = self.total_us();
        if total == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let t = total as f64;
        (
            self.tx_us as f64 / t,
            self.rx_us as f64 / t,
            self.busy_us as f64 / t,
            self.idle_us as f64 / t,
        )
    }
}

struct ActiveTx {
    id: TxId,
    /// Arena handle of the on-air frame. The channel never dereferences
    /// it — interference is pure geometry over `src`/`dst`, cached below —
    /// it only hands the id back in the [`EndReport`].
    frame: FrameId,
    /// Transmitter of this hop (the frame's `src`, cached).
    src: usize,
    /// Intended receiver of this hop (the frame's `dst`, cached).
    dst: usize,
    start: Time,
    end: Time,
    /// Aligned with `src`'s row of `decode_from`: reception at that
    /// receiver already destroyed by interference.
    corrupted: Vec<bool>,
    /// Listeners (ascending) whose sense horizon this transmission held
    /// when it started or when they began to listen: the only nodes its
    /// end can turn idle that anyone is told about. Entries go stale (the
    /// horizon moved on, the node stopped listening) and are checked then.
    holds: Vec<u32>,
    /// Another transmission overlapped this one in time.
    overlapped: bool,
    /// The intended receiver's reception was destroyed by an interferer
    /// the sender could not carrier-sense.
    hidden_hit: bool,
}

/// What a [`Channel::start_tx_into`] call changed.
///
/// Reusable: [`Channel::start_tx_into`] clears and refills the vector in
/// place, so one report can serve millions of transmissions without
/// allocating (see DESIGN.md "Hot-path budget").
#[derive(Debug, Default)]
pub struct StartReport {
    /// Handle to pass back to [`Channel::end_tx_into`].
    pub tx_id: TxId,
    /// Listening nodes (ascending; see [`Channel::set_listening`]) whose
    /// medium went idle -> busy because of this transmission.
    pub became_busy: Vec<usize>,
}

impl Default for TxId {
    fn default() -> Self {
        // A value no live transmission ever carries, so a default-built
        // report handed to `end_tx_into` by mistake fails loudly.
        TxId(u64::MAX)
    }
}

/// Why (or how) a reception succeeded or failed, per receiver.
///
/// `clean == (outcome is Clean or Capture)`; the enum exists so the
/// flight recorder can attribute a lost hop to the physical cause rather
/// than just "not clean".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeOutcome {
    /// Decoded with no overlapping transmission on the air.
    Clean,
    /// Decoded despite an overlapping transmission (capture effect).
    Capture,
    /// Reception destroyed by interference from an overlapping
    /// transmission.
    Collision,
    /// Reception lost to the stochastic (Bernoulli) link-loss model.
    Loss,
}

/// One potential reception at the end of a transmission.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Receiving node (within decode range of the sender, not the sender).
    pub node: usize,
    /// True iff the frame survived interference and link loss.
    pub clean: bool,
    /// Physical attribution of the reception result.
    pub outcome: DecodeOutcome,
}

/// What a [`Channel::end_tx_into`] call changed.
///
/// Reusable like [`StartReport`]: [`Channel::end_tx_into`] clears and
/// refills the vectors in place.
#[derive(Debug, Default)]
pub struct EndReport {
    /// Arena handle of the frame that was on the air; resolve it through
    /// the owning [`crate::FrameArena`]. A default-built report carries
    /// the dangling placeholder id, overwritten by `end_tx_into`.
    pub frame: FrameId,
    /// All nodes in decode range, with their reception outcome.
    /// The intended receiver, if in range, appears here too.
    pub deliveries: Vec<Delivery>,
    /// Listening nodes (ascending) whose medium went busy -> idle because
    /// this transmission ended.
    pub became_idle: Vec<usize>,
}

/// Top bit of a packed sense-row entry: the neighbour is also inside
/// decode range. The low 31 bits are the node id.
const DECODES: u32 = MARK;

/// Relative margin on the interference reach `cs_range + tx_range`.
/// `within` compares rounded squares, so a collinear sender pair at
/// exactly the reach is one rounding (≈1e-16 relative) from either side
/// of the cut; 1e-9 puts every such pair on the evaluated side, where the
/// capture rule itself says "no effect".
const REACH_MARGIN: f64 = 1e-9;

/// The shared broadcast medium.
pub struct Channel {
    cfg: ChannelConfig,
    /// Each decode link's loss process and state, aligned with
    /// `decode_from`; `None` under an ideal model.
    losses: Option<LinkLosses>,
    /// Node positions: the single source of geometric truth. Decode,
    /// sense and capture are computed from these on demand; the rows
    /// below only cache *whom to visit* per sender.
    positions: Vec<Position>,
    /// Per sender: the nodes (ascending, sender excluded) inside
    /// carrier-sense range, each with [`DECODES`] set iff it is also
    /// inside decode range (`cs_range >= tx_range` is asserted at
    /// construction, so decode range ⊆ sense range). Geometry is fixed at
    /// construction, so these lists never change.
    sense_rows: Neighbors,
    /// Per sender: the [`DECODES`] entries of its sense row, bit cleared —
    /// the receivers the capture rule is evaluated at.
    decode_from: Neighbors,
    /// `(cs_range + tx_range) · (1 + REACH_MARGIN)`: senders farther apart
    /// cannot interfere (see [`Channel::start_tx_into`]).
    reach: f64,
    active: Vec<ActiveTx>,
    /// Recycled `corrupted` / `holds` buffers from completed transmissions.
    scratch_pool: Vec<(Vec<bool>, Vec<u32>)>,
    /// Times a pooled buffer was reused instead of freshly allocated.
    pool_reuses: u64,
    /// Capture-rule evaluations performed so far, counted per in-reach
    /// pair of overlapping transmissions as the two decode-row lengths.
    /// Not part of [`ChannelStats`] (never serialised): it measures the
    /// channel's own work, which tests pin as independent of network size.
    capture_evals: u64,
    /// Per node: the sense horizon and the S∪T union, the one record the
    /// start's sense walk loads.
    sensed: Vec<Sensed>,
    /// Per node: the R∪T union, written by the start's decode walk.
    decodable: Vec<Decodable>,
    /// Per node: the T union, written by the node's own starts.
    sent: Vec<Sent>,
    /// The instant of the latest start: airtime is readable from there on.
    latest_start: Time,
    /// Per node: whether busy/idle transitions are reported. A column of
    /// its own so the start walk's test of it is an L1 byte.
    listening: Vec<bool>,
    /// Per node: cumulative time spent transmitting (completed
    /// transmissions), µs — touched by the sender's end only.
    airtime_us: Vec<u64>,
    next_tx: u64,
    stats: ChannelStats,
}

// A node's radio is three horizons and three airtime gaps, kept in three
// columns grouped by the code that reads them: `Sensed` (the sense walk),
// `Decodable` (the decode walk) and `Sent` (the sender's own start).
//
// A horizon is the latest `end` among the transmissions the node sensed
// (`sense_until`), could decode or sent (`rt_until`), or sent
// (`tx_until`); it only ever grows, so an end has nothing to undo.
// Transmissions are taken off the air at their `end` in time order, so at
// instant `now` the node senses one iff `sense_until > now` — or
// `sense_until == now` and a transmission ending at `now` it senses has
// not been taken off yet (the tie `Channel::is_busy` resolves against the
// active set).
//
// Airtime is three running interval unions: T (sent), R∪T (decodable or
// sent) and S∪T (sensed or sent), with horizons `tx_until`, `rt_until`
// and `st_until = max(tx_until, sense_until)`. Starts arrive in time
// order and a horizon only grows, so a union covers all of `[0, h)` but
// the stretches a start found it idle: its gap grows by `now − h` only
// when a start begins after `h`, and at any `t` no earlier than the
// latest start the union covers `min(h, t) − gap` microseconds.

/// A node's sense column: the one record the start's sense walk loads.
#[derive(Clone, Copy, Debug, Default)]
struct Sensed {
    /// Latest end among the transmissions the node sensed.
    sense_until: Time,
    /// S∪T's horizon, `max(tx_until, sense_until)`.
    st_until: Time,
    /// Uncovered µs below `st_until`.
    gap_st: u64,
}

/// A node's decode column, written by the start's walk of the sender's
/// decode row and by the node's own starts.
#[derive(Clone, Copy, Debug, Default)]
struct Decodable {
    /// R∪T's horizon: the latest end among the transmissions the node
    /// could decode or sent.
    rt_until: Time,
    /// Uncovered µs below `rt_until`.
    gap_rt: u64,
}

/// A node's own column, written by its own starts only.
#[derive(Clone, Copy, Debug, Default)]
struct Sent {
    /// T's horizon: the latest end among the node's own transmissions.
    tx_until: Time,
    /// Uncovered µs below `tx_until`.
    gap_t: u64,
}

const _: () = assert!(std::mem::size_of::<Sensed>() == 24);
const _: () = assert!(std::mem::size_of::<Decodable>() == 16);
const _: () = assert!(std::mem::size_of::<Sent>() == 16);

impl Channel {
    /// Builds a channel over fixed node positions. Every node starts out
    /// listening (see [`Channel::set_listening`]).
    pub fn new(positions: &[Position], cfg: ChannelConfig, loss: LossModel) -> Self {
        assert!(
            cfg.cs_range >= cfg.tx_range,
            "carrier-sense range must cover the decode range"
        );
        assert!(cfg.capture_ratio > 0.0, "capture ratio must be positive");
        // decode range ⊆ sense range: the decode bit is `within(tx_range)`
        // decided by the sense-row walk from the d² it already holds —
        // not a second pass over the rows, and not a second walk.
        let decode_limit = cfg.tx_range * cfg.tx_range;
        let sense_rows = neighbors_within_marking(positions, cfg.cs_range, |d2| d2 <= decode_limit);
        let decode_from = sense_rows.marked();
        let n = positions.len();
        Channel {
            cfg,
            losses: LinkLosses::resolve(&loss, &decode_from),
            positions: positions.to_vec(),
            sense_rows,
            decode_from,
            reach: (cfg.cs_range + cfg.tx_range) * (1.0 + REACH_MARGIN),
            active: Vec::new(),
            scratch_pool: Vec::new(),
            pool_reuses: 0,
            capture_evals: 0,
            sensed: vec![Sensed::default(); n],
            decodable: vec![Decodable::default(); n],
            sent: vec![Sent::default(); n],
            latest_start: Time::ZERO,
            listening: vec![true; n],
            airtime_us: vec![0; n],
            next_tx: 0,
            stats: ChannelStats::default(),
        }
    }

    /// The tx/rx/busy/idle split of `node`'s time over `[0, now)`, for a
    /// `now` no earlier than the latest start: tx is T's cover, rx what
    /// R∪T adds to it, busy what S∪T adds to that, idle the rest (see
    /// `Sensed`). Exactly what an every-event sweep would have added up.
    pub fn airtime_breakdown(&self, node: usize, now: Time) -> Airtime {
        debug_assert!(
            now >= self.latest_start,
            "airtime read before the latest start"
        );
        let cover = |h: Time, gap: u64| h.min(now).as_micros() - gap;
        let (t, rt, st) = (&self.sent[node], &self.decodable[node], &self.sensed[node]);
        let tx = cover(t.tx_until, t.gap_t);
        let rx = cover(rt.rt_until, rt.gap_rt);
        let busy = cover(st.st_until, st.gap_st);
        Airtime {
            tx_us: tx,
            rx_us: rx - tx,
            busy_us: busy - rx,
            idle_us: now.as_micros() - busy,
        }
    }

    /// Cumulative transmit airtime of `node` (completed transmissions).
    pub fn airtime(&self, node: usize) -> ezflow_sim::Duration {
        ezflow_sim::Duration::from_micros(self.airtime_us[node])
    }

    /// Fraction of `elapsed` that `node` spent transmitting.
    pub fn utilization(&self, node: usize, elapsed: ezflow_sim::Duration) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.airtime_us[node] as f64 / elapsed.as_micros() as f64
        }
    }

    /// Channel parameters.
    pub fn config(&self) -> ChannelConfig {
        self.cfg
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// True iff `node` senses the medium busy at `now`, the instant of the
    /// latest start or end (own transmissions excluded — a radio cannot
    /// carrier-sense while transmitting, and the MAC does not consult the
    /// medium during its own transmission). The truth for every node,
    /// listening or not, whichever order same-instant ends and starts
    /// arrive in: a sense horizon equal to `now` is busy iff a
    /// transmission ending at `now` that `node` senses is still on the air.
    pub fn is_busy(&self, node: usize, now: Time) -> bool {
        busy_at(
            &self.active,
            &self.positions,
            &self.cfg,
            self.sensed[node].sense_until,
            node,
            now,
        )
    }

    /// Whether `node`'s busy/idle transitions are reported.
    pub fn listening(&self, node: usize) -> bool {
        self.listening[node]
    }

    /// Opts `node` in or out of the `became_busy` / `became_idle` reports.
    /// A station that would do nothing with a transition (no countdown to
    /// freeze or resume) opts out and reads [`Channel::is_busy`] when it
    /// next cares; everyone listens by default, so forgetting to opt out
    /// is slow, never wrong.
    ///
    /// A node that starts listening while it senses the medium busy joins
    /// the `holds` list of every transmission on the air that holds its
    /// sense horizon, so the last of them to end reports it idle.
    pub fn set_listening(&mut self, node: usize, on: bool) {
        if std::mem::replace(&mut self.listening[node], on) || !on {
            return;
        }
        let until = self.sensed[node].sense_until;
        let (positions, cfg) = (&self.positions[..], &self.cfg);
        for a in &mut self.active {
            if a.end == until && senses(positions, cfg, a.src, node) {
                if let Err(at) = a.holds.binary_search(&(node as u32)) {
                    a.holds.insert(at, node as u32);
                }
            }
        }
    }

    /// True iff `r` can decode frames from `s`.
    pub fn can_decode(&self, s: usize, r: usize) -> bool {
        s != r && self.positions[s].within(&self.positions[r], self.cfg.tx_range)
    }

    /// True iff `s`'s transmissions are sensed at `r` (and can corrupt
    /// receptions there). Never true for `s == r`.
    pub fn can_sense(&self, s: usize, r: usize) -> bool {
        senses(&self.positions, &self.cfg, s, r)
    }

    /// The nodes (ascending, `s` excluded) inside `s`'s carrier-sense
    /// range — the static interference adjacency. Geometry is fixed at
    /// construction, so these lists never change.
    pub fn sensing_neighbors(&self, s: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.sense_rows
            .row(s)
            .iter()
            .map(|&e| (e & !DECODES) as usize)
    }

    /// The nodes (ascending) that sensed a transmission by `src` but got no
    /// clean decode out of it — out of decode range, or the reception was
    /// corrupted or lost. These are the stations the standard's EIFS rule
    /// applies to. `deliveries` is the transmission's
    /// [`EndReport::deliveries`]: a subset of the sense row in the same
    /// order, so one merge subtracts its clean entries.
    pub fn undecoded<'a>(
        &'a self,
        src: usize,
        deliveries: &'a [Delivery],
    ) -> impl Iterator<Item = usize> + 'a {
        let mut clean = deliveries.iter().filter(|d| d.clean).map(|d| d.node);
        let mut next_clean = clean.next();
        self.sensing_neighbors(src).filter(move |&r| {
            let decoded = next_clean == Some(r);
            if decoded {
                next_clean = clean.next();
            }
            !decoded
        })
    }

    /// Number of transmissions currently on the air.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Whether a transmission by `interferer` destroys the reception of a
    /// frame from `sender` at `receiver` (capture rule; see module docs).
    pub fn corrupts(&self, interferer: usize, sender: usize, receiver: usize) -> bool {
        corrupts(&self.positions, &self.cfg, interferer, sender, receiver)
    }

    /// Times a pooled scratch buffer was reused instead of allocated.
    pub fn buffer_reuses(&self) -> u64 {
        self.pool_reuses
    }

    /// Capture-rule evaluations so far: for every pair of overlapping
    /// transmissions whose senders are within reach of each other, the two
    /// decode-row lengths. A work counter, not a simulation result.
    pub fn capture_evaluations(&self) -> u64 {
        self.capture_evals
    }

    /// Puts the frame behind `frame` on the air from `src` until `end`,
    /// writing the outcome into `report` (cleared first). `src`/`dst` are
    /// the frame's hop addressing, passed explicitly so the channel never
    /// touches the arena — `frame` is an opaque token it returns in the
    /// matching [`EndReport`].
    ///
    /// Marks interference both ways against the already-active
    /// transmissions and reports which listening nodes newly sense a busy
    /// medium. Three costs: a scan of the active set that only compares
    /// end times and one sender distance each, O(transmissions on the
    /// air), which at a fixed density grows with N; the capture kernel
    /// over two decode rows per *in-reach* overlapping transmission; one
    /// walk of the sender's sense row and one of its decode row. A reused
    /// `report` allocates nothing once its vector has grown to the
    /// densest neighbourhood, and the per-transmission scratch is one
    /// pooled buffer the length of the sender's decode row.
    ///
    /// Why senders farther apart than `cs_range + tx_range` are skipped:
    /// a transmission by `i` can only corrupt a reception at `r` if `i`
    /// is `r` or is sensed there, `d(i, r) <= cs_range`; `r` receives from
    /// `s` only if `d(s, r) <= tx_range`; so by the triangle inequality
    /// `d(i, s) <= d(i, r) + d(r, s) <= cs_range + tx_range` whenever
    /// anything can happen, in either direction. A 1e-9 relative margin
    /// (`REACH_MARGIN`) keeps rounding on the safe side; the `overlapped` flag (which feeds
    /// [`DecodeOutcome::Capture`]) is temporal and set regardless.
    pub fn start_tx_into(
        &mut self,
        now: Time,
        frame: FrameId,
        src: usize,
        dst: usize,
        end: Time,
        report: &mut StartReport,
    ) {
        debug_assert!(end > now, "zero-length transmission");
        debug_assert!(src < self.node_count(), "unknown transmitter");
        self.stats.tx_started += 1;
        self.latest_start = now;

        let (positions, cfg) = (&self.positions[..], &self.cfg);
        let decode_from = &self.decode_from;
        let (mut corrupted, mut holds) = match self.scratch_pool.pop() {
            Some((mut corrupted, mut holds)) => {
                self.pool_reuses += 1;
                corrupted.clear();
                holds.clear();
                (corrupted, holds)
            }
            None => (Vec::new(), Vec::new()),
        };
        // A sender is never in its own decode row, so "cannot receive its
        // own frame" needs no entry.
        corrupted.resize(decode_from.row(src).len(), false);
        let mut overlapped = false;
        let mut hidden_hit = false;

        // Interference with every overlapping active transmission, in both
        // directions. A transmission whose end is exactly `now` no longer
        // overlaps (its `end_tx_into` is being delivered in this same instant).
        // Only nodes inside a sender's decode range can have a reception
        // destroyed, so each direction visits that sender's decode row.
        let ours = decode_from.row(src);
        for a in &mut self.active {
            if a.end <= now {
                continue;
            }
            overlapped = true;
            a.overlapped = true;
            let other = a.src;
            if !positions[src].within(&positions[other], self.reach) {
                continue;
            }
            let theirs = decode_from.row(other);
            self.capture_evals += (theirs.len() + ours.len()) as u64;
            // New tx destroys `a`'s reception at r?
            if capture_row(positions, cfg, src, other, theirs, a.dst, &mut a.corrupted)
                && src != a.dst
                && !senses(positions, cfg, src, other)
            {
                a.hidden_hit = true;
            }
            // `a` destroys the new tx's reception at r?
            if capture_row(positions, cfg, other, src, ours, dst, &mut corrupted)
                && other != dst
                && !senses(positions, cfg, other, src)
            {
                hidden_hit = true;
            }
        }

        // `[now, end)` joins the unions; one whose horizon lies before
        // `now` gains a gap of the difference.
        let gap = |h: Time| now.saturating_since(h).as_micros();
        let t = &mut self.sent[src];
        t.gap_t += gap(t.tx_until);
        t.tx_until = t.tx_until.max(end);
        let rt = &mut self.decodable[src];
        rt.gap_rt += gap(rt.rt_until);
        rt.rt_until = rt.rt_until.max(end);
        let st = &mut self.sensed[src];
        st.gap_st += gap(st.st_until);
        st.st_until = st.st_until.max(end);
        // Every receiver joins R∪T. The decode row is the sense row's
        // `DECODES` entries, so walking it spares the sense walk a test of
        // the bit.
        for &r in ours {
            let rt = &mut self.decodable[r as usize];
            rt.gap_rt += gap(rt.rt_until);
            rt.rt_until = rt.rt_until.max(end);
        }
        // One pass over the sense row (ascending, keeping `became_busy`
        // and `holds` sorted) raises the sense horizons. The new
        // transmission is not on `active` yet, so the busy test sees the
        // medium as it was.
        report.became_busy.clear();
        for &entry in self.sense_rows.row(src) {
            let r = (entry & !DECODES) as usize;
            let node = &mut self.sensed[r];
            let until = node.sense_until;
            node.gap_st += gap(node.st_until);
            node.sense_until = until.max(end);
            node.st_until = node.st_until.max(end);
            if self.listening[r] {
                if !busy_at(&self.active, positions, cfg, until, r, now) {
                    report.became_busy.push(r);
                }
                if end >= until {
                    holds.push(r as u32);
                }
            }
        }

        let id = TxId(self.next_tx);
        self.next_tx += 1;
        self.active.push(ActiveTx {
            id,
            frame,
            src,
            dst,
            start: now,
            end,
            corrupted,
            holds,
            overlapped,
            hidden_hit,
        });
        report.tx_id = id;
    }

    /// Takes a transmission off the air and resolves its receptions,
    /// writing the outcome into `report` (cleared first).
    ///
    /// `now` must be the transmission's `end`. Visits the sender's decode
    /// row and the listeners the transmission holds busy, never the rest
    /// of its sense row: horizons have nothing to undo. The loss-model RNG
    /// is consulted for decode-range nodes in ascending order, exactly as
    /// the full scan did, so the random stream — and with it every
    /// downstream draw — is bit-identical. Each decode link's loss process
    /// and state sit at its position in the decode rows, so sampling one
    /// is an indexed load.
    pub fn end_tx_into(
        &mut self,
        now: Time,
        tx_id: TxId,
        rng: &mut SimRng,
        report: &mut EndReport,
    ) {
        let idx = self
            .active
            .iter()
            .position(|a| a.id == tx_id)
            .expect("end_tx_into for unknown transmission");
        let ActiveTx {
            frame,
            src,
            dst,
            corrupted,
            holds,
            start,
            end,
            overlapped,
            hidden_hit,
            ..
        } = self.active.swap_remove(idx);
        debug_assert_eq!(now, end, "end_tx_into away from the transmission's end");

        self.airtime_us[src] += end.since(start).as_micros();
        // A listener this transmission held goes idle iff its horizon is
        // still this end and no other transmission ending now that it
        // senses is left on the air; `holds` is ascending, and so is the
        // report.
        report.became_idle.clear();
        for &r in &holds {
            let r = r as usize;
            if self.listening[r] && !self.is_busy(r, now) {
                report.became_idle.push(r);
            }
        }
        report.deliveries.clear();
        // `corrupted` is aligned with the decode row; so is the link the
        // loss state of each entry sits at.
        let first_link = self.decode_from.row_start(src);
        let row = self.decode_from.row(src);
        for (k, (&r, &hit)) in row.iter().zip(&corrupted).enumerate() {
            let r = r as usize;
            let mut clean = !hit;
            let at = first_link + k;
            let outcome;
            if clean && self.losses.as_mut().is_some_and(|l| l.drops(at, now, rng)) {
                clean = false;
                outcome = DecodeOutcome::Loss;
                if r == dst {
                    self.stats.bernoulli_losses += 1;
                }
            } else if clean {
                outcome = if overlapped {
                    DecodeOutcome::Capture
                } else {
                    DecodeOutcome::Clean
                };
                if r == dst {
                    self.stats.clean_deliveries += 1;
                    if overlapped {
                        self.stats.captures += 1;
                    }
                }
            } else {
                outcome = DecodeOutcome::Collision;
                if r == dst {
                    self.stats.collisions_at_dst += 1;
                    if hidden_hit {
                        self.stats.hidden_losses += 1;
                    }
                }
            }
            report.deliveries.push(Delivery {
                node: r,
                clean,
                outcome,
            });
        }

        report.frame = frame;
        self.scratch_pool.push((corrupted, holds));
    }
}

/// Whether the node `r`, whose sense horizon is `until`, senses a
/// transmission on `active` at `now`: the horizon lies past `now`, or
/// equals it and a transmission ending at `now` that `r` senses has not
/// been taken off the air yet. Free-standing so the start walk can ask
/// while it holds the sense column mutably.
#[inline]
fn busy_at(
    active: &[ActiveTx],
    positions: &[Position],
    cfg: &ChannelConfig,
    until: Time,
    r: usize,
    now: Time,
) -> bool {
    until > now
        || (until == now
            && active
                .iter()
                .any(|a| a.end == now && senses(positions, cfg, a.src, r)))
}

// The sense and capture rules on bare fields, so `start_tx_into` can apply
// them while it holds the active set mutably.

fn senses(positions: &[Position], cfg: &ChannelConfig, s: usize, r: usize) -> bool {
    s != r && positions[s].within(&positions[r], cfg.cs_range)
}

/// Corrupt iff the interferer `i` (at `at_i`) is the receiver `r` (at
/// `at_r`) itself (half-duplex), or is sensed there and not far enough
/// beyond the sender (at `at_s`) for capture. Every operand is evaluated:
/// `|` and `&` do not short-circuit, so the capture kernel runs it over a
/// row without a branch.
#[inline(always)]
fn corrupts_at(
    cfg: &ChannelConfig,
    i: usize,
    at_i: &Position,
    at_s: &Position,
    r: usize,
    at_r: &Position,
) -> bool {
    (i == r)
        | (at_i.within(at_r, cfg.cs_range)
            & (at_i.distance(at_r) < cfg.capture_ratio * at_s.distance(at_r)))
}

fn corrupts(positions: &[Position], cfg: &ChannelConfig, i: usize, s: usize, r: usize) -> bool {
    corrupts_at(cfg, i, &positions[i], &positions[s], r, &positions[r])
}

/// The capture kernel: marks in `hits` every receiver of `s`'s decode
/// `row` whose reception the interferer `i` destroys, and returns whether
/// it destroyed the one at `dst`.
#[inline]
fn capture_row(
    positions: &[Position],
    cfg: &ChannelConfig,
    i: usize,
    s: usize,
    row: &[u32],
    dst: usize,
    hits: &mut [bool],
) -> bool {
    let (at_i, at_s) = (&positions[i], &positions[s]);
    let mut dst_hit = false;
    for (hit, &r) in hits.iter_mut().zip(row) {
        let r = r as usize;
        let c = corrupts_at(cfg, i, at_i, at_s, r, &positions[r]);
        *hit |= c;
        dst_hit |= c & (r == dst);
    }
    dst_hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::line_positions;
    use crate::loss::{ChurnWindow, GilbertElliott};

    fn chan(n: usize) -> Channel {
        Channel::new(
            &line_positions(n, 200.0),
            ChannelConfig::default(),
            LossModel::ideal(),
        )
    }

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// Puts a `src -> dst` frame on the air over `[now, end)` through
    /// [`Channel::start_tx_into`], refilling `rep`; returns its handle.
    fn on_air(
        ch: &mut Channel,
        rep: &mut StartReport,
        now: Time,
        src: usize,
        dst: usize,
        end: Time,
    ) -> TxId {
        ch.start_tx_into(now, FrameId::default(), src, dst, end, rep);
        rep.tx_id
    }

    /// Takes `tx` off the air through [`Channel::end_tx_into`], refilling
    /// and returning `rep`.
    fn off_air<'a>(
        ch: &mut Channel,
        rep: &'a mut EndReport,
        now: Time,
        tx: TxId,
        rng: &mut SimRng,
    ) -> &'a EndReport {
        ch.end_tx_into(now, tx, rng, rep);
        rep
    }

    #[test]
    fn clean_delivery_on_idle_medium() {
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(1);
        let tx = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        // 200 m spacing: nodes 1 and 2 sense node 0; node 3 (600 m) does not.
        assert_eq!(sr.became_busy, vec![1, 2]);
        assert!(ch.is_busy(1, t(0)));
        assert!(!ch.is_busy(3, t(0)));
        assert!(!ch.is_busy(0, t(0)), "sender does not sense itself");
        let end = off_air(&mut ch, &mut er, t(100), tx, &mut rng);
        assert_eq!(end.became_idle, vec![1, 2]);
        // Only node 1 is in decode range of node 0.
        assert_eq!(end.deliveries.len(), 1);
        assert_eq!(end.deliveries[0].node, 1);
        assert!(end.deliveries[0].clean);
        assert_eq!(ch.stats().clean_deliveries, 1);
    }

    #[test]
    fn hidden_terminal_pair_is_captured_over() {
        // Nodes 0 and 3 are 600 m apart: mutually hidden. With the ns-2
        // capture model, node 0's frame at node 1 SURVIVES node 3's
        // overlapping transmission (interferer at 400 m vs sender at
        // 200 m: power ratio 2^4 = 12 dB > 10 dB), and 3->4 survives 0
        // trivially (800 m, out of interference range). This coexistence
        // is what lets a greedy source overrun its first relay.
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(2);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let b = on_air(&mut ch, &mut sr, t(10), 3, 4, t(110));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(end_a.deliveries[0].clean, "0->1 captures over hidden 3");
        let end_b = off_air(&mut ch, &mut er, t(110), b, &mut rng);
        let to4 = end_b.deliveries.iter().find(|d| d.node == 4).unwrap();
        assert!(to4.clean, "3->4 must survive the distant 0");
        assert_eq!(ch.stats().collisions_at_dst, 0);
        assert_eq!(ch.stats().clean_deliveries, 2);
    }

    #[test]
    fn near_interferer_still_collides() {
        // An interferer one hop from the receiver (200 m = sender's own
        // distance) is far inside the capture threshold: collision.
        // Nodes 1 and 3 are forced to overlap (the MAC would normally
        // defer, but equal backoff draws make this possible).
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(12);
        let a = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        let _b = on_air(&mut ch, &mut sr, t(5), 3, 4, t(105));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        let to2 = end_a.deliveries.iter().find(|d| d.node == 2).unwrap();
        assert!(!to2.clean, "interferer 3 is 200 m from receiver 2");
        assert_eq!(ch.stats().collisions_at_dst, 1);
    }

    #[test]
    fn capture_can_be_disabled() {
        let cfg = ChannelConfig {
            capture_ratio: f64::INFINITY,
            ..ChannelConfig::default()
        };
        let mut ch = Channel::new(&line_positions(5, 200.0), cfg, LossModel::ideal());
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(13);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let _b = on_air(&mut ch, &mut sr, t(10), 3, 4, t(110));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(
            !end_a.deliveries[0].clean,
            "without capture any in-range interferer collides"
        );
    }

    #[test]
    fn adjacent_overlap_half_duplex_vs_capture() {
        // Nodes 0 and 1 both transmit (they would normally defer, but the
        // MAC can draw the same backoff slot): node 1 cannot receive
        // (half-duplex) but node 2 captures 1's frame over the farther 0.
        let mut ch = chan(4);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(3);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let b = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        // Node 1 is transmitting: cannot receive.
        assert!(end_a.deliveries.iter().all(|d| !d.clean || d.node != 1));
        let d1 = end_a.deliveries.iter().find(|d| d.node == 1).unwrap();
        assert!(!d1.clean);
        let end_b = off_air(&mut ch, &mut er, t(100), b, &mut rng);
        let d2 = end_b.deliveries.iter().find(|d| d.node == 2).unwrap();
        assert!(
            d2.clean,
            "1->2 captures over interferer 0 (400 m vs 200 m, 12 dB)"
        );
    }

    #[test]
    fn receiver_transmitting_later_still_corrupts() {
        // r starts its own transmission halfway through an incoming frame.
        let mut ch = chan(4);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(4);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let _b = on_air(&mut ch, &mut sr, t(50), 1, 2, t(150));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        let d = end_a.deliveries.iter().find(|d| d.node == 1).unwrap();
        assert!(!d.clean, "half-duplex: node 1 was transmitting");
    }

    #[test]
    fn back_to_back_transmissions_do_not_interfere() {
        // A transmission ending exactly when another starts does not
        // overlap it.
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(5);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        // Deliver the end at t=100 *after* starting the next — the network
        // layer can produce either ordering within one instant.
        let b = on_air(&mut ch, &mut sr, t(100), 3, 4, t(200));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(end_a.deliveries[0].clean, "no temporal overlap");
        let end_b = off_air(&mut ch, &mut er, t(200), b, &mut rng);
        assert!(end_b.deliveries.iter().find(|d| d.node == 4).unwrap().clean);
    }

    #[test]
    fn sense_counts_stack() {
        let mut ch = chan(6);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(6);
        // Node 2 senses both node 0 (400 m) and node 4 (400 m).
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let b = on_air(&mut ch, &mut sr, t(10), 4, 5, t(110));
        assert!(ch.is_busy(2, t(10)));
        let end_a = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(
            !end_a.became_idle.contains(&2),
            "node 2 still senses node 4"
        );
        assert!(ch.is_busy(2, t(100)));
        let end_b = off_air(&mut ch, &mut er, t(110), b, &mut rng);
        assert!(end_b.became_idle.contains(&2));
        assert!(!ch.is_busy(2, t(110)));
    }

    #[test]
    fn same_instant_ends_hold_the_medium_until_the_last() {
        // Node 2 senses 0 and 4, and both frames end at 100: between the
        // two ends it is still busy, whichever ends first.
        for first_a in [true, false] {
            let mut ch = chan(6);
            let mut sr = StartReport::default();
            let mut er = EndReport::default();
            let mut rng = SimRng::new(9);
            let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
            let b = on_air(&mut ch, &mut sr, t(10), 4, 5, t(100));
            let (first, second) = if first_a { (a, b) } else { (b, a) };
            let end = off_air(&mut ch, &mut er, t(100), first, &mut rng);
            assert!(!end.became_idle.contains(&2));
            assert!(ch.is_busy(2, t(100)), "the other end is still due");
            let end = off_air(&mut ch, &mut er, t(100), second, &mut rng);
            assert!(end.became_idle.contains(&2));
            assert!(!ch.is_busy(2, t(100)));
        }
    }

    #[test]
    fn a_listener_that_joins_mid_transmission_is_told_it_went_idle() {
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(10);
        ch.set_listening(2, false);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        assert!(!sr.became_busy.contains(&2), "not listening at the start");
        ch.set_listening(2, true);
        ch.set_listening(2, true);
        // Joins a second time: registered once, reported once.
        ch.set_listening(2, false);
        ch.set_listening(2, true);
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert_eq!(end.became_idle, vec![1, 2]);
        // A later frame that outlasts the first takes the horizon over.
        ch.set_listening(2, false);
        let b = on_air(&mut ch, &mut sr, t(200), 0, 1, t(300));
        let c = on_air(&mut ch, &mut sr, t(250), 4, 3, t(400));
        ch.set_listening(2, true);
        assert_eq!(
            off_air(&mut ch, &mut er, t(300), b, &mut rng).became_idle,
            vec![1]
        );
        assert_eq!(
            off_air(&mut ch, &mut er, t(400), c, &mut rng).became_idle,
            vec![2, 3]
        );
    }

    #[test]
    fn bernoulli_loss_drops_frames() {
        let mut loss = LossModel::ideal();
        loss.set_link(0, 1, 1.0);
        let mut ch = Channel::new(&line_positions(3, 200.0), ChannelConfig::default(), loss);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(7);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(!end.deliveries[0].clean);
        assert_eq!(ch.stats().bernoulli_losses, 1);
    }

    #[test]
    fn overhearing_reaches_non_addressed_neighbours() {
        // Node 1 transmits to node 2; node 0 (one hop the other way)
        // overhears — this is the BOE's information source.
        let mut ch = chan(4);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(8);
        let a = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        let nodes: Vec<usize> = end.deliveries.iter().map(|d| d.node).collect();
        assert!(nodes.contains(&0), "node 0 must overhear 1->2");
        assert!(nodes.contains(&2));
        assert!(end.deliveries.iter().all(|d| d.clean));
    }

    #[test]
    fn undecoded_lists_eifs_candidates() {
        // Node 2 senses node 0's frame (400 m) but cannot decode it.
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(30);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        // The clean receiver (1) is not an EIFS candidate, and a 600 m
        // node (3) senses nothing at the 550 m default.
        let dirty: Vec<usize> = ch.undecoded(0, &end.deliveries).collect();
        assert_eq!(dirty, vec![2]);
        // A corrupted in-range reception is also an EIFS candidate.
        let mut ch = chan(5);
        let a = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        let _b = on_air(&mut ch, &mut sr, t(5), 3, 4, t(105));
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        let dirty: Vec<usize> = ch.undecoded(1, &end.deliveries).collect();
        assert_eq!(dirty, vec![2, 3], "corrupted rx -> EIFS; 0 decoded");
    }

    #[test]
    fn airtime_accumulates_per_transmitter() {
        let mut ch = chan(4);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(20);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        off_air(&mut ch, &mut er, t(100), a, &mut rng);
        let b = on_air(&mut ch, &mut sr, t(200), 0, 1, t(450));
        off_air(&mut ch, &mut er, t(450), b, &mut rng);
        let c = on_air(&mut ch, &mut sr, t(500), 1, 2, t(600));
        off_air(&mut ch, &mut er, t(600), c, &mut rng);
        assert_eq!(ch.airtime(0), ezflow_sim::Duration::from_micros(350));
        assert_eq!(ch.airtime(1), ezflow_sim::Duration::from_micros(100));
        assert_eq!(ch.airtime(2), ezflow_sim::Duration::ZERO);
        let u = ch.utilization(0, ezflow_sim::Duration::from_micros(1_000));
        assert!((u - 0.35).abs() < 1e-12);
        assert_eq!(ch.utilization(0, ezflow_sim::Duration::ZERO), 0.0);
    }

    #[test]
    fn airtime_breakdown_partitions_elapsed_time() {
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(21);
        // 0 transmits to 1 for 100 µs; then the air is quiet until 400.
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        off_air(&mut ch, &mut er, t(100), a, &mut rng);

        let a0 = ch.airtime_breakdown(0, t(400));
        assert_eq!(a0.tx_us, 100);
        assert_eq!(a0.idle_us, 300);
        // Node 1 decodes node 0: rx while the frame was on the air.
        let a1 = ch.airtime_breakdown(1, t(400));
        assert_eq!(a1.rx_us, 100);
        assert_eq!(a1.idle_us, 300);
        // Node 2 senses (400 m) but cannot decode (250 m range): busy.
        let a2 = ch.airtime_breakdown(2, t(400));
        assert_eq!(a2.busy_us, 100);
        assert_eq!(a2.idle_us, 300);
        // Node 3 (600 m) senses nothing.
        let a3 = ch.airtime_breakdown(3, t(400));
        assert_eq!(a3.idle_us, 400);

        // Every node's buckets partition the full 400 µs.
        for node in 0..5 {
            let air = ch.airtime_breakdown(node, t(400));
            assert_eq!(air.total_us(), 400, "node {node}");
            let (ftx, frx, fbusy, fidle) = air.fractions();
            assert!((ftx + frx + fbusy + fidle - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn tx_takes_priority_over_rx_in_breakdown() {
        // Nodes 0 and 1 overlap; node 1 can decode node 0 but is itself
        // transmitting, so its whole overlap is tx time.
        let mut ch = chan(4);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(22);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let b = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        off_air(&mut ch, &mut er, t(100), a, &mut rng);
        off_air(&mut ch, &mut er, t(100), b, &mut rng);
        let a1 = ch.airtime_breakdown(1, t(100));
        assert_eq!(a1.tx_us, 100);
        assert_eq!(a1.rx_us, 0);
    }

    #[test]
    fn captures_counted_on_overlapping_clean_delivery() {
        // The hidden-pair scenario: both deliveries are clean, both
        // overlapped, so both count as captures.
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(23);
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let b = on_air(&mut ch, &mut sr, t(10), 3, 4, t(110));
        off_air(&mut ch, &mut er, t(100), a, &mut rng);
        off_air(&mut ch, &mut er, t(110), b, &mut rng);
        assert_eq!(ch.stats().captures, 2);
        assert_eq!(ch.stats().hidden_losses, 0);

        // A lone transmission is a clean delivery but not a capture.
        let c = on_air(&mut ch, &mut sr, t(200), 0, 1, t(300));
        off_air(&mut ch, &mut er, t(300), c, &mut rng);
        assert_eq!(ch.stats().captures, 2);
        assert_eq!(ch.stats().clean_deliveries, 3);
    }

    #[test]
    fn hidden_loss_counted_when_interferer_out_of_cs_range() {
        // Sender 1 -> receiver 2; interferer 4 is 600 m from sender 1
        // (mutually hidden) but 400 m from receiver 2 — inside the capture
        // threshold for a 200 m link? 400 >= 1.778 * 200 = 355.7, so it
        // would be captured over. Use 0 -> 1 with interferer 3 instead:
        // 3 is 600 m from 0 (hidden) and 400 m from 1 (captured).
        // To force a corrupting hidden interferer we shrink the geometry:
        // interferer two hops away with 150 m spacing is 300 m from the
        // receiver, under the 10 dB threshold for a 150 m link (266.7 m)?
        // 300 > 266.7 — still captured. Disable capture instead.
        let cfg = ChannelConfig {
            capture_ratio: f64::INFINITY,
            ..ChannelConfig::default()
        };
        let mut ch = Channel::new(&line_positions(5, 200.0), cfg, LossModel::ideal());
        let mut sr = StartReport::default();
        let mut er = EndReport::default();
        let mut rng = SimRng::new(24);
        // 0 and 3 are 600 m apart: hidden from each other. 3's frame
        // reaches receiver 1 at 400 m (inside 550 m cs range) and, with
        // capture disabled, destroys the reception.
        let a = on_air(&mut ch, &mut sr, t(0), 0, 1, t(100));
        let _b = on_air(&mut ch, &mut sr, t(10), 3, 4, t(110));
        let end = off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert!(!end.deliveries[0].clean);
        assert_eq!(ch.stats().collisions_at_dst, 1);
        assert_eq!(ch.stats().hidden_losses, 1, "0 cannot sense 3");

        // Contrast: an in-CS-range interferer is not a hidden loss.
        let mut ch = Channel::new(&line_positions(5, 200.0), cfg, LossModel::ideal());
        let a = on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        let _b = on_air(&mut ch, &mut sr, t(5), 3, 4, t(105));
        off_air(&mut ch, &mut er, t(100), a, &mut rng);
        assert_eq!(ch.stats().collisions_at_dst, 1);
        assert_eq!(ch.stats().hidden_losses, 0, "1 senses 3 at 400 m");
    }

    /// One transmission on the reference channel's air.
    struct RefTx {
        id: u64,
        src: usize,
        dst: usize,
        end: Time,
        corrupted: Vec<bool>,
        overlapped: bool,
        hidden_hit: bool,
    }

    /// The original O(N)-per-transmission channel as a test oracle: every
    /// loop scans all nodes and all active transmissions, every report
    /// allocates, every node is told every transition, the airtime ledger
    /// is a full sweep at every event, and every reception looks its loss
    /// process up by node pair in the model's maps, with each link's
    /// Gilbert–Elliott state in a map of its own. The optimised channel
    /// must be observationally identical.
    struct RefChannel {
        n: usize,
        decode: Vec<Vec<bool>>,
        sense: Vec<Vec<bool>>,
        dist: Vec<Vec<f64>>,
        ratio: f64,
        loss: LossModel,
        /// Per directed link, its burst chain's state (true = Bad).
        chain_state: std::collections::HashMap<(usize, usize), bool>,
        sense_count: Vec<u32>,
        rx_count: Vec<u32>,
        tx_count: Vec<u32>,
        air: Vec<Airtime>,
        swept: Time,
        active: Vec<RefTx>,
        next_tx: u64,
        stats: ChannelStats,
    }

    impl RefChannel {
        fn new(positions: &[crate::geom::Position], cfg: ChannelConfig, loss: LossModel) -> Self {
            let n = positions.len();
            let mut decode = vec![vec![false; n]; n];
            let mut sense = vec![vec![false; n]; n];
            let mut dist = vec![vec![0.0; n]; n];
            for s in 0..n {
                for r in 0..n {
                    dist[s][r] = positions[s].distance(&positions[r]);
                    if s == r {
                        continue;
                    }
                    decode[s][r] = positions[s].within(&positions[r], cfg.tx_range);
                    sense[s][r] = positions[s].within(&positions[r], cfg.cs_range);
                }
            }
            RefChannel {
                n,
                decode,
                sense,
                dist,
                ratio: cfg.capture_ratio,
                loss,
                chain_state: std::collections::HashMap::new(),
                sense_count: vec![0; n],
                rx_count: vec![0; n],
                tx_count: vec![0; n],
                air: vec![Airtime::default(); n],
                swept: Time::ZERO,
                active: Vec::new(),
                next_tx: 0,
                stats: ChannelStats::default(),
            }
        }

        fn corrupts(&self, i: usize, s: usize, r: usize) -> bool {
            i == r || (self.sense[i][r] && self.dist[i][r] < self.ratio * self.dist[s][r])
        }

        /// The per-pair loss model: a down link drops without a draw; then
        /// the link's Bernoulli draw, then its burst chain's step and loss
        /// draw — the per-link override or else the global overlay.
        fn drops(&mut self, now: Time, src: usize, dst: usize, rng: &mut SimRng) -> bool {
            let (m, link) = (&self.loss, (src, dst));
            if m.churn.get(&link).is_some_and(|w| w.is_down(now)) {
                return true;
            }
            let per = m.loss_prob(src, dst);
            let bernoulli = per > 0.0 && rng.gen_bool(per);
            let Some(ge) = m.burst_link.get(&link).copied().or(m.burst) else {
                return bernoulli;
            };
            let bad = self.chain_state.entry(link).or_insert(false);
            if rng.gen_bool(if *bad { ge.p_b2g } else { ge.p_g2b }) {
                *bad = !*bad;
            }
            let p = if *bad { ge.p_bad } else { ge.p_good };
            let bursty = p > 0.0 && rng.gen_bool(p);
            bernoulli || bursty
        }

        /// The every-event ledger: all N nodes, whether or not this event
        /// concerns them.
        fn sweep(&mut self, now: Time) {
            let span = now.saturating_since(self.swept).as_micros();
            for r in 0..self.n {
                let air = &mut self.air[r];
                if self.tx_count[r] > 0 {
                    air.tx_us += span;
                } else if self.rx_count[r] > 0 {
                    air.rx_us += span;
                } else if self.sense_count[r] > 0 {
                    air.busy_us += span;
                } else {
                    air.idle_us += span;
                }
            }
            self.swept = self.swept.max(now);
        }

        // Written in plain index style on purpose: this is the oracle the
        // neighbor-list fast path is checked against.
        #[allow(clippy::needless_range_loop)]
        fn start_tx(&mut self, now: Time, src: usize, dst: usize, end: Time) -> (u64, Vec<usize>) {
            self.sweep(now);
            self.stats.tx_started += 1;
            let mut corrupted = vec![false; self.n];
            corrupted[src] = true;
            let mut overlapped = false;
            let mut hidden_hit = false;
            for a_idx in 0..self.active.len() {
                if self.active[a_idx].end <= now {
                    continue;
                }
                overlapped = true;
                self.active[a_idx].overlapped = true;
                let other = self.active[a_idx].src;
                let a_dst = self.active[a_idx].dst;
                for r in 0..self.n {
                    if self.decode[other][r] && self.corrupts(src, other, r) {
                        self.active[a_idx].corrupted[r] = true;
                        if r == a_dst && src != r && !self.sense[src][other] {
                            self.active[a_idx].hidden_hit = true;
                        }
                    }
                    if self.decode[src][r] && self.corrupts(other, src, r) {
                        corrupted[r] = true;
                        if r == dst && other != r && !self.sense[other][src] {
                            hidden_hit = true;
                        }
                    }
                }
            }
            let id = self.next_tx;
            self.next_tx += 1;
            self.active.push(RefTx {
                id,
                src,
                dst,
                end,
                corrupted,
                overlapped,
                hidden_hit,
            });
            self.tx_count[src] += 1;
            let mut became_busy = Vec::new();
            for r in 0..self.n {
                if self.sense[src][r] {
                    self.rx_count[r] += u32::from(self.decode[src][r]);
                    self.sense_count[r] += 1;
                    if self.sense_count[r] == 1 {
                        became_busy.push(r);
                    }
                }
            }
            (id, became_busy)
        }

        /// `(deliveries, became_idle, dirty)`.
        #[allow(clippy::type_complexity, clippy::needless_range_loop)]
        fn end_tx(
            &mut self,
            id: u64,
            rng: &mut SimRng,
        ) -> (Vec<(usize, DecodeOutcome)>, Vec<usize>, Vec<usize>) {
            let idx = self.active.iter().position(|a| a.id == id).unwrap();
            let tx = self.active.swap_remove(idx);
            let (src, end) = (tx.src, tx.end);
            self.sweep(end);
            self.tx_count[src] -= 1;
            let mut became_idle = Vec::new();
            for r in 0..self.n {
                if self.sense[src][r] {
                    self.rx_count[r] -= u32::from(self.decode[src][r]);
                    self.sense_count[r] -= 1;
                    if self.sense_count[r] == 0 {
                        became_idle.push(r);
                    }
                }
            }
            let mut deliveries = Vec::new();
            let mut dirty = Vec::new();
            for r in 0..self.n {
                if r == src {
                    continue;
                }
                if !self.decode[src][r] {
                    if self.sense[src][r] {
                        dirty.push(r);
                    }
                    continue;
                }
                let at_dst = u64::from(r == tx.dst);
                let outcome = if tx.corrupted[r] {
                    self.stats.collisions_at_dst += at_dst;
                    self.stats.hidden_losses += at_dst * u64::from(tx.hidden_hit);
                    DecodeOutcome::Collision
                } else if self.drops(end, src, r, rng) {
                    self.stats.bernoulli_losses += at_dst;
                    DecodeOutcome::Loss
                } else {
                    self.stats.clean_deliveries += at_dst;
                    self.stats.captures += at_dst * u64::from(tx.overlapped);
                    if tx.overlapped {
                        DecodeOutcome::Capture
                    } else {
                        DecodeOutcome::Clean
                    }
                };
                if matches!(outcome, DecodeOutcome::Collision | DecodeOutcome::Loss) {
                    dirty.push(r);
                }
                deliveries.push((r, outcome));
            }
            (deliveries, became_idle, dirty)
        }
    }

    /// Gilbert–Elliott parameters across their whole range, `p_good` kept
    /// small as real profiles keep it.
    fn ge() -> impl proptest::prelude::Strategy<Value = GilbertElliott> {
        proptest::prelude::Strategy::prop_map(
            (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.2, 0.0f64..1.0),
            |(p_g2b, p_b2g, p_good, p_bad)| GilbertElliott {
                p_g2b,
                p_b2g,
                p_good,
                p_bad,
            },
        )
    }

    /// Two senders `apart` lattice steps (50 m) from each other on one
    /// line, with a receiver 250 m from the first and between them: at 16
    /// steps the senders sit at exactly `cs_range + tx_range` (800 m) and
    /// the second is exactly `cs_range` from the receiver; 15 and 17 are
    /// one step either side of the interference cut.
    fn collinear_triple((x, y, apart, vertical): (u32, u32, u32, bool)) -> [(f64, f64); 3] {
        let at = |along: u32| {
            let (dx, dy) = if vertical { (0, along) } else { (along, 0) };
            ((x + dx) as f64 * 50.0, (y + dy) as f64 * 50.0)
        };
        [at(0), at(5), at(apart)]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// On random topologies and densities the neighbor-list channel
        /// produces reports identical — same contents, same (sorted) order,
        /// same RNG consumption — to the reference full scan, and its
        /// computed point queries equal the reference's dense matrices.
        /// The second layout arm snaps to a 50 m lattice, so pairs at
        /// exactly 250 m and 550 m, 150/200/250 triangles, co-located
        /// nodes and equal-distance capture ties all occur; the third
        /// spreads over 3,000 m, so most sender pairs are beyond the
        /// interference reach; the fourth is collinear triples on and one
        /// step around that reach. A random subset of nodes listens, and
        /// random events flip one node's bit first, transmissions on the
        /// air or not: the reported transitions are the reference's
        /// filtered by the bits as they stand, while `is_busy` (the pull
        /// path) matches the reference's counts for every node after every
        /// event. Same-instant starts and ends arrive in random relative
        /// order, and half the cases snap every instant to 50 µs so that
        /// ends tie often: `is_busy` is then also asked between two ends
        /// at one instant. Per-node airtime equals the reference's every-event
        /// full-sweep ledger after random events, read at a random instant
        /// up to the next event (often the event's own instant or the
        /// next one's), and at the close; the EIFS set derived from the sense row
        /// minus clean deliveries equals the reference's dirty list. The
        /// loss model mixes a default PER, per-link PER, a global burst
        /// overlay, per-link burst chains and up/down schedules, so the
        /// link-indexed processes, their state bits and the RNG stream are
        /// held to the per-pair lookups.
        #[test]
        fn neighbor_lists_match_full_scan(
            seed in proptest::prelude::any::<u64>(),
            coords in proptest::prelude::prop_oneof![
                proptest::collection::vec((0.0f64..1200.0, 0.0f64..1200.0), 2..9),
                proptest::prelude::Strategy::prop_map(
                    proptest::collection::vec((0u32..=24, 0u32..=24), 2..25),
                    |cells| cells.into_iter().map(|(x, y)| (x as f64 * 50.0, y as f64 * 50.0)).collect(),
                ),
                proptest::collection::vec((0.0f64..3000.0, 0.0f64..3000.0), 2..25),
                proptest::prelude::Strategy::prop_map(
                    proptest::collection::vec(
                        (0u32..=43, 0u32..=43, 15u32..=17, proptest::prelude::any::<bool>()),
                        1..5,
                    ),
                    |triples| triples.into_iter().flat_map(collinear_triple).collect(),
                ),
            ],
            txs in proptest::collection::vec(
                (0usize..24, 0usize..24, 0u64..600, 1u64..400),
                1..30
            ),
            loss in (
                proptest::prelude::prop_oneof![proptest::prelude::Just(0.0f64), 0.0f64..0.3],
                0.0f64..0.6,
                proptest::option::of(ge()),
                proptest::collection::vec((0usize..1000, ge()), 0..8),
                proptest::collection::vec((0usize..1000, 0u64..300, 0u64..300, 0u64..900), 0..8),
            ),
            capture in proptest::prelude::any::<bool>(),
            order in (
                proptest::collection::vec(proptest::prelude::any::<bool>(), 24),
                proptest::prelude::any::<bool>(),
                proptest::collection::vec(proptest::prelude::any::<u16>(), 60),
                proptest::collection::vec(proptest::option::of(0usize..24), 60),
                proptest::collection::vec(proptest::option::of(proptest::prelude::any::<u16>()), 60),
            ),
        ) {
            use proptest::prelude::{prop_assert_eq, prop_assert};
            let pos: Vec<crate::geom::Position> = coords
                .iter()
                .map(|&(x, y)| crate::geom::Position::new(x, y))
                .collect();
            let n = pos.len();
            let (listens, snap, ties, toggles, probes) = order;
            let (default_per, loss_p, burst, burst_links, churn) = loss;
            let mut loss = LossModel::uniform(default_per);
            for s in 0..n {
                for r in 0..n {
                    if s != r && (s + r) % 3 == 0 {
                        loss.set_link(s, r, loss_p);
                    }
                }
            }
            loss.burst = burst;
            // Overrides land on decode links, the only ones that sample.
            let decodes: Vec<(usize, usize)> = (0..n)
                .flat_map(|s| (0..n).map(move |r| (s, r)))
                .filter(|&(s, r)| s != r && pos[s].within(&pos[r], ChannelConfig::default().tx_range))
                .collect();
            let decode_link = |k: usize| decodes.get(k % decodes.len().max(1)).copied();
            for (k, ge) in burst_links {
                if let Some((s, r)) = decode_link(k) {
                    loss.set_link_burst(s, r, ge);
                }
            }
            for (k, up, down, phase) in churn {
                let us = ezflow_sim::Duration::from_micros;
                if let Some((s, r)) = decode_link(k) {
                    // `ChurnWindow::new` refuses an empty cycle.
                    loss.set_link_churn(s, r, ChurnWindow::new(us(up), us(down.max(1)), us(phase)));
                }
            }
            // Without capture every sensed interferer corrupts, so the
            // boundary geometry decides outcomes instead of being
            // captured over.
            let cfg = ChannelConfig {
                capture_ratio: if capture { CAPTURE_RATIO_10DB } else { f64::INFINITY },
                ..ChannelConfig::default()
            };
            let mut fast = Channel::new(&pos, cfg, loss.clone());
            let mut slow = RefChannel::new(&pos, cfg, loss);
            let mut rng_fast = SimRng::new(seed);
            let mut rng_slow = SimRng::new(seed);
            let mut listening = listens[..n].to_vec();
            for (r, &on) in listening.iter().enumerate() {
                prop_assert!(fast.listening(r), "everyone listens by default");
                fast.set_listening(r, on);
            }

            for s in 0..n {
                let sensed: Vec<usize> = (0..n).filter(|&r| slow.sense[s][r]).collect();
                prop_assert_eq!(fast.sensing_neighbors(s).len(), sensed.len());
                prop_assert_eq!(fast.sensing_neighbors(s).collect::<Vec<_>>(), sensed);
                for r in 0..n {
                    prop_assert_eq!(fast.can_decode(s, r), slow.decode[s][r], "decode {}->{}", s, r);
                    prop_assert_eq!(fast.can_sense(s, r), slow.sense[s][r], "sense {}->{}", s, r);
                    for i in 0..n {
                        prop_assert_eq!(
                            fast.corrupts(i, s, r),
                            slow.corrupts(i, s, r),
                            "{} corrupts {}->{}", i, s, r
                        );
                    }
                }
            }

            // Snapped spans keep a nonzero length; ends and starts at one
            // instant are ordered by a random key, not by kind.
            let spans: Vec<(u64, u64)> = txs
                .iter()
                .map(|&(_, _, start, dur)| {
                    if snap {
                        let from = start / 50 * 50;
                        (from, ((start + dur) / 50 * 50).max(from + 50))
                    } else {
                        (start, start + dur)
                    }
                })
                .collect();
            #[derive(Clone, Copy)]
            enum Ev { Start(usize), End(usize) }
            let mut events: Vec<(u64, u16, Ev)> = Vec::new();
            for (i, &(start, end)) in spans.iter().enumerate() {
                events.push((start, ties[2 * i], Ev::Start(i)));
                events.push((end, ties[2 * i + 1], Ev::End(i)));
            }
            events.sort_by_key(|&(t, tie, _)| (t, tie));
            let times: Vec<u64> = events.iter().map(|&(t, _, _)| t).collect();

            let mut ids = vec![None; txs.len()];
            let mut sr = StartReport::default();
            let mut end_report = EndReport::default();
            for (k, (t, _, ev)) in events.into_iter().enumerate() {
                if let Some(r) = toggles[k].filter(|&r| r < n) {
                    listening[r] = !listening[r];
                    fast.set_listening(r, listening[r]);
                }
                let on = |r: &usize| listening[*r];
                match ev {
                    Ev::Start(i) => {
                        let (src, dst, _, _) = txs[i];
                        let (start, end) = spans[i];
                        let (src, dst) = (src % n, dst % n);
                        if src == dst { continue; }
                        let id = on_air(
                            &mut fast,
                            &mut sr,
                            Time::from_micros(start),
                            src,
                            dst,
                            Time::from_micros(end),
                        );
                        let (ref_id, mut ref_busy) = slow.start_tx(
                            Time::from_micros(start),
                            src,
                            dst,
                            Time::from_micros(end),
                        );
                        ref_busy.retain(on);
                        prop_assert_eq!(&sr.became_busy, &ref_busy);
                        ids[i] = Some((id, ref_id, src));
                    }
                    Ev::End(i) => {
                        let Some((id, ref_id, src)) = ids[i] else { continue };
                        fast.end_tx_into(Time::from_micros(t), id, &mut rng_fast, &mut end_report);
                        let (ref_del, mut ref_idle, ref_dirty) = slow.end_tx(ref_id, &mut rng_slow);
                        let got: Vec<(usize, DecodeOutcome)> = end_report
                            .deliveries
                            .iter()
                            .map(|d| (d.node, d.outcome))
                            .collect();
                        prop_assert_eq!(&got, &ref_del);
                        prop_assert!(end_report.deliveries.iter().all(|d| {
                            d.clean == matches!(d.outcome, DecodeOutcome::Clean | DecodeOutcome::Capture)
                        }));
                        ref_idle.retain(on);
                        prop_assert_eq!(&end_report.became_idle, &ref_idle);
                        let dirty: Vec<usize> = fast.undecoded(src, &end_report.deliveries).collect();
                        prop_assert_eq!(&dirty, &ref_dirty);
                        prop_assert!(
                            end_report.became_idle.windows(2).all(|w| w[0] < w[1]),
                            "became_idle must stay sorted"
                        );
                    }
                }
                for r in 0..n {
                    prop_assert_eq!(
                        fast.is_busy(r, Time::from_micros(t)),
                        slow.sense_count[r] > 0,
                        "is_busy({})", r
                    );
                }
                // Nothing changes before the next event, so the sweep may
                // stop anywhere up to it and go on from there.
                if let Some(x) = probes[k] {
                    let next = times.get(k + 1).copied().unwrap_or(t + 7);
                    let at = match x % 3 {
                        0 => t,
                        1 => next,
                        _ => t + u64::from(x) % (next - t + 1),
                    };
                    let at = Time::from_micros(at);
                    slow.sweep(at);
                    for r in 0..n {
                        prop_assert_eq!(fast.airtime_breakdown(r, at), slow.air[r], "airtime of {} at {:?}", r, at);
                    }
                }
            }
            prop_assert_eq!(fast.active_count(), slow.active.len());
            prop_assert_eq!(fast.stats(), slow.stats);
            // The gap ledger against the every-event sweep at an instant
            // past the last event.
            let last = times[times.len() - 1];
            let close = Time::from_micros(last + 7);
            slow.sweep(close);
            for r in 0..n {
                prop_assert_eq!(fast.airtime_breakdown(r, close), slow.air[r], "airtime of {}", r);
                prop_assert_eq!(slow.air[r].total_us(), last + 7);
            }
        }
    }

    /// Work is local, as an exact count: with K transmissions already on
    /// the air, pairwise farther apart than the interference reach, one
    /// more start evaluates the capture rule against the same number of
    /// receivers for every K — and against none when nothing is within
    /// reach. The regression guard for "cost does not grow with the
    /// network", with no timing in it.
    #[test]
    fn capture_work_is_independent_of_distant_transmissions() {
        const SIDE: usize = 64;
        let pos: Vec<Position> = (0..SIDE * SIDE)
            .map(|i| Position::new((i % SIDE) as f64 * 200.0, (i / SIDE) as f64 * 200.0))
            .collect();
        let node = |col: usize, row: usize| row * SIDE + col;
        // Senders on an 8×8 sub-lattice 1,400 m apart (reach: 800 m).
        let far: Vec<usize> = (0..64)
            .map(|k| node(4 + 7 * (k % 8), 4 + 7 * (k / 8)))
            .collect();
        let evals_of_one_more = |k: usize, src: usize| {
            let mut ch = Channel::new(&pos, ChannelConfig::default(), LossModel::ideal());
            let mut sr = StartReport::default();
            for &s in &far[..k] {
                on_air(&mut ch, &mut sr, t(0), s, s + 1, t(100));
            }
            assert_eq!(
                ch.capture_evaluations(),
                0,
                "the {k} are out of each other's reach"
            );
            on_air(&mut ch, &mut sr, t(10), src, src + 1, t(90));
            assert_eq!(ch.active_count(), k + 1);
            ch.capture_evaluations()
        };
        // Two hops east of the first far sender: within its reach, and
        // beyond every other's.
        let near = evals_of_one_more(1, far[0] + 2);
        assert_eq!(near, 8, "two interior decode rows of four neighbours");
        for k in [16, 64] {
            assert_eq!(evals_of_one_more(k, far[0] + 2), near, "K = {k}");
        }
        // Midway between four far senders (≥ 849 m from each): nothing
        // within reach, nothing evaluated, however many are on the air.
        for k in [1, 16, 64] {
            assert_eq!(evals_of_one_more(k, node(7, 7)), 0, "K = {k}");
        }
    }

    /// The capture kernel against [`Channel::corrupts`], on every
    /// (interferer, sender) pair of layouts built on the rule's edges, with
    /// the edge entries also pinned by hand.
    #[test]
    fn capture_kernel_equals_the_rule() {
        let layout = |cfg: ChannelConfig, at: &[(f64, f64)]| {
            let pos: Vec<Position> = at.iter().map(|&(x, y)| Position::new(x, y)).collect();
            Channel::new(&pos, cfg, LossModel::ideal())
        };
        // `(hits, dst hit)` of interferer `i` over `s`'s decode row, from
        // a row already marked `prior`.
        let kernel = |ch: &Channel, i: usize, s: usize, dst: usize, prior: bool| {
            let row = ch.decode_from.row(s);
            let mut hits = vec![prior; row.len()];
            let dst_hit = capture_row(&ch.positions, &ch.cfg, i, s, row, dst, &mut hits);
            (hits, dst_hit)
        };
        let agree = |ch: &Channel| {
            let n = ch.node_count();
            for (i, s) in (0..n).flat_map(|i| (0..n).map(move |s| (i, s))) {
                let row = ch.decode_from.row(s);
                let rule: Vec<bool> = row.iter().map(|&r| ch.corrupts(i, s, r as usize)).collect();
                for dst in 0..n {
                    let (hits, dst_hit) = kernel(ch, i, s, dst, false);
                    assert_eq!(hits, rule, "{i} against {s}'s row");
                    let at_dst = row.iter().zip(&rule).any(|(&r, &c)| c && r as usize == dst);
                    assert_eq!(dst_hit, at_dst, "{i} against {s} -> {dst}");
                }
                let (hits, _) = kernel(ch, i, s, s, true);
                assert!(hits.iter().all(|&h| h), "a mark is never cleared");
            }
        };
        let no_capture = ChannelConfig {
            capture_ratio: f64::INFINITY,
            ..ChannelConfig::default()
        };

        // The interferer is the receiver: half-duplex, whatever the
        // distances.
        let ch = chan(3);
        agree(&ch);
        assert_eq!(kernel(&ch, 1, 0, 1, false), (vec![true], true));

        // Capture off, receiver 1 on the sender: `d(i, r) < ∞ · 0` is
        // `< NaN`, false, so the far interferer corrupts 2 but not 1.
        let ch = layout(
            no_capture,
            &[(0.0, 0.0), (0.0, 0.0), (100.0, 0.0), (300.0, 0.0)],
        );
        agree(&ch);
        assert_eq!(kernel(&ch, 3, 0, 1, false), (vec![false, true], false));

        // A receiver exactly `cs_range` from the interferer is inside it
        // (inclusive); one metre more is outside.
        let ch = layout(
            no_capture,
            &[(0.0, 0.0), (250.0, 0.0), (800.0, 0.0), (801.0, 0.0)],
        );
        agree(&ch);
        assert_eq!(kernel(&ch, 2, 0, 1, false), (vec![true], true));
        assert_eq!(kernel(&ch, 3, 0, 1, false), (vec![false], false));

        // A capture tie on a 50 m lattice: at ratio 2 an interferer
        // exactly twice the sender's distance from receiver 1, in line
        // (2) or across (4), is captured over (the test is strict); one
        // step nearer (3) is not.
        let ratio2 = ChannelConfig {
            capture_ratio: 2.0,
            ..ChannelConfig::default()
        };
        let at = [
            (0.0, 0.0),
            (100.0, 0.0),
            (300.0, 0.0),
            (250.0, 0.0),
            (100.0, 200.0),
        ];
        let ch = layout(ratio2, &at);
        agree(&ch);
        assert_eq!(ch.decode_from.row(0), &[1, 3, 4]);
        assert!(!kernel(&ch, 2, 0, 1, false).0[0]);
        assert!(!kernel(&ch, 4, 0, 1, false).0[0]);
        assert!(kernel(&ch, 3, 0, 1, false).0[0]);

        // The work counter: both decode rows per in-reach overlapping
        // pair. 1 -> 2 and 3 -> 4 overlap (rows of 2), then 0 -> 1
        // overlaps both (its row of 1 against each).
        let mut ch = chan(5);
        let mut sr = StartReport::default();
        on_air(&mut ch, &mut sr, t(0), 1, 2, t(100));
        on_air(&mut ch, &mut sr, t(5), 3, 4, t(105));
        assert_eq!(ch.capture_evaluations(), 2 + 2);
        on_air(&mut ch, &mut sr, t(10), 0, 1, t(110));
        assert_eq!(ch.capture_evaluations(), 4 + (2 + 1) + (2 + 1));
    }

    #[test]
    fn reused_reports_allocate_nothing_in_steady_state() {
        let mut ch = chan(5);
        let mut rng = SimRng::new(40);
        let mut start = StartReport::default();
        let mut end = EndReport::default();
        for i in 0..100u64 {
            let at = t(i * 1000);
            ch.start_tx_into(
                at,
                FrameId::default(),
                0,
                1,
                at + ezflow_sim::Duration::from_micros(100),
                &mut start,
            );
            ch.end_tx_into(
                at + ezflow_sim::Duration::from_micros(100),
                start.tx_id,
                &mut rng,
                &mut end,
            );
            assert_eq!(end.deliveries.len(), 1);
        }
        // After the first round-trip every corrupted buffer comes from
        // the pool.
        assert_eq!(ch.buffer_reuses(), 99);
        assert_eq!(ch.stats().clean_deliveries, 100);
    }

    #[test]
    #[should_panic(expected = "carrier-sense range must cover")]
    fn rejects_cs_smaller_than_tx() {
        Channel::new(
            &line_positions(2, 100.0),
            ChannelConfig {
                tx_range: 250.0,
                cs_range: 100.0,
                ..ChannelConfig::default()
            },
            LossModel::ideal(),
        );
    }
}
