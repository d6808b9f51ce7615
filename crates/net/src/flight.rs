//! The packet flight recorder.
//!
//! The [`FlightRecorder`] answers "what happened to *this packet*?". Every
//! data packet admitted while the recorder is enabled gets a journey — the
//! time-ordered list of its lifecycle [`TraceEvent`]s (see
//! [`crate::lifecycle`]) from source admission through every hop's
//! enqueue/dequeue/attempt to terminal delivery or drop. The engine feeds
//! it; the `trace` inspector CLI and the experiment harness read the JSONL
//! export.
//!
//! Budget discipline: the recorder is bounded by a packet cap, and an
//! armed recorder costs what it keeps. A journey is found through a
//! `seq → slot` hash index in one O(1) probe — the engine looks a packet
//! up once per record ([`FlightRecorder::journey_mut`], or the handle
//! [`FlightRecorder::admit`] returns) and builds the payload only if
//! somebody is watching. A held event is a 32-byte record — the journey
//! keeps the packet id once, a record the rest, node as 32 bits — decoded
//! back into a [`TraceEvent`] only by [`FlightRecorder::to_jsonl`] and
//! [`FlightRecorder::journey`]. Records live in one store of fixed
//! four-record blocks chained per journey; evicting a journey splices its
//! whole chain onto the free list in O(1), so a two-event source drop that
//! recycles a sixty-event delivery's slot holds one block, not the
//! delivery's buffer: bytes reserved stay within 2.5× the bytes of the
//! records held (1.4–1.8× on the benchmark's `observed_lossy`: 1.2 MB at
//! 4,096 journeys). When the cap is hit with no finished journey
//! to evict the recorder **samples** — the admission stride doubles and
//! the skip is counted in [`FlightStats`], never silent. With `cap == 0`
//! the recorder is disabled and every call is a no-op behind one branch,
//! keeping the hot path cost-free.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use ezflow_sim::{JsonWriter, Time};

use crate::lifecycle::{DropCause, TraceEvent, TracePayload};

/// Records per storage block. Most journeys are either a source drop (two
/// records) or a multi-hop delivery (dozens): four keeps the first kind to
/// one block and the per-block link under 2 % of the second.
const BLOCK_EVENTS: usize = 4;

/// "No block": the end of a chain, or an empty free list.
const NIL: u32 = u32::MAX;

/// One held lifecycle record: a [`TraceEvent`] less its packet id, which
/// its journey keeps.
#[derive(Clone, Copy, Debug)]
struct Record {
    at: Time,
    node: u32,
    payload: TracePayload,
}

// Half a `TraceEvent`: four records and a block's link in 136 bytes.
const _: () = assert!(std::mem::size_of::<Record>() <= 32);

impl Record {
    /// The event this record holds, of packet `seq`.
    fn event(self, seq: u64) -> TraceEvent {
        TraceEvent {
            at: self.at,
            node: self.node as usize,
            seq,
            payload: self.payload,
        }
    }
}

/// What an unused block entry holds (never read: `Journey::len` bounds
/// every walk).
const UNUSED: Record = Record {
    at: Time::ZERO,
    node: 0,
    payload: TracePayload::Admit { flow: 0 },
};

/// [`BLOCK_EVENTS`] consecutive records of one journey, linked to the
/// journey's next block (or, on the free list, to the next free block).
struct Block {
    records: [Record; BLOCK_EVENTS],
    next: u32,
}

/// One packet's recorded lifecycle: a chain of blocks in the store.
#[derive(Clone, Copy, Debug)]
struct Journey {
    seq: u64,
    head: u32,
    tail: u32,
    /// Records held; the last `len % BLOCK_EVENTS` (or a full block's
    /// worth) sit in `tail`.
    len: u32,
    done: bool,
}

/// Hashes a packet id with one multiply. Ids are engine-issued and
/// sequential, so there is no adversary to defend against, and the
/// product's low bits (which pick the bucket) differ for neighbouring
/// ids.
#[derive(Default)]
struct SeqHasher(u64);

impl Hasher for SeqHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the index is keyed by u64 only");
    }

    fn write_u64(&mut self, seq: u64) {
        self.0 = seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bookkeeping counters of a [`FlightRecorder`] — how many packets were
/// recorded, sampled away, or evicted, and the current admission stride.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightStats {
    /// Packets whose journeys were (or still are) recorded.
    pub tracked: u64,
    /// Packets not recorded because of sampling or budget pressure.
    pub skipped: u64,
    /// Finished journeys evicted to make room for new admissions.
    pub evicted: u64,
    /// Current admission stride: 1 records every packet, `n` records every
    /// n-th. Doubles whenever the cap is hit with nothing evictable.
    pub stride: u64,
}

/// A bounded recorder of per-packet lifecycle journeys.
pub struct FlightRecorder {
    cap: usize,
    /// Packet id → slot in `journeys`. Never iterated, so its order
    /// reaches no output; it holds at most `cap` entries, so its memory
    /// is a function of `cap` however many packets are offered.
    index: HashMap<u64, u32, BuildHasherDefault<SeqHasher>>,
    /// The journeys held, at most `cap`. A slot is vacated only by the
    /// admission that refills it, so every entry is live.
    journeys: Vec<Journey>,
    /// The record store every journey's chain lives in.
    blocks: Vec<Block>,
    /// Head of the free-block list (linked through `Block::next`).
    free: u32,
    /// Records currently held across all journeys.
    held: usize,
    /// Slots of finished journeys, oldest first — the eviction queue.
    done_order: VecDeque<u32>,
    stride: u64,
    offered: u64,
    tracked: u64,
    skipped: u64,
    evicted: u64,
}

// The recorder lives inside `Network`, which sweep runners move across
// threads; keep it `Send` (a compile-time check).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FlightRecorder>();
};

/// A tracked packet's journey, found once and open for appending — what
/// [`FlightRecorder::journey_mut`] and [`FlightRecorder::admit`] return.
/// Holding the recorder borrowed is what makes the single lookup safe: no
/// admission can recycle the slot while the handle lives.
pub struct JourneyMut<'a> {
    recorder: &'a mut FlightRecorder,
    slot: u32,
}

impl JourneyMut<'_> {
    /// Appends one record of this journey's packet at `node`. Finished
    /// journeys are sealed: the terminal delivery/drop is the packet's
    /// last word, and trailing MAC bookkeeping that reuses its sequence
    /// number (the final hop ACK's decode outcome, duplicate deliveries of
    /// a retransmission) is not appended.
    pub fn push(&mut self, at: Time, node: usize, payload: TracePayload) {
        let node = u32::try_from(node).expect("node ids fit 32 bits");
        self.recorder
            .append(self.slot, Record { at, node, payload });
    }

    /// Marks the journey as finished (delivered or dropped), making it
    /// eligible for eviction under budget pressure.
    pub fn complete(self) {
        let j = &mut self.recorder.journeys[self.slot as usize];
        if !j.done {
            j.done = true;
            self.recorder.done_order.push_back(self.slot);
        }
    }
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `cap` packet journeys;
    /// `cap == 0` disables recording entirely. Allocates nothing: the
    /// index, the slots and the record store grow with the journeys held.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap,
            index: HashMap::default(),
            journeys: Vec::new(),
            blocks: Vec::new(),
            free: NIL,
            held: 0,
            done_order: VecDeque::new(),
            stride: 1,
            offered: 0,
            tracked: 0,
            skipped: 0,
            evicted: 0,
        }
    }

    /// Whether journeys are being recorded.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Offers packet `seq` of `flow`, just admitted at `node`, for
    /// tracking and, if accepted, opens its journey with the `Admit`
    /// record and hands it back — a packet that dies at once (born into a
    /// full source queue) records its drop through the handle, with no
    /// second lookup. `seq` must not name a journey already held (packet
    /// ids are unique).
    ///
    /// Acceptance is deterministic: every `stride`-th offered packet is
    /// taken. When the cap is reached, the oldest *finished* journey is
    /// evicted; if every tracked journey is still in flight the stride
    /// doubles instead and this packet is skipped (counted, never silent).
    pub fn admit(&mut self, at: Time, node: usize, seq: u64, flow: u32) -> Option<JourneyMut<'_>> {
        if self.cap == 0 {
            return None;
        }
        let offer = self.offered;
        self.offered += 1;
        if !offer.is_multiple_of(self.stride) {
            self.skipped += 1;
            return None;
        }
        let fresh = Journey {
            seq,
            head: NIL,
            tail: NIL,
            len: 0,
            done: false,
        };
        let slot = if self.journeys.len() < self.cap {
            self.journeys.push(fresh);
            u32::try_from(self.journeys.len() - 1).expect("fewer than 2^32 journeys")
        } else if let Some(slot) = self.done_order.pop_front() {
            self.evict(slot);
            self.journeys[slot as usize] = fresh;
            slot
        } else {
            self.stride = self.stride.saturating_mul(2);
            self.skipped += 1;
            return None;
        };
        let clash = self.index.insert(seq, slot);
        debug_assert!(clash.is_none(), "packet {seq} admitted twice");
        self.tracked += 1;
        let mut journey = JourneyMut {
            recorder: self,
            slot,
        };
        journey.push(at, node, TracePayload::Admit { flow });
        Some(journey)
    }

    /// The journey of packet `seq`, if it is tracked, open for appending:
    /// the one lookup a recording site pays. `None` behind a single
    /// branch while the recorder is disabled — the engine builds a
    /// record's payload only inside the `Some`.
    pub fn journey_mut(&mut self, seq: u64) -> Option<JourneyMut<'_>> {
        if self.cap == 0 {
            return None;
        }
        let slot = *self.index.get(&seq)?;
        Some(JourneyMut {
            recorder: self,
            slot,
        })
    }

    /// The recorded journey of packet `seq`, oldest event first.
    pub fn journey(&self, seq: u64) -> Option<Vec<TraceEvent>> {
        let j = &self.journeys[*self.index.get(&seq)? as usize];
        Some(self.chain(j).map(|(_, r)| r.event(seq)).collect())
    }

    /// Number of journeys currently held.
    pub fn packets(&self) -> usize {
        self.journeys.len()
    }

    /// Total events currently held across all journeys.
    pub fn events(&self) -> usize {
        self.held
    }

    /// Current bookkeeping counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            tracked: self.tracked,
            skipped: self.skipped,
            evicted: self.evicted,
            stride: self.stride,
        }
    }

    /// Exports every held journey as JSONL, one event per line, globally
    /// ordered by (time, packet id, within-packet order) — a total order
    /// independent of slot and index internals, so exports are
    /// byte-reproducible. Lines stream into one buffer reserved up front.
    pub fn to_jsonl(&self) -> String {
        let mut order: Vec<(u64, u64, u32, u32)> = Vec::with_capacity(self.held);
        for j in &self.journeys {
            for (i, (pos, r)) in self.chain(j).enumerate() {
                order.push((r.at.as_micros(), j.seq, i as u32, pos));
            }
        }
        // The first three fields are unique, so the store position never
        // decides an order.
        order.sort_unstable();
        let mut w = JsonWriter::with_capacity(order.len() * TraceEvent::LINE_BYTES);
        for (_, seq, _, pos) in order {
            let pos = pos as usize;
            let record = self.blocks[pos / BLOCK_EVENTS].records[pos % BLOCK_EVENTS];
            record.event(seq).write_json(&mut w);
            w.end_line();
        }
        w.into_string()
    }

    /// Walks `j`'s chain oldest record first, yielding each record with its
    /// position in the store (`block * BLOCK_EVENTS + offset`).
    fn chain<'a>(&'a self, j: &Journey) -> impl Iterator<Item = (u32, &'a Record)> + 'a {
        let mut block = j.head;
        (0..j.len as usize).map(move |i| {
            let off = i % BLOCK_EVENTS;
            if off == 0 && i > 0 {
                block = self.blocks[block as usize].next;
            }
            (
                block * BLOCK_EVENTS as u32 + off as u32,
                &self.blocks[block as usize].records[off],
            )
        })
    }

    fn append(&mut self, slot: u32, record: Record) {
        let j = self.journeys[slot as usize];
        if j.done {
            return;
        }
        let off = j.len as usize % BLOCK_EVENTS;
        let mut tail = j.tail;
        if off == 0 {
            tail = self.take_block();
            if j.len == 0 {
                self.journeys[slot as usize].head = tail;
            } else {
                self.blocks[j.tail as usize].next = tail;
            }
            self.journeys[slot as usize].tail = tail;
        }
        self.blocks[tail as usize].records[off] = record;
        self.journeys[slot as usize].len += 1;
        self.held += 1;
    }

    /// A block off the free list, or a new one. The store grows a quarter
    /// at a time, not by doubling, so that what is reserved stays close
    /// to what was ever needed at once.
    fn take_block(&mut self) -> u32 {
        if self.free != NIL {
            let b = self.free;
            self.free = std::mem::replace(&mut self.blocks[b as usize].next, NIL);
            return b;
        }
        let n = self.blocks.len();
        assert!(
            n < (NIL as usize) / BLOCK_EVENTS,
            "flight recorder store exhausted its 32-bit positions"
        );
        if n == self.blocks.capacity() {
            self.blocks.reserve_exact(n / 4 + 64);
        }
        self.blocks.push(Block {
            records: [UNUSED; BLOCK_EVENTS],
            next: NIL,
        });
        n as u32
    }

    /// Forgets the finished journey in `slot`: one index removal, and its
    /// whole chain goes onto the free list by relinking the tail.
    fn evict(&mut self, slot: u32) {
        let j = self.journeys[slot as usize];
        self.index.remove(&j.seq);
        self.blocks[j.tail as usize].next = self.free;
        self.free = j.head;
        self.held -= j.len as usize;
        self.evicted += 1;
    }
}

/// Groups a flat event list (e.g. a parsed JSONL export) into per-packet
/// journeys, keyed by packet id. Within a journey the input order is
/// preserved, which for recorder exports is lifecycle order.
pub fn group_journeys(events: &[TraceEvent]) -> BTreeMap<u64, Vec<TraceEvent>> {
    let mut out: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for ev in events {
        out.entry(ev.seq).or_default().push(*ev);
    }
    out
}

/// The condensed story of one packet's journey, derived from its events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JourneySummary {
    /// Packet id.
    pub seq: u64,
    /// Flow id, if any lifecycle record named it.
    pub flow: Option<u32>,
    /// Nodes the packet was enqueued at, in hop order (source first).
    pub hops: Vec<usize>,
    /// Total DCF transmission attempts across all hops.
    pub attempts: u64,
    /// When the packet was admitted at its source.
    pub admitted: Option<Time>,
    /// When (and where) the packet reached its final destination.
    pub delivered: Option<(Time, usize)>,
    /// When, where, and why the packet was dropped.
    pub dropped: Option<(Time, usize, DropCause)>,
}

impl JourneySummary {
    /// End-to-end latency in microseconds, for delivered packets with a
    /// recorded admission.
    pub fn latency_us(&self) -> Option<u64> {
        let (at, _) = self.delivered?;
        let admitted = self.admitted?;
        Some(at.as_micros().saturating_sub(admitted.as_micros()))
    }
}

/// Condenses one packet's journey (events in lifecycle order, as recorded
/// or as grouped by [`group_journeys`]) into a [`JourneySummary`].
pub fn summarize_journey(seq: u64, events: &[TraceEvent]) -> JourneySummary {
    let mut s = JourneySummary {
        seq,
        flow: None,
        hops: Vec::new(),
        attempts: 0,
        admitted: None,
        delivered: None,
        dropped: None,
    };
    for ev in events {
        match ev.payload {
            TracePayload::Admit { flow, .. } => {
                s.flow.get_or_insert(flow);
                s.admitted.get_or_insert(ev.at);
                if s.hops.is_empty() {
                    s.hops.push(ev.node);
                }
            }
            TracePayload::Enqueue { flow, .. } => {
                s.flow.get_or_insert(flow);
                if s.hops.last() != Some(&ev.node) {
                    s.hops.push(ev.node);
                }
            }
            TracePayload::Attempt { .. } => s.attempts += 1,
            TracePayload::Deliver { flow, .. } => {
                s.flow.get_or_insert(flow);
                s.delivered.get_or_insert((ev.at, ev.node));
            }
            TracePayload::Drop { cause } => {
                s.dropped.get_or_insert((ev.at, ev.node, cause));
            }
            _ => {}
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// The recorder's contract, restated with `Vec` scans: the oracle for
    /// [`recorder_matches_a_vec_scan_model`].
    struct Model {
        cap: usize,
        /// `(seq, events, done)`, in admission order.
        journeys: Vec<(u64, Vec<TraceEvent>, bool)>,
        done_order: Vec<u64>,
        stats: FlightStats,
        offered: u64,
    }

    impl Model {
        fn new(cap: usize) -> Self {
            Model {
                cap,
                journeys: Vec::new(),
                done_order: Vec::new(),
                stats: FlightStats {
                    tracked: 0,
                    skipped: 0,
                    evicted: 0,
                    stride: 1,
                },
                offered: 0,
            }
        }

        fn admit(&mut self, event: TraceEvent) -> bool {
            if self.cap == 0 {
                return false;
            }
            let offer = self.offered;
            self.offered += 1;
            if !offer.is_multiple_of(self.stats.stride) {
                self.stats.skipped += 1;
                return false;
            }
            if self.journeys.len() >= self.cap {
                if self.done_order.is_empty() {
                    self.stats.stride *= 2;
                    self.stats.skipped += 1;
                    return false;
                }
                let oldest = self.done_order.remove(0);
                self.journeys.retain(|j| j.0 != oldest);
                self.stats.evicted += 1;
            }
            self.journeys.push((event.seq, vec![event], false));
            self.stats.tracked += 1;
            true
        }

        fn record(&mut self, event: TraceEvent) {
            if let Some(j) = self.journeys.iter_mut().find(|j| j.0 == event.seq && !j.2) {
                j.1.push(event);
            }
        }

        fn complete(&mut self, seq: u64) {
            if let Some(j) = self.journeys.iter_mut().find(|j| j.0 == seq && !j.2) {
                j.2 = true;
                self.done_order.push(seq);
            }
        }

        fn to_jsonl(&self) -> String {
            let mut all: Vec<(u64, u64, usize, &TraceEvent)> = Vec::new();
            for (seq, events, _) in &self.journeys {
                for (i, ev) in events.iter().enumerate() {
                    all.push((ev.at.as_micros(), *seq, i, ev));
                }
            }
            all.sort_by_key(|&(at, seq, i, _)| (at, seq, i));
            let mut w = JsonWriter::new();
            for (_, _, _, ev) in all {
                ev.write_json(&mut w);
                w.end_line();
            }
            w.into_string()
        }
    }

    proptest! {
        /// Random admit / record / complete sequences — small caps, so
        /// eviction, slot reuse, free-list splicing and stride doubling
        /// all happen; records aimed at evicted, finished and never-seen
        /// packets; times in any order — leave the recorder and a naive
        /// `Vec`-scan model with the same export bytes, stats, counts
        /// and journeys.
        #[test]
        fn recorder_matches_a_vec_scan_model(
            cap in 0usize..7,
            ops in prop::collection::vec((0u8..8, any::<u64>(), 0u64..50), 1..400)
        ) {
            let mut fr = FlightRecorder::new(cap);
            let mut model = Model::new(cap);
            let mut next_seq = 0u64;
            for (op, pick, at) in ops {
                let target = pick % (next_seq + 2);
                match op {
                    0..=2 => {
                        // Packet ids are unique and rising, with gaps.
                        next_seq += 1 + pick % 3;
                        let ev = admit_ev(at, (pick % 5) as usize, next_seq);
                        prop_assert_eq!(admit(&mut fr, ev), model.admit(ev));
                    }
                    3..=5 => {
                        let ev = ev(
                            at,
                            (pick % 5) as usize,
                            target,
                            TracePayload::Dequeue { flow: (pick >> 8) as u32 },
                        );
                        record(&mut fr, ev);
                        model.record(ev);
                    }
                    _ => {
                        complete(&mut fr, target);
                        model.complete(target);
                    }
                }
                prop_assert_eq!(fr.stats(), model.stats);
                prop_assert_eq!(fr.packets(), model.journeys.len());
                prop_assert_eq!(
                    fr.events(),
                    model.journeys.iter().map(|j| j.1.len()).sum::<usize>()
                );
            }
            prop_assert_eq!(fr.to_jsonl(), model.to_jsonl());
            for seq in 0..next_seq + 2 {
                let held = model.journeys.iter().find(|j| j.0 == seq).map(|j| j.1.clone());
                prop_assert_eq!(fr.journey(seq), held);
            }
        }
    }

    /// Offers `ev`'s packet with `ev` (an `Admit`) as its first record.
    fn admit(fr: &mut FlightRecorder, ev: TraceEvent) -> bool {
        let TracePayload::Admit { flow } = ev.payload else {
            panic!("not an admission: {ev:?}");
        };
        fr.admit(ev.at, ev.node, ev.seq, flow).is_some()
    }

    /// Appends `ev` to its packet's journey, if it is tracked.
    fn record(fr: &mut FlightRecorder, ev: TraceEvent) {
        if let Some(mut j) = fr.journey_mut(ev.seq) {
            j.push(ev.at, ev.node, ev.payload);
        }
    }

    /// Finishes packet `seq`'s journey, if it is tracked.
    fn complete(fr: &mut FlightRecorder, seq: u64) {
        if let Some(j) = fr.journey_mut(seq) {
            j.complete();
        }
    }

    /// Drives `fr` through the admissions `seqs` in the benchmark's mix:
    /// seven in ten are born into a full queue (two events), the rest take
    /// sixty events to cross the mesh, one per step, while later packets
    /// come and go around them.
    fn mixed_generations(fr: &mut FlightRecorder, seqs: std::ops::Range<u64>) {
        let mut open: VecDeque<(u64, u32)> = VecDeque::new();
        for seq in seqs {
            let mut journey = fr
                .admit(t(seq), 0, seq, 1)
                .expect("stride 1 takes every packet");
            if seq.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60 < 11 {
                let drop = TracePayload::Drop {
                    cause: DropCause::SourceQueueFull,
                };
                journey.push(t(seq), 0, drop);
                journey.complete();
            } else {
                open.push_back((seq, 1));
            }
            for (s, n) in open.iter_mut() {
                record(fr, ev(seq, 1, *s, TracePayload::Dequeue { flow: 0 }));
                *n += 1;
            }
            while open.front().is_some_and(|&(_, n)| n == 60) {
                complete(fr, open.pop_front().unwrap().0);
            }
        }
        for (seq, _) in open {
            complete(fr, seq);
        }
    }

    #[test]
    fn event_bytes_reserved_follow_event_bytes_held() {
        let cap = 4096;
        let mut fr = FlightRecorder::new(cap);
        mixed_generations(&mut fr, 0..10 * cap as u64);
        assert_eq!(fr.packets(), cap);
        assert_eq!(
            fr.stats().stride,
            1,
            "every packet of the ten generations tracked"
        );
        assert_eq!(
            std::mem::size_of::<Block>(),
            136,
            "four 32-byte records and a link"
        );
        let reserved = fr.blocks.capacity() * std::mem::size_of::<Block>();
        let held = fr.events() * std::mem::size_of::<Record>();
        assert!(
            reserved as f64 <= 2.5 * held as f64,
            "{reserved} bytes reserved for {held} bytes of records held"
        );
        assert_eq!(fr.to_jsonl().lines().count(), fr.events());
    }

    #[test]
    fn index_and_slot_memory_depend_on_cap_not_on_packets_offered() {
        let cap = 64;
        let mut fr = FlightRecorder::new(cap);
        mixed_generations(&mut fr, 0..4 * cap as u64);
        let sizes = |fr: &FlightRecorder| {
            (
                fr.index.capacity(),
                fr.journeys.capacity(),
                fr.done_order.capacity(),
            )
        };
        let warm = sizes(&fr);
        assert!(
            warm.0 <= 4 * cap && warm.1 <= 2 * cap && warm.2 <= 2 * cap,
            "{warm:?}"
        );
        mixed_generations(&mut fr, 4 * cap as u64..1_000_000);
        assert_eq!(
            sizes(&fr),
            warm,
            "admissions past the first few caps allocate no index"
        );
        assert_eq!(fr.packets(), cap);
    }

    fn admit_ev(us: u64, node: usize, seq: u64) -> TraceEvent {
        ev(us, node, seq, TracePayload::Admit { flow: 1 })
    }

    fn ev(us: u64, node: usize, seq: u64, payload: TracePayload) -> TraceEvent {
        TraceEvent {
            at: t(us),
            node,
            seq,
            payload,
        }
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut fr = FlightRecorder::new(0);
        assert!(!fr.enabled());
        assert!(!admit(&mut fr, admit_ev(0, 0, 1)));
        assert!(fr.journey_mut(1).is_none());
        assert_eq!(fr.packets(), 0);
        assert_eq!(fr.stats().tracked, 0);
        assert_eq!(fr.stats().skipped, 0, "disabled != sampled");
    }

    #[test]
    fn records_full_journey_in_order() {
        let mut fr = FlightRecorder::new(8);
        assert!(admit(&mut fr, admit_ev(0, 0, 7)));
        record(
            &mut fr,
            ev(
                1,
                0,
                7,
                TracePayload::Enqueue {
                    flow: 1,
                    occupancy: 1,
                    cap: 50,
                },
            ),
        );
        record(&mut fr, ev(2, 2, 7, TracePayload::Deliver { flow: 1 }));
        complete(&mut fr, 7);
        let j = fr.journey(7).unwrap();
        assert_eq!(j.len(), 3);
        assert!(j.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(fr.stats().tracked, 1);
    }

    #[test]
    fn untracked_records_are_dropped() {
        let mut fr = FlightRecorder::new(4);
        record(&mut fr, admit_ev(0, 0, 99));
        assert_eq!(fr.packets(), 0);
        assert_eq!(fr.events(), 0);
    }

    #[test]
    fn evicts_oldest_finished_journey_when_full() {
        let mut fr = FlightRecorder::new(2);
        assert!(admit(&mut fr, admit_ev(0, 0, 1)));
        complete(&mut fr, 1);
        assert!(admit(&mut fr, admit_ev(1, 0, 2)));
        complete(&mut fr, 2);
        // Cap reached; the next admission evicts seq 1 (oldest finished).
        assert!(admit(&mut fr, admit_ev(2, 0, 3)));
        assert!(fr.journey(1).is_none());
        assert!(fr.journey(2).is_some());
        assert!(fr.journey(3).is_some());
        let st = fr.stats();
        assert_eq!(st.evicted, 1);
        assert_eq!(st.stride, 1, "eviction sufficed; no sampling");
    }

    #[test]
    fn samples_by_doubling_stride_when_nothing_evictable() {
        let mut fr = FlightRecorder::new(2);
        assert!(admit(&mut fr, admit_ev(0, 0, 1)));
        assert!(admit(&mut fr, admit_ev(1, 0, 2)));
        // Both journeys in flight: cap hit, nothing evictable -> stride 2,
        // packet skipped.
        assert!(!admit(&mut fr, admit_ev(2, 0, 3)));
        assert_eq!(fr.stats().stride, 2);
        assert_eq!(fr.stats().skipped, 1);
        // Next offer lands on an odd slot and is sampled away.
        assert!(!admit(&mut fr, admit_ev(3, 0, 4)));
        assert_eq!(fr.stats().skipped, 2);
        // Finish one journey; the next even slot admits again.
        complete(&mut fr, 1);
        assert!(admit(&mut fr, admit_ev(4, 0, 5)));
        assert_eq!(fr.stats().evicted, 1);
    }

    #[test]
    fn admission_hands_back_the_journey_it_opened() {
        // A packet born into a full source queue: admitted and dropped
        // through one handle.
        let mut fr = FlightRecorder::new(1);
        let drop = TracePayload::Drop {
            cause: DropCause::SourceQueueFull,
        };
        let mut j = fr.admit(t(3), 2, 4, 1).expect("an empty recorder takes it");
        j.push(t(3), 2, drop);
        j.complete();
        let want = vec![admit_ev(3, 2, 4), ev(3, 2, 4, drop)];
        assert_eq!(fr.journey(4), Some(want));
        // Completed through the handle, so the next admission may evict it.
        assert!(fr.admit(t(4), 2, 5, 1).is_some());
        assert_eq!(fr.stats().evicted, 1);
    }

    #[test]
    fn pool_recycles_event_buffers() {
        let mut fr = FlightRecorder::new(1);
        assert!(admit(&mut fr, admit_ev(0, 0, 1)));
        complete(&mut fr, 1);
        assert!(admit(&mut fr, admit_ev(1, 0, 2)));
        // Seq 1's buffer was recycled; the new journey holds only its own
        // admit record.
        assert_eq!(fr.journey(2).unwrap().len(), 1);
    }

    #[test]
    fn jsonl_export_is_time_ordered_and_parseable() {
        let mut fr = FlightRecorder::new(8);
        admit(&mut fr, admit_ev(5, 0, 2));
        admit(&mut fr, admit_ev(3, 0, 1));
        record(&mut fr, ev(9, 1, 1, TracePayload::Deliver { flow: 1 }));
        record(&mut fr, ev(7, 1, 2, TracePayload::Deliver { flow: 1 }));
        let jsonl = fr.to_jsonl();
        let parsed = crate::lifecycle::parse_jsonl(&jsonl).unwrap();
        assert_eq!(parsed.len(), 4);
        assert!(parsed.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn group_and_summarize_reconstruct_a_delivery_and_a_drop() {
        let enqueue = TracePayload::Enqueue {
            flow: 1,
            occupancy: 1,
            cap: 50,
        };
        let attempt = |slots| TracePayload::Attempt {
            attempt: 0,
            cw: 32,
            slots,
        };
        let events = vec![
            admit_ev(0, 0, 1),
            ev(0, 0, 1, enqueue),
            ev(1, 0, 1, attempt(9)),
            ev(2, 1, 1, enqueue),
            ev(3, 1, 1, attempt(2)),
            ev(4, 2, 1, TracePayload::Deliver { flow: 1 }),
            admit_ev(1, 3, 9),
            ev(
                5,
                3,
                9,
                TracePayload::Drop {
                    cause: DropCause::RetryLimit,
                },
            ),
        ];
        let grouped = group_journeys(&events);
        assert_eq!(grouped.len(), 2);

        let ok = summarize_journey(1, &grouped[&1]);
        assert_eq!(ok.hops, vec![0, 1]);
        assert_eq!(ok.attempts, 2);
        assert_eq!(ok.delivered, Some((t(4), 2)));
        assert_eq!(ok.dropped, None);
        assert_eq!(ok.latency_us(), Some(4));

        let bad = summarize_journey(9, &grouped[&9]);
        assert_eq!(bad.delivered, None);
        assert_eq!(bad.dropped, Some((t(5), 3, DropCause::RetryLimit)));
        assert_eq!(bad.latency_us(), None);
    }
}
