//! The packet flight recorder.
//!
//! The [`FlightRecorder`] answers "what happened to *this packet*?". The
//! first `cap` packets the network admits get a journey — their
//! lifecycle [`TraceEvent`]s (see [`crate::lifecycle`]) from source
//! admission through every hop's enqueue/dequeue/attempt to terminal
//! delivery or drop. The engine feeds it; the `trace` inspector CLI and
//! the experiment harness read the JSONL export.
//!
//! Tracking is decided once, at admission: packet ids are issued 0, 1,
//! 2, … and every one is admitted, so a packet is tracked iff its id is
//! below the cap, and every later packet is counted as skipped in
//! [`FlightStats`] — a bounded capture is labelled, never silent. Each
//! record of a tracked packet is written as its JSONL line the moment it
//! happens, so the export is in the order things happened and nothing is
//! held but the text and one flag per tracked packet. With `cap == 0`
//! the recorder is disabled and every call is a no-op behind one branch.

use std::collections::BTreeMap;

use ezflow_sim::{JsonWriter, Time};

use crate::lifecycle::{DropCause, TraceEvent, TracePayload};

/// Bookkeeping counters of a [`FlightRecorder`]: together they count
/// every packet admitted while it was enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightStats {
    /// Packets whose journeys were recorded: the first `cap` admitted.
    pub tracked: u64,
    /// Packets admitted after the first `cap`, not recorded.
    pub skipped: u64,
}

/// A recorder of the journeys of the first `cap` packets admitted.
pub struct FlightRecorder {
    cap: u64,
    /// One flag per tracked packet, indexed by packet id: set by the
    /// journey's `Deliver`/`Drop`, which seals it.
    done: Vec<bool>,
    skipped: u64,
    /// The export so far: one line per record, in the order they happened.
    out: JsonWriter,
}

// The recorder lives inside `Network`, which sweep runners move across
// threads; keep it `Send` (a compile-time check).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FlightRecorder>();
};

/// A tracked packet's open journey — what [`FlightRecorder::journey_mut`]
/// and [`FlightRecorder::admit`] return.
pub struct JourneyMut<'a> {
    recorder: &'a mut FlightRecorder,
    seq: u64,
}

impl JourneyMut<'_> {
    /// Writes one record of this journey's packet at `node`.
    pub fn push(&mut self, at: Time, node: usize, payload: TracePayload) {
        let event = TraceEvent {
            at,
            node,
            seq: self.seq,
            payload,
        };
        event.write_json(&mut self.recorder.out);
        self.recorder.out.end_line();
    }

    /// Seals the journey (delivered or dropped): the terminal record is
    /// the packet's last word, and trailing MAC bookkeeping that reuses
    /// its sequence number (the final hop ACK's decode outcome, duplicate
    /// deliveries of a retransmission) is not written.
    pub fn complete(self) {
        self.recorder.done[self.seq as usize] = true;
    }
}

impl FlightRecorder {
    /// Creates a recorder of the first `cap` packets' journeys; `cap == 0`
    /// disables recording entirely. Allocates nothing up front.
    pub fn new(cap: usize) -> Self {
        FlightRecorder {
            cap: cap as u64,
            done: Vec::new(),
            skipped: 0,
            out: JsonWriter::new(),
        }
    }

    /// Whether journeys are being recorded.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Admits packet `seq` of `flow` at `node` and, if it is one of the
    /// first `cap`, opens its journey with the `Admit` record and hands it
    /// back — a packet that dies at once (born into a full source queue)
    /// records its drop through the handle. Packet ids must arrive as 0,
    /// 1, 2, …, one admission each.
    pub fn admit(&mut self, at: Time, node: usize, seq: u64, flow: u32) -> Option<JourneyMut<'_>> {
        if self.cap == 0 {
            return None;
        }
        debug_assert_eq!(
            seq,
            self.done.len() as u64 + self.skipped,
            "packet ids are issued in order and each is admitted once"
        );
        if seq >= self.cap {
            self.skipped += 1;
            return None;
        }
        self.done.push(false);
        let mut journey = JourneyMut {
            recorder: self,
            seq,
        };
        journey.push(at, node, TracePayload::Admit { flow });
        Some(journey)
    }

    /// The journey of packet `seq`, if it is tracked and not sealed, open
    /// for writing: the engine builds a record's payload only inside the
    /// `Some`, so a disabled recorder costs one bounds check.
    pub fn journey_mut(&mut self, seq: u64) -> Option<JourneyMut<'_>> {
        match self.done.get(usize::try_from(seq).ok()?) {
            Some(false) => Some(JourneyMut {
                recorder: self,
                seq,
            }),
            _ => None,
        }
    }

    /// Current bookkeeping counters.
    pub fn stats(&self) -> FlightStats {
        FlightStats {
            tracked: self.done.len() as u64,
            skipped: self.skipped,
        }
    }

    /// Hands over the JSONL written so far, one event per line in the
    /// order the events happened (so `at_us` never decreases), and starts
    /// an empty buffer for what follows.
    pub fn to_jsonl(&mut self) -> String {
        std::mem::take(&mut self.out).into_string()
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
    use crate::lifecycle::parse_jsonl;
    use proptest::prelude::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// The recorder's contract, restated with `Vec` scans: the oracle for
    /// [`recorder_matches_a_vec_scan_model`].
    struct Model {
        cap: u64,
        /// The events the recorder must write, in the order offered.
        written: Vec<TraceEvent>,
        /// Packet ids whose journeys are sealed.
        sealed: Vec<u64>,
        admitted: u64,
    }

    impl Model {
        fn record(&mut self, ev: TraceEvent) {
            if ev.seq < self.cap.min(self.admitted) && !self.sealed.contains(&ev.seq) {
                self.written.push(ev);
            }
        }

        fn stats(&self) -> FlightStats {
            let admitted = if self.cap == 0 { 0 } else { self.admitted };
            FlightStats {
                tracked: admitted.min(self.cap),
                skipped: admitted.saturating_sub(self.cap),
            }
        }

        fn to_jsonl(&self) -> String {
            let mut w = JsonWriter::new();
            for ev in &self.written {
                ev.write_json(&mut w);
                w.end_line();
            }
            w.into_string()
        }
    }

    proptest! {
        /// Random admit / record / complete sequences — small caps, so
        /// most packets are skipped; records aimed at skipped, sealed and
        /// not-yet-admitted packets — leave the recorder and the model with
        /// the same export bytes and stats.
        #[test]
        fn recorder_matches_a_vec_scan_model(
            cap in 0u64..7,
            ops in prop::collection::vec((0u8..8, any::<u64>(), 0u64..50), 1..400)
        ) {
            let mut fr = FlightRecorder::new(cap as usize);
            let mut model = Model { cap, written: Vec::new(), sealed: Vec::new(), admitted: 0 };
            for (op, pick, at) in ops {
                let target = pick % (model.admitted + 2);
                match op {
                    0..=2 => {
                        let ev = admit_ev(at, (pick % 5) as usize, model.admitted);
                        let tracked = admit(&mut fr, ev);
                        model.admitted += 1;
                        prop_assert_eq!(tracked, cap > 0 && ev.seq < cap);
                        model.record(ev);
                    }
                    3..=5 => {
                        let flow = (pick >> 8) as u32;
                        let ev = ev(at, (pick % 5) as usize, target, TracePayload::Dequeue { flow });
                        record(&mut fr, ev);
                        model.record(ev);
                    }
                    _ => {
                        complete(&mut fr, target);
                        if target < cap.min(model.admitted) {
                            model.sealed.push(target);
                        }
                    }
                }
                prop_assert_eq!(fr.stats(), model.stats());
            }
            prop_assert_eq!(fr.to_jsonl(), model.to_jsonl());
        }
    }

    /// Admits `ev`'s packet with `ev` (an `Admit`) as its first record.
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

    /// Seals packet `seq`'s journey, if it is tracked.
    fn complete(fr: &mut FlightRecorder, seq: u64) {
        if let Some(j) = fr.journey_mut(seq) {
            j.complete();
        }
    }

    /// Everything `fr` has written, parsed back.
    fn export(fr: &mut FlightRecorder) -> Vec<TraceEvent> {
        parse_jsonl(&fr.to_jsonl()).expect("the export parses")
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
        assert!(!admit(&mut fr, admit_ev(0, 0, 0)));
        assert!(fr.journey_mut(0).is_none());
        assert_eq!(fr.stats().tracked, 0);
        assert_eq!(fr.stats().skipped, 0, "disabled != skipped");
        assert_eq!(fr.to_jsonl(), "");
    }

    #[test]
    fn records_full_journey_in_order() {
        let mut fr = FlightRecorder::new(8);
        let enqueue = TracePayload::Enqueue {
            flow: 1,
            occupancy: 1,
            cap: 50,
        };
        let journey = [
            admit_ev(0, 0, 0),
            ev(1, 0, 0, enqueue),
            ev(2, 2, 0, TracePayload::Deliver { flow: 1 }),
        ];
        assert!(admit(&mut fr, journey[0]));
        record(&mut fr, journey[1]);
        record(&mut fr, journey[2]);
        complete(&mut fr, 0);
        // Sealed: a record after the delivery is not written.
        record(&mut fr, ev(3, 1, 0, TracePayload::Dequeue { flow: 1 }));
        assert_eq!(export(&mut fr), journey);
        assert_eq!(fr.stats().tracked, 1);
    }

    #[test]
    fn untracked_records_are_dropped() {
        let mut fr = FlightRecorder::new(1);
        assert!(admit(&mut fr, admit_ev(0, 0, 0)));
        assert!(!admit(&mut fr, admit_ev(1, 0, 1)), "past the cap");
        record(&mut fr, ev(2, 0, 1, TracePayload::Dequeue { flow: 1 }));
        record(&mut fr, ev(2, 0, 99, TracePayload::Dequeue { flow: 1 }));
        assert_eq!(export(&mut fr), [admit_ev(0, 0, 0)]);
        assert_eq!(
            fr.stats(),
            FlightStats {
                tracked: 1,
                skipped: 1
            }
        );
    }

    #[test]
    fn admission_hands_back_the_journey_it_opened() {
        // A packet born into a full source queue: admitted and dropped
        // through one handle.
        let mut fr = FlightRecorder::new(1);
        let drop = TracePayload::Drop {
            cause: DropCause::SourceQueueFull,
        };
        let mut j = fr.admit(t(3), 2, 0, 1).expect("packet 0 is tracked");
        j.push(t(3), 2, drop);
        j.complete();
        assert!(fr.journey_mut(0).is_none(), "the drop sealed it");
        assert_eq!(export(&mut fr), [admit_ev(3, 2, 0), ev(3, 2, 0, drop)]);
    }

    #[test]
    fn jsonl_export_is_time_ordered_and_parseable() {
        let mut fr = FlightRecorder::new(8);
        admit(&mut fr, admit_ev(3, 0, 0));
        admit(&mut fr, admit_ev(5, 0, 1));
        record(&mut fr, ev(7, 1, 1, TracePayload::Deliver { flow: 1 }));
        record(&mut fr, ev(9, 1, 0, TracePayload::Deliver { flow: 1 }));
        let first = export(&mut fr);
        // The handover empties the buffer; later records start afresh.
        record(&mut fr, ev(11, 1, 0, TracePayload::Dequeue { flow: 1 }));
        let parsed = [first, export(&mut fr)].concat();
        assert_eq!(parsed.len(), 5);
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
