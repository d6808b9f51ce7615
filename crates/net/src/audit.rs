//! The controller audit ledger — provenance for BOE estimates and CAA
//! decisions.
//!
//! When a spec sets `audit_cap > 0`, the engine pairs every BOE sample
//! with the successor's *true* queue depth at the same instant and
//! records every `CWmin` decision together with the inputs that produced
//! it (see [`crate::controller::DecisionRecord`]). Records are not
//! kept: each one is counted, fed into its link's [`EstimationTracker`]
//! for the snapshot's error summaries, and — with a sink attached
//! (`experiments --audit-dir=DIR`) — streamed as one JSONL line while
//! the run is in flight. The line is written into one buffer the ledger
//! owns and reuses, then handed to the sink in a single `write_all` — a
//! record costs its ≈ 80–170 bytes and no allocation.
//!
//! ## Zero interference
//!
//! The audit only listens, and must never change what a run computes:
//!
//! * it schedules no events and draws no randomness;
//! * controllers return their estimate and decision in every
//!   [`crate::controller::Reaction`] (a few Copy words); the engine
//!   hands them over — and reads the successor's queue depth — only
//!   when the ledger is armed;
//! * with `audit_cap = 0` the only cost is one branch per record,
//!   and the snapshot omits its `controller` section entirely, so
//!   audit-off JSON stays byte-identical (gated by the golden test,
//!   `cargo test -p ezflow-bench --test golden`, alongside telemetry).
//!
//! ## Ground truth
//!
//! At an `Overheard` dispatch the engine is in the first pass over the
//! deliveries of the successor's own forward transmission, *before* the
//! transmitter processes its `TxEnded` (and thus before any queue pop at
//! the successor). FIFO queues therefore make the successor's queue depth
//! at that instant exactly the quantity BOE estimates — on a clean
//! channel the recorded error is zero, per the paper; bursty loss
//! (Gilbert-Elliott) makes BOE miss overhears and the error series shows
//! it.

use std::collections::BTreeMap;
use std::io::Write;

#[cfg(test)]
use ezflow_sim::JsonValue;
use ezflow_sim::{JsonWriter, Time};
use ezflow_stats::{EstimationTracker, StabilityConfig};

use crate::controller::DecisionRecord;
use crate::snapshot::{ControllerLinkSnapshot, ControllerNodeSnapshot, ControllerSnapshot};

/// One audited observation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AuditEvent {
    /// A BOE estimate paired with the successor's true queue depth at
    /// the same instant.
    Sample {
        /// The successor whose buffer was estimated.
        successor: usize,
        /// BOE's estimate `b̂`.
        estimate: u32,
        /// The successor's actual interface-queue occupancy.
        truth: u32,
    },
    /// A `CWmin` decision with its inputs.
    Decision(DecisionRecord),
}

/// One audit record: what happened, where, and when.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AuditRecord {
    /// Simulated time of the observation.
    pub at: Time,
    /// The node whose controller produced it.
    pub node: usize,
    /// The observation.
    pub event: AuditEvent,
}

impl AuditRecord {
    /// Streams the record's compact JSON object — one JSONL line of the
    /// `--audit-dir` export, without the newline — into `w`. The fixed
    /// text of the head and of an estimation sample (the common record)
    /// goes out as whole tokens.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.raw(r#""at_us":"#);
        w.value(self.at.as_micros());
        w.raw(r#","node":"#);
        w.value(self.node);
        match self.event {
            AuditEvent::Sample {
                successor,
                estimate,
                truth,
            } => {
                w.raw(r#","kind":"sample","successor":"#);
                w.value(successor);
                w.raw(r#","estimate":"#);
                w.value(estimate);
                w.raw(r#","truth":"#);
                w.value(truth);
            }
            AuditEvent::Decision(d) => {
                w.field("kind", d.kind.name());
                if let Some(s) = d.successor {
                    w.field("successor", s);
                }
                w.field("avg", d.avg);
                w.field("countup", d.countup);
                w.field("countdown", d.countdown);
                w.field("up_threshold", d.up_threshold);
                w.field("down_threshold", d.down_threshold);
                w.field("cw_before", d.cw_before);
                w.field("cw_after", d.cw_after);
            }
        }
        w.end_object();
    }

    /// The same record as a document — the oracle the streamed bytes are
    /// tested against.
    #[cfg(test)]
    fn to_json(self) -> JsonValue {
        let mut fields = vec![
            ("at_us", JsonValue::from(self.at.as_micros())),
            ("node", self.node.into()),
        ];
        match self.event {
            AuditEvent::Sample {
                successor,
                estimate,
                truth,
            } => {
                fields.push(("kind", JsonValue::str("sample")));
                fields.push(("successor", successor.into()));
                fields.push(("estimate", estimate.into()));
                fields.push(("truth", truth.into()));
            }
            AuditEvent::Decision(d) => {
                fields.push(("kind", JsonValue::str(d.kind.name())));
                if let Some(s) = d.successor {
                    fields.push(("successor", s.into()));
                }
                fields.push(("avg", d.avg.into()));
                fields.push(("countup", d.countup.into()));
                fields.push(("countdown", d.countdown.into()));
                fields.push(("up_threshold", d.up_threshold.into()));
                fields.push(("down_threshold", d.down_threshold.into()));
                fields.push(("cw_before", d.cw_before.into()));
                fields.push(("cw_after", d.cw_after.into()));
            }
        }
        JsonValue::obj(fields)
    }
}

/// The decision/estimate ledger: counters, per-link trackers and the
/// record stream. Owned by [`crate::network::Network`] as the public
/// `audit` field; disabled (every probe site is one branch) unless the
/// spec sets `audit_cap`.
pub struct AuditLedger {
    armed: bool,
    /// Records ever recorded.
    pushed: u64,
    /// Decision records among them.
    decisions_total: u64,
    /// Per-node count of decisions that actually moved the window.
    cw_changes: Vec<u64>,
    /// Per-(node → successor) estimation-error trackers, in
    /// deterministic key order.
    links: BTreeMap<(usize, usize), EstimationTracker>,
    /// The streamed record's line buffer, reused across records.
    line: JsonWriter,
    sink: Option<Box<dyn Write + Send>>,
}

impl AuditLedger {
    /// Creates the ledger for `n` nodes, recording only when `armed`.
    pub(crate) fn new(n: usize, armed: bool) -> Self {
        AuditLedger {
            armed,
            pushed: 0,
            decisions_total: 0,
            cw_changes: if armed { vec![0; n] } else { Vec::new() },
            links: BTreeMap::new(),
            line: JsonWriter::new(),
            sink: None,
        }
    }

    /// True iff the ledger is armed (the spec set `audit_cap > 0`).
    pub fn enabled(&self) -> bool {
        self.armed
    }

    /// Records ever observed.
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// The estimation-error summary of one (node → successor) link, if
    /// any samples were recorded for it.
    pub fn link_summary(
        &self,
        node: usize,
        successor: usize,
    ) -> Option<ezflow_stats::EstimationSummary> {
        self.links.get(&(node, successor)).map(|t| t.summary())
    }

    /// Attaches a JSONL sink: one compact record per audit entry, written
    /// while the run is in flight — one `write_all` per record. Write
    /// errors are ignored (the audit must never fail a run).
    pub fn set_sink(&mut self, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
    }

    fn push(&mut self, rec: AuditRecord) {
        if let Some(sink) = self.sink.as_mut() {
            self.line.clear();
            rec.write_json(&mut self.line);
            self.line.end_line();
            let _ = sink.write_all(self.line.as_bytes());
        }
        self.pushed += 1;
    }

    /// Records one estimate/truth pair for the `node → successor` link.
    /// No-op while disabled (the engine guards, this double-checks).
    pub(crate) fn record_sample(
        &mut self,
        at: Time,
        node: usize,
        successor: usize,
        estimate: u32,
        truth: u32,
    ) {
        if !self.enabled() {
            return;
        }
        self.links
            .entry((node, successor))
            .or_insert_with(|| EstimationTracker::new(StabilityConfig::default()))
            .on_sample(at, estimate, truth);
        self.push(AuditRecord {
            at,
            node,
            event: AuditEvent::Sample {
                successor,
                estimate,
                truth,
            },
        });
    }

    /// Records one `CWmin` decision made by `node`'s controller. No-op
    /// while disabled.
    pub(crate) fn record_decision(&mut self, at: Time, node: usize, d: DecisionRecord) {
        if !self.enabled() {
            return;
        }
        self.decisions_total += 1;
        if d.cw_after != d.cw_before {
            self.cw_changes[node] += 1;
        }
        self.push(AuditRecord {
            at,
            node,
            event: AuditEvent::Decision(d),
        });
    }

    /// The `controller` section of a [`crate::snapshot::RunSnapshot`]:
    /// per-node CW-change counts (nodes with at least one change) and
    /// per-link estimation-error summaries with divergence episodes.
    /// `None` while the audit is disabled — the snapshot key is omitted
    /// so audit-off JSON stays byte-identical.
    pub fn controller_snapshot(&self) -> Option<ControllerSnapshot> {
        if !self.enabled() {
            return None;
        }
        let nodes: Vec<ControllerNodeSnapshot> = self
            .cw_changes
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(node, &cw_changes)| ControllerNodeSnapshot { node, cw_changes })
            .collect();
        let links: Vec<ControllerLinkSnapshot> = self
            .links
            .iter()
            .map(|(&(node, successor), tracker)| {
                let s = tracker.summary();
                ControllerLinkSnapshot {
                    node,
                    successor,
                    samples: s.samples,
                    bias: s.bias,
                    mae: s.mae,
                    max_abs: s.max_abs,
                    episodes: s.episodes.iter().map(Into::into).collect(),
                }
            })
            .collect();
        Some(ControllerSnapshot {
            records: self.pushed,
            decisions_total: self.decisions_total,
            nodes,
            links,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{DecisionKind, DecisionRecord};
    use proptest::prelude::*;
    use std::sync::{Arc, Mutex};

    proptest! {
        /// The streamed line is, byte for byte, the compact form of the
        /// record's document — samples and every decision kind, with and
        /// without a successor, node ids and times on both sides of 2^53,
        /// and an `avg` that is an integer, a short or a long fraction,
        /// past the integer branch, or not a number at all.
        #[test]
        fn streamed_record_equals_its_tree_form(
            at in prop_oneof![any::<u64>(), 0u64..1 << 53],
            node in prop_oneof![any::<usize>(), 0usize..4096],
            successor in prop::option::of(prop_oneof![any::<usize>(), 0usize..4096]),
            avg in prop_oneof![
                (0u32..100_000).prop_map(f64::from),
                Just(0.05),
                Just(1e-7),
                Just(1e21),
                Just(-0.0),
                Just(f64::NAN),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                -1e6f64..1e6
            ],
            words in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>())
        ) {
            let (countup, countdown, up_threshold, down_threshold, cw_before, cw_after) = words;
            let mut events = vec![AuditEvent::Sample {
                successor: successor.unwrap_or(node),
                estimate: cw_before,
                truth: cw_after,
            }];
            for kind in [DecisionKind::Increase, DecisionKind::Decrease, DecisionKind::Assign] {
                events.push(AuditEvent::Decision(DecisionRecord {
                    kind,
                    successor,
                    avg,
                    countup,
                    countdown,
                    up_threshold,
                    down_threshold,
                    cw_before,
                    cw_after,
                }));
            }
            let mut w = JsonWriter::new();
            for event in events {
                let rec = AuditRecord { at: Time::from_micros(at), node, event };
                w.clear();
                rec.write_json(&mut w);
                prop_assert_eq!(w.as_str(), rec.to_json().to_compact());
            }
        }
    }

    fn decision(cw_before: u32, cw_after: u32) -> DecisionRecord {
        DecisionRecord {
            kind: if cw_after > cw_before {
                DecisionKind::Increase
            } else {
                DecisionKind::Decrease
            },
            successor: Some(2),
            avg: 25.0,
            countup: 0,
            countdown: 0,
            up_threshold: 5,
            down_threshold: 10,
            cw_before,
            cw_after,
        }
    }

    /// A sink whose bytes the test can still read after handing it over.
    #[derive(Clone, Default)]
    struct Buf(Arc<Mutex<Vec<u8>>>);

    impl Write for Buf {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Buf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn disabled_ledger_records_nothing() {
        let mut a = AuditLedger::new(4, false);
        assert!(!a.enabled());
        a.record_sample(Time::ZERO, 1, 2, 3, 3);
        a.record_decision(Time::ZERO, 1, decision(32, 64));
        assert_eq!(a.pushed(), 0);
        assert!(a.controller_snapshot().is_none());
    }

    #[test]
    fn totals_and_trackers_count_every_record() {
        let mut a = AuditLedger::new(4, true);
        for i in 0..5u32 {
            a.record_sample(Time::from_millis(i as u64), 1, 2, i, i);
        }
        assert_eq!(a.pushed(), 5);
        let snap = a.controller_snapshot().unwrap();
        assert_eq!(snap.links.len(), 1);
        assert_eq!(snap.links[0].samples, 5);
        assert_eq!(snap.links[0].mae, 0.0);
    }

    #[test]
    fn decisions_count_window_moves_per_node() {
        let mut a = AuditLedger::new(4, true);
        a.record_decision(Time::ZERO, 1, decision(32, 64));
        a.record_decision(Time::ZERO, 1, decision(64, 64)); // a hold
        a.record_decision(Time::ZERO, 3, decision(64, 32));
        let snap = a.controller_snapshot().unwrap();
        assert_eq!(snap.decisions_total, 3);
        assert_eq!(snap.nodes.len(), 2, "only nodes that moved the window");
        assert_eq!((snap.nodes[0].node, snap.nodes[0].cw_changes), (1, 1));
        assert_eq!((snap.nodes[1].node, snap.nodes[1].cw_changes), (3, 1));
    }

    #[test]
    fn json_records_carry_kind_specific_fields() {
        let buf = Buf::default();
        let mut a = AuditLedger::new(4, true);
        a.set_sink(Box::new(buf.clone()));
        a.record_sample(Time::from_millis(5), 1, 2, 7, 4);
        a.record_decision(Time::from_millis(6), 1, decision(32, 64));
        let text = buf.text();
        let recs: Vec<JsonValue> = text.lines().map(|l| JsonValue::parse(l).unwrap()).collect();
        let s = &recs[0];
        assert_eq!(s.get("kind").and_then(|v| v.as_str()), Some("sample"));
        assert_eq!(s.get("estimate").and_then(|v| v.as_u64()), Some(7));
        assert_eq!(s.get("truth").and_then(|v| v.as_u64()), Some(4));
        let d = &recs[1];
        assert_eq!(d.get("kind").and_then(|v| v.as_str()), Some("increase"));
        assert_eq!(d.get("cw_after").and_then(|v| v.as_u64()), Some(64));
        assert_eq!(d.get("avg").and_then(|v| v.as_f64()), Some(25.0));
    }

    #[test]
    fn sink_streams_one_line_per_record() {
        let buf = Buf::default();
        let mut a = AuditLedger::new(4, true);
        a.set_sink(Box::new(buf.clone()));
        a.record_sample(Time::ZERO, 1, 2, 3, 3);
        a.record_decision(Time::ZERO, 1, decision(32, 64));
        let text = buf.text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"kind\":\"sample\""));
        let snap = a.controller_snapshot().unwrap();
        assert_eq!(snap.records, text.lines().count() as u64);
    }
}
