//! The packet-lifecycle vocabulary: what the flight recorder holds for a
//! packet, the JSONL line each record becomes, and the reader that parses
//! an export back.
//!
//! A [`TraceEvent`] is one moment of one packet's life — admission at its
//! source, each hop's enqueue, dequeue, DCF attempt and decode outcome, a
//! BOE's verdict on overhearing it, and its terminal delivery or drop.
//! Its kind is its payload's variant, so it is stated once: the writer
//! derives a line's `"kind"` from the payload, and [`parse_jsonl`] refuses
//! a line whose `"kind"` disagrees with its `"payload"."type"`. Frame
//! classes and decode outcomes are the PHY's own [`FrameKind`] and
//! [`DecodeOutcome`].
//!
//! Records go out through [`TraceEvent::write_json`], which streams a
//! line's bytes into a [`JsonWriter`] without building a document; the
//! tree form the reader parses exists on the write side only as the
//! tests' oracle for those bytes.

use core::fmt;

use ezflow_phy::{DecodeOutcome, FrameKind};
use ezflow_sim::{JsonValue, JsonWriter, Time};

/// Why a packet was dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DropCause {
    /// The MAC gave up after the retry limit.
    RetryLimit,
    /// A relay's forwarding queue was full.
    QueueFull,
    /// The source's own queue was full at admission time.
    SourceQueueFull,
    /// A relay had no route toward the packet's final destination.
    Unroutable,
}

const CAUSES: [DropCause; 4] = [
    DropCause::RetryLimit,
    DropCause::QueueFull,
    DropCause::SourceQueueFull,
    DropCause::Unroutable,
];

impl DropCause {
    /// Stable name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::RetryLimit => "retry_limit",
            DropCause::QueueFull => "queue_full",
            DropCause::SourceQueueFull => "source_queue_full",
            DropCause::Unroutable => "unroutable",
        }
    }
}

/// How a BOE classified an overheard frame against its sent window.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum BoeVerdict {
    /// The checksum matched exactly one recently sent frame.
    Hit,
    /// The checksum matched nothing in the sent window.
    Miss,
    /// The checksum matched more than one sent frame.
    Ambiguous,
}

const VERDICTS: [BoeVerdict; 3] = [BoeVerdict::Hit, BoeVerdict::Miss, BoeVerdict::Ambiguous];

impl BoeVerdict {
    fn name(self) -> &'static str {
        match self {
            BoeVerdict::Hit => "hit",
            BoeVerdict::Miss => "miss",
            BoeVerdict::Ambiguous => "ambiguous",
        }
    }
}

const CLASSES: [FrameKind; 4] = [
    FrameKind::Data,
    FrameKind::Ack,
    FrameKind::Rts,
    FrameKind::Cts,
];

fn class_name(class: FrameKind) -> &'static str {
    match class {
        FrameKind::Data => "Data",
        FrameKind::Ack => "Ack",
        FrameKind::Rts => "Rts",
        FrameKind::Cts => "Cts",
    }
}

const OUTCOMES: [DecodeOutcome; 4] = [
    DecodeOutcome::Clean,
    DecodeOutcome::Capture,
    DecodeOutcome::Collision,
    DecodeOutcome::Loss,
];

fn outcome_name(outcome: DecodeOutcome) -> &'static str {
    match outcome {
        DecodeOutcome::Clean => "clean",
        DecodeOutcome::Capture => "capture",
        DecodeOutcome::Collision => "collision",
        DecodeOutcome::Loss => "loss",
    }
}

/// What a lifecycle record says beyond its time, node and packet id. The
/// variant is the record's kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TracePayload {
    /// The packet was admitted at its source: a journey's first record.
    Admit {
        /// Flow the packet belongs to.
        flow: u32,
    },
    /// The packet joined a per-hop queue.
    Enqueue {
        /// Flow the packet belongs to.
        flow: u32,
        /// Queue depth after the push.
        occupancy: u32,
        /// Queue capacity.
        cap: u32,
    },
    /// The packet left a queue and was handed to the node's MAC.
    Dequeue {
        /// Flow the packet belongs to.
        flow: u32,
    },
    /// One DCF transmission attempt, with the contention state the MAC
    /// held when it drew the backoff for this attempt.
    Attempt {
        /// Zero-based attempt number (0 = first transmission).
        attempt: u32,
        /// Contention window the backoff was drawn from.
        cw: u32,
        /// Backoff slots drawn for this attempt.
        slots: u32,
    },
    /// The addressed receiver's decode outcome for one transmission that
    /// carries the packet's id.
    RxOutcome {
        /// The transmitted frame's kind.
        class: FrameKind,
        /// What happened at the receiver.
        outcome: DecodeOutcome,
    },
    /// A BOE's verdict on the packet, overheard from its successor.
    BoeOverhear {
        /// Hit, miss, or ambiguous against the sent window.
        verdict: BoeVerdict,
    },
    /// The packet reached its final destination.
    Deliver {
        /// Flow the packet belongs to.
        flow: u32,
    },
    /// The packet was dropped.
    Drop {
        /// The reason.
        cause: DropCause,
    },
}

impl TracePayload {
    /// The record's kind and the payload's type, as the JSONL schema
    /// names them.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            TracePayload::Admit { .. } => ("Admit", "admit"),
            TracePayload::Enqueue { .. } => ("Enqueue", "enqueue"),
            TracePayload::Dequeue { .. } => ("Dequeue", "dequeue"),
            TracePayload::Attempt { .. } => ("Attempt", "attempt"),
            TracePayload::RxOutcome { .. } => ("RxOutcome", "rx_outcome"),
            TracePayload::BoeOverhear { .. } => ("BoeOverhear", "boe_overhear"),
            TracePayload::Deliver { .. } => ("Deliver", "deliver"),
            TracePayload::Drop { .. } => ("Drop", "drop"),
        }
    }
}

/// One lifecycle record: what happened to packet `seq` at `node`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// Node it happened at.
    pub node: usize,
    /// Packet id (globally unique frame sequence number).
    pub seq: u64,
    /// What happened.
    pub payload: TracePayload,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let seq = self.seq;
        write!(
            f,
            "[{}] n{} {}: ",
            self.at,
            self.node,
            self.payload.names().0
        )?;
        match self.payload {
            TracePayload::Admit { flow }
            | TracePayload::Dequeue { flow }
            | TracePayload::Deliver { flow } => write!(f, "seq={seq} flow={flow}"),
            TracePayload::Enqueue {
                flow,
                occupancy,
                cap,
            } => write!(f, "seq={seq} flow={flow} q={occupancy}/{cap}"),
            TracePayload::Attempt { attempt, cw, slots } => {
                write!(f, "seq={seq} attempt={attempt} cw={cw} slots={slots}")
            }
            TracePayload::RxOutcome { class, outcome } => write!(
                f,
                "seq={seq} {} {}",
                class_name(class),
                outcome_name(outcome)
            ),
            TracePayload::BoeOverhear { verdict } => write!(f, "seq={seq} {}", verdict.name()),
            TracePayload::Drop { cause } => write!(f, "{} seq={seq}", cause.name()),
        }
    }
}

impl TraceEvent {
    /// Streams the record's JSONL object (no trailing newline) into `w`:
    /// `at_us`, `node`, `kind`, then the payload with its `type`, the
    /// packet id and the variant's fields. Keys and names are fixed text,
    /// so they go out as whole tokens; only the numbers are formatted.
    pub fn write_json(&self, w: &mut JsonWriter) {
        let (kind, ty) = self.payload.names();
        w.begin_object();
        w.raw(r#""at_us":"#);
        w.value(self.at.as_micros());
        w.raw(r#","node":"#);
        w.value(self.node);
        w.raw(r#","kind":""#);
        w.raw(kind);
        w.raw(r#"","payload":{"type":""#);
        w.raw(ty);
        // The format's one exception: a drop names its cause before the
        // packet id.
        if let TracePayload::Drop { cause } = self.payload {
            w.raw(r#"","cause":""#);
            w.raw(cause.name());
        }
        w.raw(r#"","seq":"#);
        w.value(self.seq);
        match self.payload {
            TracePayload::Admit { flow }
            | TracePayload::Dequeue { flow }
            | TracePayload::Deliver { flow } => {
                w.raw(r#","flow":"#);
                w.value(flow);
            }
            TracePayload::Enqueue {
                flow,
                occupancy,
                cap,
            } => {
                w.raw(r#","flow":"#);
                w.value(flow);
                w.raw(r#","occupancy":"#);
                w.value(occupancy);
                w.raw(r#","cap":"#);
                w.value(cap);
            }
            TracePayload::Attempt { attempt, cw, slots } => {
                w.raw(r#","attempt":"#);
                w.value(attempt);
                w.raw(r#","cw":"#);
                w.value(cw);
                w.raw(r#","slots":"#);
                w.value(slots);
            }
            TracePayload::RxOutcome { class, outcome } => {
                w.raw(r#","class":""#);
                w.raw(class_name(class));
                w.raw(r#"","outcome":""#);
                w.raw(outcome_name(outcome));
                w.raw("\"");
            }
            TracePayload::BoeOverhear { verdict } => {
                w.raw(r#","verdict":""#);
                w.raw(verdict.name());
                w.raw("\"");
            }
            TracePayload::Drop { .. } => {}
        }
        w.raw("}");
        w.end_object();
    }

    /// The tree form [`TraceEvent::from_json`] reads — kept as the oracle
    /// the streamed bytes are tested against.
    #[cfg(test)]
    fn to_json(self) -> JsonValue {
        let (kind, ty) = self.payload.names();
        let mut payload = vec![("type", JsonValue::str(ty))];
        if let TracePayload::Drop { cause } = self.payload {
            payload.push(("cause", JsonValue::str(cause.name())));
        }
        payload.push(("seq", self.seq.into()));
        match self.payload {
            TracePayload::Admit { flow }
            | TracePayload::Dequeue { flow }
            | TracePayload::Deliver { flow } => payload.push(("flow", flow.into())),
            TracePayload::Enqueue {
                flow,
                occupancy,
                cap,
            } => payload.extend([
                ("flow", flow.into()),
                ("occupancy", occupancy.into()),
                ("cap", cap.into()),
            ]),
            TracePayload::Attempt { attempt, cw, slots } => payload.extend([
                ("attempt", attempt.into()),
                ("cw", cw.into()),
                ("slots", slots.into()),
            ]),
            TracePayload::RxOutcome { class, outcome } => payload.extend([
                ("class", JsonValue::str(class_name(class))),
                ("outcome", JsonValue::str(outcome_name(outcome))),
            ]),
            TracePayload::BoeOverhear { verdict } => {
                payload.push(("verdict", JsonValue::str(verdict.name())))
            }
            TracePayload::Drop { .. } => {}
        }
        JsonValue::obj(vec![
            ("at_us", self.at.as_micros().into()),
            ("node", self.node.into()),
            ("kind", JsonValue::str(kind)),
            ("payload", JsonValue::obj(payload)),
        ])
    }

    /// Parses one JSONL line of a lifecycle export.
    pub fn parse(line: &str) -> Result<TraceEvent, String> {
        TraceEvent::from_json(&JsonValue::parse(line).map_err(|e| e.to_string())?)
    }

    /// Reads a record back from its JSONL object; the `kind` must be the
    /// one its payload's type implies.
    fn from_json(v: &JsonValue) -> Result<TraceEvent, String> {
        let p = v.get("payload").ok_or("record missing 'payload'")?;
        let ty = p
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or("payload missing 'type'")?;
        let num = |key: &str| {
            p.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("payload missing numeric '{key}'"))
        };
        // The payload's counters are `u32`s: a wider value is refused,
        // not wrapped onto another flow or count.
        let num32 = |key: &str| {
            u32::try_from(num(key)?).map_err(|_| format!("payload '{key}' does not fit in 32 bits"))
        };
        let payload = match ty {
            "admit" => TracePayload::Admit {
                flow: num32("flow")?,
            },
            "enqueue" => TracePayload::Enqueue {
                flow: num32("flow")?,
                occupancy: num32("occupancy")?,
                cap: num32("cap")?,
            },
            "dequeue" => TracePayload::Dequeue {
                flow: num32("flow")?,
            },
            "attempt" => TracePayload::Attempt {
                attempt: num32("attempt")?,
                cw: num32("cw")?,
                slots: num32("slots")?,
            },
            "rx_outcome" => TracePayload::RxOutcome {
                class: named(p, "class", &CLASSES, class_name)?,
                outcome: named(p, "outcome", &OUTCOMES, outcome_name)?,
            },
            "boe_overhear" => TracePayload::BoeOverhear {
                verdict: named(p, "verdict", &VERDICTS, BoeVerdict::name)?,
            },
            "deliver" => TracePayload::Deliver {
                flow: num32("flow")?,
            },
            "drop" => TracePayload::Drop {
                cause: named(p, "cause", &CAUSES, DropCause::name)?,
            },
            other => return Err(format!("unknown payload type '{other}'")),
        };
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("bad 'kind'")?;
        if kind != payload.names().0 {
            return Err(format!("kind '{kind}' disagrees with payload type '{ty}'"));
        }
        let top = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("record missing numeric '{key}'"))
        };
        Ok(TraceEvent {
            at: Time::from_micros(top("at_us")?),
            node: top("node")? as usize,
            seq: num("seq")?,
            payload,
        })
    }
}

/// The value among `all` whose name is the string at `key` of `v`.
fn named<T: Copy>(
    v: &JsonValue,
    key: &str,
    all: &[T],
    name: fn(T) -> &'static str,
) -> Result<T, String> {
    let text = v.get(key).and_then(JsonValue::as_str);
    all.iter()
        .copied()
        .find(|&x| Some(name(x)) == text)
        .ok_or_else(|| format!("bad '{key}'"))
}

/// Parses a lifecycle export, one [`TraceEvent`] per line, in file order.
/// Blank lines are skipped; an error names the offending line.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceEvent::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One payload of every variant from three raw draws, fields at full
    /// width.
    fn payloads(b: u64, c: u64, d: u64) -> [TracePayload; 8] {
        let flow = b as u32;
        [
            TracePayload::Admit { flow },
            TracePayload::Enqueue {
                flow,
                occupancy: c as u32,
                cap: d as u32,
            },
            TracePayload::Dequeue { flow },
            TracePayload::Attempt {
                attempt: (b >> 32) as u32,
                cw: c as u32,
                slots: d as u32,
            },
            TracePayload::RxOutcome {
                class: CLASSES[(c % 4) as usize],
                outcome: OUTCOMES[(d % 4) as usize],
            },
            TracePayload::BoeOverhear {
                verdict: VERDICTS[(d % 3) as usize],
            },
            TracePayload::Deliver { flow },
            TracePayload::Drop {
                cause: CAUSES[(c % 4) as usize],
            },
        ]
    }

    proptest! {
        /// The streamed line is, byte for byte, the compact form of the
        /// tree the reader expects — for every payload variant and numbers
        /// on both sides of 2^53 — and where every number is
        /// representable the line parses back to the record.
        #[test]
        fn streamed_record_equals_its_tree_form(
            at in prop_oneof![any::<u64>(), 0u64..1 << 53],
            node in prop_oneof![any::<usize>(), 0usize..4096],
            small in any::<bool>(),
            draws in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        ) {
            const MAX: u64 = 1 << 53;
            let (a, b, c, d) = draws;
            // Half the cases keep the packet id exact in an f64, so the
            // parse-back half of the property is exercised too.
            let seq = if small { a % MAX } else { a };
            let mut w = JsonWriter::new();
            for payload in payloads(b, c, d) {
                let ev = TraceEvent { at: Time::from_micros(at), node, seq, payload };
                w.clear();
                ev.write_json(&mut w);
                prop_assert_eq!(w.as_str(), ev.to_json().to_compact());
                if at <= MAX && node as u64 <= MAX && seq <= MAX {
                    prop_assert_eq!(parse_jsonl(w.as_str()), Ok(vec![ev]));
                }
            }
        }
    }

    #[test]
    fn jsonl_round_trips_every_payload() {
        let mut w = JsonWriter::new();
        let mut events = Vec::new();
        for (i, payload) in payloads(1, 2, 3).into_iter().enumerate() {
            let ev = TraceEvent {
                at: Time::from_micros(i as u64),
                node: i % 3,
                seq: 5 + i as u64 % 2,
                payload,
            };
            ev.write_json(&mut w);
            w.end_line();
            events.push(ev);
        }
        let jsonl = w.into_string();
        assert_eq!(jsonl.lines().count(), events.len());
        assert_eq!(parse_jsonl(&jsonl).unwrap(), events);
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        assert!(parse_jsonl("{oops").unwrap_err().contains("line 1"));
        let missing_kind =
            r#"{"at_us": 1, "node": 0, "payload": {"type": "admit", "seq": 1, "flow": 0}}"#;
        assert!(parse_jsonl(missing_kind)
            .unwrap_err()
            .contains("bad 'kind'"));
        // A payload type the vocabulary no longer has is an error, not a
        // silently dropped record.
        let removed = r#"{"at_us": 1, "kind": "TxStart", "payload": {"type": "boe_sample"}}"#;
        assert!(parse_jsonl(removed)
            .unwrap_err()
            .contains("unknown payload type 'boe_sample'"));
        // The kind is the payload's: a line that names another one — or a
        // kind the vocabulary no longer has — is refused, with its line.
        let admit = r#"{"at_us": 1, "node": 0, "kind": "Admit", "payload": {"type": "admit", "seq": 1, "flow": 0}}"#;
        assert_eq!(parse_jsonl(admit).unwrap().len(), 1);
        let disagrees = admit.replace(r#""kind": "Admit""#, r#""kind": "Deliver""#);
        let err = parse_jsonl(&format!("{admit}\n{disagrees}")).unwrap_err();
        assert!(
            err.contains("line 2") && err.contains("kind 'Deliver' disagrees"),
            "{err}"
        );
        let deleted = admit.replace(r#""kind": "Admit""#, r#""kind": "TxStart""#);
        let err = parse_jsonl(&deleted).unwrap_err();
        assert!(
            err.contains("line 1") && err.contains("kind 'TxStart' disagrees"),
            "{err}"
        );
        // Blank lines are fine.
        assert_eq!(parse_jsonl("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn parse_jsonl_refuses_a_count_wider_than_its_u32() {
        // Flow 2^32 once read back as flow 0, its record folded into
        // another flow's journey; each `u32` field is now held to its width.
        let zeros = r#""flow": 0, "occupancy": 0, "cap": 0, "attempt": 0, "cw": 0, "slots": 0"#;
        for (key, kind, ty) in [
            ("flow", "Admit", "admit"),
            ("occupancy", "Enqueue", "enqueue"),
            ("cap", "Enqueue", "enqueue"),
            ("attempt", "Attempt", "attempt"),
            ("cw", "Attempt", "attempt"),
            ("slots", "Attempt", "attempt"),
        ] {
            let line = |n: u64| {
                let fields = zeros.replace(&format!(r#""{key}": 0"#), &format!(r#""{key}": {n}"#));
                format!(
                    r#"{{"at_us": 1, "node": 0, "kind": "{kind}", "payload": {{"type": "{ty}", "seq": 1, {fields}}}}}"#
                )
            };
            assert_eq!(
                parse_jsonl(&line(u32::MAX.into())).unwrap().len(),
                1,
                "{key}"
            );
            let err = parse_jsonl(&format!("\n{}", line(1 << 32))).unwrap_err();
            assert!(
                err.contains("line 2") && err.contains(&format!("'{key}' does not fit in 32 bits")),
                "{key}: {err}"
            );
        }
    }
}
