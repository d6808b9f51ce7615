//! Bounded in-memory event tracing.
//!
//! A `TraceRing` is the simulator's answer to `tcpdump`: components push
//! one-line records of interesting moments (frame on air, collision, queue
//! drop, contention-window change) and the ring keeps the most recent `cap`
//! of them. Records carry a typed, `Copy` [`TracePayload`] instead of a
//! pre-formatted string, so pushing on the hot path never allocates —
//! formatting happens only when somebody renders or exports the ring. It
//! can be disabled entirely (`cap == 0`) for benchmark runs.
//!
//! For offline analysis the ring exports JSONL (one JSON object per line)
//! via [`TraceRing::to_jsonl`], and [`TraceRing::parse_jsonl`] reads the
//! same format back. Records go out through [`TraceEvent::write_json`],
//! which streams a line's bytes into a [`JsonWriter`] without building a
//! document; the tree form the parser reads back exists on the write side
//! only as the tests' oracle for those bytes.

use crate::json::{JsonValue, JsonWriter};
use crate::time::Time;
use core::fmt;
use std::collections::VecDeque;

/// What kind of moment a trace record captures.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum TraceKind {
    /// A frame started transmission.
    TxStart,
    /// A frame finished transmission and was (or was not) received.
    TxEnd,
    /// A reception was destroyed by an overlapping transmission.
    Collision,
    /// A packet was dropped (queue overflow or retry limit).
    Drop,
    /// A controller changed a contention-window parameter.
    CwChange,
    /// A packet was admitted at its source (flight-recorder lifecycle).
    Admit,
    /// A packet entered a per-hop forwarding queue.
    Enqueue,
    /// A packet left a queue and was handed to the MAC.
    Dequeue,
    /// The DCF started a transmission attempt for a packet.
    Attempt,
    /// The addressed receiver's decode outcome for a transmission.
    RxOutcome,
    /// A BOE matched (or failed to match) an overheard frame.
    BoeOverhear,
    /// A packet reached its final destination.
    Deliver,
}

impl TraceKind {
    /// Stable machine-readable name, used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::TxStart => "TxStart",
            TraceKind::TxEnd => "TxEnd",
            TraceKind::Collision => "Collision",
            TraceKind::Drop => "Drop",
            TraceKind::CwChange => "CwChange",
            TraceKind::Admit => "Admit",
            TraceKind::Enqueue => "Enqueue",
            TraceKind::Dequeue => "Dequeue",
            TraceKind::Attempt => "Attempt",
            TraceKind::RxOutcome => "RxOutcome",
            TraceKind::BoeOverhear => "BoeOverhear",
            TraceKind::Deliver => "Deliver",
        }
    }

    /// The record text between a record's `at_us` / `node` and its
    /// payload object: `,"kind":"<name>","payload":`.
    fn json_head(self) -> &'static str {
        match self {
            TraceKind::TxStart => r#","kind":"TxStart","payload":"#,
            TraceKind::TxEnd => r#","kind":"TxEnd","payload":"#,
            TraceKind::Collision => r#","kind":"Collision","payload":"#,
            TraceKind::Drop => r#","kind":"Drop","payload":"#,
            TraceKind::CwChange => r#","kind":"CwChange","payload":"#,
            TraceKind::Admit => r#","kind":"Admit","payload":"#,
            TraceKind::Enqueue => r#","kind":"Enqueue","payload":"#,
            TraceKind::Dequeue => r#","kind":"Dequeue","payload":"#,
            TraceKind::Attempt => r#","kind":"Attempt","payload":"#,
            TraceKind::RxOutcome => r#","kind":"RxOutcome","payload":"#,
            TraceKind::BoeOverhear => r#","kind":"BoeOverhear","payload":"#,
            TraceKind::Deliver => r#","kind":"Deliver","payload":"#,
        }
    }

    fn from_name(name: &str) -> Option<TraceKind> {
        Some(match name {
            "TxStart" => TraceKind::TxStart,
            "TxEnd" => TraceKind::TxEnd,
            "Collision" => TraceKind::Collision,
            "Drop" => TraceKind::Drop,
            "CwChange" => TraceKind::CwChange,
            "Admit" => TraceKind::Admit,
            "Enqueue" => TraceKind::Enqueue,
            "Dequeue" => TraceKind::Dequeue,
            "Attempt" => TraceKind::Attempt,
            "RxOutcome" => TraceKind::RxOutcome,
            "BoeOverhear" => TraceKind::BoeOverhear,
            "Deliver" => TraceKind::Deliver,
            _ => return None,
        })
    }
}

/// MAC-level class of a traced frame. The sim kernel keeps its own copy
/// of this enum (rather than borrowing the PHY's frame type) so tracing
/// stays dependency-free; producers map their frame kinds into it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum FrameClass {
    /// A data frame.
    Data,
    /// An acknowledgement.
    Ack,
    /// A request-to-send.
    Rts,
    /// A clear-to-send.
    Cts,
}

impl FrameClass {
    /// Stable name ("Data", "Ack", ...).
    pub fn name(self) -> &'static str {
        match self {
            FrameClass::Data => "Data",
            FrameClass::Ack => "Ack",
            FrameClass::Rts => "Rts",
            FrameClass::Cts => "Cts",
        }
    }

    fn from_name(name: &str) -> Option<FrameClass> {
        Some(match name {
            "Data" => FrameClass::Data,
            "Ack" => FrameClass::Ack,
            "Rts" => FrameClass::Rts,
            "Cts" => FrameClass::Cts,
            _ => return None,
        })
    }
}

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

    fn from_name(name: &str) -> Option<DropCause> {
        Some(match name {
            "retry_limit" => DropCause::RetryLimit,
            "queue_full" => DropCause::QueueFull,
            "source_queue_full" => DropCause::SourceQueueFull,
            "unroutable" => DropCause::Unroutable,
            _ => return None,
        })
    }
}

/// What happened to a transmission at its addressed receiver. The sim
/// kernel owns this enum (like [`FrameClass`]) so tracing stays
/// dependency-free; the PHY maps its decode result into it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum RxOutcome {
    /// Decoded cleanly with no overlapping transmission.
    Clean,
    /// Decoded cleanly despite an overlapping transmission (capture).
    Capture,
    /// Destroyed by an overlapping transmission.
    Collision,
    /// Lost to the stochastic (Bernoulli) link-loss model.
    Loss,
}

impl RxOutcome {
    /// Stable name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            RxOutcome::Clean => "clean",
            RxOutcome::Capture => "capture",
            RxOutcome::Collision => "collision",
            RxOutcome::Loss => "loss",
        }
    }

    fn from_name(name: &str) -> Option<RxOutcome> {
        Some(match name {
            "clean" => RxOutcome::Clean,
            "capture" => RxOutcome::Capture,
            "collision" => RxOutcome::Collision,
            "loss" => RxOutcome::Loss,
            _ => return None,
        })
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

impl BoeVerdict {
    /// Stable name used by the JSONL schema.
    pub fn name(self) -> &'static str {
        match self {
            BoeVerdict::Hit => "hit",
            BoeVerdict::Miss => "miss",
            BoeVerdict::Ambiguous => "ambiguous",
        }
    }

    fn from_name(name: &str) -> Option<BoeVerdict> {
        Some(match name {
            "hit" => BoeVerdict::Hit,
            "miss" => BoeVerdict::Miss,
            "ambiguous" => BoeVerdict::Ambiguous,
            _ => return None,
        })
    }
}

/// The typed, allocation-free body of a trace record.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum TracePayload {
    /// A frame identified by class, sequence number, flow, and endpoints.
    Frame {
        /// MAC-level class.
        class: FrameClass,
        /// Flow-level sequence number.
        seq: u64,
        /// Flow id the frame belongs to.
        flow: u32,
        /// Transmitting node.
        src: usize,
        /// Intended receiver.
        dst: usize,
        /// Retry count at the moment of the record.
        retry: u32,
    },
    /// A reception destroyed by interference from `src`.
    Collision {
        /// Sequence number of the victim frame.
        seq: u64,
        /// The interfering transmitter.
        src: usize,
    },
    /// A packet dropped, and why.
    Drop {
        /// The reason.
        cause: DropCause,
        /// Sequence number of the dropped packet.
        seq: u64,
    },
    /// A contention-window move.
    CwChange {
        /// Previous CWmin.
        from: u32,
        /// New CWmin.
        to: u32,
    },
    /// A packet admitted at its source (the flight recorder's first
    /// lifecycle record for a packet id).
    Admit {
        /// Packet id (globally unique frame sequence number).
        seq: u64,
        /// Flow the packet belongs to.
        flow: u32,
    },
    /// A packet accepted into a per-hop queue; `occupancy` is the queue
    /// depth after the push.
    Enqueue {
        /// Packet id.
        seq: u64,
        /// Flow the packet belongs to.
        flow: u32,
        /// Queue depth after the push.
        occupancy: u32,
        /// Queue capacity.
        cap: u32,
    },
    /// A packet popped from a queue and handed to the node's MAC.
    Dequeue {
        /// Packet id.
        seq: u64,
        /// Flow the packet belongs to.
        flow: u32,
    },
    /// One DCF transmission attempt, with the contention state the MAC
    /// held when it drew the backoff for this attempt.
    Attempt {
        /// Packet id.
        seq: u64,
        /// Zero-based attempt number (0 = first transmission).
        attempt: u32,
        /// Contention window the backoff was drawn from.
        cw: u32,
        /// Backoff slots drawn for this attempt.
        slots: u32,
    },
    /// The addressed receiver's decode outcome for one transmission.
    RxOutcome {
        /// Packet id of the transmitted frame.
        seq: u64,
        /// MAC-level class of the transmitted frame.
        class: FrameClass,
        /// What happened at the receiver.
        outcome: RxOutcome,
    },
    /// A BOE's verdict on a frame overheard from its successor.
    BoeOverhear {
        /// Packet id of the overheard frame.
        seq: u64,
        /// Hit, miss, or ambiguous against the sent window.
        verdict: BoeVerdict,
    },
    /// A packet delivered at its final destination.
    Deliver {
        /// Packet id.
        seq: u64,
        /// Flow the packet belongs to.
        flow: u32,
    },
}

impl fmt::Display for TracePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TracePayload::Frame {
                class,
                seq,
                flow,
                src,
                dst,
                retry,
            } => write!(
                f,
                "{} seq={seq} flow={flow} {src}->{dst} retry={retry}",
                class.name()
            ),
            TracePayload::Collision { seq, src } => write!(f, "seq={seq} from {src}"),
            TracePayload::Drop { cause, seq } => write!(f, "{} seq={seq}", cause.name()),
            TracePayload::CwChange { from, to } => write!(f, "{from} -> {to}"),
            TracePayload::Admit { seq, flow } => write!(f, "seq={seq} flow={flow}"),
            TracePayload::Enqueue {
                seq,
                flow,
                occupancy,
                cap,
            } => write!(f, "seq={seq} flow={flow} q={occupancy}/{cap}"),
            TracePayload::Dequeue { seq, flow } => write!(f, "seq={seq} flow={flow}"),
            TracePayload::Attempt {
                seq,
                attempt,
                cw,
                slots,
            } => write!(f, "seq={seq} attempt={attempt} cw={cw} slots={slots}"),
            TracePayload::RxOutcome {
                seq,
                class,
                outcome,
            } => write!(f, "seq={seq} {} {}", class.name(), outcome.name()),
            TracePayload::BoeOverhear { seq, verdict } => {
                write!(f, "seq={seq} {}", verdict.name())
            }
            TracePayload::Deliver { seq, flow } => write!(f, "seq={seq} flow={flow}"),
        }
    }
}

impl TracePayload {
    /// Streams the payload object — the bytes of the tree form below —
    /// each variant's fixed text written whole between its values.
    fn write_json(self, w: &mut JsonWriter) {
        match self {
            TracePayload::Frame {
                class,
                seq,
                flow,
                src,
                dst,
                retry,
            } => {
                w.raw(r#"{"type":"frame","class":""#);
                w.raw(class.name());
                w.raw(r#"","seq":"#);
                w.value(seq);
                w.raw(r#","flow":"#);
                w.value(flow);
                w.raw(r#","src":"#);
                w.value(src);
                w.raw(r#","dst":"#);
                w.value(dst);
                w.raw(r#","retry":"#);
                w.value(retry);
            }
            TracePayload::Collision { seq, src } => {
                w.raw(r#"{"type":"collision","seq":"#);
                w.value(seq);
                w.raw(r#","src":"#);
                w.value(src);
            }
            TracePayload::Drop { cause, seq } => {
                w.raw(r#"{"type":"drop","cause":""#);
                w.raw(cause.name());
                w.raw(r#"","seq":"#);
                w.value(seq);
            }
            TracePayload::CwChange { from, to } => {
                w.raw(r#"{"type":"cw_change","from":"#);
                w.value(from);
                w.raw(r#","to":"#);
                w.value(to);
            }
            TracePayload::Admit { seq, flow } => {
                w.raw(r#"{"type":"admit","seq":"#);
                w.value(seq);
                w.raw(r#","flow":"#);
                w.value(flow);
            }
            TracePayload::Enqueue {
                seq,
                flow,
                occupancy,
                cap,
            } => {
                w.raw(r#"{"type":"enqueue","seq":"#);
                w.value(seq);
                w.raw(r#","flow":"#);
                w.value(flow);
                w.raw(r#","occupancy":"#);
                w.value(occupancy);
                w.raw(r#","cap":"#);
                w.value(cap);
            }
            TracePayload::Dequeue { seq, flow } => {
                w.raw(r#"{"type":"dequeue","seq":"#);
                w.value(seq);
                w.raw(r#","flow":"#);
                w.value(flow);
            }
            TracePayload::Attempt {
                seq,
                attempt,
                cw,
                slots,
            } => {
                w.raw(r#"{"type":"attempt","seq":"#);
                w.value(seq);
                w.raw(r#","attempt":"#);
                w.value(attempt);
                w.raw(r#","cw":"#);
                w.value(cw);
                w.raw(r#","slots":"#);
                w.value(slots);
            }
            TracePayload::RxOutcome {
                seq,
                class,
                outcome,
            } => {
                w.raw(r#"{"type":"rx_outcome","seq":"#);
                w.value(seq);
                w.raw(r#","class":""#);
                w.raw(class.name());
                w.raw(r#"","outcome":""#);
                w.raw(outcome.name());
                w.raw("\"");
            }
            TracePayload::BoeOverhear { seq, verdict } => {
                w.raw(r#"{"type":"boe_overhear","seq":"#);
                w.value(seq);
                w.raw(r#","verdict":""#);
                w.raw(verdict.name());
                w.raw("\"");
            }
            TracePayload::Deliver { seq, flow } => {
                w.raw(r#"{"type":"deliver","seq":"#);
                w.value(seq);
                w.raw(r#","flow":"#);
                w.value(flow);
            }
        }
        w.raw("}");
    }

    /// The tree form [`TracePayload::from_json`] reads — kept as the
    /// oracle the streamed bytes are tested against.
    #[cfg(test)]
    fn to_json(self) -> JsonValue {
        match self {
            TracePayload::Frame {
                class,
                seq,
                flow,
                src,
                dst,
                retry,
            } => JsonValue::obj(vec![
                ("type", JsonValue::str("frame")),
                ("class", JsonValue::str(class.name())),
                ("seq", seq.into()),
                ("flow", flow.into()),
                ("src", src.into()),
                ("dst", dst.into()),
                ("retry", retry.into()),
            ]),
            TracePayload::Collision { seq, src } => JsonValue::obj(vec![
                ("type", JsonValue::str("collision")),
                ("seq", seq.into()),
                ("src", src.into()),
            ]),
            TracePayload::Drop { cause, seq } => JsonValue::obj(vec![
                ("type", JsonValue::str("drop")),
                ("cause", JsonValue::str(cause.name())),
                ("seq", seq.into()),
            ]),
            TracePayload::CwChange { from, to } => JsonValue::obj(vec![
                ("type", JsonValue::str("cw_change")),
                ("from", from.into()),
                ("to", to.into()),
            ]),
            TracePayload::Admit { seq, flow } => JsonValue::obj(vec![
                ("type", JsonValue::str("admit")),
                ("seq", seq.into()),
                ("flow", flow.into()),
            ]),
            TracePayload::Enqueue {
                seq,
                flow,
                occupancy,
                cap,
            } => JsonValue::obj(vec![
                ("type", JsonValue::str("enqueue")),
                ("seq", seq.into()),
                ("flow", flow.into()),
                ("occupancy", occupancy.into()),
                ("cap", cap.into()),
            ]),
            TracePayload::Dequeue { seq, flow } => JsonValue::obj(vec![
                ("type", JsonValue::str("dequeue")),
                ("seq", seq.into()),
                ("flow", flow.into()),
            ]),
            TracePayload::Attempt {
                seq,
                attempt,
                cw,
                slots,
            } => JsonValue::obj(vec![
                ("type", JsonValue::str("attempt")),
                ("seq", seq.into()),
                ("attempt", attempt.into()),
                ("cw", cw.into()),
                ("slots", slots.into()),
            ]),
            TracePayload::RxOutcome {
                seq,
                class,
                outcome,
            } => JsonValue::obj(vec![
                ("type", JsonValue::str("rx_outcome")),
                ("seq", seq.into()),
                ("class", JsonValue::str(class.name())),
                ("outcome", JsonValue::str(outcome.name())),
            ]),
            TracePayload::BoeOverhear { seq, verdict } => JsonValue::obj(vec![
                ("type", JsonValue::str("boe_overhear")),
                ("seq", seq.into()),
                ("verdict", JsonValue::str(verdict.name())),
            ]),
            TracePayload::Deliver { seq, flow } => JsonValue::obj(vec![
                ("type", JsonValue::str("deliver")),
                ("seq", seq.into()),
                ("flow", flow.into()),
            ]),
        }
    }

    fn from_json(v: &JsonValue) -> Result<TracePayload, String> {
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or("payload missing 'type'")?;
        let u64_field = |name: &str| {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("payload missing numeric '{name}'"))
        };
        Ok(match ty {
            "frame" => {
                let class = v
                    .get("class")
                    .and_then(JsonValue::as_str)
                    .and_then(FrameClass::from_name)
                    .ok_or("bad frame class")?;
                TracePayload::Frame {
                    class,
                    seq: u64_field("seq")?,
                    flow: u64_field("flow")? as u32,
                    src: u64_field("src")? as usize,
                    dst: u64_field("dst")? as usize,
                    retry: u64_field("retry")? as u32,
                }
            }
            "collision" => TracePayload::Collision {
                seq: u64_field("seq")?,
                src: u64_field("src")? as usize,
            },
            "drop" => {
                let cause = v
                    .get("cause")
                    .and_then(JsonValue::as_str)
                    .and_then(DropCause::from_name)
                    .ok_or("bad drop cause")?;
                TracePayload::Drop {
                    cause,
                    seq: u64_field("seq")?,
                }
            }
            "cw_change" => TracePayload::CwChange {
                from: u64_field("from")? as u32,
                to: u64_field("to")? as u32,
            },
            "admit" => TracePayload::Admit {
                seq: u64_field("seq")?,
                flow: u64_field("flow")? as u32,
            },
            "enqueue" => TracePayload::Enqueue {
                seq: u64_field("seq")?,
                flow: u64_field("flow")? as u32,
                occupancy: u64_field("occupancy")? as u32,
                cap: u64_field("cap")? as u32,
            },
            "dequeue" => TracePayload::Dequeue {
                seq: u64_field("seq")?,
                flow: u64_field("flow")? as u32,
            },
            "attempt" => TracePayload::Attempt {
                seq: u64_field("seq")?,
                attempt: u64_field("attempt")? as u32,
                cw: u64_field("cw")? as u32,
                slots: u64_field("slots")? as u32,
            },
            "rx_outcome" => {
                let class = v
                    .get("class")
                    .and_then(JsonValue::as_str)
                    .and_then(FrameClass::from_name)
                    .ok_or("bad rx_outcome class")?;
                let outcome = v
                    .get("outcome")
                    .and_then(JsonValue::as_str)
                    .and_then(RxOutcome::from_name)
                    .ok_or("bad rx outcome")?;
                TracePayload::RxOutcome {
                    seq: u64_field("seq")?,
                    class,
                    outcome,
                }
            }
            "boe_overhear" => {
                let verdict = v
                    .get("verdict")
                    .and_then(JsonValue::as_str)
                    .and_then(BoeVerdict::from_name)
                    .ok_or("bad boe verdict")?;
                TracePayload::BoeOverhear {
                    seq: u64_field("seq")?,
                    verdict,
                }
            }
            "deliver" => TracePayload::Deliver {
                seq: u64_field("seq")?,
                flow: u64_field("flow")? as u32,
            },
            other => return Err(format!("unknown payload type '{other}'")),
        })
    }

    /// The packet id (frame sequence number) this payload concerns, if it
    /// is packet-specific. This is what the flight recorder and the
    /// `trace` inspector use to group records into per-packet journeys.
    pub fn packet(&self) -> Option<u64> {
        match *self {
            TracePayload::Frame { seq, .. }
            | TracePayload::Collision { seq, .. }
            | TracePayload::Drop { seq, .. }
            | TracePayload::Admit { seq, .. }
            | TracePayload::Enqueue { seq, .. }
            | TracePayload::Dequeue { seq, .. }
            | TracePayload::Attempt { seq, .. }
            | TracePayload::RxOutcome { seq, .. }
            | TracePayload::BoeOverhear { seq, .. }
            | TracePayload::Deliver { seq, .. } => Some(seq),
            TracePayload::CwChange { .. } => None,
        }
    }
}

/// One trace record. `Copy`: pushing stores 40-odd bytes, no heap.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TraceEvent {
    /// When it happened.
    pub at: Time,
    /// Node the record concerns (usize::MAX when not node-specific).
    pub node: usize,
    /// Category.
    pub kind: TraceKind,
    /// Typed detail; formatted only on render/export.
    pub payload: TracePayload,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.node == usize::MAX {
            write!(f, "[{}] {:?}: {}", self.at, self.kind, self.payload)
        } else {
            write!(
                f,
                "[{}] n{} {:?}: {}",
                self.at, self.node, self.kind, self.payload
            )
        }
    }
}

impl TraceEvent {
    /// What a JSONL export reserves per record, so its buffer is sized
    /// once: lifecycle lines average about 105 bytes and the longest
    /// (`Frame`) is about 130.
    pub const LINE_BYTES: usize = 128;

    /// Streams the record's JSONL object (no trailing newline) into `w`:
    /// `at_us`, `node` unless the record is global, `kind`, `payload`.
    /// Keys and the names of kinds and payload types are fixed text, so
    /// they go out as whole tokens; only the numbers are formatted.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.raw(r#""at_us":"#);
        w.value(self.at.as_micros());
        if self.node != usize::MAX {
            w.raw(r#","node":"#);
            w.value(self.node);
        }
        w.raw(self.kind.json_head());
        self.payload.write_json(w);
        w.end_object();
    }

    /// The tree form [`TraceEvent::from_json`] reads — kept as the oracle
    /// the streamed bytes are tested against.
    #[cfg(test)]
    pub fn to_json(&self) -> JsonValue {
        let mut fields = vec![("at_us", JsonValue::from(self.at.as_micros()))];
        if self.node != usize::MAX {
            fields.push(("node", JsonValue::from(self.node)));
        }
        fields.push(("kind", JsonValue::str(self.kind.name())));
        fields.push(("payload", self.payload.to_json()));
        JsonValue::obj(fields)
    }

    /// Reconstruct a record from its JSONL representation.
    pub fn from_json(v: &JsonValue) -> Result<TraceEvent, String> {
        let at = v
            .get("at_us")
            .and_then(JsonValue::as_u64)
            .ok_or("record missing 'at_us'")?;
        let node = match v.get("node") {
            Some(n) => n.as_u64().ok_or("bad 'node'")? as usize,
            None => usize::MAX,
        };
        let kind = v
            .get("kind")
            .and_then(JsonValue::as_str)
            .and_then(TraceKind::from_name)
            .ok_or("bad 'kind'")?;
        let payload = TracePayload::from_json(v.get("payload").ok_or("record missing 'payload'")?)?;
        Ok(TraceEvent {
            at: Time::from_micros(at),
            node,
            kind,
            payload,
        })
    }
}

/// A bounded ring of [`TraceEvent`]s.
pub struct TraceRing {
    cap: usize,
    ring: VecDeque<TraceEvent>,
    pushed: u64,
}

/// The ring is embedded in `ezflow-net`'s `Network`, which crosses thread
/// boundaries when a sweep runner fans runs across workers — so it must
/// stay `Send` (plain owned data; this trips at compile time if a future
/// field breaks that).
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<TraceRing>();
};

impl TraceRing {
    /// Creates a ring keeping at most `cap` records; `cap == 0` disables
    /// tracing (pushes become no-ops beyond a counter increment).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap,
            // Full capacity up front (bounded for sanity), so steady-state
            // pushes never reallocate.
            ring: VecDeque::with_capacity(cap.min(4096)),
            pushed: 0,
        }
    }

    /// Whether records are being kept.
    pub fn enabled(&self) -> bool {
        self.cap > 0
    }

    /// Pushes a record, evicting the oldest if full. The payload is
    /// `Copy`; nothing is formatted or allocated here.
    pub fn push(&mut self, at: Time, node: usize, kind: TraceKind, payload: TracePayload) {
        self.pushed += 1;
        if self.cap == 0 {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(TraceEvent {
            at,
            node,
            kind,
            payload,
        });
    }

    /// Records currently held, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True iff no records are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total number of records ever pushed (including evicted/disabled).
    pub fn pushed_total(&self) -> u64 {
        self.pushed
    }

    /// Renders the whole ring, one record per line (debugging helper).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }

    /// Exports the held records as JSONL: one compact JSON object per
    /// line, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::with_capacity(self.ring.len() * TraceEvent::LINE_BYTES);
        for ev in &self.ring {
            ev.write_json(&mut w);
            w.end_line();
        }
        w.into_string()
    }

    /// Parses records from JSONL produced by [`TraceRing::to_jsonl`].
    /// Blank lines are skipped; the error names the offending line.
    pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
        let mut out = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v = JsonValue::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            out.push(TraceEvent::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    /// One payload of every variant from four raw draws, fields at full
    /// width — `seq`, `src` and `dst` are mostly above 2^53, where a JSON
    /// number rounds.
    fn payloads(a: u64, b: u64, c: u64, d: u64) -> [TracePayload; 11] {
        let classes = [
            FrameClass::Data,
            FrameClass::Ack,
            FrameClass::Rts,
            FrameClass::Cts,
        ];
        let causes = [
            DropCause::RetryLimit,
            DropCause::QueueFull,
            DropCause::SourceQueueFull,
            DropCause::Unroutable,
        ];
        let outcomes = [
            RxOutcome::Clean,
            RxOutcome::Capture,
            RxOutcome::Collision,
            RxOutcome::Loss,
        ];
        let verdicts = [BoeVerdict::Hit, BoeVerdict::Miss, BoeVerdict::Ambiguous];
        let (seq, flow, class) = (a, b as u32, classes[(c % 4) as usize]);
        [
            TracePayload::Frame {
                class,
                seq,
                flow,
                src: c as usize,
                dst: d as usize,
                retry: (d >> 32) as u32,
            },
            TracePayload::Collision {
                seq,
                src: c as usize,
            },
            TracePayload::Drop {
                cause: causes[(c % 4) as usize],
                seq,
            },
            TracePayload::CwChange {
                from: c as u32,
                to: d as u32,
            },
            TracePayload::Admit { seq, flow },
            TracePayload::Enqueue {
                seq,
                flow,
                occupancy: c as u32,
                cap: d as u32,
            },
            TracePayload::Dequeue { seq, flow },
            TracePayload::Attempt {
                seq,
                attempt: (b >> 32) as u32,
                cw: c as u32,
                slots: d as u32,
            },
            TracePayload::RxOutcome {
                seq,
                class,
                outcome: outcomes[(d % 4) as usize],
            },
            TracePayload::BoeOverhear {
                seq,
                verdict: verdicts[(d % 3) as usize],
            },
            TracePayload::Deliver { seq, flow },
        ]
    }

    /// Whether every number in `ev` survives a trip through an `f64`.
    fn representable(ev: &TraceEvent) -> bool {
        const MAX: u64 = 1 << 53;
        let fits = |n: usize| n as u64 <= MAX;
        ev.at.as_micros() <= MAX
            && (ev.node == usize::MAX || fits(ev.node))
            && ev.payload.packet().is_none_or(|seq| seq <= MAX)
            && match ev.payload {
                TracePayload::Frame { src, dst, .. } => fits(src) && fits(dst),
                TracePayload::Collision { src, .. } => fits(src),
                _ => true,
            }
    }

    proptest! {
        /// The streamed line is, byte for byte, the compact form of the
        /// tree the reader expects — for every payload variant, global
        /// and node-specific records, and numbers on both sides of 2^53
        /// — and where every number is representable the line parses
        /// back to the record.
        #[test]
        fn streamed_record_equals_its_tree_form(
            at in prop_oneof![any::<u64>(), 0u64..1 << 53],
            node in prop_oneof![Just(usize::MAX), any::<usize>(), 0usize..4096],
            small in any::<bool>(),
            draws in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            kind in 0usize..12
        ) {
            let kinds = [
                TraceKind::TxStart, TraceKind::TxEnd, TraceKind::Collision, TraceKind::Drop,
                TraceKind::CwChange, TraceKind::Admit, TraceKind::Enqueue, TraceKind::Dequeue,
                TraceKind::Attempt, TraceKind::RxOutcome, TraceKind::BoeOverhear,
                TraceKind::Deliver,
            ];
            let (a, b, c, d) = draws;
            // Half the cases keep every field an exact f64, so the
            // parse-back half of the property is exercised too.
            let cut = |n: u64| if small { n % (1 << 53) } else { n };
            let mut w = JsonWriter::new();
            for payload in payloads(cut(a), b, cut(c), cut(d)) {
                let ev = TraceEvent { at: t(at), node, kind: kinds[kind], payload };
                w.clear();
                ev.write_json(&mut w);
                prop_assert_eq!(w.as_str(), ev.to_json().to_compact());
                if representable(&ev) {
                    let doc = JsonValue::parse(w.as_str()).unwrap();
                    prop_assert_eq!(TraceEvent::from_json(&doc), Ok(ev));
                }
            }
        }
    }

    fn frame(seq: u64) -> TracePayload {
        TracePayload::Frame {
            class: FrameClass::Data,
            seq,
            flow: 0,
            src: 0,
            dst: 1,
            retry: 0,
        }
    }

    #[test]
    fn keeps_most_recent_cap_records() {
        let mut ring = TraceRing::new(3);
        for i in 0..5u64 {
            ring.push(t(i), 0, TraceKind::TxStart, frame(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed_total(), 5);
        let seqs: Vec<u64> = ring
            .iter()
            .map(|e| match e.payload {
                TracePayload::Frame { seq, .. } => seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn zero_cap_disables_storage_but_counts() {
        let mut ring = TraceRing::new(0);
        assert!(!ring.enabled());
        ring.push(
            t(1),
            0,
            TraceKind::Drop,
            TracePayload::Drop {
                cause: DropCause::QueueFull,
                seq: 9,
            },
        );
        assert!(ring.is_empty());
        assert_eq!(ring.pushed_total(), 1);
    }

    #[test]
    fn render_formats_lines() {
        let mut ring = TraceRing::new(8);
        ring.push(
            t(1_000_000),
            2,
            TraceKind::Collision,
            TracePayload::Collision { seq: 7, src: 3 },
        );
        ring.push(
            t(2_000_000),
            usize::MAX,
            TraceKind::CwChange,
            TracePayload::CwChange { from: 32, to: 64 },
        );
        let text = ring.render();
        assert!(text.contains("n2 Collision: seq=7 from 3"), "{text}");
        assert!(text.contains("] CwChange: 32 -> 64"), "{text}");
        // The node field is omitted for global records.
        assert!(!text.contains("n18446744073709551615"), "{text}");
    }

    #[test]
    fn jsonl_round_trips_every_payload() {
        let mut ring = TraceRing::new(64);
        ring.push(t(1), 0, TraceKind::TxStart, frame(5));
        ring.push(
            t(2),
            1,
            TraceKind::Collision,
            TracePayload::Collision { seq: 5, src: 2 },
        );
        ring.push(
            t(3),
            2,
            TraceKind::Drop,
            TracePayload::Drop {
                cause: DropCause::RetryLimit,
                seq: 6,
            },
        );
        ring.push(
            t(5),
            0,
            TraceKind::CwChange,
            TracePayload::CwChange { from: 32, to: 64 },
        );
        ring.push(
            t(6),
            usize::MAX,
            TraceKind::Deliver,
            TracePayload::Deliver { seq: 6, flow: 1 },
        );

        let jsonl = ring.to_jsonl();
        assert_eq!(jsonl.lines().count(), ring.len());
        let parsed = TraceRing::parse_jsonl(&jsonl).unwrap();
        let original: Vec<TraceEvent> = ring.iter().copied().collect();
        assert_eq!(parsed, original);
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        assert!(TraceRing::parse_jsonl("{oops")
            .unwrap_err()
            .contains("line 1"));
        let missing_kind = r#"{"at_us": 1, "payload": {"type": "cw_change", "from": 1, "to": 2}}"#;
        assert!(TraceRing::parse_jsonl(missing_kind)
            .unwrap_err()
            .contains("bad 'kind'"));
        // A payload type the vocabulary no longer has is an error, not a
        // silently dropped record.
        let removed = r#"{"at_us": 1, "kind": "TxStart", "payload": {"type": "boe_sample"}}"#;
        assert!(TraceRing::parse_jsonl(removed)
            .unwrap_err()
            .contains("unknown payload type 'boe_sample'"));
        // Blank lines are fine.
        assert_eq!(TraceRing::parse_jsonl("\n\n").unwrap().len(), 0);
    }
}
