//! Property-based tests for the simulation kernel.

use ezflow_sim::{
    BoeVerdict, DropCause, FrameClass, JsonValue, JsonWriter, RxOutcome, Scheduler, SimRng, Time,
    TraceEvent, TraceKind, TracePayload, TraceRing,
};
use proptest::prelude::*;

/// JSON numbers are f64-backed, so ids only round-trip exactly below 2^53.
const MAX_EXACT: u64 = 1 << 53;

fn class_of(i: u64) -> FrameClass {
    match i % 4 {
        0 => FrameClass::Data,
        1 => FrameClass::Ack,
        2 => FrameClass::Rts,
        _ => FrameClass::Cts,
    }
}

fn cause_of(i: u64) -> DropCause {
    match i % 4 {
        0 => DropCause::RetryLimit,
        1 => DropCause::QueueFull,
        2 => DropCause::SourceQueueFull,
        _ => DropCause::Unroutable,
    }
}

fn outcome_of(i: u64) -> RxOutcome {
    match i % 4 {
        0 => RxOutcome::Clean,
        1 => RxOutcome::Capture,
        2 => RxOutcome::Collision,
        _ => RxOutcome::Loss,
    }
}

fn verdict_of(i: u64) -> BoeVerdict {
    match i % 3 {
        0 => BoeVerdict::Hit,
        1 => BoeVerdict::Miss,
        _ => BoeVerdict::Ambiguous,
    }
}

/// One arbitrary payload covering every `TracePayload` variant; `pick`
/// selects the variant, the remaining draws fill its fields.
fn payload_of(pick: u64, a: u64, b: u64, c: u64, d: u64) -> TracePayload {
    let seq = a % MAX_EXACT;
    match pick % 11 {
        0 => TracePayload::Frame {
            class: class_of(b),
            seq,
            flow: c as u32,
            src: (b % 4096) as usize,
            dst: (d % 4096) as usize,
            retry: (c % 16) as u32,
        },
        1 => TracePayload::Collision {
            seq,
            src: (b % 4096) as usize,
        },
        2 => TracePayload::Drop {
            cause: cause_of(b),
            seq,
        },
        3 => TracePayload::CwChange {
            from: b as u32,
            to: c as u32,
        },
        4 => TracePayload::Admit {
            seq,
            flow: b as u32,
        },
        5 => TracePayload::Enqueue {
            seq,
            flow: b as u32,
            occupancy: c as u32,
            cap: d as u32,
        },
        6 => TracePayload::Dequeue {
            seq,
            flow: b as u32,
        },
        7 => TracePayload::Attempt {
            seq,
            attempt: (b % 16) as u32,
            cw: c as u32,
            slots: d as u32,
        },
        8 => TracePayload::RxOutcome {
            seq,
            class: class_of(b),
            outcome: outcome_of(c),
        },
        9 => TracePayload::BoeOverhear {
            seq,
            verdict: verdict_of(b),
        },
        _ => TracePayload::Deliver {
            seq,
            flow: b as u32,
        },
    }
}

fn kind_of(i: u64) -> TraceKind {
    match i % 12 {
        0 => TraceKind::TxStart,
        1 => TraceKind::TxEnd,
        2 => TraceKind::Collision,
        3 => TraceKind::Drop,
        4 => TraceKind::CwChange,
        5 => TraceKind::Admit,
        6 => TraceKind::Enqueue,
        7 => TraceKind::Dequeue,
        8 => TraceKind::Attempt,
        9 => TraceKind::RxOutcome,
        10 => TraceKind::BoeOverhear,
        _ => TraceKind::Deliver,
    }
}

proptest! {
    /// The scheduler pops events in exactly the order of a stable sort by
    /// time — for any interleaving of pushes.
    #[test]
    fn scheduler_is_a_stable_time_sort(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(Time::from_micros(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        reference.sort_by_key(|&(t, _)| t); // stable: preserves push order
        let mut popped = Vec::new();
        while let Some((t, i)) = s.pop() {
            popped.push((t.as_micros(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// Popping interleaved with pushing never yields an event earlier than
    /// one already delivered.
    #[test]
    fn time_never_goes_backwards(
        ops in prop::collection::vec((0u64..1000, prop::bool::ANY), 1..300)
    ) {
        let mut s = Scheduler::new();
        let mut last = 0u64;
        let mut horizon = 0u64;
        for (t, pop) in ops {
            // Only schedule at/after the delivery horizon, as the network
            // does (no scheduling into the past).
            let at = horizon.max(t);
            s.schedule(Time::from_micros(at), ());
            if pop {
                if let Some((t, ())) = s.pop() {
                    prop_assert!(t.as_micros() >= last);
                    last = t.as_micros();
                    horizon = last;
                }
            }
        }
    }

    /// gen_range never leaves its bound and hits both halves of the range.
    #[test]
    fn gen_range_is_bounded(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = SimRng::new(seed);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..200 {
            let v = rng.gen_range(bound);
            prop_assert!(v < bound);
            if v < bound / 2 { lo = true; } else { hi = true; }
        }
        if bound >= 16 {
            prop_assert!(lo && hi, "draws should cover the range");
        }
    }

    /// Identical seeds give identical streams; the stream survives clone.
    #[test]
    fn rng_is_deterministic_and_cloneable(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = a.clone();
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), c.next_u64());
        }
    }

    /// pick_weighted only ever picks indices with positive weight.
    /// Every `TracePayload` variant — including the flight-recorder
    /// lifecycle ones — survives a JSON round-trip (`write_json`, parse,
    /// `from_json` at the event level), for arbitrary field values.
    #[test]
    fn trace_event_json_round_trips_all_variants(
        at in 0u64..MAX_EXACT,
        node in 0u64..4097,
        kinds in prop::collection::vec(any::<u64>(), 1..40),
        fields in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 40)
    ) {
        for (i, &k) in kinds.iter().enumerate() {
            let (a, b, c, d) = fields[i];
            // Variant index tracks position so a single run sweeps the
            // whole enum; the trailing draws randomise the fields.
            let ev = TraceEvent {
                at: Time::from_micros(at),
                // 4096 stands in for "no node" — the schema omits it.
                node: if node == 4096 { usize::MAX } else { node as usize },
                kind: kind_of(k),
                payload: payload_of(i as u64, a, b, c, d),
            };
            let mut line = JsonWriter::new();
            ev.write_json(&mut line);
            let back = TraceEvent::from_json(&JsonValue::parse(line.as_str()).unwrap());
            prop_assert_eq!(back.as_ref(), Ok(&ev), "payload {}", i % 11);
        }
    }

    /// A ring holding one record of every payload variant exports JSONL
    /// that parses back to exactly the held records.
    #[test]
    fn trace_jsonl_round_trips_all_variants(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 11)
    ) {
        let mut ring = TraceRing::new(64);
        for (i, &(a, b, c, d)) in seeds.iter().enumerate() {
            ring.push(
                Time::from_micros(i as u64),
                i,
                kind_of(i as u64),
                payload_of(i as u64, a, b, c, d),
            );
        }
        let parsed = TraceRing::parse_jsonl(&ring.to_jsonl());
        let held: Vec<TraceEvent> = ring.iter().copied().collect();
        prop_assert_eq!(parsed, Ok(held));
    }

    #[test]
    fn pick_weighted_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0f64..10.0, 1..20)
    ) {
        let mut rng = SimRng::new(seed);
        let total: f64 = weights.iter().sum();
        for _ in 0..100 {
            match rng.pick_weighted(&weights) {
                Some(i) => prop_assert!(weights[i] > 0.0),
                None => prop_assert!(total <= 0.0),
            }
        }
    }
}
