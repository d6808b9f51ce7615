//! Property-based, whole-network invariants: for random chain lengths,
//! loss rates, rates and seeds, the simulator must conserve packets,
//! respect buffer bounds, and be a pure function of its inputs. Plus the
//! lifecycle records those networks export: every variant survives its
//! JSONL round trip.

use ezflow_net::controller::{Controller, FixedController};
use ezflow_net::lifecycle::{parse_jsonl, BoeVerdict, DropCause, TraceEvent, TracePayload};
use ezflow_net::{topo, FlightRecorder, Network, NetworkSpec};
use ezflow_phy::{DecodeOutcome, FrameKind};
use ezflow_sim::{JsonWriter, Time};
use proptest::prelude::*;

fn std_controller(_: usize) -> Box<dyn Controller> {
    Box::new(FixedController::standard())
}

fn build(hops: usize, loss: f64, rate: u64, seed: u64, secs: u64) -> Network {
    let mut t = topo::chain(hops, Time::ZERO, Time::from_secs(secs));
    t.flows[0].rate_bps = rate;
    let mut spec = NetworkSpec::from_topology(&t, seed);
    if loss > 0.0 {
        spec.loss = ezflow_phy::LossModel::uniform(loss);
    }
    Network::new(spec, &std_controller)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conservation: every packet is either delivered, dropped somewhere
    /// (source queue, relay queue, retry limit), still queued, or in
    /// flight inside a MAC. We check the delivered count never exceeds
    /// generated minus visible losses, and buffers respect the cap.
    #[test]
    fn network_conserves_and_bounds(
        seed in any::<u64>(),
        hops in 1usize..6,
        loss in 0f64..0.3,
        rate in 100_000u64..2_000_000,
    ) {
        let secs = 20;
        let mut net = build(hops, loss, rate, seed, secs);
        net.run_until(Time::from_secs(secs));

        let delivered = net.metrics.delivered[&0];
        let src_drops = net.metrics.source_drops[&0];
        let q_drops: u64 = net.metrics.queue_drops.iter().sum();
        let r_drops: u64 = (0..net.node_count()).map(|n| net.mac_stats(n).drops_retry).sum();
        // Queued leftovers + up to one in-service frame per node.
        let queued: u64 = (0..net.node_count()).map(|n| net.occupancy(n) as u64).sum();
        let in_flight = net.node_count() as u64;

        // Generated packets: the CBR source emits one per interval while
        // active. We reconstruct from metric counters instead of duration
        // arithmetic: everything generated must be accounted for.
        let accounted = delivered + src_drops + q_drops + r_drops + queued;
        // Delivered can't be bigger than everything accounted (slack for
        // in-flight frames inside MACs).
        prop_assert!(accounted + in_flight >= delivered);

        for n in 0..net.node_count() {
            prop_assert!(net.occupancy(n) <= net.queue_cap() * 2);
        }
        // Buffer samples never exceeded the cap either.
        for n in 0..net.node_count() {
            if let Some(max) = net.metrics.buffer[n].max_in(Time::ZERO, Time::from_secs(secs)) {
                prop_assert!(max <= net.queue_cap() as f64 + 0.5);
            }
        }
    }

    /// Determinism: the same spec and seed reproduce identical outcomes.
    #[test]
    fn network_is_deterministic(seed in any::<u64>(), hops in 1usize..5) {
        let secs = 15;
        let mut a = build(hops, 0.05, 2_000_000, seed, secs);
        let mut b = build(hops, 0.05, 2_000_000, seed, secs);
        a.run_until(Time::from_secs(secs));
        b.run_until(Time::from_secs(secs));
        prop_assert_eq!(a.events_processed(), b.events_processed());
        prop_assert_eq!(a.metrics.delivered[&0], b.metrics.delivered[&0]);
        for n in 0..a.node_count() {
            prop_assert_eq!(a.mac_stats(n).tx_attempts, b.mac_stats(n).tx_attempts);
            prop_assert_eq!(a.occupancy(n), b.occupancy(n));
        }
    }

    /// MAC-level sanity across random conditions: successes are acked
    /// data frames, and the receiver's delivered count matches the
    /// sender's successes (stop-and-wait, duplicate-filtered).
    #[test]
    fn link_accounting_matches(seed in any::<u64>(), loss in 0f64..0.3) {
        let secs = 20;
        let mut net = build(1, loss, 2_000_000, seed, secs);
        net.run_until(Time::from_secs(secs));
        let tx = net.mac_stats(0);
        let rx = net.mac_stats(1);
        // Every success at the sender is a clean ACK round trip; the
        // receiver delivered at least that many distinct frames (it may
        // have delivered more whose ACKs were then lost and the frame was
        // eventually dropped by the sender's retry limit).
        prop_assert!(rx.delivered >= tx.tx_success);
        prop_assert!(rx.delivered <= tx.tx_success + tx.drops_retry + 1);
        // Duplicates happen only when loss is possible.
        if loss == 0.0 {
            prop_assert_eq!(rx.dup_rx, 0);
        }
        prop_assert_eq!(net.metrics.delivered[&0], rx.delivered);
    }

    /// Observability counters are cumulative: a later snapshot of the same
    /// run never shows a smaller value for any counter, and each node's
    /// airtime buckets always partition elapsed time exactly.
    #[test]
    fn snapshot_counters_are_monotone(
        seed in any::<u64>(),
        hops in 1usize..5,
        loss in 0f64..0.2,
    ) {
        let secs = 12;
        let mut net = build(hops, loss, 2_000_000, seed, secs);
        net.run_until(Time::from_secs(secs / 2));
        let early = net.snapshot("early");
        net.run_until(Time::from_secs(secs));
        let late = net.snapshot("late");

        prop_assert!(late.scheduler.scheduled_total >= early.scheduler.scheduled_total);
        prop_assert!(late.scheduler.dispatched_total >= early.scheduler.dispatched_total);
        prop_assert!(late.scheduler.depth_high_water >= early.scheduler.depth_high_water);
        for (e, l) in early
            .scheduler
            .dispatched_by_kind
            .iter()
            .zip(late.scheduler.dispatched_by_kind.iter())
        {
            prop_assert_eq!(&e.0, &l.0);
            prop_assert!(l.1 >= e.1, "dispatch count for {} went backwards", e.0);
        }

        for (a, b) in early.nodes.iter().zip(late.nodes.iter()) {
            let ma = &a.mac;
            let mb = &b.mac;
            prop_assert!(mb.tx_attempts >= ma.tx_attempts);
            prop_assert!(mb.tx_success >= ma.tx_success);
            prop_assert!(mb.retries >= ma.retries);
            prop_assert!(mb.backoff_slots >= ma.backoff_slots);
            prop_assert!(mb.cca_busy >= ma.cca_busy);
            for (qa, qb) in a.queues.iter().zip(b.queues.iter()) {
                prop_assert!(qb.high_water >= qa.high_water);
                prop_assert!(qb.drops >= qa.drops);
                prop_assert!(qb.accepted >= qa.accepted);
            }
            prop_assert!(b.airtime.tx_us >= a.airtime.tx_us);
            // The buckets partition the elapsed simulated time exactly.
            prop_assert_eq!(a.airtime.total_us(), early.at_us);
            prop_assert_eq!(b.airtime.total_us(), late.at_us);
            let (tx, rx, busy, idle) = b.airtime.fractions();
            prop_assert!((tx + rx + busy + idle - 1.0).abs() < 1e-9);
        }

        prop_assert!(late.channel.tx_started >= early.channel.tx_started);
        prop_assert!(late.channel.clean_deliveries >= early.channel.clean_deliveries);
    }
}

/// JSON numbers are f64-backed, so ids only round-trip exactly below 2^53.
const MAX_EXACT: u64 = 1 << 53;

/// One arbitrary lifecycle payload; `pick` selects the variant, the
/// remaining draws fill its fields.
fn payload_of(pick: u64, b: u64, c: u64, d: u64) -> TracePayload {
    let classes = [
        FrameKind::Data,
        FrameKind::Ack,
        FrameKind::Rts,
        FrameKind::Cts,
    ];
    let outcomes = [
        DecodeOutcome::Clean,
        DecodeOutcome::Capture,
        DecodeOutcome::Collision,
        DecodeOutcome::Loss,
    ];
    let verdicts = [BoeVerdict::Hit, BoeVerdict::Miss, BoeVerdict::Ambiguous];
    let causes = [
        DropCause::RetryLimit,
        DropCause::QueueFull,
        DropCause::SourceQueueFull,
        DropCause::Unroutable,
    ];
    match pick % 8 {
        0 => TracePayload::Admit { flow: b as u32 },
        1 => TracePayload::Enqueue {
            flow: b as u32,
            occupancy: c as u32,
            cap: d as u32,
        },
        2 => TracePayload::Dequeue { flow: b as u32 },
        3 => TracePayload::Attempt {
            attempt: (b % 16) as u32,
            cw: c as u32,
            slots: d as u32,
        },
        4 => TracePayload::RxOutcome {
            class: classes[(b % 4) as usize],
            outcome: outcomes[(c % 4) as usize],
        },
        5 => TracePayload::BoeOverhear {
            verdict: verdicts[(b % 3) as usize],
        },
        6 => TracePayload::Deliver { flow: b as u32 },
        _ => TracePayload::Drop {
            cause: causes[(b % 4) as usize],
        },
    }
}

proptest! {
    /// Every lifecycle payload variant survives a JSON round trip
    /// (`write_json`, then the reader) for arbitrary field values.
    #[test]
    fn trace_event_json_round_trips_all_variants(
        at in 0u64..MAX_EXACT,
        node in 0usize..4096,
        fields in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..40)
    ) {
        for (i, &(a, b, c, d)) in fields.iter().enumerate() {
            // Variant index tracks position so a single run sweeps the
            // whole enum; the draws randomise the fields.
            let ev = TraceEvent {
                at: Time::from_micros(at),
                node,
                seq: a % MAX_EXACT,
                payload: payload_of(i as u64, b, c, d),
            };
            let mut line = JsonWriter::new();
            ev.write_json(&mut line);
            prop_assert_eq!(parse_jsonl(line.as_str()), Ok(vec![ev]), "payload {}", i % 8);
        }
    }

    /// A flight recorder writing one journey per payload variant exports
    /// JSONL that parses back to exactly the records written.
    #[test]
    fn trace_jsonl_round_trips_all_variants(
        seeds in prop::collection::vec((any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 8)
    ) {
        let mut fr = FlightRecorder::new(64);
        let mut held = Vec::new();
        for (i, &(a, b, c, d)) in seeds.iter().enumerate() {
            // Packet ids are issued 0, 1, 2, …; the fields are random.
            let (at, seq) = (Time::from_micros(i as u64), i as u64);
            let payload = payload_of(i as u64, b, c, d);
            let flow = (a >> 53) as u32;
            fr.admit(at, i, seq, flow).expect("room for every journey").push(at, i, payload);
            for payload in [TracePayload::Admit { flow }, payload] {
                held.push(TraceEvent { at, node: i, seq, payload });
            }
        }
        prop_assert_eq!(parse_jsonl(&fr.to_jsonl()), Ok(held));
    }
}
