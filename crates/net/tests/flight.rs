//! Integration tests for the packet flight recorder: full-journey
//! reconstruction on the paper's scenario 1, drop attribution, the
//! first-`cap`-packets contract, latency histograms, and the recorder's
//! zero-interference guarantee.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ezflow_net::controller::{BoeReading, Controller, ControllerEvent, FixedController, Reaction};
use std::collections::BTreeMap;

use ezflow_net::flight::{group_journeys, summarize_journey};
use ezflow_net::lifecycle::{parse_jsonl, BoeVerdict, DropCause, TraceEvent, TracePayload};
use ezflow_net::network::{Network, NetworkSpec};
use ezflow_net::snapshot::PerfSnapshot;
use ezflow_net::topo;
use ezflow_sim::Time;

fn std_controller(_id: usize) -> Box<dyn Controller> {
    Box::new(FixedController::standard())
}

/// Scenario 1 with the recorder on, run for `secs` seconds (flow F1
/// starts at 5 s; F2 only at 605 s, far past these runs).
fn run_scenario1(secs: u64, flight_cap: usize) -> Network {
    let t = topo::scenario1();
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.flight_cap = flight_cap;
    let mut net = Network::new(spec, &std_controller);
    net.run_until(Time::from_secs(secs));
    net
}

/// `net`'s lifecycle export, parsed and grouped into journeys — the same
/// path the `trace` CLI takes.
fn journeys(net: &mut Network) -> BTreeMap<u64, Vec<TraceEvent>> {
    let events = parse_jsonl(&net.flight.to_jsonl()).expect("export parses");
    group_journeys(&events)
}

#[test]
fn delivered_packet_journey_reconstructs_the_full_hop_sequence() {
    let mut net = run_scenario1(30, 4096);
    assert!(net.metrics.delivered[&0] > 0, "F1 must deliver");

    let journeys = journeys(&mut net);
    let delivered: Vec<_> = journeys
        .iter()
        .map(|(&seq, evs)| summarize_journey(seq, evs))
        .filter(|s| s.delivered.is_some())
        .collect();
    assert!(!delivered.is_empty(), "some tracked packet was delivered");

    // F1's path is N12→N10→N8→N6→N4→N3→N2→N1→N0: enqueued at the source
    // and each of the 7 relays, delivered at the gateway.
    let f1_path = [12usize, 10, 8, 6, 4, 3, 2, 1];
    let complete = delivered
        .iter()
        .find(|s| s.hops == f1_path)
        .unwrap_or_else(|| {
            panic!(
                "no journey covered the full F1 path; first: {:?}",
                delivered[0]
            )
        });
    assert_eq!(complete.flow, Some(0));
    assert_eq!(complete.delivered.unwrap().1, 0, "sink is the gateway N0");
    assert!(
        complete.attempts >= f1_path.len() as u64,
        "at least one DCF attempt per hop, got {}",
        complete.attempts
    );
    assert!(complete.latency_us().unwrap() > 0);

    // The raw journey interleaves the lifecycle correctly: it starts with
    // Admit and every hop shows Enqueue before Dequeue.
    let raw = &journeys[&complete.seq];
    assert!(matches!(raw[0].payload, TracePayload::Admit { .. }));
    let first = |hit: fn(&TracePayload) -> bool| raw.iter().position(|e| hit(&e.payload)).unwrap();
    let first_deq = first(|p| matches!(p, TracePayload::Dequeue { .. }));
    let first_enq = first(|p| matches!(p, TracePayload::Enqueue { .. }));
    assert!(first_enq < first_deq, "enqueue precedes dequeue");
    assert!(matches!(
        raw.last().unwrap().payload,
        TracePayload::Deliver { .. }
    ));
    // On a clean channel, every recorded decode outcome for this packet's
    // data transmissions is accounted for (clean/capture/collision/loss).
    assert!(
        raw.iter()
            .any(|e| matches!(e.payload, TracePayload::RxOutcome { .. })),
        "decode outcomes recorded"
    );
}

#[test]
fn dropped_packet_journey_terminates_in_the_correct_drop_cause() {
    let mut net = run_scenario1(35, 8192);
    let total_source: u64 = net.metrics.source_drops.values().sum();
    assert!(total_source > 0, "a saturating CBR source must overflow");

    let journeys = journeys(&mut net);

    let mut saw_source_full = false;
    let mut saw_relay_drop = false;
    for (&seq, evs) in &journeys {
        let s = summarize_journey(seq, evs);
        let Some((_, node, cause)) = s.dropped else {
            continue;
        };
        // A dropped journey has no delivery, and the drop is its last word.
        assert!(
            s.delivered.is_none(),
            "seq {seq} both dropped and delivered"
        );
        assert!(matches!(
            evs.last().unwrap().payload,
            TracePayload::Drop { .. }
        ));
        match cause {
            DropCause::SourceQueueFull => {
                assert_eq!(node, 12, "F1 source drops happen at N12");
                assert_eq!(s.hops, vec![12], "never left the source");
                saw_source_full = true;
            }
            DropCause::QueueFull | DropCause::RetryLimit => {
                saw_relay_drop = true;
            }
            other => panic!("unexpected cause {other:?} in scenario 1"),
        }
    }
    assert!(saw_source_full, "source-queue-full journeys recorded");
    assert!(
        saw_relay_drop,
        "the saturated 8-hop chain must shed packets past the source"
    );
}

#[test]
fn every_drop_counter_is_matched_by_trace_events() {
    // Each drop path ends the packet's journey with a typed `Drop`
    // record, so the recorder's census re-derives the counters exactly.
    // The recorder must have tracked every packet, or the census is partial.
    let mut net = run_scenario1(25, 1 << 16);
    let stats = net.flight.stats();
    assert_eq!(
        stats.skipped, 0,
        "the recorder reached its cap ({stats:?}); raise it for an exact census"
    );

    let mut by_cause = std::collections::BTreeMap::new();
    for ev in parse_jsonl(&net.flight.to_jsonl()).expect("export parses") {
        if let TracePayload::Drop { cause } = ev.payload {
            *by_cause.entry(cause.name()).or_insert(0u64) += 1;
        }
    }
    let count = |name: &str| by_cause.get(name).copied().unwrap_or(0);

    let source: u64 = net.metrics.source_drops.values().sum();
    let queue: u64 = net.metrics.queue_drops.iter().sum();
    let retry: u64 = net.metrics.retry_drops.iter().sum();
    // DCF freeze/restart churn strands no timer: an entry the MAC stopped
    // owing is rescheduled in place or parked before it can fire, so no
    // MAC ever sees a stale timer.
    let stale: u64 = (0..net.node_count())
        .map(|n| net.mac_stats(n).stale_timers)
        .sum();
    assert!(
        net.sched_rescheduled() > 0,
        "DCF churn must move timers in place"
    );
    assert_eq!(stale, 0, "eager parking must keep stale timers from firing");
    assert!(
        source > 0 && queue > 0,
        "saturation produces both drop kinds"
    );
    assert_eq!(count("source_queue_full"), source);
    // Unroutable frames also land in `queue_drops` (none exist here, but
    // the identity is over the sum of both attributed causes).
    assert_eq!(count("queue_full") + count("unroutable"), queue);
    assert_eq!(count("retry_limit"), retry);
}

#[test]
fn latency_histograms_populate_and_round_trip() {
    let mut net = run_scenario1(30, 0);
    let snap = net.snapshot("scenario1/hist");

    // Per-flow: every delivered F1 packet landed in the histogram.
    let (flow, h) = &snap.latency.per_flow[0];
    assert_eq!(*flow, 0);
    assert_eq!(h.total(), net.metrics.delivered[&0]);
    let [p50, p95, p99, p999] = h.percentiles();
    assert!(p50 > 0 && p50 <= p95 && p95 <= p99 && p99 <= p999);

    // Per-hop: every node on F1's path transmitted successfully; nodes
    // off the path (N5..N11 odd branch) recorded nothing.
    for &n in &[12usize, 10, 8, 6, 4, 3, 2, 1] {
        assert!(snap.latency.per_hop[n].total() > 0, "node {n} quiet");
        assert!(snap.latency.per_hop[n].percentiles()[2] > 0, "node {n} p99");
    }
    assert_eq!(snap.latency.per_hop[11].total(), 0, "F2 not started yet");

    // The whole latency section survives the JSON round trip.
    let text = snap.to_json().to_pretty();
    let parsed = ezflow_sim::JsonValue::parse(&text).unwrap();
    let back = ezflow_net::snapshot::RunSnapshot::from_json(&parsed).unwrap();
    assert_eq!(back.latency, snap.latency);
    assert_eq!(back, snap);
}

#[test]
fn recorder_on_and_off_produce_identical_simulations() {
    // The tentpole's zero-interference guarantee: recording must never
    // consult the RNG or perturb scheduling, so the simulation content is
    // bit-identical with the recorder on or off. (The hotpath golden gate
    // enforces the recorder-off half against the committed snapshot.)
    let snap_text = |flight_cap: usize| {
        let mut net = run_scenario1(20, flight_cap);
        let mut snap = net.snapshot("interference");
        snap.perf = PerfSnapshot::zeroed();
        snap.to_json().to_pretty()
    };
    assert_eq!(snap_text(0), snap_text(4096));
}

#[test]
fn flight_stats_account_for_every_admitted_packet() {
    // A cap above the run's packets counts every packet emitted: each one
    // is admitted, and each admission opens a journey.
    let mut full = run_scenario1(25, 1 << 16);
    let emitted = full.flight.stats().tracked;
    assert_eq!(full.flight.stats().skipped, 0, "the cap held every packet");
    assert_eq!(journeys(&mut full).len() as u64, emitted);
    assert!(emitted > 512, "the run outgrows the smaller cap");

    let st = run_scenario1(25, 512).flight.stats();
    assert_eq!(st.tracked, 512, "the cap is reached");
    assert_eq!(st.tracked + st.skipped, emitted);
}

#[test]
fn a_capped_capture_holds_the_first_packets_journeys_of_a_fuller_one() {
    let cap = 300;
    let mut small = run_scenario1(25, cap);
    let mut large = run_scenario1(25, 4 * cap);
    let lines = small.flight.to_jsonl();
    let events = parse_jsonl(&lines).expect("export parses");
    // Written as they happen: time never runs backwards down the file.
    assert!(events.windows(2).all(|w| w[0].at <= w[1].at));
    let small = group_journeys(&events);
    let large = journeys(&mut large);
    assert!(
        small.keys().copied().eq(0..cap as u64),
        "the capture is packets 0..{cap}"
    );
    for (seq, journey) in &small {
        assert_eq!(journey, &large[seq], "packet {seq}'s journey");
        // Sealed: nothing follows a delivery or a drop.
        let end = journey.iter().position(|e| {
            matches!(
                e.payload,
                TracePayload::Deliver { .. } | TracePayload::Drop { .. }
            )
        });
        assert!(end.is_none_or(|i| i == journey.len() - 1), "packet {seq}");
    }
}

/// Reports one ambiguous BOE reading — the first forward it overhears
/// from node 1 — and nothing else; records the packet it read.
struct OneAmbiguous {
    read: Arc<AtomicU64>,
}

impl Controller for OneAmbiguous {
    fn on_event(&mut self, _now: Time, event: ControllerEvent<'_>) -> Reaction {
        match event {
            ControllerEvent::Overheard { frame }
                if frame.src == 1 && self.read.load(Ordering::Relaxed) == u64::MAX =>
            {
                self.read.store(frame.seq, Ordering::Relaxed);
                let boe = BoeReading {
                    successor: 1,
                    verdict: BoeVerdict::Ambiguous,
                    estimate: Some(7),
                };
                Reaction {
                    boe: Some(boe),
                    ..Reaction::default()
                }
            }
            _ => Reaction::default(),
        }
    }

    fn name(&self) -> &'static str {
        "one-ambiguous"
    }
}

#[test]
fn an_ambiguous_reading_reaches_the_journey_and_the_audit_as_reported() {
    // The engine writes the verdict the controller reports: an ambiguous
    // match is not recorded as a hit.
    let t = topo::chain(3, Time::ZERO, Time::from_secs(2));
    let mut spec = NetworkSpec::from_topology(&t, 42);
    spec.flight_cap = 4096;
    spec.audit_cap = NetworkSpec::AUDIT_CAP;
    let read = Arc::new(AtomicU64::new(u64::MAX));
    let make = |id: usize| -> Box<dyn Controller> {
        match id {
            0 => Box::new(OneAmbiguous { read: read.clone() }),
            _ => Box::new(FixedController::standard()),
        }
    };
    let mut net = Network::new(spec, &make);
    net.run_until(Time::from_secs(2));
    let seq = read.load(Ordering::Relaxed);
    assert_ne!(seq, u64::MAX, "node 0 overheard node 1 forward");

    let export = net.flight.to_jsonl();
    let events = parse_jsonl(&export).expect("export parses");
    let journey = &group_journeys(&events)[&seq];
    let verdicts: Vec<_> = journey
        .iter()
        .filter_map(|e| match e.payload {
            TracePayload::BoeOverhear { verdict } => Some((e.node, verdict)),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts, [(0, BoeVerdict::Ambiguous)]);
    let lines: Vec<&str> = export
        .lines()
        .filter(|l| l.contains("boe_overhear"))
        .collect();
    assert_eq!(lines.len(), 1, "one reading in the whole run");
    assert!(
        lines[0].contains(r#""verdict":"ambiguous""#),
        "{}",
        lines[0]
    );

    let audit = net.audit.controller_snapshot().expect("the audit is armed");
    assert_eq!(
        (audit.records, audit.decisions_total),
        (1, 0),
        "exactly one audit record, a sample"
    );
    let links: Vec<_> = audit
        .links
        .iter()
        .map(|l| (l.node, l.successor, l.samples))
        .collect();
    assert_eq!(links, [(0, 1, 1)]);
}
