//! Cross-crate bookkeeping invariants on a mixed scenario: the metrics,
//! MAC counters and channel counters must tell one consistent story.

use ezflow::prelude::*;

#[test]
fn counters_are_mutually_consistent() {
    let secs = 150;
    let until = Time::from_secs(secs);
    let mut topo = scenario1();
    topo.flows[0].start = Time::from_secs(1);
    topo.flows[0].stop = until;
    topo.flows[1].start = Time::from_secs(1);
    topo.flows[1].stop = until;

    let mut net = Network::from_topology(&topo, 13, &|_| {
        Box::new(EzFlowController::with_defaults()) as Box<dyn Controller>
    });
    net.run_until(until);

    // 1. Per-flow delivered counts match the throughput series bit-counts.
    for f in [0u32, 1] {
        let delivered = net.metrics.delivered[&f];
        let bits = net.metrics.throughput[&f].total_bits();
        assert_eq!(bits as u64, delivered * 8_000, "flow {f}");
        assert_eq!(
            net.metrics.delay_net[&f].len() as u64,
            delivered,
            "one delay sample per delivery"
        );
    }

    // 2. Channel-level: clean deliveries to addressees dominate; every
    //    collision was at most a retry later.
    let ch = net.channel_stats();
    assert!(ch.tx_started > 0);
    assert!(ch.clean_deliveries > 0);

    // 3. MAC totals: per node, successes <= attempts; ack counts roughly
    //    pair up with the neighbours' successes.
    let mut total_success = 0;
    let mut total_attempts = 0;
    let mut total_acks = 0;
    for n in 0..net.node_count() {
        let s = net.mac_stats(n);
        assert!(s.tx_success <= s.tx_attempts, "node {n}");
        total_success += s.tx_success;
        total_attempts += s.tx_attempts;
        total_acks += s.acks_sent;
    }
    assert!(total_attempts >= total_success);
    // Every success consumed an ACK that some node sent.
    assert!(total_acks >= total_success);

    // 4. Deliveries at sinks are a subset of MAC-level upward deliveries.
    let mac_delivered: u64 = (0..net.node_count())
        .map(|n| net.mac_stats(n).delivered)
        .sum();
    let sunk: u64 = net.metrics.delivered.values().sum();
    assert!(mac_delivered >= sunk, "relays also deliver upward");

    // 5. Delay samples are causally sane: nonnegative, one per delivery.
    for f in [0u32, 1] {
        let d_net = net.metrics.delay_net[&f].points();
        assert_eq!(d_net.len() as u64, net.metrics.delivered[&f]);
        for (_, dn) in &d_net {
            assert!(*dn >= 0.0);
        }
    }

    // 6. Sampling covered the whole run.
    assert_eq!(net.metrics.buffer[0].len() as u64, secs);
}
