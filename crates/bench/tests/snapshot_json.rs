//! The `--json` export contract: snapshots collected by the experiment
//! harness round-trip through the file the CLI writes, carrying per-node
//! airtime fractions, per-layer counters and scheduler stats.

use ezflow_bench::experiments::Algo;
use ezflow_bench::report::{self, Report, Scale};
use ezflow_bench::Job;
use ezflow_net::{topo, RunSnapshot};
use ezflow_sim::{JsonValue, Time};

/// A short scenario-1-style run (merging chains would take minutes at
/// full scale, so we use its building block: a multi-hop chain under
/// both algorithms), snapshotted and pushed through the exact code path
/// `experiments --json=FILE` uses.
#[test]
fn json_export_round_trips_with_cross_layer_stats() {
    let mut rep = Report::new("snapshot_smoke", "JSON export contract");
    let until = Time::from_secs(30);
    for algo in [Algo::Plain, Algo::EzFlow] {
        let topo = topo::chain(3, Time::from_secs(1), until);
        let scale = Scale::quick();
        let spec = scale.spec(&topo, scale.seed);
        let mut net = Job::new("snapshot_smoke", spec, until, algo.factory()).run();
        rep.snapshots
            .push(net.snapshot(&format!("smoke/{}", algo.name())));
    }

    let path =
        std::env::temp_dir().join(format!("ezflow_snapshot_json_{}.json", std::process::id()));
    report::write_snapshots_json(std::slice::from_ref(&rep), &path).expect("write JSON file");
    let text = std::fs::read_to_string(&path).expect("read back");
    let _ = std::fs::remove_file(&path);

    let doc = JsonValue::parse(&text).expect("file parses as JSON");
    let snaps = doc
        .get("snapshots")
        .and_then(JsonValue::as_array)
        .expect("top-level snapshots array");
    assert_eq!(snaps.len(), 2, "one snapshot per algorithm");

    for (raw, want) in snaps.iter().zip(&rep.snapshots) {
        let snap = RunSnapshot::from_json(raw).expect("snapshot deserialises");
        assert_eq!(&snap, want, "file round-trips the in-memory snapshot");

        assert!(
            snap.scheduler.dispatched_total > 0,
            "events were dispatched"
        );
        assert!(snap.scheduler.depth_high_water > 0);
        let by_kind: u64 = snap
            .scheduler
            .dispatched_by_kind
            .iter()
            .map(|(_, n)| n)
            .sum();
        assert_eq!(by_kind, snap.scheduler.dispatched_total);

        assert_eq!(snap.nodes.len(), 4, "3-hop chain has 4 nodes");
        for node in &snap.nodes {
            let (tx, rx, busy, idle) = node.airtime.fractions();
            assert!(
                (tx + rx + busy + idle - 1.0).abs() < 1e-9,
                "airtime fractions sum to 1 at node {}",
                node.id
            );
            assert_eq!(node.airtime.total_us(), snap.at_us);
        }
        // The source moved traffic: every layer saw it.
        let src = &snap.nodes[0];
        assert!(src.mac.tx_attempts > 0);
        assert!(src.airtime.tx_us > 0);
        assert!(snap.channel.tx_started > 0);
    }

    // The EZ-flow run exercises the estimator/adaptation counters; the
    // plain-802.11 run must report them as zero.
    let plain = RunSnapshot::from_json(&snaps[0]).unwrap();
    let ez = RunSnapshot::from_json(&snaps[1]).unwrap();
    let sum = |s: &RunSnapshot| s.nodes.iter().map(|n| n.counters.boe_hits).sum::<u64>();
    assert_eq!(sum(&plain), 0, "FixedController has no BOE");
    assert!(sum(&ez) > 0, "EZ-flow relays produced BOE samples");
}
