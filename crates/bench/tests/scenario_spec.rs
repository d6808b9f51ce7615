//! The committed scenario documents, end to end.
//!
//! `scenarios/*.json` are canonical: `topo::scenario1` / `scenario2` load
//! them, and nothing regenerates them. These tests hold what that leaves
//! to check from outside: every committed document parses, compiles and
//! runs; the generative `grid4x4.json` drives the same run as the
//! `topo::grid` call `hotpath_bench` makes; `mesh1k.json` is the mesh it
//! advertises; and malformed documents fail with pointed messages.

use std::path::PathBuf;

use ezflow_bench::experiments::{spec, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::{topo, CompiledScenario, Network, NetworkSpec, PerfSnapshot, ScenarioSpec};
use ezflow_sim::Time;

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios")).join(name)
}

/// Builds the first sweep point of `compiled` the way the spec harness
/// does and runs it to `until`.
fn run_first_point(compiled: &CompiledScenario, until: Time) -> Network {
    let point = &compiled.points[0];
    let mut ns = Scale::full().spec(&compiled.topology, point.seed);
    ns.queue_cap = point.queue_cap;
    let algo = Algo::from_name(&point.controller).expect("a controller this harness has");
    let mut net = Network::new(ns, &*algo.factory());
    net.run_until(until);
    net
}

/// Every node's airtime buckets partition the elapsed time exactly.
fn assert_airtime_partitions_elapsed(net: &mut Network, nodes: usize, what: &str) {
    let snap = net.snapshot(what);
    assert_eq!(snap.nodes.len(), nodes, "{what}");
    for (i, node) in snap.nodes.iter().enumerate() {
        assert_eq!(node.airtime.total_us(), snap.at_us, "{what}: node {i}");
    }
}

#[test]
fn every_committed_spec_parses_compiles_and_runs() {
    // The same listing `experiments --list` prints, which shows an
    // unparsable file as a line of text; here it is a failure.
    let found = spec::discover(&scenario_path(""));
    assert!(found.len() >= 5, "scenarios/ went missing: {found:?}");
    for (path, _) in found {
        let what = path.display().to_string();
        let doc = spec::load(&path).unwrap_or_else(|e| panic!("{e}"));
        let compiled = doc.compile().unwrap_or_else(|e| panic!("{what}: {e}"));
        let mut net = run_first_point(&compiled, Time::from_secs(1));
        assert_airtime_partitions_elapsed(&mut net, compiled.topology.positions.len(), &what);
        let stale: u64 = (0..net.node_count())
            .map(|n| net.mac_stats(n).stale_epochs)
            .sum();
        assert_eq!(stale, 0, "{what}: a stale timer reached a MAC");
    }
}

#[test]
fn grid4x4_spec_is_byte_identical_to_the_constructor() {
    let doc = spec::load(&scenario_path("grid4x4.json")).unwrap();
    let compiled = doc.compile().unwrap();
    let hand = topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60));
    // Perf-zeroed compact snapshot JSON: the deterministic run digest.
    let digest = |topo: &ezflow_net::Topology| {
        let spec = NetworkSpec::from_topology(topo, doc.seed);
        let mut net = Network::new(spec, &*Algo::Plain.factory());
        net.run_until(Time::from_secs(10));
        let mut snap = net.snapshot("pin");
        snap.perf = PerfSnapshot::zeroed();
        snap.to_json().to_compact()
    };
    assert_eq!(
        digest(&compiled.topology),
        digest(&hand),
        "grid4x4.json no longer describes hotpath_bench's 4x4 grid"
    );
}

#[test]
fn mesh1k_spec_compiles_to_the_advertised_mesh() {
    let doc = spec::load(&scenario_path("mesh1k.json")).unwrap();
    let compiled = doc.compile().unwrap();
    assert!(compiled.topology.positions.len() >= 1000, "1,000+ nodes");
    let gateways: std::collections::BTreeSet<usize> = compiled
        .topology
        .flows
        .iter()
        .map(|f| *f.path.last().unwrap())
        .collect();
    assert!(gateways.len() >= 4, "traffic must drain to >= 4 gateways");
    let kind_of = |f: &ezflow_net::FlowSpec| match f.transport {
        ezflow_net::Transport::Cbr => "cbr",
        ezflow_net::Transport::Windowed { .. } => "windowed",
        ezflow_net::Transport::OnOff { .. } => "onoff",
    };
    let kinds: std::collections::BTreeSet<&str> =
        compiled.topology.flows.iter().map(kind_of).collect();
    assert_eq!(kinds.len(), 3, "mixed CBR / windowed / on-off traffic");
    // Compiling twice yields the identical mesh: placement and source
    // selection are pure functions of the topology seed.
    let again = doc.compile().unwrap();
    assert_eq!(compiled.topology.positions, again.topology.positions);
    assert_eq!(compiled.topology.flows, again.topology.flows);

    // The compiled mesh also runs: a slice past the 1 s flow start
    // delivers on every transport kind, and every node's airtime buckets
    // partition the elapsed time exactly.
    let mut net = run_first_point(&compiled, Time::from_secs(3));
    let delivering: std::collections::BTreeSet<&str> = compiled
        .topology
        .flows
        .iter()
        .filter(|f| net.metrics.delivered.get(&f.id).is_some_and(|&n| n > 0))
        .map(kind_of)
        .collect();
    assert_eq!(delivering, kinds, "every transport kind delivered traffic");
    assert_airtime_partitions_elapsed(&mut net, compiled.topology.positions.len(), "mesh1k");
}

#[test]
fn malformed_specs_fail_with_pointed_messages() {
    // Syntax: the error names the line and column.
    let err = ScenarioSpec::parse("{\n  \"name\": \"x\",\n  \"duration_secs\": oops\n}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("line 3"), "{err}");
    // Schema: the error names the offending field path.
    let err =
        ScenarioSpec::parse(r#"{"name": "x", "duration_secs": 1, "topology": {"kind": "donut"}}"#)
            .unwrap_err()
            .to_string();
    assert!(
        err.contains("topology.kind") && err.contains("donut"),
        "{err}"
    );
}
