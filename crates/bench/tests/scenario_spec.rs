//! The committed scenario documents, end to end.
//!
//! `scenarios/*.json` are canonical: `topo::testbed`, `scenario1` and
//! `scenario2` load them, and nothing regenerates them. These tests hold
//! what that leaves to check from outside: every committed document
//! parses, compiles and runs; the generative `grid4x4.json` drives the
//! same run as the `topo::grid` call the golden's grid entry makes; `mesh1k.json`
//! is the mesh it advertises; and malformed documents fail with pointed
//! messages.

use std::path::PathBuf;

use ezflow_bench::experiments::{spec, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::{
    topo, CompiledScenario, Network, NetworkSpec, PerfSnapshot, ScenarioError, ScenarioSpec,
};
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
    assert!(found.len() >= 7, "scenarios/ went missing: {found:?}");
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
        "grid4x4.json no longer describes the golden's 4x4 grid"
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

#[test]
fn loss_entries_outside_the_layout_or_its_decode_links_are_field_errors() {
    // A 3-hop chain, 200 m spacing: 0-1 is a decode link, 0-2 (400 m)
    // is not, and node 4 does not exist.
    let with_loss = |loss: &str| {
        format!(
            r#"{{"name": "l", "duration_secs": 10,
                "topology": {{"kind": "chain", "hops": 3}},
                "loss": {{"kind": "custom", {loss}}}}}"#
        )
    };
    let ge = r#""p_g2b": 0.1, "p_b2g": 0.1, "p_bad": 0.5"#;
    let parse_errors = [
        (
            r#""burst": {"p_g2b": -3, "p_b2g": 0.1, "p_bad": 0.5}"#.to_string(),
            "loss.burst.p_g2b",
        ),
        (
            r#""burst": {"p_g2b": 0.1, "p_b2g": 7, "p_bad": 0.5}"#.to_string(),
            "loss.burst.p_b2g",
        ),
        (
            r#""burst": {"p_g2b": 0.1, "p_b2g": 0.1, "p_bad": 1e300}"#.to_string(),
            "loss.burst.p_bad",
        ),
        (
            r#""burst": {"p_g2b": 0.1, "p_b2g": 0.1, "p_good": -0.5, "p_bad": 0.5}"#.to_string(),
            "loss.burst.p_good",
        ),
        (
            r#""burst_links": [{"a": 0, "b": 1, "p_g2b": 2, "p_b2g": 0.1, "p_bad": 0.5}]"#
                .to_string(),
            "loss.burst_links[0].p_g2b",
        ),
        (
            r#""links": [{"a": 1, "b": 1, "per": 0.5}]"#.to_string(),
            "loss.links[0]",
        ),
        (
            format!(r#""burst_links": [{{"a": 2, "b": 2, {ge}}}]"#),
            "loss.burst_links[0]",
        ),
        (
            r#""churn": [{"a": 3, "b": 3, "up_secs": 1, "down_secs": 1}]"#.to_string(),
            "loss.churn[0]",
        ),
    ];
    for (loss, want) in parse_errors {
        match ScenarioSpec::parse(&with_loss(&loss)).unwrap_err() {
            ScenarioError::Field { path, .. } => assert_eq!(path, want, "{loss}"),
            other => panic!("expected a field error at {want}, got {other:?}"),
        }
    }
    let compile_errors = [
        (
            r#""links": [{"a": 999, "b": 4000, "per": 0.5}]"#.to_string(),
            "loss.links[0].a",
            "out of bounds",
        ),
        (
            r#""links": [{"a": 0, "b": 4, "per": 0.5}]"#.to_string(),
            "loss.links[0].b",
            "out of bounds",
        ),
        (
            r#""links": [{"a": 0, "b": 2, "per": 0.5}]"#.to_string(),
            "loss.links[0]",
            "400 m apart",
        ),
        (
            format!(
                r#""links": [{{"a": 0, "b": 1, "per": 0.5}}], "burst_links": [{{"a": 1, "b": 3, {ge}}}]"#
            ),
            "loss.burst_links[0]",
            "decode range",
        ),
        (
            r#""churn": [{"a": 3, "b": 0, "up_secs": 1, "down_secs": 1}]"#.to_string(),
            "loss.churn[0]",
            "600 m apart",
        ),
    ];
    for (loss, want, says) in compile_errors {
        let spec = ScenarioSpec::parse(&with_loss(&loss)).expect("parses");
        match spec.compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, want, "{loss}");
                assert!(message.contains(says), "{message}");
            }
            other => panic!("expected a field error at {want}, got {other:?}"),
        }
    }
    // The bounds are inclusive, and a decode link of every kind compiles.
    let fine = format!(
        r#""default_per": 1, "links": [{{"a": 0, "b": 1, "per": 0}}],
           "burst": {{"p_g2b": 0, "p_b2g": 1, "p_good": 1, "p_bad": 0}},
           "burst_links": [{{"a": 2, "b": 1, {ge}}}],
           "churn": [{{"a": 3, "b": 2, "up_secs": 1, "down_secs": 1}}]"#
    );
    ScenarioSpec::parse(&with_loss(&fine))
        .unwrap()
        .compile()
        .unwrap();
}
