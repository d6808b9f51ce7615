//! The spec-vs-constructor equivalence pins.
//!
//! The committed `scenarios/*.json` files claim to be the hand-built
//! `topo::` constructors re-expressed as data. These tests make that
//! claim exact, twice over:
//!
//! 1. the committed files are byte-identical to what `--emit-spec`
//!    regenerates (so the files can never drift from the emitter), and
//! 2. a network built from the *parsed file* leaves a perf-zeroed
//!    [`RunSnapshot`] byte-identical to one built from the constructor
//!    (so the whole parse → compile → build pipeline is provably exact,
//!    down to the f64 positions surviving the JSON round trip).

use std::path::PathBuf;

use ezflow_bench::experiments::{spec, Algo};
use ezflow_bench::report::Scale;
use ezflow_net::{topo, Network, NetworkSpec, PerfSnapshot, ScenarioSpec, Topology};
use ezflow_sim::Time;

fn scenario_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios")).join(name)
}

/// Perf-zeroed compact snapshot JSON: the deterministic run digest.
fn digest(topo: &Topology, algo: Algo, seed: u64, until: Time) -> String {
    let mut net = Network::new(NetworkSpec::from_topology(topo, seed), &*algo.factory());
    net.run_until(until);
    let mut snap = net.snapshot("pin");
    snap.perf = PerfSnapshot::zeroed();
    snap.to_json().to_compact()
}

fn assert_file_matches_emitter(file: &str, emit_name: &str) {
    let committed = std::fs::read_to_string(scenario_path(file))
        .unwrap_or_else(|e| panic!("{file} must be committed: {e}"));
    let mut emitted = spec::emit(emit_name).unwrap().to_json().to_pretty();
    emitted.push('\n');
    assert_eq!(
        committed, emitted,
        "{file} drifted from `experiments --emit-spec={emit_name}` — regenerate it"
    );
}

fn assert_spec_pins_constructor(file: &str, hand: &Topology, until: Time, algo: Algo) {
    let doc = spec::load(&scenario_path(file)).unwrap();
    let compiled = doc.compile().unwrap();
    assert_eq!(
        digest(&compiled.topology, algo, doc.seed, until),
        digest(hand, algo, doc.seed, until),
        "{file}: spec-built run diverged from the {} constructor",
        hand.name
    );
}

#[test]
fn scenario1_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("scenario1.json", "scenario1");
    assert_spec_pins_constructor(
        "scenario1.json",
        &topo::scenario1(),
        Time::from_secs(30),
        Algo::Plain,
    );
}

#[test]
fn scenario2_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("scenario2.json", "scenario2");
    assert_spec_pins_constructor(
        "scenario2.json",
        &topo::scenario2(),
        Time::from_secs(30),
        Algo::EzFlow,
    );
}

#[test]
fn grid4x4_spec_is_byte_identical_to_the_constructor() {
    assert_file_matches_emitter("grid4x4.json", "grid4x4");
    assert_spec_pins_constructor(
        "grid4x4.json",
        &topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60)),
        Time::from_secs(10),
        Algo::Plain,
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
    let point = &compiled.points[0];
    let mut ns = Scale::full().spec(&compiled.topology, point.seed);
    ns.queue_cap = point.queue_cap;
    let algo = Algo::from_name(&point.controller).unwrap();
    let mut net = Network::new(ns, &*algo.factory());
    net.run_until(Time::from_secs(3));
    let delivering: std::collections::BTreeSet<&str> = compiled
        .topology
        .flows
        .iter()
        .filter(|f| net.metrics.delivered.get(&f.id).is_some_and(|&n| n > 0))
        .map(kind_of)
        .collect();
    assert_eq!(delivering, kinds, "every transport kind delivered traffic");
    let snap = net.snapshot("mesh1k");
    assert_eq!(snap.nodes.len(), compiled.topology.positions.len());
    for (i, node) in snap.nodes.iter().enumerate() {
        assert_eq!(node.airtime.total_us(), snap.at_us, "node {i} airtime");
    }
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
