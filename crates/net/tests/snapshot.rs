//! The snapshot document of a 100-node mesh slice: every key the codec
//! names is borrowed program text, and the document survives text and
//! `RunSnapshot` round trips, parsed (owned) keys comparing equal to
//! built (borrowed) ones.

use ezflow_net::{FixedController, Network, NetworkSpec, RunSnapshot, ScenarioSpec};
use ezflow_sim::json::Key;
use ezflow_sim::{Duration, JsonValue};

/// Every object key of `v`, depth first, with the key of the object it
/// sits in.
fn keys<'a>(v: &'a JsonValue, parent: &'a str, out: &mut Vec<(&'a str, &'a Key)>) {
    match v {
        JsonValue::Object(fields) => {
            for (k, child) in fields {
                out.push((parent, k));
                keys(child, k, out);
            }
        }
        JsonValue::Array(items) => items.iter().for_each(|item| keys(item, parent, out)),
        _ => {}
    }
}

#[test]
fn a_mesh_snapshot_borrows_its_keys_and_round_trips() {
    let text = r#"{"name": "mesh100", "duration_secs": 1, "seed": 5,
                   "topology": {"kind": "random_geometric", "nodes": 100,
                                "width": 1250, "height": 1250, "gateways": 3, "seed": 7},
                   "traffic": {"flows": 12, "rate_bps": 400000,
                               "start_secs": 0, "stop_secs": 1,
                               "mix": [{"transport": {"kind": "cbr"}}]}}"#;
    let compiled = ScenarioSpec::parse(text).unwrap().compile().unwrap();
    let mut spec = NetworkSpec::from_topology(&compiled.topology, 5);
    // Telemetry and the profiler add the optional sections and keys.
    spec.telemetry_every = Some(Duration::from_millis(100));
    spec.profile = true;
    let mut net = Network::new(spec, &|_| Box::new(FixedController::standard()));
    net.run_until(compiled.until);
    let doc = net.snapshot_json("mesh100");

    let mut all = Vec::new();
    keys(&doc, "", &mut all);
    assert!(all.len() > 100 * 50, "{} keys", all.len());
    for section in ["stability", "handler_ns_by_kind"] {
        assert!(all.iter().any(|(_, k)| *k == section), "no {section}");
    }
    // The event kinds are the one object whose keys a run computes.
    for (parent, key) in &all {
        assert_eq!(
            key.is_borrowed(),
            *parent != "dispatched_by_kind",
            "{parent}.{key}"
        );
    }

    let parsed = JsonValue::parse(&doc.to_pretty()).unwrap();
    assert_eq!(parsed, doc);
    let snap = RunSnapshot::from_json(&doc).unwrap();
    assert_eq!(snap.nodes.len(), 100);
    assert_eq!(snap.to_json(), doc);
    assert_eq!(RunSnapshot::from_json(&parsed).unwrap(), snap);
}
