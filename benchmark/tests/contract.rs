//! `BENCHMARK.json` at the repository root must say what the harness
//! does: same workloads, same metrics, same units, directions and bounds.

use ezflow_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ezflow_benchmark::workload::WORKLOADS;
use ezflow_sim::JsonValue;

fn contract() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    JsonValue::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn keys(v: &JsonValue) -> Vec<&str> {
    match v {
        JsonValue::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {}", v.to_compact()),
    }
}

fn text<'a>(v: &'a JsonValue, key: &str) -> &'a str {
    v.get(key).and_then(JsonValue::as_str).expect(key)
}

fn assert_metrics(listed: &[JsonValue], table: &[MetricDef], with_bound: bool) {
    assert_eq!(listed.len(), table.len());
    for (entry, def) in listed.iter().zip(table) {
        let want: &[&str] = if with_bound {
            &["name", "unit", "better", "bound"]
        } else {
            &["name", "unit", "better"]
        };
        assert_eq!(keys(entry), want, "{}", def.name);
        assert_eq!(text(entry, "name"), def.name);
        assert_eq!(text(entry, "unit"), def.unit, "{}", def.name);
        assert_eq!(text(entry, "better"), def.better.name(), "{}", def.name);
        assert_eq!(
            entry.get("bound").and_then(JsonValue::as_f64),
            def.bound,
            "{}",
            def.name
        );
    }
}

#[test]
fn contract_has_exactly_the_expected_keys() {
    assert_eq!(
        keys(&contract()),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn contract_lists_the_harness_workloads_and_metrics() {
    let doc = contract();
    let workloads = doc.get("workloads").and_then(JsonValue::as_array).unwrap();
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (entry, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(entry), ["name", "why"]);
        assert_eq!(text(entry, "name"), w.name);
        assert_eq!(text(entry, "why"), w.why);
    }
    let list = |key: &str| doc.get(key).and_then(JsonValue::as_array).unwrap().to_vec();
    assert_metrics(&list("end_to_end"), &END_TO_END, true);
    assert_metrics(&list("per_layer"), &PER_LAYER, false);
}

#[test]
fn command_stays_inside_the_benchmark_directory() {
    let doc = contract();
    let paths = doc.get("paths").and_then(JsonValue::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let command = doc.get("command").and_then(JsonValue::as_array).unwrap();
    assert!(command.len() <= 32);
    for arg in command {
        let arg = arg.as_str().expect("command entries are strings");
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
        if arg.contains('/') {
            assert!(arg.starts_with("benchmark/"), "{arg} is outside paths");
        }
    }
    let secs = doc.get("run_seconds").and_then(JsonValue::as_u64).unwrap();
    assert!((1..=60).contains(&secs));
}
