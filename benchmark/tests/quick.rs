//! `--quick` end to end: every workload, untraced and traced, through
//! the binary the driver runs, checked against the result-line contract.

use std::path::PathBuf;
use std::process::Command;

use ezflow_benchmark::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ezflow_benchmark::pipeline::{Pipeline, RUN_STEPS};
use ezflow_benchmark::workload::by_name;
use ezflow_sim::JsonValue;

fn out_dir(test: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(test)
}

/// Runs one quick pass and returns its last standard-output line, parsed.
fn quick_pass(workload: &str, trace: &str) -> JsonValue {
    let out = out_dir(&format!("quick-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_ezflow-benchmark"))
        .args(["--workload", workload, "--trace", trace, "--quick"])
        .args(["--seed", "5", "--seconds", "1"])
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "{workload} --trace {trace}: {}\n{stdout}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    if trace == "1" {
        let spans = std::fs::read_to_string(out.join(format!("{workload}.trace.jsonl")))
            .expect("the traced pass writes its span file");
        assert!(spans.lines().all(|l| JsonValue::parse(l).is_ok()));
        assert!(spans.contains("\"name\":\"serialise\""));
    }
    JsonValue::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON")
}

fn assert_result(result: &JsonValue, table: &[MetricDef], what: &str) {
    let JsonValue::Object(fields) = result else {
        panic!("{what}: result is not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{what}"
    );
    assert_eq!(
        result.get("correct").unwrap().as_bool(),
        Some(true),
        "{what}"
    );
    assert_eq!(result.get("failed").unwrap().as_u64(), Some(0), "{what}");
    assert!(
        result.get("attempted").unwrap().as_u64().unwrap() >= 1,
        "{what}"
    );
    let JsonValue::Object(metrics) = result.get("metrics").unwrap() else {
        panic!("{what}: metrics is not an object")
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = table.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "{what}");
    for (def, (_, m)) in table.iter().zip(metrics) {
        assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit), "{what}");
        assert!(
            m.get("value").unwrap().as_f64().unwrap().is_finite(),
            "{what}"
        );
    }
}

fn quick_both(workload: &str) {
    let untraced = quick_pass(workload, "0");
    assert_result(&untraced, &END_TO_END, workload);
    let value = |name: &str| {
        let m = untraced.get("metrics").unwrap().get(name).unwrap();
        m.get("value").unwrap().as_f64().unwrap()
    };
    for m in &END_TO_END {
        assert!(value(m.name) > 0.0, "{workload}/{} must never be 0", m.name);
    }
    assert!(value("setup_s") < value("spec_to_report_s"));
    assert_result(&quick_pass(workload, "1"), &PER_LAYER, workload);
}

#[test]
fn paper_chain_quick() {
    quick_both("paper_chain");
}

#[test]
fn mesh1k_steady_quick() {
    quick_both("mesh1k_steady");
}

#[test]
fn mesh6k_cold_quick() {
    quick_both("mesh6k_cold");
}

#[test]
fn observed_lossy_quick() {
    quick_both("observed_lossy");
}

#[test]
fn every_repetition_is_cut_into_the_same_segments() {
    let w = by_name("observed_lossy").unwrap();
    let mut p = Pipeline::new(w, 9, true, &out_dir("segments")).unwrap();
    let (a, b) = (
        p.run_rep(false, false).unwrap(),
        p.run_rep(true, false).unwrap(),
    );
    assert_eq!(a.rec.seg_names, b.rec.seg_names);
    // parse + compile, then per sweep point build, the run steps and the
    // three report phases.
    let points = a.points.len();
    assert_eq!(points, 4);
    assert_eq!(a.rec.segs.len(), 2 + points * (1 + RUN_STEPS as usize + 3));
    // The profiler must not change what is simulated.
    for (pa, pb) in a.points.iter().zip(&b.points) {
        assert_eq!(pa.digest, pb.digest, "{}", pa.label);
        assert!(pb.failures.is_empty(), "{:?}", pb.failures);
    }
    // Another seed is another input.
    let mut other = Pipeline::new(w, 10, true, &out_dir("segments-other")).unwrap();
    let c = other.run_rep(false, false).unwrap();
    assert_ne!(a.points[0].digest, c.points[0].digest);
}
