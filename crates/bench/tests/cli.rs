//! The `experiments` binary's flag and spec errors, driven through the
//! built binary: whatever the user typed or pointed `--spec` at, the
//! process ends with a one-line message and exit 2 — never a panic
//! (SIGABRT under the release profile's `panic = "abort"`), never a run
//! that cannot end — and its observer exports: which files a run leaves
//! under `--trace-dir` / `--telemetry-dir` / `--audit-dir`, named how.
//! The `trace` inspector is held to the same rule for streams it cannot
//! read (exit 1, naming the file). Every child runs under `budget`'s wall
//! budget.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::time::Duration;

use ezflow_sim::JsonValue;

#[path = "support/budget.rs"]
mod budget;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");
const TRACE: &str = env!("CARGO_BIN_EXE_trace");

fn assert_rejected(args: &[&str], complaint: &str) {
    budget::assert_rejected(EXPERIMENTS, args, complaint);
}

/// Wall budget of an export test's child: a sliver of a paper experiment
/// with every observer armed, ~1.5 s unoptimised on an idle machine.
const SIMULATING: Duration = Duration::from_secs(30);

/// A scratch directory of this process's own, empty.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ezflow-{test}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `experiments --quick --time=0.02 <args>` with the three observers
/// exporting to `root/{tr,tel,aud}`.
fn observed(root: &Path, args: &[&str]) -> Output {
    let dirs = [
        format!("--trace-dir={}", root.join("tr").display()),
        format!("--telemetry-dir={}", root.join("tel").display()),
        format!("--audit-dir={}", root.join("aud").display()),
    ];
    let mut all = vec!["--quick", "--time=0.02"];
    all.extend(dirs.iter().map(String::as_str));
    all.extend(args);
    let out = budget::run_within(SIMULATING, EXPERIMENTS, &all);
    // A 2 % timeline may fail an experiment's qualitative checks (1).
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.code() <= Some(1), "{args:?}: {stderr}");
    out
}

/// The file names under `dir`, sorted.
fn names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Asserts that `root` holds exactly one lifecycle, one telemetry stream
/// and one audit stream per stem, each line of each a JSON value, and
/// none empty but the audit of a run whose controller decides nothing.
fn assert_exports(root: &Path, stems: &[&str]) {
    for (dir, suffix) in [("tr", ".jsonl"), ("tel", ".jsonl"), ("aud", ".audit.jsonl")] {
        let mut want: Vec<String> = stems.iter().map(|s| format!("{s}{suffix}")).collect();
        want.sort();
        assert_eq!(names(&root.join(dir)), want, "{dir}");
        for name in want {
            let text = std::fs::read_to_string(root.join(dir).join(&name)).unwrap();
            assert!(
                !text.is_empty() || (dir == "aud" && name.contains("80211")),
                "{dir}/{name} is empty"
            );
            for line in text.lines() {
                JsonValue::parse(line).unwrap_or_else(|e| panic!("{dir}/{name}: {e}: {line}"));
            }
        }
    }
}

#[test]
fn every_run_of_a_named_experiment_exports_all_three_observers() {
    // table2 builds its six networks as runner jobs.
    let root = scratch("table2");
    observed(&root, &["--jobs=2", "table2"]);
    assert_exports(
        &root,
        &[
            "table2_F1alone_80211",
            "table2_F1alone_EZ-flow2^10cap",
            "table2_F2alone_80211",
            "table2_F2alone_EZ-flow2^10cap",
            "table2_F1+F2_80211",
            "table2_F1+F2_EZ-flow2^10cap",
        ],
    );
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn a_spec_run_names_its_lifecycle_like_its_streams() {
    // grid4x4.json's scenario is named `grid`: labels `grid/<controller>`.
    let root = scratch("grid4x4");
    let spec = concat!(
        "--spec=",
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/grid4x4.json"
    );
    observed(&root, &["--jobs=2", spec]);
    assert_exports(&root, &["grid_80211", "grid_EZ-flow"]);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scenario1_reports_and_exports_the_same_bytes_for_any_jobs_value() {
    let (serial, parallel) = (scratch("scenario1-j1"), scratch("scenario1-j2"));
    let one = observed(&serial, &["--jobs=1", "scenario1"]);
    let two = observed(&parallel, &["--jobs=2", "scenario1"]);
    assert!(!one.stdout.is_empty() && one.stdout == two.stdout);
    assert_exports(&serial, &["scenario1_80211", "scenario1_EZ-flow"]);
    for dir in ["tr", "tel", "aud"] {
        assert_eq!(names(&serial.join(dir)), names(&parallel.join(dir)));
        for name in names(&serial.join(dir)) {
            let read = |root: &Path| std::fs::read(root.join(dir).join(&name)).unwrap();
            assert!(read(&serial) == read(&parallel), "{dir}/{name} differs");
        }
    }
    std::fs::remove_dir_all(&serial).ok();
    std::fs::remove_dir_all(&parallel).ok();
}

#[test]
fn one_directory_for_trace_and_telemetry_exits_2_naming_both_flags() {
    // Both write `<stem>.jsonl`: the lifecycle would replace the stream.
    let dir = scratch("shared");
    let (trace, telemetry, audit) = (
        format!("--trace-dir={}", dir.display()),
        format!("--telemetry-dir={}", dir.display()),
        format!("--audit-dir={}", dir.display()),
    );
    assert_rejected(&[&trace, &telemetry, "scenario1"], "--trace-dir");
    assert_rejected(&[&trace, &telemetry, "scenario1"], "--telemetry-dir");
    assert!(!dir.exists(), "nothing ran");
    // The audit stream's suffix differs, so it may share.
    let out = budget::run(EXPERIMENTS, &["--quick", &trace, &audit, "table4"]);
    assert_eq!(out.status.code(), Some(0));
}

#[test]
fn an_export_that_cannot_be_written_exits_1_naming_it_after_the_reports() {
    // A directory under a regular file can never be created. fig1 passes
    // its checks at this scale, so the 1 is the export's.
    let file = scratch("not-a-dir");
    std::fs::write(&file, "").unwrap();
    let under = file.join("sub");
    for flag in ["--trace-dir", "--telemetry-dir", "--audit-dir"] {
        let out = budget::run_within(
            SIMULATING,
            EXPERIMENTS,
            &[
                "--quick",
                "--time=0.02",
                &format!("{flag}={}", under.display()),
                "fig1",
            ],
        );
        let (stdout, stderr) = (
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&under.display().to_string()),
            "{flag}: {stderr}"
        );
        assert!(
            stdout.contains("all qualitative checks PASSED"),
            "{flag}: {stdout}"
        );
    }
    std::fs::remove_file(&file).ok();
}

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    for (flag, value) in [
        ("--seed", "abc"),
        ("--time", "x"),
        ("--jobs", "x"),
        ("--flight-cap", "x"),
        ("--telemetry-ms", "x"),
        ("--telemetry-ms", "0"),
    ] {
        // `fig1` would take seconds to simulate; the bad flag must end
        // the process before any experiment starts.
        assert_rejected(&[&format!("{flag}={value}"), "fig1"], flag);
    }
}

#[test]
fn a_time_factor_that_scales_a_spec_out_of_bounds_exits_2_naming_time() {
    // 2504 s × 1e300 saturates the microsecond clock: the run would spin
    // on a simulated horizon it never reaches.
    let spec = concat!(
        "--spec=",
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/scenario1.json"
    );
    for time in ["--time=1e300", "--time=inf", "--time=NaN", "--time=-1"] {
        assert_rejected(&[time, spec], "--time");
    }
}

#[test]
fn a_time_factor_no_named_experiment_can_run_at_exits_2_naming_time() {
    // `Scale::secs` saturates: 1e300 used to ask fig1 for u64::MAX
    // simulated seconds (a hang), and NaN ran silently at the 30 s floor.
    for time in ["--time=1e300", "--time=nan"] {
        assert_rejected(&[time, "fig1"], "--time");
    }
}

#[test]
fn every_argument_is_validated_before_the_first_experiment_runs() {
    // Reports are printed after the last run, so an empty stdout proves
    // nothing here; a telemetry stream is written while a run is in
    // flight, so its absence does. A 1 % scenario 1 takes ~0.1 s.
    let dir = std::env::temp_dir().join(format!("ezflow-cli-{}", std::process::id()));
    let telemetry = format!("--telemetry-dir={}", dir.display());
    // Specs that parse but cannot run: one does not compile, one names a
    // controller the harness lacks. Both were once refused only after
    // scenario1 had run.
    let specs = scratch("late-specs");
    std::fs::create_dir_all(&specs).expect("a scratch directory");
    let chain = r#""name": "x", "duration_secs": 1, "topology": {"kind": "chain""#;
    let mut late = Vec::new();
    for (name, document) in [
        ("no-hops", format!(r#"{{{chain}, "hops": 0}}}}"#)),
        (
            "tcp-reno",
            format!(r#"{{{chain}, "hops": 2}}, "sweep": {{"controllers": ["tcp-reno"]}}}}"#),
        ),
    ] {
        let file = specs.join(format!("{name}.json"));
        std::fs::write(&file, document).expect("the document is written");
        late.push(format!("--spec={}", file.display()));
    }
    for (bad, complaint) in [
        ("--no-such-flag", "unknown flag: --no-such-flag"),
        ("--seed", "unknown flag: --seed"),
        ("fig99", "unknown experiment id: fig99"),
        ("--spec=/no/such/spec.json", "/no/such/spec.json"),
        (late[0].as_str(), "topology.hops"),
        (late[1].as_str(), "unknown controller 'tcp-reno'"),
    ] {
        let out = budget::run(
            EXPERIMENTS,
            &["--quick", "--time=0.01", &telemetry, "scenario1", bad],
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(complaint), "{bad}: {stderr}");
        assert!(!dir.exists(), "{bad}: scenario1 ran ahead of it");
    }
    std::fs::remove_dir_all(&specs).ok();
}

#[test]
fn specs_that_could_not_run_or_could_not_end_exit_2_naming_the_field() {
    // On a 2-hop chain for one simulated second, each of these once hung
    // (a window whose first fill never finishes; packets less than a
    // clock tick apart, so the source re-armed its tick at `now` forever)
    // or aborted in the allocator (an 800 TB queue). Past them: a chain
    // with no hops or past the node limit, a run that cannot start or
    // cannot end, and a loss rate that is no probability.
    let chain = r#""name": "x", "duration_secs": 1, "topology": {"kind": "chain", "hops": 2}"#;
    let flow = r#""path": [0, 1, 2], "start_secs": 0, "stop_secs": 1"#;
    let chain_of = |secs: &str, hops: u64| {
        format!(
            r#"{{"name": "x", "duration_secs": {secs}, "topology": {{"kind": "chain", "hops": {hops}}}}}"#
        )
    };
    let lossy = |per: f64| format!(r#"{{{chain}, "loss": {{"kind": "uniform", "per": {per}}}}}"#);
    let documents = [
        ("topology.hops", chain_of("1", 0)),
        ("topology.hops", chain_of("1", 262_144)),
        ("duration_secs", chain_of("1e12", 2)),
        ("duration_secs", chain_of("0", 2)),
        ("loss.per", lossy(1.5)),
        ("loss.per", lossy(-0.1)),
        (
            "flows[0].transport.window",
            format!(
                r#"{{{chain}, "flows": [{{{flow},
                   "transport": {{"kind": "windowed", "window": 99999999999999}}}}]}}"#
            ),
        ),
        (
            "flows[0].rate_bps",
            format!(r#"{{{chain}, "flows": [{{{flow}, "rate_bps": 20000000000}}]}}"#),
        ),
        (
            "flows[0].rate_bps",
            format!(r#"{{{chain}, "flows": [{{{flow}, "rate_bps": 1e15, "payload_bytes": 1}}]}}"#),
        ),
        (
            "queue_cap",
            format!(r#"{{{chain}, "queue_cap": 99999999999999}}"#),
        ),
        (
            "sweep.queue_caps[0]",
            format!(r#"{{{chain}, "sweep": {{"queue_caps": [99999999999999]}}}}"#),
        ),
        (
            "traffic.rate_bps",
            r#"{"name": "x", "duration_secs": 1,
                "topology": {"kind": "random_geometric", "nodes": 20, "width": 300,
                             "height": 300, "gateways": 1, "seed": 1},
                "traffic": {"flows": 2, "rate_bps": 20000000000, "start_secs": 0,
                            "stop_secs": 1, "mix": [{"transport": {"kind": "cbr"}}]}}"#
                .to_string(),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("ezflow-hostile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for (i, (path, document)) in documents.iter().enumerate() {
        let file = dir.join(format!("{i}.json"));
        std::fs::write(&file, document).expect("the document is written");
        assert_rejected(&[&format!("--spec={}", file.display())], path);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loss_specs_naming_impossible_links_or_probabilities_exit_2_naming_the_field() {
    // Scenario 1 with its ideal loss replaced. Each of these once ran to
    // "all qualitative checks PASSED": the entries named no node, no
    // probability, or (nodes 0 and 12, ~1,590 m apart) no link any frame
    // crosses, so they silently did nothing.
    let scenario1 = include_str!("../../../scenarios/scenario1.json");
    let ideal = "\"loss\": {\n    \"kind\": \"ideal\"\n  }";
    assert!(
        scenario1.contains(ideal),
        "scenario1.json's loss section moved"
    );
    let ge = r#""p_g2b": 0.1, "p_b2g": 0.2, "p_bad": 0.5"#;
    let cases = [
        (
            "loss.links[0].a",
            r#"{"kind": "custom", "links": [{"a": 999, "b": 4000, "per": 0.5}]}"#.to_string(),
        ),
        (
            "loss.burst.p_g2b",
            r#"{"kind": "custom", "burst": {"p_g2b": -3, "p_b2g": 7, "p_bad": 1e300}}"#.to_string(),
        ),
        (
            "loss.burst_links[0]",
            format!(r#"{{"kind": "custom", "burst_links": [{{"a": 0, "b": 12, {ge}}}]}}"#),
        ),
        (
            "loss.links[0]",
            r#"{"kind": "custom", "links": [{"a": 4, "b": 4, "per": 0.5}]}"#.to_string(),
        ),
        (
            "loss.churn[0]",
            r#"{"kind": "custom", "churn": [{"a": 0, "b": 12, "up_secs": 1, "down_secs": 1}]}"#
                .to_string(),
        ),
    ];
    let dir = std::env::temp_dir().join(format!("ezflow-loss-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for (i, (path, loss)) in cases.iter().enumerate() {
        let file = dir.join(format!("{i}.json"));
        let document = scenario1.replace(ideal, &format!("\"loss\": {loss}"));
        std::fs::write(&file, document).expect("the document is written");
        assert_rejected(&["--quick", &format!("--spec={}", file.display())], path);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn telemetry_streams_trace_cannot_rebuild_exit_1_naming_the_file() {
    // A zero interval once reached `TimeSeries::new`'s nonzero-width
    // assert: SIGABRT under `panic = "abort"`.
    let record =
        |us: u64| format!(r#"{{"interval_us":{us},"nodes":[{{"id":0,"queue":1}}],"flows":[]}}"#);
    let cases = [
        ("zero", record(0), ":1: interval_us is 0"),
        (
            "mixed",
            format!("{}\n{}\n", record(100_000), record(50_000)),
            ":2: interval_us 50000",
        ),
        ("empty", String::new(), ": no telemetry windows"),
    ];
    let dir = scratch("telemetry-streams");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for (name, stream, complaint) in cases {
        let file = dir.join(format!("{name}.jsonl"));
        std::fs::write(&file, stream).expect("the stream is written");
        let file = file.display().to_string();
        let out = budget::run(TRACE, &["telemetry", &file]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {stderr}");
        assert!(
            stderr.contains(&format!("{file}{complaint}")),
            "{name}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
