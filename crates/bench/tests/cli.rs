//! The `experiments` binary's flag and spec errors, driven through the
//! built binary: whatever the user typed or pointed `--spec` at, the
//! process ends with a one-line message and exit 2 — never a panic
//! (SIGABRT under the release profile's `panic = "abort"`), never a run
//! that cannot end — and its observer exports: which files a run leaves
//! under `--trace-dir` / `--telemetry-dir` / `--audit-dir`, named how.
//! Every child runs under `budget`'s wall budget.

use std::path::{Path, PathBuf};
use std::process::Output;
use std::time::Duration;

use ezflow_sim::JsonValue;

#[path = "../../../tests/support/budget.rs"]
mod budget;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

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
    for (bad, complaint) in [
        ("--no-such-flag", "unknown flag: --no-such-flag"),
        ("fig99", "unknown experiment id: fig99"),
        ("--spec=/no/such/spec.json", "/no/such/spec.json"),
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
}

#[test]
fn specs_that_could_not_run_or_could_not_end_exit_2_naming_the_field() {
    // On a 2-hop chain for one simulated second, each of these once hung
    // (a window whose first fill never finishes; packets less than a
    // clock tick apart, so the source re-armed its tick at `now` forever)
    // or aborted in the allocator (an 800 TB queue).
    let chain = r#""name": "x", "duration_secs": 1, "topology": {"kind": "chain", "hops": 2}"#;
    let flow = r#""path": [0, 1, 2], "start_secs": 0, "stop_secs": 1"#;
    let documents = [
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
