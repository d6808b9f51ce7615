//! The `experiments` binary's flag and spec errors, driven through the
//! built binary: whatever the user typed or pointed `--spec` at, the
//! process ends with a one-line message and exit 2 — never a panic
//! (SIGABRT under the release profile's `panic = "abort"`), never a run
//! that cannot end — and its observer exports: which files a run leaves
//! under `--trace-dir` / `--telemetry-dir` / `--audit-dir`, named how.
//! The `trace` inspector is held to the same rule for streams it cannot
//! read (exit 1, naming the file), and must read what a run exports
//! (exit 0). Every child runs under `budget`'s wall budget.

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

/// Asserts that `a` and `b` hold the same export files, byte for byte.
fn assert_same_exports(a: &Path, b: &Path) {
    for dir in ["tr", "tel", "aud"] {
        assert_eq!(names(&a.join(dir)), names(&b.join(dir)), "{dir}");
        for name in names(&a.join(dir)) {
            let read = |root: &Path| std::fs::read(root.join(dir).join(&name)).unwrap();
            assert!(read(a) == read(b), "{dir}/{name} differs");
        }
    }
}

/// Asserts that the `trace` inspectors read the exports of a scenario-1
/// run under `root`, each exiting 0 — the drop census by cause, node and
/// link, the slowest journeys, the journey of the slowest delivered
/// packet, the telemetry and controller views — and that the run's
/// `--json` snapshots at `root/snap.json` carry the schema version and
/// the sections the armed telemetry and audit add.
fn assert_inspectors_read(root: &Path) {
    let inspect = |args: &[&str], file: &str| -> String {
        let path = root.join(file);
        let mut all = args.to_vec();
        all.push(path.to_str().unwrap());
        let out = budget::run(TRACE, &all);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "trace {all:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let lifecycle = "tr/scenario1_80211.jsonl";
    for pivot in ["--by-cause", "--by-node", "--by-link"] {
        inspect(&["drops", pivot], lifecycle);
    }
    inspect(&["worst", "--flow=0", "--top=3"], lifecycle);
    // Line 3 of the slowest-journey table starts with its packet id.
    let worst = inspect(&["worst", "--flow=0", "--top=1"], lifecycle);
    let packet = worst
        .lines()
        .nth(2)
        .and_then(|row| row.split_whitespace().next())
        .unwrap_or_else(|| panic!("no slowest packet in:\n{worst}"));
    let journey = inspect(&["journey", &format!("--packet={packet}")], lifecycle);
    assert!(journey.contains("DELIVERED"), "packet {packet}:\n{journey}");
    inspect(&["telemetry", "--top=3"], "tel/scenario1_80211.jsonl");
    let audit = "aud/scenario1_EZ-flow.audit.jsonl";
    inspect(&["controller", "--top=3"], audit);
    let stream = std::fs::read_to_string(root.join(audit)).unwrap();
    assert!(stream.contains(r#""kind":"sample""#), "{audit}: no sample");

    let text = std::fs::read_to_string(root.join("snap.json")).unwrap();
    let doc = JsonValue::parse(&text).unwrap();
    let runs = doc.get("snapshots").and_then(JsonValue::as_array).unwrap();
    assert_eq!(runs.len(), 2, "scenario 1 runs 802.11 and EZ-flow");
    for run in runs {
        let label = run.get("label").and_then(JsonValue::as_str).unwrap();
        assert_eq!(run.get("schema").and_then(JsonValue::as_u64), Some(2));
        let section = |name: &str, key: &str| run.get(name).and_then(|s| s.get(key));
        assert!(
            section("stability", "worst_amplitude_mean").is_some(),
            "{label}: no stability section"
        );
        assert!(
            section("controller", "decisions_total").is_some(),
            "{label}: no controller section"
        );
    }
}

#[test]
fn every_run_of_a_named_experiment_exports_all_three_observers() {
    // table2 builds its six networks as runner jobs; seeds sweeps both
    // controllers over ten seeds, twenty runs.
    let seed_stems: Vec<String> = ["80211", "EZ-flow"]
        .iter()
        .flat_map(|c| (0..10).map(move |k| format!("seeds_{c}_{}", k * 1000 + 42)))
        .collect();
    let table2 = [
        "table2_F1alone_80211",
        "table2_F1alone_EZ-flow2^10cap",
        "table2_F2alone_80211",
        "table2_F2alone_EZ-flow2^10cap",
        "table2_F1+F2_80211",
        "table2_F1+F2_EZ-flow2^10cap",
    ];
    let seeds: Vec<&str> = seed_stems.iter().map(String::as_str).collect();
    for (id, stems) in [("table2", &table2[..]), ("seeds", &seeds[..])] {
        let root = scratch(id);
        observed(&root, &["--jobs=2", id]);
        assert_exports(&root, stems);
        std::fs::remove_dir_all(&root).ok();
    }
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
    assert_same_exports(&serial, &parallel);
    std::fs::remove_dir_all(&serial).ok();
    std::fs::remove_dir_all(&parallel).ok();
}

#[test]
fn two_identical_scenario1_runs_export_identical_files() {
    // Every record is written when it happens, in the run's own
    // deterministic order: all six streams are pure functions of the run.
    let (first, again) = (scratch("scenario1-first"), scratch("scenario1-again"));
    let json = format!("--json={}", first.join("snap.json").display());
    observed(&first, &[&json, "scenario1"]);
    observed(&again, &["scenario1"]);
    assert_exports(&first, &["scenario1_80211", "scenario1_EZ-flow"]);
    assert_same_exports(&first, &again);
    assert_inspectors_read(&first);
    std::fs::remove_dir_all(&first).ok();
    std::fs::remove_dir_all(&again).ok();
}

#[test]
fn a_capped_lifecycle_export_says_it_holds_the_first_packets() {
    let dir = scratch("flight-cap");
    let trace = format!("--trace-dir={}", dir.display());
    let args = [
        "--quick",
        "--time=0.02",
        &trace,
        "--flight-cap=64",
        "scenario1",
    ];
    let out = budget::run_within(SIMULATING, EXPERIMENTS, &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // A 2 % timeline may fail an experiment's qualitative checks (1).
    assert!(out.status.code() <= Some(1), "{stderr}");
    let partial: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("PARTIAL capture"))
        .collect();
    assert_eq!(partial.len(), 2, "one line per run: {stderr}");
    for line in partial {
        let emitted = line
            .strip_prefix("  PARTIAL capture: recorded the first 64 of ")
            .and_then(|rest| rest.strip_suffix(" packets; raise --flight-cap for a fuller census"))
            .and_then(|n| n.parse::<u64>().ok())
            .unwrap_or_else(|| panic!("unexpected line: {line}"));
        assert!(emitted > 64, "{line}");
    }
    for name in names(&dir) {
        let text = std::fs::read_to_string(dir.join(&name)).unwrap();
        let mut seqs: Vec<u64> = text
            .lines()
            .map(|l| {
                let v = JsonValue::parse(l).unwrap_or_else(|e| panic!("{name}: {e:?}"));
                v.get("payload")
                    .and_then(|p| p.get("seq"))
                    .and_then(JsonValue::as_u64)
                    .unwrap()
            })
            .collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs, (0..64).collect::<Vec<u64>>(), "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
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
        ("--flight-cap", "0"),
        ("--telemetry-ms", "x"),
        ("--telemetry-ms", "0"),
        ("--telemetry-ms", "18446744073709552"),
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
    // or aborted in the allocator (an 800 TB queue), or, 200,000 arrays
    // deep, overflowed the parser's stack. Past them: a layout of no
    // known kind, a chain with no hops or past the node limit, a run that
    // cannot start or cannot end, a loss rate that is no probability and
    // a sweep axis that names one value twice. A payload past the 802.11
    // MSDU once wrapped the MAC's airtime sum: a debug build panicked on
    // the overflow, a release build reported kb/s past the channel's.
    let chain = r#""name": "x", "duration_secs": 1, "topology": {"kind": "chain", "hops": 2}"#;
    let flow = r#""path": [0, 1, 2], "start_secs": 0, "stop_secs": 1"#;
    let chain_of = |secs: &str, hops: u64| {
        format!(
            r#"{{"name": "x", "duration_secs": {secs}, "topology": {{"kind": "chain", "hops": {hops}}}}}"#
        )
    };
    let lossy = |per: f64| format!(r#"{{{chain}, "loss": {{"kind": "uniform", "per": {per}}}}}"#);
    // Nodes 0, 1, 2 in a line, node 3 beside node 1; `flow_b` is the
    // other way from 0 to 2.
    let flow_b = r#""path": [0, 3, 2], "start_secs": 0, "stop_secs": 1"#;
    let diamond = |flows: &str| {
        format!(
            r#"{{"name": "x", "duration_secs": 1,
                "topology": {{"kind": "explicit",
                             "positions": [[0, 0], [200, 0], [400, 0], [200, 150]]}},
                "flows": [{flows}]}}"#
        )
    };
    let documents = [
        (
            "topology.kind",
            r#"{"name": "x", "duration_secs": 1, "topology": {"kind": "donut"}}"#.to_string(),
        ),
        // The object and 127 arrays open; the 128th array is one too deep.
        (
            "line 1, column 137: nesting deeper than 128",
            format!(r#"{{"name": {}}}"#, nested(200_000)),
        ),
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
            "flows[0].payload_bytes",
            format!(r#"{{{chain}, "flows": [{{{flow}, "payload_bytes": 4294967295}}]}}"#),
        ),
        (
            "flows[0].transport.ack_payload",
            format!(
                r#"{{{chain}, "flows": [{{{flow},
                   "transport": {{"kind": "windowed", "window": 8, "ack_payload": 2305}}}}]}}"#
            ),
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
        // A repeated sweep value once ran the same point twice under one
        // label (four identical `x/80211/qc50/seed3` rows, each export
        // written four times).
        (
            "sweep.seeds[1]",
            format!(r#"{{{chain}, "sweep": {{"seeds": [3, 3]}}}}"#),
        ),
        (
            "sweep.queue_caps[2]",
            format!(r#"{{{chain}, "sweep": {{"queue_caps": [50, 25, 50]}}}}"#),
        ),
        (
            "sweep.controllers[1]",
            format!(r#"{{{chain}, "sweep": {{"controllers": ["802.11", "802.11"]}}}}"#),
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
        (
            "traffic.payload_bytes",
            r#"{"name": "x", "duration_secs": 1,
                "topology": {"kind": "random_geometric", "nodes": 20, "width": 300,
                             "height": 300, "gateways": 1, "seed": 1},
                "traffic": {"flows": 2, "rate_bps": 20000, "payload_bytes": 2305,
                            "start_secs": 0, "stop_secs": 1,
                            "mix": [{"transport": {"kind": "cbr"}}]}}"#
                .to_string(),
        ),
        // Two routes toward one destination once aborted in the routing
        // table's assert (SIGABRT), forward or on a windowed flow's ACK path.
        (
            "flow 1: at node 0, its route toward 2 goes via 3",
            diamond(&format!("{{{flow}}}, {{{flow_b}}}")),
        ),
        (
            "flow 0: at node 2, its route toward 0 goes via 1",
            diamond(&format!(
                r#"{{{flow}, "transport": {{"kind": "windowed", "window": 8}}}},
                   {{"path": [2, 3, 0], "start_secs": 0, "stop_secs": 1}}"#
            )),
        ),
        // 2^32 once wrapped to a zero weight and ran without that share.
        (
            "traffic.mix[0].weight",
            r#"{"name": "x", "duration_secs": 1,
                "topology": {"kind": "random_geometric", "nodes": 20, "width": 300,
                             "height": 300, "gateways": 1, "seed": 1},
                "traffic": {"flows": 2, "rate_bps": 20000, "start_secs": 0, "stop_secs": 1,
                            "mix": [{"weight": 4294967296, "transport": {"kind": "cbr"}},
                                    {"transport": {"kind": "cbr"}}]}}"#
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
fn a_spec_that_says_what_its_run_would_not_do_exits_2_naming_the_key() {
    // Each of these once ran exactly as the unedited scenario1.json does:
    // the reader skipped a key it did not know — a typo, or a key of
    // another `kind` — and of a key given twice took the first.
    let scenario1 = include_str!("../../../scenarios/scenario1.json");
    let edit = |from: &str, to: &str| {
        assert!(scenario1.contains(from), "scenario1.json lost {from:?}");
        scenario1.replacen(from, to, 1)
    };
    let explicit = r#""kind": "explicit","#;
    let documents = [
        (
            "`queue_capp`: unknown key",
            edit(
                r#""queue_cap": 50,"#,
                r#""queue_cap": 50, "queue_capp": 0,"#,
            ),
        ),
        (
            "`sweeep`: unknown key",
            edit(
                r#""seed": 42,"#,
                r#""seed": 42, "sweeep": {"seeds": [1, 2]},"#,
            ),
        ),
        (
            "`topology.spacing`: unknown key (expected one of: kind, positions)",
            edit(explicit, r#""kind": "explicit", "spacing": 100,"#),
        ),
        (
            "`topology.hops`: unknown key",
            edit(explicit, r#""kind": "explicit", "hops": 8,"#),
        ),
        (
            "`loss.burst`: unknown key (expected one of: kind, per)",
            edit(
                r#""kind": "ideal""#,
                r#""kind": "uniform", "per": 0.1, "burst": {"p_g2b": 0.1, "p_b2g": 0.1, "p_bad": 0.5}"#,
            ),
        ),
        (
            "`flows[0].rate`: unknown key",
            edit(r#""rate_bps": 2000000,"#, r#""rate": 1000000,"#),
        ),
        (
            "`queue_cap`: key given more than once",
            edit(r#""queue_cap": 50,"#, r#""queue_cap": 50, "queue_cap": 0,"#),
        ),
        ("`(document)`: must be an object", "[]".to_string()),
    ];
    let dir = scratch("strict-specs");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    for (i, (complaint, document)) in documents.iter().enumerate() {
        let file = dir.join(format!("{i}.json"));
        std::fs::write(&file, document).expect("the document is written");
        assert_rejected(
            &["--quick", &format!("--spec={}", file.display())],
            complaint,
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The repository root, where `experiments --list` looks for `scenarios/`.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

#[test]
fn every_committed_spec_is_listed_readable() {
    // `--list` tolerates a spec it cannot read by printing UNREADABLE in
    // its place and exiting 0, so that word is the failure.
    let out = budget::run(
        "sh",
        &["-c", r#"cd "$1" && exec "$0" --list"#, EXPERIMENTS, ROOT],
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("scenarios/scenario1.json"), "{stdout}");
    assert!(!stdout.contains("UNREADABLE"), "{stdout}");
}

#[test]
fn committed_specs_run_from_parse_to_report_and_exit_0() {
    // time=0.01 simulates ~25 s of scenario 1 — past its t=5 s flow
    // starts, so the "traffic flowed" check is real, not vacuous. The
    // calibrated testbed's flows (per-link loss) start at t=0; grid4x4.json
    // is the generative form, lattice and flows supplied by the compiler.
    for (spec, time) in [
        ("scenario1", "0.01"),
        ("testbed", "0.01"),
        ("grid4x4", "0.1"),
    ] {
        let args = [
            "--quick".to_string(),
            format!("--time={time}"),
            format!("--spec={ROOT}/scenarios/{spec}.json"),
        ];
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = budget::run_within(SIMULATING, EXPERIMENTS, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{spec}: {stderr}");
        assert!(!out.stdout.is_empty(), "{spec}: no report");
    }
}

/// `[[…[]…]]`, `depth` arrays deep.
fn nested(depth: usize) -> String {
    "[".repeat(depth) + &"]".repeat(depth)
}

#[test]
fn the_16k_and_64k_node_meshes_run_inside_512_mb() {
    // The channel keeps no per-pair state and set-up is a grid walk. At
    // 16,384 nodes one N×N byte table is 268 MB and one of f64 2.1 GB
    // (the two bool and one f64 matrices `Channel` once kept: 2.6 GB, an
    // allocator abort here), while O(N·degree) rows need ~45 MB; the
    // 65,536-node mesh is the same shape four times over. The binary runs
    // under the limit itself (`exec`), so the limit binds the simulator.
    let limited = r#"ulimit -v 524288; exec "$0" --jobs=1 --spec="$1""#;
    for mesh in ["mesh16k", "mesh64k"] {
        let spec = format!("{ROOT}/scenarios/{mesh}.json");
        let out = budget::run_within(SIMULATING, "sh", &["-c", limited, EXPERIMENTS, &spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{mesh}: {stderr}");
    }
}

#[test]
fn an_over_dense_layout_exits_2_naming_the_topology_inside_512_mb() {
    // 65,536 nodes in one carrier-sense cell: 2^32 neighbour-row entries,
    // once an allocator abort. The compiler finds it before any row is
    // built, so inside the same 512 MB of address space the committed
    // 64k-node mesh runs in.
    let file = scratch("dense").with_extension("json");
    let document = r#"{"name": "dense", "duration_secs": 1,
        "topology": {"kind": "random_geometric", "nodes": 65536, "width": 300,
                     "height": 300, "gateways": 4, "seed": 1},
        "traffic": {"flows": 4, "rate_bps": 200000, "start_secs": 0, "stop_secs": 1,
                    "mix": [{"transport": {"kind": "cbr"}}]}}"#;
    std::fs::write(&file, document).expect("the document is written");
    let limited = r#"ulimit -v 524288; exec "$0" --jobs=1 --spec="$1""#;
    let file_arg = file.display().to_string();
    budget::assert_rejected("sh", &["-c", limited, EXPERIMENTS, &file_arg], "topology");
    std::fs::remove_file(&file).ok();
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
    // A zero interval once reached a nonzero-width assert: SIGABRT
    // under `panic = "abort"`.
    let record =
        |us: u64| format!(r#"{{"interval_us":{us},"nodes":[{{"id":0,"queue":1}}],"flows":[]}}"#);
    let flow = |id: u64| {
        format!(
            r#"{{"interval_us":100000,"nodes":[{{"id":0,"queue":1}}],"flows":[{{"flow":{id},"kbps":1}}]}}"#
        )
    };
    let nodes =
        |listed: &str| format!(r#"{{"interval_us":100000,"nodes":[{listed}],"flows":[]}}"#) + "\n";
    let twice = nodes(r#"{"id":0,"queue":1},{"id":0,"queue":40}"#);
    let cases = [
        ("zero", record(0), ":1: interval_us is 0"),
        (
            "mixed",
            format!("{}\n{}\n", record(100_000), record(50_000)),
            ":2: interval_us 50000",
        ),
        ("empty", String::new(), ": no telemetry windows"),
        // Flow 2^32 once wrapped onto flow 0: "1 flows", the two series
        // blended into one mean.
        (
            "wide-flow",
            format!("{}\n{}\n", flow(0), flow(1 << 32)),
            ":2: flow 4294967296 does not fit in 32 bits",
        ),
        // Node 0 listed twice per window once read as one node with twice
        // the windows: 60 windows of 100 ms reported an episode of 12 s.
        ("twice", twice.repeat(60), ":1: node 0 is listed twice"),
        // A node missing from a later window was kept with fewer samples
        // than windows, its series shifted against the others'.
        (
            "missing",
            nodes(r#"{"id":0,"queue":1},{"id":1,"queue":2}"#) + &nodes(r#"{"id":0,"queue":1}"#),
            ":2: node 1 is missing; the first record lists it",
        ),
        // 200,000 arrays deep once overflowed the parser's stack.
        (
            "deep",
            format!(r#"{{"interval_us": {}}}"#, nested(200_000)) + "\n",
            ":1: not a telemetry record: JSON parse error at byte 143: nesting deeper than 128",
        ),
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

/// Three hand-written journeys on a chain N0 → N1 → N2, one per drop
/// cause `trace drops` has to place: a source-full drop, a queue-full
/// drop at relay N1 (the refusing receiver is not a hop), and a
/// retry-limit drop of N1's own transmission after its second attempt.
const THREE_DROPS: &str = r#"{"at_us":1000,"node":0,"kind":"Admit","payload":{"type":"admit","seq":1,"flow":0}}
{"at_us":1000,"node":0,"kind":"Drop","payload":{"type":"drop","cause":"source_queue_full","seq":1}}
{"at_us":2000,"node":0,"kind":"Admit","payload":{"type":"admit","seq":2,"flow":0}}
{"at_us":2000,"node":0,"kind":"Enqueue","payload":{"type":"enqueue","seq":2,"flow":0,"occupancy":1,"cap":50}}
{"at_us":2500,"node":0,"kind":"Dequeue","payload":{"type":"dequeue","seq":2,"flow":0}}
{"at_us":2600,"node":0,"kind":"Attempt","payload":{"type":"attempt","seq":2,"attempt":0,"cw":32,"slots":7}}
{"at_us":4800,"node":1,"kind":"Drop","payload":{"type":"drop","cause":"queue_full","seq":2}}
{"at_us":3000,"node":0,"kind":"Admit","payload":{"type":"admit","seq":3,"flow":0}}
{"at_us":3000,"node":0,"kind":"Enqueue","payload":{"type":"enqueue","seq":3,"flow":0,"occupancy":1,"cap":50}}
{"at_us":3500,"node":0,"kind":"Dequeue","payload":{"type":"dequeue","seq":3,"flow":0}}
{"at_us":3600,"node":0,"kind":"Attempt","payload":{"type":"attempt","seq":3,"attempt":0,"cw":32,"slots":3}}
{"at_us":5800,"node":1,"kind":"RxOutcome","payload":{"type":"rx_outcome","seq":3,"class":"Data","outcome":"clean"}}
{"at_us":5800,"node":1,"kind":"Enqueue","payload":{"type":"enqueue","seq":3,"flow":0,"occupancy":4,"cap":50}}
{"at_us":5900,"node":0,"kind":"RxOutcome","payload":{"type":"rx_outcome","seq":3,"class":"Ack","outcome":"clean"}}
{"at_us":6000,"node":1,"kind":"Dequeue","payload":{"type":"dequeue","seq":3,"flow":0}}
{"at_us":6100,"node":1,"kind":"Attempt","payload":{"type":"attempt","seq":3,"attempt":0,"cw":32,"slots":9}}
{"at_us":8300,"node":2,"kind":"RxOutcome","payload":{"type":"rx_outcome","seq":3,"class":"Data","outcome":"collision"}}
{"at_us":9100,"node":1,"kind":"Attempt","payload":{"type":"attempt","seq":3,"attempt":1,"cw":64,"slots":40}}
{"at_us":11300,"node":2,"kind":"RxOutcome","payload":{"type":"rx_outcome","seq":3,"class":"Data","outcome":"loss"}}
{"at_us":12000,"node":1,"kind":"Drop","payload":{"type":"drop","cause":"retry_limit","seq":3}}
"#;

#[test]
fn trace_drops_prints_the_pinned_census_of_three_hand_written_drops() {
    let dir = scratch("trace-drops");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let file = dir.join("drops.jsonl");
    std::fs::write(&file, THREE_DROPS).expect("the lifecycle is written");
    let file = file.display().to_string();
    let drops = |flags: &[&str]| -> String {
        let mut args = vec!["drops"];
        args.extend_from_slice(flags);
        args.push(&file);
        let out = budget::run(TRACE, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        String::from_utf8(out.stdout).unwrap()
    };
    let head = "3 journeys, 3 ended in a drop\n";
    let listing = concat!(
        "  packet        1 flow 0 dropped at N0 t=0.001s (source_queue_full) after N0\n",
        "  packet        2 flow 0 dropped at N1 t=0.005s (queue_full) after N0\n",
        "  packet        3 flow 0 dropped at N1 t=0.012s (retry_limit) after N0→N1\n",
    );
    let by_cause = concat!(
        "  queue_full: 1\n    N1: 1\n",
        "  retry_limit: 1\n    N1: 1\n",
        "  source_queue_full: 1\n    N0: 1\n",
    );
    let by_node = concat!(
        "  N0: 1\n    source_queue_full: 1\n",
        "  N1: 2\n    queue_full: 1\n    retry_limit: 1\n",
    );
    // Packet 3 ran out of retries at N1 sending to N2, the receiver its
    // data decode outcomes name (the ACK's outcome at N0 is not one).
    let by_link = concat!(
        "  at source (never left): 1\n    source_queue_full: 1\n",
        "  N0→N1: 1\n    queue_full: 1\n",
        "  N1→N2: 1\n    retry_limit: 1\n",
    );
    assert_eq!(drops(&[]), format!("{head}{listing}"));
    assert_eq!(drops(&["--by-cause"]), format!("{head}{by_cause}"));
    assert_eq!(drops(&["--by-node"]), format!("{head}{by_node}"));
    assert_eq!(drops(&["--by-link"]), format!("{head}{by_link}"));
    // Precedence: --by-link over --by-node over --by-cause.
    assert_eq!(
        drops(&["--by-cause", "--by-node"]),
        format!("{head}{by_node}")
    );
    assert_eq!(
        drops(&["--by-link", "--by-cause"]),
        format!("{head}{by_link}")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_ends_quietly_when_its_reader_closes_stdout() {
    // Each packet is a one-line listing of ~80 bytes: 5,000 of them are
    // several pipe buffers, so the writer is still printing when the
    // reader goes. It once panicked on the broken pipe (SIGABRT under
    // the release profile's `panic = "abort"`).
    let dir = scratch("trace-closed-pipe");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let file = dir.join("drops.jsonl");
    // THREE_DROPS's first journey (admitted, dropped at a full source
    // queue), renumbered.
    let journey: String = THREE_DROPS
        .lines()
        .take(2)
        .map(|l| l.to_owned() + "\n")
        .collect();
    let lifecycle: String = (1..=5_000)
        .map(|seq| journey.replace(r#""seq":1"#, &format!(r#""seq":{seq}"#)))
        .collect();
    std::fs::write(&file, lifecycle).expect("the lifecycle is written");
    let out = budget::run_closing_stdout(TRACE, &["drops", file.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert_eq!(out.stdout, b"5000 journeys, 5000 ended in a drop\n");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_journey_names_the_capture_a_missing_packet_is_not_in() {
    let dir = scratch("trace-journey");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let missing = |name: &str, lifecycle: &str| -> String {
        let file = dir.join(name);
        std::fs::write(&file, lifecycle).expect("the lifecycle is written");
        let out = budget::run(TRACE, &["journey", "--packet=999", file.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(1), "{name}");
        String::from_utf8(out.stderr).unwrap()
    };
    assert_eq!(
        missing("drops.jsonl", THREE_DROPS),
        "packet 999 is not in this capture (packets 1..=3; raise --flight-cap)\n"
    );
    assert_eq!(
        missing("empty.jsonl", ""),
        "packet 999 is not in this capture (it holds no packets)\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unknown_audit_kind_exits_1_naming_the_line() {
    // Any kind but "sample" once read as a decision: a bogus record
    // printed as "assigned" and the command exited 0.
    let decision = |kind: &str| {
        format!(
            r#"{{"at_us":1,"node":0,"kind":"{kind}","successor":1,"avg":0.5,"countup":0,"countdown":0,"up_threshold":0,"down_threshold":0,"cw_before":32,"cw_after":16}}"#
        )
    };
    let dir = scratch("audit-kinds");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let file = dir.join("bogus.audit.jsonl");
    let stream = format!("{}\n{}\n", decision("assign"), decision("bogus"));
    std::fs::write(&file, stream).expect("the stream is written");
    let file = file.display().to_string();
    let out = budget::run(TRACE, &["controller", &file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("{file}:2: unknown audit kind 'bogus'")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing rendered from a bad stream");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_audit_queue_depth_past_32_bits_exits_1_naming_the_line() {
    // Estimates and truths are queue depths, `u32`s in the ledger and in
    // the error tracker the inspector summarises each link with.
    let sample = |estimate: u64| {
        format!(
            r#"{{"at_us":1,"node":0,"kind":"sample","successor":1,"estimate":{estimate},"truth":3}}"#
        )
    };
    let dir = scratch("audit-depths");
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let file = dir.join("wide.audit.jsonl");
    let stream = format!("{}\n{}\n", sample(4), sample(1 << 32));
    std::fs::write(&file, stream).expect("the stream is written");
    let file = file.display().to_string();
    let out = budget::run(TRACE, &["controller", &file]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!(
            "{file}:2: estimate 4294967296 does not fit in 32 bits"
        )),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "nothing rendered from a bad stream");
    std::fs::remove_dir_all(&dir).ok();
}
