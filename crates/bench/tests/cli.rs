//! The `experiments` binary's flag and spec errors, driven through the
//! built binary: whatever the user typed or pointed `--spec` at, the
//! process ends with a one-line message and exit 2 — never a panic
//! (SIGABRT under the release profile's `panic = "abort"`), never a run
//! that cannot end. Every child runs under `budget`'s wall budget.

#[path = "../../../tests/support/budget.rs"]
mod budget;

const EXPERIMENTS: &str = env!("CARGO_BIN_EXE_experiments");

fn assert_rejected(args: &[&str], complaint: &str) {
    budget::assert_rejected(EXPERIMENTS, args, complaint);
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
