//! The `experiments` binary's flag errors, driven through the built
//! binary: whatever the user typed, the process ends with a one-line
//! message and exit 2 — never a panic (SIGABRT under the release
//! profile's `panic = "abort"`).

use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("the experiments binary runs")
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
        let out = experiments(&[&format!("{flag}={value}"), "fig1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}={value}: {stderr}");
        assert!(stderr.contains(flag), "{flag}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}={value} ran an experiment");
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
        let out = experiments(&[time, spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{time}: {stderr}");
        assert!(stderr.contains("--time"), "{time}: {stderr}");
        assert!(out.stdout.is_empty(), "{time} ran the spec");
    }
}

#[test]
fn a_time_factor_no_named_experiment_can_run_at_exits_2_naming_time() {
    // `Scale::secs` saturates: 1e300 used to ask fig1 for u64::MAX
    // simulated seconds (a hang), and NaN ran silently at the 30 s floor.
    for time in ["--time=1e300", "--time=nan"] {
        let out = experiments(&[time, "fig1"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{time}: {stderr}");
        assert!(stderr.contains("--time"), "{time}: {stderr}");
        assert!(out.stdout.is_empty(), "{time} ran fig1");
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
        let out = experiments(&["--quick", "--time=0.01", &telemetry, "scenario1", bad]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bad}: {stderr}");
        assert!(stderr.contains(complaint), "{bad}: {stderr}");
        assert!(!dir.exists(), "{bad}: scenario1 ran ahead of it");
    }
}
