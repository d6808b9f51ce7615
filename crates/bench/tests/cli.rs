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
