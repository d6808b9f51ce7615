//! The `ezflow` binary's argument errors, driven through the built
//! binary: a `run` flag outside what a scenario spec could ask for ends
//! the process with a one-line message naming the flag and exit 2 —
//! never a panic (SIGABRT under the release profile's `panic = "abort"`),
//! never a run that cannot end.

use std::process::{Command, Output};

fn ezflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ezflow"))
        .args(args)
        .output()
        .expect("the ezflow binary runs")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = ezflow(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(flag), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} ran a simulation");
}

#[test]
fn a_chain_with_no_hops_exits_2_naming_hops() {
    // Once an assertion in `topo::chain`.
    assert_rejected(&["run", "--topo", "chain", "--hops", "0"], "--hops");
}

#[test]
fn a_chain_past_the_node_limit_exits_2_naming_hops() {
    // Once 1.6 GB of positions, then a panic on the density budget.
    assert_rejected(&["run", "--topo", "chain", "--hops", "100000000"], "--hops");
    assert_rejected(&["run", "--hops", "262144"], "--hops");
}

#[test]
fn a_run_past_the_duration_limit_exits_2_naming_secs() {
    // Once a silent hang: a run is paced by simulated time.
    assert_rejected(&["run", "--secs", "1000000000000"], "--secs");
    assert_rejected(&["run", "--secs", "0"], "--secs");
}

#[test]
fn a_loss_rate_that_is_not_a_probability_exits_2_naming_loss() {
    for loss in ["1.5", "-0.1", "NaN", "inf"] {
        assert_rejected(&["run", "--loss", loss], "--loss");
    }
}

#[test]
fn the_largest_accepted_values_still_parse() {
    // The limits are inclusive where the spec path's are: one simulated
    // second of a 2-hop chain at the extremes of --loss runs and exits 0.
    for loss in ["0", "1"] {
        let out = ezflow(&["run", "--hops", "2", "--secs", "1", "--loss", loss]);
        assert_eq!(out.status.code(), Some(0), "--loss {loss}");
    }
}
