//! The `ezflow` binary's argument errors, driven through the built
//! binary: a `run` flag outside what a scenario spec could ask for ends
//! the process with a one-line message naming the flag and exit 2 —
//! never a panic (SIGABRT under the release profile's `panic = "abort"`),
//! never a run that cannot end.

#[path = "support/budget.rs"]
mod budget;

const EZFLOW: &str = env!("CARGO_BIN_EXE_ezflow");

fn assert_rejected(args: &[&str], flag: &str) {
    budget::assert_rejected(EZFLOW, args, flag);
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
        let out = budget::run(
            EZFLOW,
            &["run", "--hops", "2", "--secs", "1", "--loss", loss],
        );
        assert_eq!(out.status.code(), Some(0), "--loss {loss}");
    }
}

#[test]
fn a_window_past_the_limit_exits_2_naming_window() {
    // Once a hang: the first fill of the window never finished.
    assert_rejected(&["run", "--window", "99999999999999"], "--window");
    assert_rejected(&["run", "--window", "65537"], "--window");
}

#[test]
fn hops_bind_only_the_chain() {
    // The other topologies ignore the flag, so it cannot be wrong there.
    let out = budget::run(
        EZFLOW,
        &["run", "--topo", "testbed", "--hops", "0", "--secs", "1"],
    );
    assert_eq!(out.status.code(), Some(0), "testbed with --hops 0");
}

#[test]
fn an_unknown_flag_exits_2_naming_it() {
    // A flag a command does not know fails loudly instead of being
    // ignored, wherever it sits on the line.
    assert_rejected(&["run", "--hops", "2", "--trace", "20"], "--trace");
    assert_rejected(&["run", "--bogus"], "--bogus");
    assert_rejected(&["model", "--trace", "20"], "--trace");
    assert_rejected(&["model", "--bogus"], "--bogus");
}

#[test]
fn a_model_that_cannot_step_or_cannot_end_exits_2_naming_the_flag() {
    // Once an assertion in `SlottedModel::new` (no relay to walk)...
    assert_rejected(&["model", "--hops", "0"], "--hops");
    assert_rejected(&["model", "--hops", "1"], "--hops");
    // ...and a loop of O(hops) steps nothing bounded.
    assert_rejected(&["model", "--hops", "100000000"], "--hops");
    assert_rejected(&["model", "--slots", "99999999999999"], "--slots");
    assert_rejected(
        &["model", "--hops", "1024", "--slots", "4000000"],
        "--slots",
    );
    assert_rejected(&["model", "--slots", "0"], "--slots");
    let out = budget::run(EZFLOW, &["model", "--hops", "2", "--slots", "1000"]);
    assert_eq!(out.status.code(), Some(0), "the smallest model runs");
}
