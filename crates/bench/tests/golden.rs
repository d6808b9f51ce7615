//! The hot-path golden, checked: every entry of `golden/hotpath.json`
//! re-run and compared digest for digest, one test per entry so the
//! harness spreads the runs over the cores.
//!
//! ```text
//! cargo test -p ezflow-bench --test golden             # what `cargo test` runs
//! cargo test --release -p ezflow-bench --test golden   # the same, faster
//! ```
//!
//! Determinism makes this non-flaky: a failure is a behaviour change, and
//! it names the entry and the first diverging key with both values. If
//! the change was intended, re-bless with `cargo run --release -p
//! ezflow-bench --bin hotpath_bench -- --bless` and commit the file. In a
//! debug build the same runs also execute the engine's debug assertions
//! (arena leaks, carrier mirrors, timer epochs) on the widest runs the
//! repository pins.

use ezflow_bench::experiments::Algo;
use ezflow_bench::golden::{self, first_divergence, ENTRIES};
use ezflow_bench::Scale;
use ezflow_net::NetworkSpec;
use ezflow_sim::JsonValue;

const GOLDEN: &str = include_str!("../golden/hotpath.json");

fn golden_doc() -> JsonValue {
    JsonValue::parse(GOLDEN).expect("golden/hotpath.json parses")
}

/// Asserts that `got` is the golden's `label` entry, naming the first
/// diverging key otherwise; `why` says what a divergence means.
fn assert_golden(label: &str, got: &str, why: &str) {
    let want = golden_doc()
        .get(label)
        .unwrap_or_else(|| panic!("golden/hotpath.json has no entry {label}"))
        .to_compact();
    // Not `assert_eq!`: a digest runs to ~100 KB, and the divergence
    // names the one key that matters.
    assert!(
        want == got,
        "{label}: {why}\n{}",
        first_divergence(&want, got)
    );
}

/// Runs the library entry labelled `label` against the golden.
fn check(label: &str) {
    let entry = ENTRIES
        .iter()
        .find(|e| e.label == label)
        .unwrap_or_else(|| panic!("golden::ENTRIES has no entry {label}"));
    assert_golden(
        label,
        &(entry.run)(),
        "DIVERGED from the committed golden. Hot-path changes must be \
         observationally identical; re-bless only if the behaviour changed on purpose",
    );
}

macro_rules! golden_tests {
    ($($test:ident => $label:literal,)*) => {
        /// The labels the tests below check, in order.
        const TESTED: &[&str] = &[$($label),*];
        $(
            #[test]
            fn $test() {
                check($label);
            }
        )*
    };
}

golden_tests! {
    scenario1_80211 => "scenario1/802.11",
    scenario1_ezflow => "scenario1/EZ-flow",
    grid_4x4_140m => "grid/4x4/140m",
    scenario1_eifs_rts_80211 => "scenario1+eifs+rts/802.11",
    scenario1_eifs_rts_ezflow => "scenario1+eifs+rts/EZ-flow",
    mesh1k_3s => "mesh1k/3s",
    exports_scenario1_loss_ezflow => "exports/scenario1+loss/EZ-flow",
    exports_testbed_links_ezflow => "exports/testbed+links/EZ-flow",
}

#[test]
fn the_golden_the_entries_and_the_tests_name_the_same_runs_in_order() {
    let JsonValue::Object(fields) = golden_doc() else {
        panic!("golden/hotpath.json is not an object");
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    let labels: Vec<&str> = ENTRIES.iter().map(|e| e.label).collect();
    assert_eq!(keys, labels, "golden keys vs golden::ENTRIES");
    assert_eq!(TESTED, labels, "tested labels vs golden::ENTRIES");
    // The file is what `--bless` writes for these digests, so an entry
    // matching here is an entry `--bless` rewrites byte for byte.
    let digests: Vec<(&str, String)> = fields
        .iter()
        .map(|(k, v)| (k.as_str(), v.to_compact()))
        .collect();
    assert!(
        golden::document(&digests) == GOLDEN,
        "golden/hotpath.json is not in `--bless` form"
    );
}

/// Scenario 1 with `scale`'s observers armed must digest to the golden's
/// observers-off entries.
fn assert_scenario1_unperturbed(scale: Scale, observer: &str) {
    for algo in [Algo::Plain, Algo::EzFlow] {
        assert_golden(
            &format!("scenario1/{}", algo.name()),
            &golden::scenario1(algo, scale, false),
            &format!(
                "armed {observer} DIVERGED from the observers-off golden: \
                 it must never perturb the simulation"
            ),
        );
    }
}

#[test]
fn telemetry_armed_scenario1_matches_the_golden() {
    let mut scale = Scale::quick();
    scale.telemetry_every = Some(NetworkSpec::TELEMETRY_EVERY);
    assert_scenario1_unperturbed(scale, "telemetry (crates/net/src/telemetry.rs)");
}

#[test]
fn audit_armed_scenario1_matches_the_golden() {
    // The audit schedules nothing, so no counter compensation exists to
    // get wrong: any divergence is a probe writing where it should read.
    let mut scale = Scale::quick();
    scale.audit_cap = NetworkSpec::AUDIT_CAP;
    assert_scenario1_unperturbed(scale, "audit ledger (crates/net/src/audit.rs)");
}
