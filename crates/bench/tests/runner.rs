//! Determinism of the parallel sweep runner: fanning runs across worker
//! threads must not change a single byte of any result.
//!
//! Each run is a pure function of its `NetworkSpec` and controller
//! factory; the runner only changes *where* the run executes. These tests
//! pin that property end to end, at the strongest available granularity:
//! the pretty-printed JSON of the full cross-layer `RunSnapshot` (every
//! queue depth, MAC counter, channel statistic and controller counter),
//! with only the wall-clock perf block zeroed — the one part of a
//! snapshot that is honestly non-deterministic.

use ezflow_bench::runner::{Job, SweepRunner};
use ezflow_core::EzFlowController;
use ezflow_net::{topo, NetworkSpec, PerfSnapshot};
use ezflow_sim::Time;

/// A mixed batch: different topologies, algorithms, and seeds, so the
/// comparison exercises more than one code path.
fn batch(until: Time) -> Vec<Job> {
    let mut jobs = Vec::new();
    for (i, seed) in [42u64, 7, 1234].into_iter().enumerate() {
        let t = topo::chain(4, Time::ZERO, until);
        jobs.push(Job::new(
            format!("chain4/802.11/{seed}"),
            NetworkSpec::from_topology(&t, seed),
            until,
            Box::new(|_| Box::new(ezflow_net::FixedController::standard())),
        ));
        let t = topo::chain(3 + i % 2, Time::ZERO, until);
        jobs.push(Job::new(
            format!("chain/EZ-flow/{seed}"),
            NetworkSpec::from_topology(&t, seed),
            until,
            Box::new(|_| Box::new(EzFlowController::with_defaults())),
        ));
    }
    jobs
}

/// Renders every network in a batch result to comparable snapshot JSON.
fn digests(runner: SweepRunner, until: Time) -> Vec<String> {
    runner.run_map(batch(until), |i, mut net| {
        let mut snap = net.snapshot(&format!("job{i}"));
        snap.perf = PerfSnapshot::zeroed();
        snap.to_json().to_pretty()
    })
}

#[test]
fn jobs4_output_is_byte_identical_to_jobs1() {
    let until = Time::from_secs(40);
    let serial = digests(SweepRunner::new(1), until);
    let parallel = digests(SweepRunner::new(4), until);
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(parallel.iter()).enumerate() {
        assert_eq!(s, p, "job {i}: parallel snapshot JSON diverged from serial");
    }
}

#[test]
fn repeated_parallel_runs_agree_with_each_other() {
    // Worker interleaving differs between invocations; results must not.
    let until = Time::from_secs(30);
    let a = digests(SweepRunner::new(4), until);
    let b = digests(SweepRunner::new(2), until);
    assert_eq!(a, b);
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "same export files")]
fn a_batch_whose_labels_share_a_file_stem_is_refused() {
    // Exports are named by the label's stem: `/` and `_` meet, `.` goes.
    let mut jobs = batch(Time::from_secs(1));
    jobs[0].label = "chain/a.b".into();
    jobs[1].label = "chain_ab".into();
    SweepRunner::new(1).run(jobs);
}
