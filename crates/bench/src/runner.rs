//! The deterministic parallel sweep runner.
//!
//! Almost every experiment in this crate is a *sweep*: the same scenario
//! run under several algorithms, seeds, or parameter points, each run
//! completely independent of the others. A run is a pure function of its
//! [`NetworkSpec`] and controller factory (see DESIGN.md §2), so fanning
//! the runs across threads cannot change any result — it only changes
//! wall-clock time. [`SweepRunner`] packages exactly that:
//!
//! * a [`Job`] is the closed description of one run (spec + controller
//!   factory + end time + label) and the only way the harness builds a
//!   network; it exports its own observers (see [`crate::export`]);
//! * [`SweepRunner::run`] executes a batch of jobs across plain
//!   [`std::thread::scope`] workers and returns the finished networks
//!   **in job order**, regardless of which worker finished when;
//! * `--jobs=1` (or a single job) short-circuits to plain in-line
//!   execution on the caller's thread, with no threads spawned at all.
//!
//! No work queues, no channels, no dependencies: a shared atomic cursor
//! hands out job indices, and each worker writes its results into
//! pre-allocated per-job slots. `Network: Send` (asserted at its
//! definition) is what makes the whole scheme safe.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ezflow_net::{ControllerFactory, Network, NetworkSpec};
use ezflow_sim::Time;

/// One independent simulation run, fully described: everything a worker
/// thread needs to build, run, and hand back a [`Network`].
pub struct Job {
    /// Human-readable tag ("table1/EZ-flow/seed42"), carried through to
    /// the result for labelling.
    pub label: String,
    /// The network to build.
    pub spec: NetworkSpec,
    /// Simulated end time.
    pub until: Time,
    /// Per-node controller factory.
    pub make: ControllerFactory,
}

impl Job {
    /// Packages one run.
    pub fn new(
        label: impl Into<String>,
        spec: NetworkSpec,
        until: Time,
        make: ControllerFactory,
    ) -> Self {
        Job {
            label: label.into(),
            spec,
            until,
            make,
        }
    }

    /// Builds the network, runs it to completion and exports what its
    /// armed observers saw under the label's [`crate::export::stem`] —
    /// the only place the harness builds a network.
    pub fn run(self) -> Network {
        let mut net = Network::new(self.spec, &*self.make);
        crate::export::attach(&mut net, &self.label);
        net.run_until(self.until);
        crate::export::finish(&mut net, &self.label);
        net
    }
}

/// Fans a batch of [`Job`]s across worker threads; results come back in
/// job order, so callers index them exactly as they would a serial loop's
/// output.
#[derive(Clone, Copy, Debug)]
pub struct SweepRunner {
    workers: usize,
}

impl SweepRunner {
    /// A runner with `workers` threads. `0` means "use the machine":
    /// [`std::thread::available_parallelism`]. `1` disables threading
    /// entirely (jobs run in-line, in order, on the caller's thread).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            workers
        };
        SweepRunner { workers }
    }

    /// The resolved worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs every job, returning the finished networks in job order.
    pub fn run(&self, jobs: Vec<Job>) -> Vec<Network> {
        self.run_map(jobs, |_, net| net)
    }

    /// Runs every job and maps each finished network through `f` **on the
    /// worker thread** (useful to reduce a network to a small summary
    /// instead of shipping whole networks back). `f` receives the job
    /// index, and the output vector is in job order.
    pub fn run_map<T, F>(&self, jobs: Vec<Job>, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Network) -> T + Send + Sync,
    {
        debug_assert_eq!(
            (jobs.iter().map(|j| crate::export::stem(&j.label)))
                .collect::<BTreeSet<_>>()
                .len(),
            jobs.len(),
            "two jobs of a batch would write the same export files"
        );
        if self.workers <= 1 || jobs.len() <= 1 {
            // Serial fast path: the caller's thread, in order — what
            // `--jobs=1` guarantees.
            return jobs
                .into_iter()
                .enumerate()
                .map(|(i, job)| f(i, job.run()))
                .collect();
        }

        let n = jobs.len();
        let slots: Vec<Mutex<Option<Job>>> =
            jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let threads = self.workers.min(n);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job taken twice");
                    let out = f(i, job.run());
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker left a result slot empty")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_net::{topo, FixedController};

    fn jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| {
                let t = topo::chain(3, Time::ZERO, Time::from_secs(5));
                Job::new(
                    format!("chain/{i}"),
                    NetworkSpec::from_topology(&t, 42 + i as u64),
                    Time::from_secs(5),
                    Box::new(|_| Box::new(FixedController::standard())),
                )
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_job_order() {
        // Workers race, but outputs must line up with inputs: check via a
        // map that records the job index alongside the seed-derived
        // event count.
        let serial = SweepRunner::new(1).run_map(jobs(4), |i, net| (i, net.events_processed()));
        let par = SweepRunner::new(4).run_map(jobs(4), |i, net| (i, net.events_processed()));
        assert_eq!(serial, par);
        for (i, &(j, _)) in par.iter().enumerate() {
            assert_eq!(i, j);
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let mut serial = SweepRunner::new(1).run(jobs(3));
        let mut par = SweepRunner::new(3).run(jobs(3));
        for (a, b) in serial.iter_mut().zip(par.iter_mut()) {
            let mut sa = a.snapshot("x");
            let mut sb = b.snapshot("x");
            sa.perf = ezflow_net::PerfSnapshot::zeroed();
            sb.perf = ezflow_net::PerfSnapshot::zeroed();
            assert_eq!(sa, sb, "identical job must yield identical snapshot");
        }
    }

    #[test]
    fn zero_workers_resolves_to_machine_parallelism() {
        assert!(SweepRunner::new(0).workers() >= 1);
        assert_eq!(SweepRunner::new(3).workers(), 3);
    }
}
