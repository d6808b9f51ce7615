//! **Seed robustness** (beyond the paper): the qualitative conclusions
//! must not depend on the random seed. Runs the headline 4-hop comparison
//! across many independent seeds and reports the outcome *distributions*.
//!
//! The 20 runs (2 algorithms × 10 seeds) are completely independent, so
//! they go through the [`crate::runner::SweepRunner`] as one batch.

use ezflow_net::topo;
use ezflow_sim::Time;
use ezflow_stats::mean_std;

use super::Algo;
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let secs = scale.secs(400);
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    let seeds: Vec<u64> = (0..10).map(|i| scale.seed.wrapping_add(1000 * i)).collect();

    let mut rep = Report::new(
        "seeds",
        "seed robustness of the 4-hop comparison (10 independent seeds)",
    );
    rep.note(format!("{secs} s per run, seeds {:?}", seeds));

    // One batch: [802.11 × seeds..., EZ-flow × seeds...], in that order.
    let algos = [Algo::Plain, Algo::EzFlow];
    let mut jobs = Vec::new();
    for algo in algos {
        for &seed in &seeds {
            let t = topo::chain(4, Time::ZERO, until);
            let label = format!("seeds/{}/{seed}", algo.name());
            jobs.push(Job::new(label, scale.spec(&t, seed), until, algo.factory()));
        }
    }
    // Reduce each run to its three numbers on the worker thread.
    let outcomes = scale.runner().run_map(jobs, |_, net| {
        (
            net.metrics.buffer[1].window(half, until).mean,
            net.metrics.mean_kbps(0, half, until),
            net.metrics.delay_net[&0].window(half, until).mean,
        )
    });

    let mut stable_everywhere = true;
    let mut ez_wins_everywhere = true;
    for (a, algo) in algos.iter().enumerate() {
        let (name, ez) = (algo.name(), *algo == Algo::EzFlow);
        let runs = &outcomes[a * seeds.len()..(a + 1) * seeds.len()];
        let b1s: Vec<f64> = runs.iter().map(|r| r.0).collect();
        let kbps: Vec<f64> = runs.iter().map(|r| r.1).collect();
        let delays: Vec<f64> = runs.iter().map(|r| r.2).collect();
        let b1 = mean_std(&b1s);
        let k = mean_std(&kbps);
        let d = mean_std(&delays);
        rep.row(
            format!("{name}: b1 over seeds"),
            if ez { "always ~empty" } else { "always ~50" },
            format!(
                "{:.1} ± {:.1} (range {:.1}..{:.1})",
                b1.mean, b1.std, b1.min, b1.max
            ),
        );
        rep.row(
            format!("{name}: throughput over seeds"),
            "",
            format!("{:.0} ± {:.0} kb/s", k.mean, k.std),
        );
        rep.row(
            format!("{name}: delay over seeds"),
            "",
            format!("{:.2} ± {:.2} s (max {:.2})", d.mean, d.std, d.max),
        );
        if ez {
            stable_everywhere &= b1.max < 10.0;
            ez_wins_everywhere &= d.max < 1.0;
        } else {
            stable_everywhere &= b1.min > 40.0;
        }
    }
    rep.check(
        "every seed shows 802.11 saturated and EZ-flow empty at node 1",
        stable_everywhere,
    );
    rep.check(
        "every seed keeps EZ-flow delay under 1 s",
        ez_wins_everywhere,
    );
    rep
}
