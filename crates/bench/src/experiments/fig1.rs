//! **Fig. 1** — buffer evolution of the relay nodes in 3- and 4-hop
//! chains under plain IEEE 802.11: the 3-hop network is stable, the 4-hop
//! network is turbulent with the first relay's buffer building up to
//! saturation.

use ezflow_sim::{Duration, Time};
use ezflow_stats::render_series;

use super::Algo;
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let secs = scale.secs(1800);
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    let mut rep = Report::new("fig1", "buffer evolution: 3-hop stable vs 4-hop turbulent");
    rep.note(format!(
        "saturated single flow, standard 802.11, {secs} s per run (paper: 1800 s)"
    ));

    let chains = [3usize, 4];
    let jobs = chains.map(|hops| {
        let topo = ezflow_net::topo::chain(hops, Time::ZERO, until);
        let spec = scale.spec(&topo, scale.seed);
        Job::new(
            format!("fig1/{hops}hop"),
            spec,
            until,
            Algo::Plain.factory(),
        )
    });
    let mut means = Vec::new();
    for (hops, net) in chains.into_iter().zip(scale.runner().run(jobs.into())) {
        for node in 1..hops.min(3) {
            let series = net.metrics.buffer[node].binned_mean(Duration::from_secs(30));
            rep.figures.push(render_series(
                &format!("{hops}-hop chain: buffer of node {node} [packets]"),
                &series,
                64,
                10,
            ));
            rep.series(
                format!("{hops}hop_node{node}_buffer"),
                "t_s",
                "packets",
                series,
            );
        }
        let b1 = net.metrics.buffer[1].window(half, until).mean;
        means.push((hops, b1));
        rep.row(
            format!("{hops}-hop: node-1 mean buffer (2nd half)"),
            if hops == 3 {
                "bounded, no build-up"
            } else {
                "builds up to saturation (~50)"
            },
            format!("{b1:.1} packets"),
        );
        rep.row(
            format!("{hops}-hop: end-to-end throughput"),
            if hops == 3 {
                "(4-hop is ~2x smaller than 3-hop)"
            } else {
                ""
            },
            format!("{:.0} kb/s", net.metrics.mean_kbps(0, half, until)),
        );
        rep.row(
            format!("{hops}-hop: relay overflow drops"),
            if hops == 3 { "none" } else { "sustained" },
            format!("{}", net.metrics.queue_drops[1]),
        );
    }

    let b3 = means[0].1;
    let b4 = means[1].1;
    rep.check("3-hop first relay stays off the ceiling (< 35)", b3 < 35.0);
    rep.check("4-hop first relay saturates (> 40)", b4 > 40.0);
    rep
}
