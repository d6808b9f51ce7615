//! **Scenario 2** (Figs. 10, 11 + Table 3) — three flows with hidden
//! sources (Fig. 9). F1 and F2 run from the start; F3 joins for the
//! middle period; F1 finishes alone.
//!
//! Paper (Table 3): period 1 under 802.11 gives F1 = 145.6 / F2 = 39.9
//! (FI 0.75, F2 suffers ~15 s delays from the hidden-node situation);
//! EZ-flow equalizes to 89.9 / 100.3 (FI 1.00). Period 2 under 802.11
//! starves F2 and F3 (129.9 / 31.0 / 27.3, FI 0.64, cumulative 188.2);
//! EZ-flow reaches 304.6 cumulative (+62%), FI 0.80, delays an order of
//! magnitude lower. Period 3 recovers the single-flow operating point
//! (150.0 vs 179.9 kb/s).

use ezflow_net::topo;
use ezflow_sim::Duration;
use ezflow_stats::{jain_index, render_series};

use super::scenario1::scale_timeline;
use super::Algo;
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let tl = scale_timeline(scale, &[5, 1805, 3605, 4500]);
    let (t0, t1, t2, t3) = (tl[0], tl[1], tl[2], tl[3]);

    let mut topo = topo::scenario2();
    topo.flows[0].start = t0;
    topo.flows[0].stop = t3;
    topo.flows[1].start = t0;
    topo.flows[1].stop = t2;
    topo.flows[2].start = t1;
    topo.flows[2].stop = t2;

    let mut rep = Report::new(
        "scenario2",
        "Figs. 10-11 + Table 3: three flows with hidden sources",
    );
    rep.note(format!(
        "F1 {}..{}; F2 {}..{}; F3 {}..{} (paper: 5..4500 / 5..3605 / 1805..3605 s)",
        t0, t3, t0, t2, t1, t2
    ));

    let algos = [Algo::Plain, Algo::EzFlow];
    let spec = scale.spec(&topo, scale.seed);
    let jobs = algos.map(|algo| {
        let label = format!("scenario2/{}", algo.name());
        Job::new(label, spec.clone(), t3, algo.factory())
    });
    let mut per_algo = std::collections::HashMap::new();
    for (algo, net) in algos.into_iter().zip(scale.runner().run(jobs.into())) {
        for f in [0u32, 1, 2] {
            rep.figures.push(render_series(
                &format!("Fig10 {}: delay of F{} [s]", algo.name(), f + 1),
                &net.metrics.delay_net[&f].binned_mean(Duration::from_secs(20)),
                64,
                7,
            ));
        }
        if algo == Algo::EzFlow {
            for node in [0usize, 1, 10, 11, 19, 20] {
                let pts: Vec<(f64, f64)> = net.metrics.cw[node]
                    .points()
                    .into_iter()
                    .map(|(t, v)| (t, v.log2()))
                    .collect();
                rep.figures.push(render_series(
                    &format!("Fig11 EZ-flow: log2(cw) at node {node}"),
                    &pts,
                    64,
                    6,
                ));
            }
        }
        per_algo.insert(algo.name(), net);
    }

    // Table 3.
    let periods = [
        ("P1 (F1,F2)", t0, t1, vec![0u32, 1]),
        ("P2 (F1,F2,F3)", t1, t2, vec![0u32, 1, 2]),
        ("P3 (F1)", t2, t3, vec![0u32]),
    ];
    let paper: &[(&str, &str, &str)] = &[
        ("P1 (F1,F2)", "802.11", "145.6 / 39.9, FI 0.75"),
        ("P1 (F1,F2)", "EZ-flow", "89.9 / 100.3, FI 1.00"),
        ("P2 (F1,F2,F3)", "802.11", "129.9 / 31.0 / 27.3, FI 0.64"),
        ("P2 (F1,F2,F3)", "EZ-flow", "29.5 / 139.7 / 135.4, FI 0.80"),
        ("P3 (F1)", "802.11", "150.0"),
        ("P3 (F1)", "EZ-flow", "179.9"),
    ];
    let mut stats = std::collections::HashMap::new();
    for algo in [Algo::Plain, Algo::EzFlow] {
        let net = &per_algo[algo.name()];
        for (label, from, to, flows) in &periods {
            let kb: Vec<f64> = flows
                .iter()
                .map(|f| net.metrics.mean_kbps(*f, *from, *to))
                .collect();
            let fi = jain_index(&kb);
            let delay: f64 = flows
                .iter()
                .map(|f| net.metrics.delay_net[f].window(*from, *to).mean)
                .sum::<f64>()
                / flows.len() as f64;
            let p = paper
                .iter()
                .find(|(l, a, _)| l == label && *a == algo.name())
                .expect("paper row");
            let kb_text = kb
                .iter()
                .map(|k| format!("{k:.1}"))
                .collect::<Vec<_>>()
                .join(" / ");
            rep.row(
                format!("{label} [{}]: kb/s, FI", algo.name()),
                p.2.to_string(),
                format!("{kb_text}, FI {fi:.2} (mean delay {delay:.2} s)"),
            );
            stats.insert((*label, algo.name()), (kb.clone(), fi, delay));
            if flows.len() > 1 {
                let (f_min, f_mean) = super::fairness_windows(net, flows, *from, *to);
                rep.row(
                    format!("{label} [{}]: fairness_min_window (Jain)", algo.name()),
                    "-",
                    format!("{f_min:.2} (mean {f_mean:.2})"),
                );
            }
        }
    }

    let g = |l: &str, a: Algo| stats[&(l, a.name())].clone();
    let (kb1p, fi1p, d1p) = g("P1 (F1,F2)", Algo::Plain);
    let (kb1e, fi1e, d1e) = g("P1 (F1,F2)", Algo::EzFlow);
    let (kb2p, fi2p, d2p) = g("P2 (F1,F2,F3)", Algo::Plain);
    let (kb2e, fi2e, d2e) = g("P2 (F1,F2,F3)", Algo::EzFlow);
    let (kb3p, _, _) = g("P3 (F1)", Algo::Plain);
    let (kb3e, _, _) = g("P3 (F1)", Algo::EzFlow);

    rep.check(
        "P1: 802.11 treats the flows unequally, EZ-flow improves FI",
        fi1e > fi1p,
    );
    rep.check("P1: EZ-flow cuts mean delay by >= 3x", d1e < d1p / 3.0);
    rep.check(
        "P2: EZ-flow raises cumulative throughput",
        kb2e.iter().sum::<f64>() > kb2p.iter().sum::<f64>(),
    );
    rep.check("P2: EZ-flow improves FI", fi2e > fi2p);
    rep.check("P2: EZ-flow cuts mean delay by >= 3x", d2e < d2p / 3.0);
    rep.check(
        "P3: EZ-flow single-flow throughput >= 802.11's",
        kb3e[0] > kb3p[0],
    );
    let _ = kb1p;
    let _ = kb1e;
    rep
}
