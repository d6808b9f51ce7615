//! **Ablations** (beyond the paper's tables): sensitivity of EZ-flow to
//! its parameters, robustness to link loss, the hop-count stability
//! boundary, and a controller tournament against the static penalty.
//!
//! Every sub-experiment is a sweep of independent runs, so each one
//! batches its runs through the [`crate::runner::SweepRunner`] and
//! consumes the outcomes in job order.

use ezflow_core::baselines::static_penalty_factory;
use ezflow_core::{EzFlowConfig, EzFlowController};
use ezflow_net::controller::{Controller, ControllerFactory, FixedController};
use ezflow_net::{topo, Network};
use ezflow_sim::Time;

use super::Algo;
use crate::report::{Report, Scale};
use crate::runner::Job;

/// Runs all ablations.
pub fn run(scale: Scale) -> Report {
    let mut rep = Report::new("ablations", "design-choice ablations (beyond the paper)");
    thresholds(&mut rep, scale);
    loss_robustness(&mut rep, scale);
    hop_boundary(&mut rep, scale);
    tournament(&mut rep, scale);
    hw_cap(&mut rep, scale);
    rts_cts(&mut rep, scale);
    eifs(&mut rep, scale);
    bidirectional(&mut rep, scale);
    windowed_transport(&mut rep, scale);
    rep
}

#[derive(Clone, Copy)]
struct Outcome {
    kbps: f64,
    delay: f64,
    b1: f64,
}

/// The three numbers every chain ablation reads off a finished run.
fn outcome(net: &Network, secs: u64) -> Outcome {
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    Outcome {
        kbps: net.metrics.mean_kbps(0, half, until),
        delay: net.metrics.delay_net[&0].window(half, until).mean,
        b1: net.metrics.buffer[1].window(half, until).mean,
    }
}

/// One K-hop chain run as a sweep job.
fn chain_job(
    label: impl Into<String>,
    hops: usize,
    secs: u64,
    scale: Scale,
    loss: f64,
    rts_cts: bool,
    make: ControllerFactory,
) -> Job {
    let until = Time::from_secs(secs);
    let t = topo::chain(hops, Time::ZERO, until);
    let mut spec = scale.spec(&t, scale.seed);
    if loss > 0.0 {
        spec.loss = ezflow_phy::LossModel::uniform(loss);
    }
    spec.mac.rts_cts = rts_cts;
    Job::new(label, spec, until, make)
}

/// Runs a batch of chain jobs and reduces each to its [`Outcome`].
fn run_outcomes(scale: Scale, secs: u64, jobs: Vec<Job>) -> Vec<Outcome> {
    scale
        .runner()
        .run_map(jobs, move |_, net| outcome(&net, secs))
}

/// `b_max` / `b_min` sweep on the 4-hop chain.
fn thresholds(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(600);
    rep.note(format!("threshold sweeps: 4-hop chain, {secs} s per run"));
    let b_maxes = [5.0, 10.0, 20.0, 40.0];
    let b_mins = [0.05, 1.0, 5.0];
    let mut jobs = Vec::new();
    for b_max in b_maxes {
        let cfg = EzFlowConfig {
            b_max,
            ..EzFlowConfig::default()
        };
        jobs.push(chain_job(
            format!("ablations/b_max={b_max}"),
            4,
            secs,
            scale,
            0.0,
            false,
            Box::new(move |_| Box::new(EzFlowController::new(cfg))),
        ));
    }
    for b_min in b_mins {
        let cfg = EzFlowConfig {
            b_min,
            ..EzFlowConfig::default()
        };
        jobs.push(chain_job(
            format!("ablations/b_min={b_min}"),
            4,
            secs,
            scale,
            0.0,
            false,
            Box::new(move |_| Box::new(EzFlowController::new(cfg))),
        ));
    }
    let outs = run_outcomes(scale, secs, jobs);

    let mut all_stable = true;
    for (b_max, o) in b_maxes.iter().zip(&outs[..b_maxes.len()]) {
        all_stable &= o.b1 < 15.0;
        rep.row(
            format!("b_max = {b_max}"),
            "stable for any reasonable b_max (§3.3)",
            format!("{:.0} kb/s, {:.2} s, b1 = {:.1}", o.kbps, o.delay, o.b1),
        );
    }
    for (b_min, o) in b_mins.iter().zip(&outs[b_maxes.len()..]) {
        rep.row(
            format!("b_min = {b_min}"),
            "b_min must be ~0.1 or nodes become too aggressive (§3.3)",
            format!("{:.0} kb/s, {:.2} s, b1 = {:.1}", o.kbps, o.delay, o.b1),
        );
    }
    rep.check(
        "EZ-flow stabilizes the 4-hop chain for every b_max tried",
        all_stable,
    );
}

/// Fault injection: uniform Bernoulli link loss (missed overhearings and
/// retransmissions everywhere) — the BOE's robustness claim.
fn loss_robustness(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(600);
    let until = Time::from_secs(secs);
    let losses = [0.0, 0.1, 0.2];

    let mut jobs: Vec<Job> = losses
        .iter()
        .map(|&loss| {
            chain_job(
                format!("ablations/loss={loss}"),
                4,
                secs,
                scale,
                loss,
                false,
                Box::new(|_| Box::new(EzFlowController::with_defaults())),
            )
        })
        .collect();
    // Bursty fades (Gilbert-Elliott) are the BOE's worst case: whole runs
    // of overhearings vanish at once. Same mean loss rate (~13%) as the
    // Bernoulli rows, but clustered.
    let bursty = ["802.11", "EZ-flow"];
    for (name, make) in bursty
        .iter()
        .zip([Algo::Plain.factory(), Algo::EzFlow.factory()])
    {
        let t = topo::chain(4, Time::ZERO, until);
        let mut spec = scale.spec(&t, scale.seed);
        spec.loss =
            ezflow_phy::LossModel::ideal().with_burst(ezflow_phy::loss::GilbertElliott::classic());
        jobs.push(Job::new(
            format!("ablations/bursty/{name}"),
            spec,
            until,
            make,
        ));
    }
    let outs = run_outcomes(scale, secs, jobs);

    let mut stable = true;
    for (&loss, o) in losses.iter().zip(&outs[..losses.len()]) {
        if loss > 0.0 {
            stable &= o.b1 < 15.0;
        }
        rep.row(
            format!("link loss {:.0}%", loss * 100.0),
            "BOE tolerates missed overhearings (§3.2)",
            format!("{:.0} kb/s, {:.2} s, b1 = {:.1}", o.kbps, o.delay, o.b1),
        );
    }
    let mut b1s = Vec::new();
    for (name, o) in bursty.iter().zip(&outs[losses.len()..]) {
        rep.row(
            format!("bursty loss (Gilbert-Elliott, ~13% mean) [{name}]"),
            "BOE tolerates clustered missed overhearings (§3.2)",
            format!("{:.0} kb/s, {:.2} s, b1 = {:.1}", o.kbps, o.delay, o.b1),
        );
        b1s.push(o.b1);
    }
    // The fades themselves throttle the source via retries, so even
    // 802.11's queue rides below the ceiling here; the meaningful claim
    // is that EZ-flow still extracts a clear improvement from clustered,
    // BOE-hostile losses.
    rep.check(
        "EZ-flow still improves the queue under bursty loss",
        b1s[1] < 0.8 * b1s[0],
    );
    rep.check("EZ-flow still stabilizes with 10-20% link loss", stable);
}

/// Stability boundary in hop count, 802.11 vs EZ-flow.
fn hop_boundary(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(600);
    let hops_range: Vec<usize> = (2..=8).collect();
    let mut jobs = Vec::new();
    for &hops in &hops_range {
        jobs.push(chain_job(
            format!("ablations/hops={hops}/802.11"),
            hops,
            secs,
            scale,
            0.0,
            false,
            Box::new(|_| Box::new(FixedController::standard())),
        ));
        jobs.push(chain_job(
            format!("ablations/hops={hops}/EZ-flow"),
            hops,
            secs,
            scale,
            0.0,
            false,
            Box::new(|_| Box::new(EzFlowController::with_defaults())),
        ));
    }
    let outs = run_outcomes(scale, secs, jobs);

    let mut plain_unstable = true;
    let mut ez_stable = true;
    for (i, &hops) in hops_range.iter().enumerate() {
        let plain = outs[2 * i];
        let ez = outs[2 * i + 1];
        if hops >= 4 {
            plain_unstable &= plain.b1 > 35.0;
        }
        ez_stable &= ez.b1 < 15.0;
        rep.row(
            format!("{hops}-hop chain b1 (802.11 vs EZ-flow)"),
            if hops <= 3 {
                "stable / stable"
            } else {
                "turbulent / stable"
            },
            format!("{:.1} / {:.1} packets", plain.b1, ez.b1),
        );
    }
    rep.check(">= 4-hop chains are turbulent under 802.11", plain_unstable);
    rep.check("EZ-flow stabilizes every chain length", ez_stable);
}

/// Controller tournament on the 8-hop chain.
fn tournament(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(900);
    let until = Time::from_secs(secs);
    let t = topo::chain(8, Time::ZERO, until);
    let flows = t.flows.clone();

    let entries: Vec<(&str, &str, ControllerFactory)> = vec![
        ("802.11", "turbulent baseline", Algo::Plain.factory()),
        (
            "EZ-flow",
            "stable, no message passing",
            Algo::EzFlow.factory(),
        ),
        (
            "static penalty q=1/128 [Aziz09]",
            "stable but topology-dependent",
            Box::new(static_penalty_factory(&flows, 16, 128)),
        ),
    ];

    let labels: Vec<(&str, &str)> = entries.iter().map(|(n, e, _)| (*n, *e)).collect();
    let jobs: Vec<Job> = entries
        .into_iter()
        .map(|(name, _, make)| {
            chain_job(
                format!("ablations/tournament/{name}"),
                8,
                secs,
                scale,
                0.0,
                false,
                make,
            )
        })
        .collect();
    let outs = run_outcomes(scale, secs, jobs);

    let mut results = Vec::new();
    for ((name, expect), o) in labels.into_iter().zip(outs) {
        rep.row(
            format!("8-hop chain [{name}]"),
            expect,
            format!("{:.0} kb/s, {:.2} s, b1 = {:.1}", o.kbps, o.delay, o.b1),
        );
        results.push((name, o));
    }
    let get = |n: &str| {
        results
            .iter()
            .find(|(m, _)| *m == n)
            .map(|(_, o)| o)
            .expect("ran")
    };
    let plain = get("802.11");
    let ez = get("EZ-flow");
    let sq = get("static penalty q=1/128 [Aziz09]");
    rep.check(
        "EZ-flow beats 802.11 on throughput and delay",
        ez.kbps > plain.kbps && ez.delay < plain.delay / 5.0,
    );
    rep.check(
        "EZ-flow matches the hand-tuned static penalty (within 15%)",
        ez.kbps > 0.85 * sq.kbps,
    );
}

/// §5.1 says enabling RTS/CTS is useless here because the sensing range
/// already covers the protection area — and it cannot help against nodes
/// beyond decode range. We implemented the handshake, so we can test that
/// claim instead of assuming it.
fn rts_cts(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(600);
    let jobs = vec![
        chain_job(
            "ablations/rts/802.11",
            4,
            secs,
            scale,
            0.0,
            false,
            Box::new(|_| Box::new(FixedController::standard())),
        ),
        chain_job(
            "ablations/rts/802.11+rts",
            4,
            secs,
            scale,
            0.0,
            true,
            Box::new(|_| Box::new(FixedController::standard())),
        ),
        chain_job(
            "ablations/rts/EZ-flow+rts",
            4,
            secs,
            scale,
            0.0,
            true,
            Box::new(|_| Box::new(EzFlowController::with_defaults())),
        ),
    ];
    let outs = run_outcomes(scale, secs, jobs);
    let (plain, with_rts, ez_rts) = (outs[0], outs[1], outs[2]);
    rep.row(
        "4-hop chain: 802.11 / 802.11+RTS-CTS / EZ-flow+RTS-CTS (b1)",
        "RTS/CTS does not cure turbulence (§5.1); EZ-flow works regardless",
        format!(
            "{:.1} / {:.1} / {:.1} packets",
            plain.b1, with_rts.b1, ez_rts.b1
        ),
    );
    rep.check(
        "RTS/CTS alone does not stabilize the 4-hop chain",
        with_rts.b1 > 35.0,
    );
    rep.check("EZ-flow stabilizes even with RTS/CTS on", ez_rts.b1 < 15.0);
}

/// EIFS (implemented but, like in ns-2-era studies, off by default): the
/// source senses-but-cannot-decode the traffic of relays 2-3 hops away, so
/// EIFS penalizes it on every such frame — a *built-in* brake on the very
/// asymmetry that causes turbulence. Does the stability boundary move?
fn eifs(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(600);
    let until = Time::from_secs(secs);
    let hops_tried = [3usize, 4];
    let jobs: Vec<Job> = hops_tried
        .iter()
        .map(|&hops| {
            let t = topo::chain(hops, Time::ZERO, until);
            let mut spec = scale.spec(&t, scale.seed);
            spec.mac.eifs = true;
            Job::new(
                format!("ablations/eifs/{hops}-hop"),
                spec,
                until,
                Box::new(|_| Box::new(FixedController::standard()) as Box<dyn Controller>),
            )
        })
        .collect();
    let outs = run_outcomes(scale, secs, jobs);

    let mut outcomes = Vec::new();
    for (&hops, o) in hops_tried.iter().zip(outs) {
        rep.row(
            format!("{hops}-hop chain, 802.11 + EIFS (b1, kb/s)"),
            "EIFS throttles the deaf source; skipped in the baseline model",
            format!("b1 = {:.1}, {:.0} kb/s", o.b1, o.kbps),
        );
        outcomes.push((hops, o.b1));
    }
    // Measured outcome: EIFS calms the 3-hop chain further (it brakes the
    // source on every sensed-not-decoded frame) but does NOT cure the
    // 4-hop turbulence — the paper's stability boundary is robust to this
    // modeling choice.
    rep.check(
        "the Fig. 1 stability boundary survives EIFS (3-hop calm, 4-hop turbulent)",
        outcomes[0].1 < 15.0 && outcomes[1].1 > 40.0,
    );
}

/// The paper argues EZ-flow also helps traffic that cannot rely on
/// end-to-end feedback; here two opposite-direction flows share a chain.
fn bidirectional(rep: &mut Report, scale: Scale) {
    use ezflow_net::topo::{FlowSpec, Topology};
    let secs = scale.secs(900);
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    let base = topo::chain(5, Time::ZERO, until);
    let mut flows = base.flows.clone();
    flows.push(FlowSpec::saturating(
        1,
        vec![5, 4, 3, 2, 1, 0],
        Time::ZERO,
        until,
    ));
    let t = Topology {
        name: "bidir-chain".into(),
        positions: base.positions.clone(),
        loss: base.loss.clone(),
        flows,
    };
    let names = ["802.11", "EZ-flow"];
    let jobs: Vec<Job> = names
        .iter()
        .zip([Algo::Plain.factory(), Algo::EzFlow.factory()])
        .map(|(name, make)| {
            Job::new(
                format!("ablations/bidir/{name}"),
                scale.spec(&t, scale.seed),
                until,
                make,
            )
        })
        .collect();
    let per_run = scale.runner().run_map(jobs, move |_, net| {
        let k0 = net.metrics.mean_kbps(0, half, until);
        let k1 = net.metrics.mean_kbps(1, half, until);
        let d: f64 = (net.metrics.delay_net[&0].window(half, until).mean
            + net.metrics.delay_net[&1].window(half, until).mean)
            / 2.0;
        let fw = super::fairness_windows(&net, &[0, 1], half, until);
        (k0, k1, d, fw)
    });

    let mut results = Vec::new();
    for (name, (k0, k1, d, (f_min, f_mean))) in names.iter().zip(per_run) {
        rep.row(
            format!("5-hop bidirectional [{name}]"),
            "EZ-flow handles flows without end-to-end feedback (§2.3)",
            format!(
                "{k0:.0} + {k1:.0} kb/s, mean delay {d:.2} s, \
                 fairness_min_window {f_min:.2} (mean {f_mean:.2})"
            ),
        );
        results.push((k0 + k1, d));
    }
    rep.check(
        "bidirectional: EZ-flow keeps aggregate within 10% and cuts delay >= 3x",
        results[1].0 > 0.9 * results[0].0 && results[1].1 < results[0].1 / 3.0,
    );
}

/// Closed-loop (TCP-like) traffic: a fixed-window transport self-clocks,
/// so queues stay bounded even under 802.11. Two regimes are probed:
///
/// * a **moderate window** (12, a few times the path's packet BDP) keeps
///   every queue below `b_min..b_max`'s upper edge, so EZ-flow's CAA
///   stays inert and must not disturb the flow — §2.3's compatibility
///   claim;
/// * an **oversized window** (40) pins the relay queues near `b_max`,
///   violating EZ-flow's open-loop design assumption: the two control
///   loops interact and EZ-flow can throttle the network to a lower
///   operating point. We report it as a documented limitation instead of
///   hiding it.
fn windowed_transport(rep: &mut Report, scale: Scale) {
    use ezflow_net::topo::{FlowSpec, Topology};
    let secs = scale.secs(600);
    let until = Time::from_secs(secs);
    let half = Time::from_secs(secs / 2);
    let base = topo::chain(4, Time::ZERO, until);

    let windows = [12usize, 40];
    let names = ["802.11", "EZ-flow"];
    let mut jobs = Vec::new();
    let mut keys = Vec::new();
    for &window in &windows {
        let t = Topology {
            name: "windowed-chain".into(),
            positions: base.positions.clone(),
            loss: base.loss.clone(),
            flows: vec![FlowSpec::windowed(
                0,
                vec![0, 1, 2, 3, 4],
                window,
                Time::ZERO,
                until,
            )],
        };
        for (name, make) in names
            .iter()
            .zip([Algo::Plain.factory(), Algo::EzFlow.factory()])
        {
            jobs.push(Job::new(
                format!("ablations/window-{window}/{name}"),
                scale.spec(&t, scale.seed),
                until,
                make,
            ));
            keys.push((window, *name));
        }
    }
    let per_run = scale.runner().run_map(jobs, move |_, net| {
        let k = net.metrics.mean_kbps(0, half, until);
        let d = net.metrics.delay_net[&0].window(half, until);
        let p95 = net.metrics.delay_net[&0]
            .percentile_in(half, until, 0.95)
            .unwrap_or(0.0);
        (k, d.mean, p95)
    });

    let mut moderate = Vec::new();
    for ((window, name), (k, d_mean, p95)) in keys.iter().zip(per_run) {
        rep.row(
            format!("4-hop chain, window-{window} transport [{name}]"),
            if *window == 12 {
                "moderate window: EZ-flow must not interfere (§2.3)"
            } else {
                "oversized window: control loops interact (limitation)"
            },
            format!("{k:.0} kb/s, delay {d_mean:.2} s (p95 {p95:.2})"),
        );
        if *window == 12 {
            moderate.push((k, d_mean));
        }
    }
    rep.check(
        "moderate window: EZ-flow preserves throughput (within 15%)",
        moderate[1].0 > 0.85 * moderate[0].0,
    );
    rep.check(
        "moderate window: EZ-flow does not substantially worsen delay",
        moderate[1].1 <= moderate[0].1 * 1.3,
    );
}

/// The MadWifi 2^10 cap: how much stabilization it costs on a long chain.
fn hw_cap(rep: &mut Report, scale: Scale) {
    let secs = scale.secs(900);
    let jobs = vec![
        chain_job(
            "ablations/cap/2^10",
            8,
            secs,
            scale,
            0.0,
            false,
            Box::new(|_| Box::new(EzFlowController::new(EzFlowConfig::testbed()))),
        ),
        chain_job(
            "ablations/cap/2^15",
            8,
            secs,
            scale,
            0.0,
            false,
            Box::new(|_| Box::new(EzFlowController::with_defaults())),
        ),
    ];
    let outs = run_outcomes(scale, secs, jobs);
    let (capped, free) = (outs[0], outs[1]);
    rep.row(
        "8-hop chain, EZ-flow capped at 2^10 vs 2^15",
        "cap limits stabilization (§4.3); simulation without it fully stabilizes (§5)",
        format!(
            "capped: {:.0} kb/s, {:.2} s, b1 = {:.1} | uncapped: {:.0} kb/s, {:.2} s, b1 = {:.1}",
            capped.kbps, capped.delay, capped.b1, free.kbps, free.delay, free.b1
        ),
    );
    rep.check(
        "both variants keep the 8-hop chain stable (b1 well below 50)",
        free.b1 < 25.0 && capped.b1 < 25.0,
    );
}
