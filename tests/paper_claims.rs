//! Cross-crate integration: compressed versions of the paper's claims,
//! exercised through the umbrella crate's public API exactly as a
//! downstream user would.

use ezflow::prelude::*;

fn controllers(ez: bool) -> Box<dyn Fn(usize) -> Box<dyn Controller>> {
    if ez {
        Box::new(|_| Box::new(EzFlowController::with_defaults()))
    } else {
        Box::new(|_| Box::new(FixedController::standard()))
    }
}

/// §4.3 / Table 2: the parking lot starves the long flow under 802.11;
/// EZ-flow restores fairness and aggregate throughput.
#[test]
fn parking_lot_fairness() {
    let secs = 400;
    let until = Time::from_secs(secs);
    let warm = Time::from_secs(secs / 4);
    let topo = testbed(true, true, Time::ZERO, until);

    let mut plain = Network::from_topology(&topo, 5, &*controllers(false));
    plain.run_until(until);
    let kp: Vec<f64> = (0..2)
        .map(|f| plain.metrics.mean_kbps(f, warm, until))
        .collect();
    let fi_plain = jain_index(&kp);

    let make_ez = |_: usize| -> Box<dyn Controller> {
        Box::new(EzFlowController::new(EzFlowConfig::testbed()))
    };
    let mut ez = Network::from_topology(&topo, 5, &make_ez);
    ez.run_until(until);
    let ke: Vec<f64> = (0..2)
        .map(|f| ez.metrics.mean_kbps(f, warm, until))
        .collect();
    let fi_ez = jain_index(&ke);

    assert!(
        kp[0] < kp[1] / 3.0,
        "802.11 must starve F1: {:.1} vs {:.1}",
        kp[0],
        kp[1]
    );
    assert!(
        fi_ez > fi_plain + 0.15,
        "EZ-flow must repair fairness: {fi_plain:.2} -> {fi_ez:.2}"
    );
    assert!(
        ke[0] + ke[1] > kp[0] + kp[1],
        "EZ-flow must raise the aggregate"
    );
}

/// §5.2: the merging-flows scenario stabilizes and adapts when the load
/// changes (compressed timeline).
#[test]
fn merging_flows_adapt() {
    let (t1, t2, t3) = (
        Time::from_secs(200),
        Time::from_secs(400),
        Time::from_secs(600),
    );
    let mut topo = scenario1();
    topo.flows[0].start = Time::from_secs(5);
    topo.flows[0].stop = t3;
    topo.flows[1].start = t1;
    topo.flows[1].stop = t2;

    let mut net = Network::from_topology(&topo, 9, &*controllers(true));
    net.run_until(t3);

    // While both flows run, both get real throughput.
    let k1 = net.metrics.mean_kbps(0, t1 + Duration::from_secs(60), t2);
    let k2 = net.metrics.mean_kbps(1, t1 + Duration::from_secs(60), t2);
    assert!(
        k1 > 20.0 && k2 > 20.0,
        "both flows must flow: {k1:.1} / {k2:.1}"
    );

    // The F1 source's window climbed while competing and the network
    // returned to a healthy single-flow regime afterwards.
    let k_final = net.metrics.mean_kbps(0, t2 + Duration::from_secs(100), t3);
    assert!(
        k_final > 120.0,
        "post-F2 recovery too weak: {k_final:.1} kb/s"
    );
    // Relay queues empty again at the end.
    for node in [10usize, 8, 6, 4, 3, 2, 1] {
        assert!(
            net.occupancy(node) < 25,
            "node {node} still congested at the end"
        );
    }
}

/// The slotted model states Eq. 2's constants itself, so it stays an
/// independent oracle; this pins that they are the implementation's:
/// EZ-flow's thresholds and window bounds, and the MAC's default `CWmin`
/// as every node's starting window.
#[test]
fn the_model_and_the_implementation_share_the_papers_constants() {
    use ezflow::analysis as model;
    use ezflow::core as ez;
    assert_eq!(model::B_MIN, ez::B_MIN);
    assert_eq!(model::B_MAX, ez::B_MAX);
    assert_eq!(model::MIN_CW, ez::MIN_CW);
    assert_eq!(model::MAX_CW, ez::MAX_CW);
    assert_eq!(model::INITIAL_CW, ezflow::mac::CW_MIN_DEFAULT);
}

/// §6: the analytical model agrees with the packet simulator about the
/// 4-hop chain — both say 802.11 diverges and EZ-flow does not.
#[test]
fn model_and_simulator_agree() {
    // Packet-level.
    let secs = 200;
    let until = Time::from_secs(secs);
    let topo = chain(4, Time::ZERO, until);
    let mut plain = Network::from_topology(&topo, 3, &*controllers(false));
    plain.run_until(until);
    let mut ez = Network::from_topology(&topo, 3, &*controllers(true));
    ez.run_until(until);
    let half = Time::from_secs(secs / 2);
    let sim_plain_b1 = plain.metrics.buffer[1].window(half, until).mean;
    let sim_ez_b1 = ez.metrics.buffer[1].window(half, until).mean;

    // Slotted model.
    let mut fixed = SlottedModel::new(ModelConfig {
        adaptive: false,
        ..ModelConfig::default()
    });
    let mut adaptive = SlottedModel::new(ModelConfig::default());
    let mut rng = SimRng::new(3);
    let mut rng2 = SimRng::new(3);
    for _ in 0..150_000 {
        fixed.step(&mut rng);
        adaptive.step(&mut rng2);
    }

    assert!(sim_plain_b1 > 40.0, "simulator: 802.11 turbulent");
    assert!(sim_ez_b1 < 5.0, "simulator: EZ-flow stable");
    assert!(
        fixed.h() > 500,
        "model: fixed windows diverge, h={}",
        fixed.h()
    );
    assert!(
        adaptive.h() < 200,
        "model: EZ-flow bounded, h={}",
        adaptive.h()
    );
}

/// Controllers are interchangeable through the same harness (the crate's
/// extension point).
#[test]
fn baselines_run_through_the_same_api() {
    let secs = 120;
    let until = Time::from_secs(secs);
    let topo = chain(4, Time::ZERO, until);
    let make = static_penalty_factory(&topo.flows, 16, 64);
    let mut net = Network::from_topology(&topo, 1, &make);
    net.run_until(until);
    assert!(
        net.metrics.delivered[&0] > 100,
        "static-q must deliver traffic"
    );
}
