//! Scenario-spec properties: any spec the strategy can generate must
//! survive the JSON round trip unchanged, generative topologies must be
//! pure functions of their seeds, and the on-off transport must shape a
//! real network's offered load the way its duty cycle says.

use ezflow_net::scenario::{
    LinkBurst, LinkChurn, LinkPer, LossSpec, MixEntry, ScenarioSpec, SweepSpec, TopologySpec,
    TrafficMix,
};
use ezflow_net::{topo, FlowSpec, Network, NetworkSpec, Transport};
use ezflow_phy::{ChurnWindow, GilbertElliott, Position};
use ezflow_sim::{Duration, Time};
use proptest::prelude::*;

/// Seeds that survive JSON: the kernel writes whole numbers exactly only
/// up to 2^53 (the f64 integer limit), so spec seeds live in that range.
fn seed_st() -> impl Strategy<Value = u64> {
    0u64..(1u64 << 53)
}

fn time_st() -> impl Strategy<Value = Time> {
    (0u64..2_000_000_000_000).prop_map(Time::from_micros)
}

/// An activity window `(start, stop)`; the parser rejects `stop < start`.
fn window_st() -> impl Strategy<Value = (Time, Time)> {
    (time_st(), time_st()).prop_map(|(a, b)| (a.min(b), a.max(b)))
}

fn duration_st() -> impl Strategy<Value = Duration> {
    (1u64..100_000_000_000).prop_map(Duration::from_micros)
}

fn transport_st() -> impl Strategy<Value = Transport> {
    prop_oneof![
        Just(Transport::Cbr),
        (1usize..64, 1u32..2000).prop_map(|(window, ack_payload)| Transport::Windowed {
            window,
            ack_payload,
        }),
        (duration_st(), duration_st(), 1.01f64..8.0).prop_map(|(mean_on, mean_off, alpha)| {
            Transport::OnOff {
                mean_on,
                mean_off,
                alpha,
            }
        }),
    ]
}

fn topology_st() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        prop::collection::vec((-1e6f64..1e6, -1e6f64..1e6), 1..16).prop_map(|ps| {
            TopologySpec::Explicit {
                positions: ps.into_iter().map(|(x, y)| Position::new(x, y)).collect(),
            }
        }),
        (1usize..10, 1.0f64..500.0)
            .prop_map(|(hops, spacing)| TopologySpec::Chain { hops, spacing }),
        (1usize..5, 2usize..6, 1.0f64..500.0).prop_map(|(rows, cols, spacing)| {
            TopologySpec::Grid {
                rows,
                cols,
                spacing,
            }
        }),
        (
            3usize..50,
            10.0f64..5000.0,
            10.0f64..5000.0,
            1usize..5,
            seed_st()
        )
            .prop_map(
                |(nodes, width, height, g, seed)| TopologySpec::RandomGeometric {
                    nodes,
                    width,
                    height,
                    gateways: g.min(nodes - 1),
                    seed,
                }
            ),
    ]
}

fn flows_st() -> impl Strategy<Value = Vec<FlowSpec>> {
    prop::collection::vec(
        (
            prop::collection::vec(0usize..64, 2..8),
            1u64..10_000_000,
            1u32..4000,
            window_st(),
            transport_st(),
        ),
        0..5,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(
                |(i, (path, rate_bps, payload_bytes, (start, stop), transport))| FlowSpec {
                    id: i as u32,
                    path,
                    rate_bps,
                    payload_bytes,
                    start,
                    stop,
                    transport,
                },
            )
            .collect()
    })
}

fn ge_st() -> impl Strategy<Value = GilbertElliott> {
    (0.0f64..1.0, 0.0f64..1.0, 0.0f64..0.2, 0.0f64..1.0).prop_map(
        |(p_g2b, p_b2g, p_good, p_bad)| GilbertElliott {
            p_g2b,
            p_b2g,
            p_good,
            p_bad,
        },
    )
}

fn loss_st() -> impl Strategy<Value = LossSpec> {
    (
        0.0f64..1.0,
        prop::collection::vec((0usize..32, 0usize..32, 0.0f64..1.0, any::<bool>()), 0..4),
        prop::option::of(ge_st()),
        prop::collection::vec((0usize..32, 0usize..32, ge_st(), any::<bool>()), 0..3),
        prop::collection::vec(
            (
                0usize..32,
                0usize..32,
                duration_st(),
                duration_st(),
                0u64..5_000_000,
                any::<bool>(),
            ),
            0..3,
        ),
    )
        .prop_map(|(default_per, links, burst, burst_links, churn)| LossSpec {
            default_per,
            links: links
                .into_iter()
                .map(|(a, b, per, symmetric)| LinkPer {
                    a,
                    b,
                    per,
                    symmetric,
                })
                .collect(),
            burst,
            burst_links: burst_links
                .into_iter()
                .map(|(a, b, ge, symmetric)| LinkBurst {
                    a,
                    b,
                    ge,
                    symmetric,
                })
                .collect(),
            churn: churn
                .into_iter()
                .map(|(a, b, up, down, phase, symmetric)| LinkChurn {
                    a,
                    b,
                    window: ChurnWindow::new(up, down, Duration::from_micros(phase)),
                    symmetric,
                })
                .collect(),
        })
}

/// Lowercase identifier-ish strings (the vendored proptest has no regex
/// strategies).
fn name_st() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..10)
        .prop_map(|v| v.into_iter().map(|c| (b'a' + c) as char).collect())
}

/// Printable free text, JSON-escape-worthy characters included.
fn text_st() -> impl Strategy<Value = String> {
    const CHARS: &[u8] = b"abcdefXYZ0123456789 .-^()\"\\/\x07";
    prop::collection::vec(0usize..CHARS.len(), 0..24)
        .prop_map(|v| v.into_iter().map(|i| CHARS[i] as char).collect())
}

fn spec_st() -> impl Strategy<Value = ScenarioSpec> {
    (
        (
            name_st(),
            text_st(),
            1u64..2_000_000_000_000,
            seed_st(),
            1usize..10_000,
        ),
        topology_st(),
        flows_st(),
        prop::option::of((
            1usize..20,
            1u64..10_000_000,
            1u32..4000,
            window_st(),
            prop::collection::vec((0u32..100, transport_st()), 1..4),
        )),
        loss_st(),
        (
            prop::collection::vec(1usize..10_000, 0..3),
            prop::collection::vec(seed_st(), 0..3),
            prop::collection::vec(name_st(), 0..3),
        ),
    )
        .prop_map(
            |(
                (name, description, dur_us, seed, queue_cap),
                topology,
                flows,
                traffic,
                loss,
                (queue_caps, seeds, controllers),
            )| {
                // Explicit flows and a generative mix are mutually
                // exclusive; keep whichever the strategy filled first.
                let traffic = if flows.is_empty() {
                    traffic.map(
                        |(n, rate_bps, payload_bytes, (start, stop), mix)| TrafficMix {
                            flows: n,
                            rate_bps,
                            payload_bytes,
                            start,
                            stop,
                            mix: mix
                                .into_iter()
                                .map(|(weight, transport)| MixEntry { weight, transport })
                                .collect(),
                        },
                    )
                } else {
                    None
                };
                ScenarioSpec {
                    name,
                    description,
                    duration_secs: dur_us as f64 / 1e6,
                    seed,
                    queue_cap,
                    topology,
                    flows,
                    traffic,
                    loss,
                    sweep: SweepSpec {
                        queue_caps,
                        seeds,
                        controllers,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pipeline's foundation: serialising any spec and parsing it
    /// back yields an equal spec — every f64 (positions, probabilities,
    /// second-resolution times) survives the text round trip exactly.
    #[test]
    fn spec_round_trips_through_json(spec in spec_st()) {
        let pretty = spec.to_json().to_pretty();
        let back = ScenarioSpec::parse(&pretty).expect("emitted spec must parse");
        prop_assert_eq!(&spec, &back);
        // And the compact form agrees with the pretty form.
        let compact = spec.to_json().to_compact();
        let back2 = ScenarioSpec::parse(&compact).expect("compact form must parse");
        prop_assert_eq!(&spec, &back2);
    }

    /// Generative topologies are pure functions of their parameters:
    /// same spec, same layout — across independent compiles.
    #[test]
    fn generative_topologies_are_deterministic(
        nodes in 10usize..40,
        gateways in 1usize..4,
        seed in any::<u64>(),
    ) {
        let spec = ScenarioSpec {
            name: "det".into(),
            description: String::new(),
            duration_secs: 10.0,
            seed: 1,
            queue_cap: 50,
            topology: TopologySpec::RandomGeometric {
                nodes,
                width: 1000.0,
                height: 1000.0,
                gateways: gateways.min(nodes - 1),
                seed,
            },
            flows: vec![FlowSpec::saturating(0, vec![0, 1], Time::ZERO, Time::from_secs(1))],
            traffic: None,
            loss: LossSpec::default(),
            sweep: SweepSpec::default(),
        };
        // compile() may reject disconnected meshes (validate runs on the
        // explicit flow 0->1, which may be out of decode range); position
        // generation itself must still be deterministic, so go through
        // the public compile path only when it succeeds and otherwise
        // compare the error — both must repeat identically.
        match (spec.compile(), spec.compile()) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a.topology.positions, b.topology.positions),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "non-deterministic compile: {:?} vs {:?}", a.is_ok(), b.is_ok()),
        }
    }
}

/// An on-off flow through a real chain delivers a strict subset of what
/// the same-rate CBR flow delivers (the OFF periods), and identically so
/// across rebuilds with the same seed.
#[test]
fn onoff_flow_shapes_offered_load_end_to_end() {
    let until = Time::from_secs(120);
    let mut t = topo::chain(2, Time::ZERO, until);
    t.flows[0].rate_bps = 200_000;

    let run = |transport: Transport, seed: u64| -> u64 {
        let mut t = t.clone();
        t.flows[0].transport = transport;
        let mut net = Network::new(NetworkSpec::from_topology(&t, seed), &|_| {
            Box::new(ezflow_net::FixedController::standard())
        });
        net.run_until(until);
        net.metrics.delivered[&0]
    };

    let onoff = Transport::OnOff {
        mean_on: Duration::from_secs(2),
        mean_off: Duration::from_secs(2),
        alpha: 1.5,
    };
    let cbr = run(Transport::Cbr, 7);
    let shaped = run(onoff, 7);
    let shaped_again = run(onoff, 7);
    assert_eq!(shaped, shaped_again, "same seed, same deliveries");
    assert!(shaped > 0, "the ON periods must deliver traffic");
    // 50% duty cycle: well under CBR, well over a quarter of it.
    assert!(
        shaped < (cbr * 3) / 4 && shaped > cbr / 4,
        "shaped {shaped} vs cbr {cbr}: expected roughly half"
    );
}
