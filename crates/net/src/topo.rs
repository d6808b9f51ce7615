//! The paper's topologies.
//!
//! Every experiment runs on one of four layouts:
//!
//! * [`chain`] — the K-hop line of Fig. 1 and of the analytical model:
//!   nodes every 200 m, so 1–2-hop neighbours carrier-sense each other
//!   (≤ 400 m < 550 m) and 3-hop neighbours are hidden (600 m > 550 m).
//! * [`testbed`] — the 9-node campus deployment of Fig. 3, with per-link
//!   loss calibrated to the Table 1 capacities. F1 is the 7-hop flow
//!   N0→…→N7 over links `l0..l6` (bottleneck `l2`); F2 is the 4-hop
//!   parking-lot flow entering at N4 from the extra source node 8 (the
//!   paper's N0′).
//! * [`scenario1`] — Fig. 5: two 8-hop flows on a Y of two branches merging
//!   at N4 toward the gateway N0 (uplink backhaul pattern).
//! * [`scenario2`] — Fig. 9: three flows with hidden sources. The paper
//!   does not give coordinates, so this is a documented reconstruction
//!   satisfying every property the text states: N10 (F2's source) is
//!   hidden from N0 and carrier-senses only N11 and N12; the lower parts
//!   of F2 and F3 share the medium with F1's chain; node ids match the
//!   `cw` labels of Fig. 11 (F2 = N10..N15, F3 = N19..N24).
//!
//! The three paper layouts are data: `scenarios/testbed.json`,
//! `scenarios/scenario1.json` and `scenarios/scenario2.json` are their
//! only definition, compiled into this crate and loaded by [`testbed`],
//! [`scenario1`] and [`scenario2`]; the doc comments there record how the
//! coordinates and the link calibration were derived.

use ezflow_phy::{LossModel, Position};
use ezflow_sim::Time;

use crate::scenario::{CompiledScenario, ScenarioSpec};
use crate::transport::Transport;

/// One unidirectional flow over a fixed multi-hop path.
#[derive(Clone, Debug, PartialEq)]
pub struct FlowSpec {
    /// Flow id: unique and below
    /// [`TRANSPORT_ACK_FLOW`](crate::transport::TRANSPORT_ACK_FLOW), not
    /// necessarily the flow's index.
    pub id: u32,
    /// Full node path, source first, destination last.
    pub path: Vec<usize>,
    /// Application rate, bits/s (the paper saturates with 2 Mb/s).
    /// A windowed flow is ACK-clocked: its rate only paces the ticks
    /// that top its window up.
    pub rate_bps: u64,
    /// Payload bytes per packet, at most
    /// [`MAX_PAYLOAD_BYTES`](crate::scenario::MAX_PAYLOAD_BYTES).
    pub payload_bytes: u32,
    /// Generation start.
    pub start: Time,
    /// Generation stop.
    pub stop: Time,
    /// Source pacing: open-loop CBR (the paper) or closed-loop windowed.
    pub transport: Transport,
}

impl FlowSpec {
    /// A saturating 2 Mb/s CBR flow along `path` for `[start, stop)`.
    pub fn saturating(id: u32, path: Vec<usize>, start: Time, stop: Time) -> Self {
        FlowSpec {
            id,
            path,
            rate_bps: 2_000_000,
            payload_bytes: 1000,
            start,
            stop,
            transport: Transport::Cbr,
        }
    }

    /// A fixed-window (TCP-like, ACK-clocked) flow along `path`.
    pub fn windowed(id: u32, path: Vec<usize>, window: usize, start: Time, stop: Time) -> Self {
        FlowSpec {
            transport: Transport::Windowed {
                window,
                ack_payload: 40,
            },
            ..FlowSpec::saturating(id, path, start, stop)
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// A complete experiment layout: node placement, link quality and flows.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Human-readable name.
    pub name: String,
    /// Node positions (meters).
    pub positions: Vec<Position>,
    /// Link loss process.
    pub loss: LossModel,
    /// The flows.
    pub flows: Vec<FlowSpec>,
}

/// Standard inter-node spacing (meters).
pub const SPACING: f64 = 200.0;

/// Carrier-sense range used by every experiment (meters).
///
/// At 200 m spacing this makes carrier sensing cover **three** hops
/// (600 m ≤ 620 m) while four hops (800 m) stay hidden — the mesh-density
/// regime of the paper's testbed, where the 3-hop chain is the longest
/// stable one. The decode range stays at the ns-2 default (250 m). With
/// the ns-2 550 m default instead, even the destination's ACKs three hops
/// away are inaudible to the source, which (combined with capture) tips
/// the 3-hop chain into turbulence as well; real 802.11b carrier sensing
/// is commonly 2.5–3× the decode range, so 620 m is the faithful choice
/// for reproducing Fig. 1's stability boundary. See DESIGN.md §4.
pub const CS_RANGE: f64 = 620.0;

/// A K-hop chain (K+1 nodes) with one saturating flow 0 → K active over
/// `[start, stop)`.
pub fn chain(hops: usize, start: Time, stop: Time) -> Topology {
    assert!(hops >= 1);
    let positions = ezflow_phy::geom::line_positions(hops + 1, SPACING);
    let flow = FlowSpec::saturating(0, (0..=hops).collect(), start, stop);
    Topology {
        name: "chain".into(),
        positions,
        loss: LossModel::ideal(),
        flows: vec![flow],
    }
}

/// Paper Table 1 mean link capacities for F1's links `l0..l6`, kb/s.
pub const TABLE1_KBPS: [f64; 7] = [845.0, 672.0, 408.0, 748.0, 746.0, 805.0, 648.0];

/// Node id of the paper's N0′ (F2's source) in the [`testbed`] layout.
pub const TESTBED_F2_SRC: usize = 8;

/// The paper's three layouts, as committed under `scenarios/`.
const TESTBED_JSON: &str = include_str!("../../../scenarios/testbed.json");
const SCENARIO1_JSON: &str = include_str!("../../../scenarios/scenario1.json");
const SCENARIO2_JSON: &str = include_str!("../../../scenarios/scenario2.json");

/// The 9-node campus testbed of Fig. 3, loaded from
/// `scenarios/testbed.json`. `f1`/`f2` toggle the two flows (Table 2
/// studies them alone and together); the kept flows are renumbered
/// densely and run over `[start, stop)`.
///
/// N0..N7 sit on the x axis every 200 m; N8 (the paper's N0′, F2's
/// source) sits 200 m off the chain next to N4. Every link is
/// symmetric, its PER `calibrate::per_for_capacity` of its capacity for
/// 1,000-byte payloads under the MAC's constants, written in shortest
/// round-trip digits: `l0..l6` at [`TABLE1_KBPS`], and F2's access link
/// N8–N4 (not in Table 1) at 750 kb/s, a good link at the level of
/// `l3`/`l4`.
pub fn testbed(f1: bool, f2: bool, start: Time, stop: Time) -> Topology {
    let mut t = committed(TESTBED_JSON).topology;
    let keep = [f1, f2];
    t.flows.retain(|f| keep[f.id as usize]);
    for (id, f) in t.flows.iter_mut().enumerate() {
        f.id = id as u32;
        f.start = start;
        f.stop = stop;
    }
    t
}

/// Compiles one of the committed `scenarios/*.json` documents.
fn committed(document: &str) -> CompiledScenario {
    ScenarioSpec::parse(document)
        .and_then(|spec| spec.compile())
        .expect("committed scenario documents are valid")
}

/// Fig. 5: two 8-hop flows merging at N4 toward the gateway N0, loaded
/// from `scenarios/scenario1.json`.
///
/// The shared chain N4..N0 runs east along the x axis, N4 at the origin
/// and a node every 200 m; two branches leave N4 westward at ±15° from
/// the trunk's line (165° and 195° from the x axis), again a node every
/// 200 m — N6, N8, N10, N12 to the north, N5, N7, N9, N11 to the south.
///
/// F1 (N12→N10→N8→N6→N4→N3→N2→N1→N0) runs 5 s – 2504 s;
/// F2 (N11→N9→N7→N5→N4→…→N0) runs 605 s – 1804 s.
pub fn scenario1() -> Topology {
    committed(SCENARIO1_JSON).topology
}

/// A dense `rows × cols` grid mesh with one saturating west→east flow per
/// row, all active over `[start, stop)` — also what a scenario document's
/// `"kind": "grid"` topology compiles to.
///
/// Nodes sit every `spacing` meters in both directions, so tight spacings
/// put *every* node inside every other's carrier-sense range — the
/// worst case for the channel's per-sender neighbor lists (degree ≈ N)
/// and therefore the stressor the hot-path golden
/// (`ezflow_bench::golden`) pins the neighbor-table path on.
pub fn grid(rows: usize, cols: usize, spacing: f64, start: Time, stop: Time) -> Topology {
    assert!(rows >= 1 && cols >= 2, "each row must carry a 1+ hop flow");
    let mut positions = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            positions.push(Position::new(c as f64 * spacing, r as f64 * spacing));
        }
    }
    let flows = (0..rows)
        .map(|r| {
            let path: Vec<usize> = (0..cols).map(|c| r * cols + c).collect();
            FlowSpec::saturating(r as u32, path, start, stop)
        })
        .collect();
    Topology {
        name: "grid".into(),
        positions,
        loss: LossModel::ideal(),
        flows,
    }
}

/// Fig. 9 (reconstruction): three flows with hidden sources, loaded
/// from `scenarios/scenario2.json`.
///
/// * F1: N0→N1→…→N9 (9 hops along the x axis), 5 s – 4500 s.
/// * F2: N10→N11→N12→N13→N14→N15 (descending from the north, lower hops
///   sharing the medium with F1's head), 5 s – 3605 s.
/// * F3: N19→N20→N21→N22→N23→N24 (ascending from the south near F1's
///   middle, F2's chain mirrored), 1805 s – 3605 s.
///
/// Properties from the paper preserved: N10 is hidden from N0
/// (dist ≈ 1077 m > 550 m) and carrier-senses only N11 and N12 — the hop
/// N12→N13 stretches to 240 m so that N13 stays outside N10's
/// carrier-sense range; the flows share the wireless resource on parts of
/// their paths; node ids match the `cw` labels of Fig. 11. Nodes 16–18
/// exist but are idle (parked far away, distinct), keeping the paper's
/// numbering.
pub fn scenario2() -> Topology {
    committed(SCENARIO2_JSON).topology
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_phy::{Channel, ChannelConfig};

    fn channel_for(t: &Topology) -> Channel {
        let cfg = ChannelConfig {
            cs_range: CS_RANGE,
            ..ChannelConfig::default()
        };
        Channel::new(&t.positions, cfg, t.loss.clone())
    }

    #[test]
    fn chain_geometry() {
        let t = chain(4, Time::from_secs(0), Time::from_secs(10));
        assert_eq!(t.positions.len(), 5);
        assert_eq!(t.flows[0].hops(), 4);
        let ch = channel_for(&t);
        assert!(ch.can_decode(0, 1));
        assert!(!ch.can_decode(0, 2));
        assert!(ch.can_sense(0, 2));
        assert!(ch.can_sense(0, 3), "3-hop neighbours are sensed");
        assert!(!ch.can_sense(0, 4), "4-hop neighbours are hidden");
    }

    #[test]
    fn scenario1_paths_are_connected_and_merge() {
        let t = scenario1();
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(
                    ch.can_decode(w[0], w[1]),
                    "hop {}->{} must decode",
                    w[0],
                    w[1]
                );
            }
        }
        assert_eq!(t.flows[0].hops(), 8);
        assert_eq!(t.flows[1].hops(), 8);
        // Branch heads are 2 hops of distance from the junction's chain.
        assert!(ch.can_sense(6, 4));
        assert!(ch.can_sense(8, 4));
    }

    /// The derivation the `scenario1` doc comment records, checked on the
    /// loaded document: nothing else ties the committed coordinates to it.
    #[test]
    fn scenario1_document_has_the_documented_geometry() {
        let t = scenario1();
        assert_eq!(t.name, "scenario1");
        assert_eq!(t.positions.len(), 13);
        assert_eq!(t.loss, LossModel::ideal());
        for f in &t.flows {
            for w in f.path.windows(2) {
                let d = t.positions[w[0]].distance(&t.positions[w[1]]);
                assert!((d - SPACING).abs() < 1e-9, "hop {}->{}: {d} m", w[0], w[1]);
            }
        }
        // The trunk runs east from N4 at the origin; each branch leaves
        // N4 westward, 15 degrees off the trunk's line, on its own side.
        assert_eq!(t.positions[4], Position::new(0.0, 0.0));
        assert_eq!(t.positions[0], Position::new(4.0 * SPACING, 0.0));
        for (branch, side) in [([6, 8, 10, 12], 1.0), ([5, 7, 9, 11], -1.0)] {
            for k in branch {
                let p = t.positions[k];
                let off_trunk = (side * p.y).atan2(-p.x).to_degrees();
                assert!((off_trunk - 15.0).abs() < 1e-9, "N{k}: {off_trunk} deg");
            }
        }
        let s = Time::from_secs;
        let f1 = FlowSpec::saturating(0, vec![12, 10, 8, 6, 4, 3, 2, 1, 0], s(5), s(2504));
        let f2 = FlowSpec::saturating(1, vec![11, 9, 7, 5, 4, 3, 2, 1, 0], s(605), s(1804));
        assert_eq!(t.flows, vec![f1, f2]);
        assert_eq!(committed(SCENARIO1_JSON).until, s(2504));
    }

    #[test]
    fn grid_is_dense_and_rowwise_connected() {
        let t = grid(4, 4, 140.0, Time::ZERO, Time::from_secs(10));
        assert_eq!(t.positions.len(), 16);
        assert_eq!(t.flows.len(), 4);
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(ch.can_decode(w[0], w[1]), "hop {}->{}", w[0], w[1]);
            }
        }
        // 140 m spacing: the whole 420 m x 420 m grid fits inside one
        // 620 m carrier-sense disk — every node senses every other.
        for a in 0..16 {
            for b in 0..16 {
                if a != b {
                    assert!(ch.can_sense(a, b), "{a} must sense {b}");
                }
            }
        }
    }

    #[test]
    fn scenario2_hidden_source_properties() {
        let t = scenario2();
        let ch = channel_for(&t);
        for f in &t.flows {
            for w in f.path.windows(2) {
                assert!(
                    ch.can_decode(w[0], w[1]),
                    "hop {}->{} must decode",
                    w[0],
                    w[1]
                );
            }
        }
        // N10 is hidden from N0...
        assert!(!ch.can_sense(10, 0));
        assert!(!ch.can_sense(0, 10));
        // ...and carrier-senses exactly N11 and N12.
        let sensed: Vec<usize> = (0..25).filter(|&r| ch.can_sense(r, 10)).collect();
        assert_eq!(sensed, vec![11, 12], "N10's competitors");
        // F2's tail shares the medium with F1's head.
        assert!(ch.can_sense(14, 1));
        // F3's source likewise senses only its own next two hops.
        let sensed: Vec<usize> = (0..25).filter(|&r| ch.can_sense(r, 19)).collect();
        assert_eq!(sensed, vec![20, 21]);
        // Idle spares do not touch the arena.
        for k in 16..=18 {
            for r in 0..16 {
                assert!(!ch.can_sense(k, r));
            }
        }
    }

    #[test]
    fn testbed_links_calibrated_to_table1() {
        let t = testbed(true, true, Time::from_secs(0), Time::from_secs(10));
        assert_eq!(t.positions.len(), 9);
        assert_eq!(t.flows.len(), 2);
        assert_eq!(t.flows[0].hops(), 7);
        assert_eq!(t.flows[1].hops(), 4);
        // The bottleneck l2 must have the worst loss.
        let p2 = t.loss.loss_prob(2, 3);
        for (i, _) in TABLE1_KBPS.iter().enumerate() {
            assert!(t.loss.loss_prob(i, i + 1) <= p2 + 1e-12);
        }
        assert!(p2 > 0.1, "l2 needs substantial loss, got {p2}");
        let ch = channel_for(&t);
        assert!(ch.can_decode(TESTBED_F2_SRC, 4));
    }

    /// Calibrated capacity of F2's access link N0′ → N4, kb/s.
    const F2_ACCESS_KBPS: f64 = 750.0;

    /// The calibration the `testbed` doc comment records, recomputed
    /// bit for bit against the loaded document, with its geometry and
    /// flows: nothing else ties the committed digits to Table 1.
    #[test]
    fn testbed_document_is_the_table1_calibration() {
        use crate::calibrate::per_for_capacity;
        let t = testbed(true, true, Time::ZERO, Time::from_secs(1800));
        let links = (0..TABLE1_KBPS.len()).map(|i| (i, i + 1, TABLE1_KBPS[i]));
        for (a, b, kbps) in links.chain([(TESTBED_F2_SRC, 4, F2_ACCESS_KBPS)]) {
            let want = per_for_capacity(1000, kbps).to_bits();
            assert_eq!(t.loss.loss_prob(a, b).to_bits(), want, "{a}->{b}");
            assert_eq!(t.loss.loss_prob(b, a).to_bits(), want, "{b}->{a}");
        }
        assert_eq!(t.loss.loss_prob(0, 2), 0.0, "no other link is lossy");
        assert_eq!(t.name, "testbed");
        let mut positions: Vec<Position> = (0..8)
            .map(|i| Position::new(i as f64 * SPACING, 0.0))
            .collect();
        positions.push(Position::new(4.0 * SPACING, SPACING));
        assert_eq!(t.positions, positions);
        let s = Time::from_secs;
        let f1 = FlowSpec::saturating(0, (0..=7).collect(), s(0), s(1800));
        let f2 = FlowSpec::saturating(1, vec![TESTBED_F2_SRC, 4, 5, 6, 7], s(0), s(1800));
        assert_eq!(t.flows, vec![f1, f2]);
        let doc = committed(TESTBED_JSON);
        assert_eq!(doc.until, s(1800));
        assert_eq!(doc.topology.flows, t.flows);
        let controllers: Vec<&str> = doc.points.iter().map(|p| p.controller.as_str()).collect();
        assert_eq!(controllers, ["802.11", "EZ-flow (2^10 cap)"]);
    }

    #[test]
    fn testbed_flow_toggles() {
        let t = testbed(true, false, Time::from_secs(0), Time::from_secs(1));
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].path[0], 0);
        let t = testbed(false, true, Time::from_secs(0), Time::from_secs(1));
        assert_eq!(t.flows.len(), 1);
        assert_eq!(t.flows[0].path[0], TESTBED_F2_SRC);
        assert_eq!(t.flows[0].id, 0, "ids stay dense");
    }
}
