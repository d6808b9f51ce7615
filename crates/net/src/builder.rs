//! Spec → network construction.
//!
//! [`NetworkSpec`] is the static, `Clone`-able description of a network
//! (positions, channel, loss, MAC parameters, flows, seed); this module
//! turns one into a runnable [`Network`]: derives the per-node RNG
//! streams, installs routes (including reverse paths for windowed
//! flows), creates the interface queues the paper's queue discipline
//! asks for, builds each flow's `transport::Flow` record, and
//! schedules the initial events. Being plain data, a spec can be built
//! once and shipped across threads — the sweep runner in `ezflow-bench`
//! leans on exactly that.

use ezflow_mac::{Mac, MacConfig};
use ezflow_phy::geom::{distance_tests, MAX_DISTANCE_TESTS};
use ezflow_phy::{Channel, ChannelConfig, LossModel, Position};
use ezflow_sim::{Duration, Scheduler, SimRng, Time};

use crate::controller::Controller;
use crate::engine::{Ev, TimerSlot, EV_KINDS, PROFILE_KINDS};
use crate::metrics::Metrics;
use crate::network::Network;
use crate::node::Node;
use crate::routing::{RouteConflict, StaticRouting};
use crate::scenario::{MAX_PAYLOAD_BYTES, MAX_QUEUE_CAP, MAX_WINDOW};
use crate::telemetry::Telemetry;
use crate::topo::{FlowSpec, Topology};
use crate::transport::{sub_microsecond_interval, Flow, Transport, TRANSPORT_ACK_FLOW};

/// Why a [`NetworkSpec`] (or the [`Topology`] it came from) cannot be
/// built — typed instead of an index panic deep inside construction, so
/// both the scenario loader and hand-built constructors surface the
/// same early, pointed diagnostics.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// No nodes at all.
    EmptyTopology,
    /// A node position is NaN or infinite.
    NonFinitePosition {
        /// The offending node.
        node: usize,
    },
    /// The layout packs so many nodes into carrier-sense range of each
    /// other that the channel's neighbour rows would not fit in memory.
    TooDense {
        /// Distance tests the neighbour walk would make at the
        /// carrier-sense range (an upper bound on its row entries).
        tests: u64,
    },
    /// The interface queue capacity is zero (nothing could ever send).
    ZeroQueueCap,
    /// The interface queue capacity is over [`MAX_QUEUE_CAP`].
    QueueCapTooLarge {
        /// The offending capacity.
        cap: usize,
    },
    /// A flow path has fewer than two nodes.
    ShortPath {
        /// The offending flow.
        flow: u32,
    },
    /// A flow path names a node the topology does not have.
    NodeOutOfBounds {
        /// The offending flow.
        flow: u32,
        /// The out-of-range node id.
        node: usize,
    },
    /// A flow path visits the same node twice (a routing loop).
    RepeatedNode {
        /// The offending flow.
        flow: u32,
        /// The repeated node id.
        node: usize,
    },
    /// Two consecutive hops are farther apart than the decode range.
    UndecodableHop {
        /// The offending flow.
        flow: u32,
        /// Transmitting hop.
        a: usize,
        /// Receiving hop.
        b: usize,
        /// Their distance in meters.
        dist: f64,
    },
    /// A flow's route, forward or (for a windowed flow) its ACKs' reverse
    /// route, leaves a node toward a destination by another next hop than
    /// an earlier route does: routes toward one destination must share
    /// their suffix.
    ConflictingRoute {
        /// The flow whose route conflicts.
        flow: u32,
        /// The node the two routes leave by different next hops.
        node: usize,
        /// The destination both routes lead to.
        dst: usize,
        /// The next hop of the earlier route.
        installed: usize,
        /// The next hop of this flow's route.
        offered: usize,
    },
    /// Two flows share an id (metrics are keyed by flow id).
    DuplicateFlowId {
        /// The duplicated id.
        id: u32,
    },
    /// A flow id collides with the internal transport-ACK id space.
    ReservedFlowId {
        /// The offending id (≥ [`TRANSPORT_ACK_FLOW`]).
        id: u32,
    },
    /// A flow's rate is zero (the tick interval would be undefined).
    ZeroRate {
        /// The offending flow.
        flow: u32,
    },
    /// A flow's packets would be under a microsecond apart (the tick
    /// interval would round to zero and the source never let time move).
    RateTooHigh {
        /// The offending flow.
        flow: u32,
        /// The inter-packet interval its rate and payload work out to, µs.
        interval_us: f64,
    },
    /// A flow's payload is zero bytes.
    ZeroPayload {
        /// The offending flow.
        flow: u32,
    },
    /// A data or transport-ACK payload is over [`MAX_PAYLOAD_BYTES`].
    PayloadTooLarge {
        /// The offending flow.
        flow: u32,
        /// Which payload: `payload_bytes` or `ack_payload`.
        field: &'static str,
        /// The offending size.
        bytes: u32,
    },
    /// A windowed transport with a zero window can never send.
    ZeroWindow {
        /// The offending flow.
        flow: u32,
    },
    /// A windowed transport's window is over [`MAX_WINDOW`].
    WindowTooLarge {
        /// The offending flow.
        flow: u32,
        /// The offending window.
        window: usize,
    },
    /// An on-off transport with a non-heavy-tail-able shape or a zero
    /// mean period.
    BadOnOff {
        /// The offending flow.
        flow: u32,
        /// What exactly is wrong.
        why: &'static str,
    },
    /// The telemetry sampling interval is set but zero.
    ZeroTelemetryEvery,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::EmptyTopology => write!(f, "topology has no nodes"),
            SpecError::NonFinitePosition { node } => {
                write!(f, "node {node} has a non-finite position")
            }
            SpecError::TooDense { tests } => write!(
                f,
                "layout too dense: the neighbour walk would make {tests} distance tests at \
                 carrier-sense range, over the budget of {MAX_DISTANCE_TESTS} — spread the \
                 nodes out or use fewer"
            ),
            SpecError::ZeroQueueCap => write!(f, "queue_cap must be nonzero"),
            SpecError::QueueCapTooLarge { cap } => write!(
                f,
                "queue_cap {cap} exceeds the {MAX_QUEUE_CAP}-packet limit"
            ),
            SpecError::ShortPath { flow } => {
                write!(f, "flow {flow}: path needs at least two nodes")
            }
            SpecError::NodeOutOfBounds { flow, node } => {
                write!(f, "flow {flow}: path node {node} is out of bounds")
            }
            SpecError::RepeatedNode { flow, node } => {
                write!(f, "flow {flow}: path visits node {node} twice")
            }
            SpecError::UndecodableHop { flow, a, b, dist } => write!(
                f,
                "flow {flow}: hop {a}->{b} is undecodable ({dist:.0} m apart)"
            ),
            SpecError::ConflictingRoute {
                flow,
                node,
                dst,
                installed,
                offered,
            } => write!(
                f,
                "flow {flow}: at node {node}, its route toward {dst} goes via {offered} but an \
                 earlier one goes via {installed} (routes toward one destination must share \
                 their suffix)"
            ),
            SpecError::DuplicateFlowId { id } => write!(f, "duplicate flow id {id}"),
            SpecError::ReservedFlowId { id } => write!(
                f,
                "flow id {id} collides with the transport-ACK id space (>= {TRANSPORT_ACK_FLOW})"
            ),
            SpecError::ZeroRate { flow } => write!(f, "flow {flow}: rate_bps must be nonzero"),
            SpecError::RateTooHigh { flow, interval_us } => write!(
                f,
                "flow {flow}: rate_bps puts packets {interval_us} us apart, under the clock's 1 us \
                 resolution"
            ),
            SpecError::ZeroPayload { flow } => {
                write!(f, "flow {flow}: payload_bytes must be nonzero")
            }
            SpecError::PayloadTooLarge { flow, field, bytes } => write!(
                f,
                "flow {flow}: {field} {bytes} exceeds the {MAX_PAYLOAD_BYTES}-byte limit"
            ),
            SpecError::ZeroWindow { flow } => {
                write!(f, "flow {flow}: window must be nonzero")
            }
            SpecError::WindowTooLarge { flow, window } => write!(
                f,
                "flow {flow}: window {window} exceeds the {MAX_WINDOW}-packet limit"
            ),
            SpecError::BadOnOff { flow, why } => write!(f, "flow {flow}: {why}"),
            SpecError::ZeroTelemetryEvery => write!(f, "telemetry_every must be nonzero"),
        }
    }
}

impl std::error::Error for SpecError {}

/// Static description of a network to build.
#[derive(Clone, Debug)]
pub struct NetworkSpec {
    /// Node positions.
    pub positions: Vec<Position>,
    /// Channel geometry parameters.
    pub channel: ChannelConfig,
    /// Link loss process.
    pub loss: LossModel,
    /// The MAC's two switches (RTS/CTS, EIFS).
    pub mac: MacConfig,
    /// Interface queue capacity, packets (the paper's hardware: 50).
    pub queue_cap: usize,
    /// The flows.
    pub flows: Vec<FlowSpec>,
    /// Master random seed.
    pub seed: u64,
    /// Flight-recorder capacity: the journeys of the first `flight_cap`
    /// packets admitted are recorded (0 disables the recorder; see
    /// [`crate::flight::FlightRecorder`]).
    pub flight_cap: usize,
    /// Telemetry sampling interval (`None` disables the telemetry bus —
    /// no sampling, zero cost; see [`crate::telemetry`]). The paper-ish
    /// default when armed is 100 ms of simulated time.
    pub telemetry_every: Option<Duration>,
    /// Arms the controller provenance audit when nonzero; the value bounds
    /// nothing, since the ledger keeps counters and trackers and streams
    /// its records. 0 leaves it off — one branch per probe site, zero
    /// cost; see [`crate::audit`].
    pub audit_cap: usize,
    /// Engine self-profiler: when set, `run_until` wall-clocks every
    /// handler dispatch per event kind into the perf snapshot's
    /// `handler_ns_by_kind`. Perf-only — never observable in the
    /// deterministic part of a snapshot.
    pub profile: bool,
}

impl NetworkSpec {
    /// Spec from a [`Topology`] with the paper's defaults (including the
    /// 3-hop carrier-sense range [`crate::topo::CS_RANGE`]).
    pub fn from_topology(topo: &Topology, seed: u64) -> Self {
        let channel = ChannelConfig {
            cs_range: crate::topo::CS_RANGE,
            ..ChannelConfig::default()
        };
        NetworkSpec {
            positions: topo.positions.clone(),
            channel,
            loss: topo.loss.clone(),
            mac: MacConfig::default(),
            queue_cap: 50,
            flows: topo.flows.clone(),
            seed,
            flight_cap: 0,
            telemetry_every: None,
            audit_cap: 0,
            profile: false,
        }
    }

    /// The default telemetry sampling interval (100 ms of simulated
    /// time) — what `--telemetry-dir` arms unless overridden.
    pub const TELEMETRY_EVERY: Duration = Duration::from_millis(100);

    /// The `audit_cap` that `--audit-dir` sets. Any nonzero value arms
    /// the ledger; no record is retained, so the number bounds nothing.
    pub const AUDIT_CAP: usize = 1 << 16;

    /// Checks that the spec can actually be built and run: positions
    /// finite and not too dense, queue capacity nonzero and bounded,
    /// every flow path in bounds, loop-free and decodable hop by hop, flow
    /// ids unique and outside the reserved ACK space, payloads nonzero and
    /// within an 802.11 MSDU, packets at least a clock tick apart,
    /// transport parameters sane, routes toward one destination sharing
    /// their suffix, and the telemetry interval nonzero. Returns
    /// the first problem found (fields in declaration order, flows in flow
    /// order), so the message always points at one concrete field.
    pub fn validate(&self) -> Result<(), SpecError> {
        self.routing().map(drop)
    }

    /// [`NetworkSpec::validate`]'s checks, in its order; on success, the
    /// routing table the flows need, which `build` runs on.
    fn routing(&self) -> Result<StaticRouting, SpecError> {
        let n = self.positions.len();
        if n == 0 {
            return Err(SpecError::EmptyTopology);
        }
        for (node, p) in self.positions.iter().enumerate() {
            if !(p.x.is_finite() && p.y.is_finite()) {
                return Err(SpecError::NonFinitePosition { node });
            }
        }
        check_density(&self.positions, self.channel.cs_range)?;
        if self.queue_cap == 0 {
            return Err(SpecError::ZeroQueueCap);
        }
        if self.queue_cap > MAX_QUEUE_CAP {
            return Err(SpecError::QueueCapTooLarge {
                cap: self.queue_cap,
            });
        }
        let mut seen_ids = std::collections::BTreeSet::new();
        for f in &self.flows {
            if f.id >= TRANSPORT_ACK_FLOW {
                return Err(SpecError::ReservedFlowId { id: f.id });
            }
            if !seen_ids.insert(f.id) {
                return Err(SpecError::DuplicateFlowId { id: f.id });
            }
            if f.path.len() < 2 {
                return Err(SpecError::ShortPath { flow: f.id });
            }
            let mut visited = std::collections::BTreeSet::new();
            for &node in &f.path {
                if node >= n {
                    return Err(SpecError::NodeOutOfBounds { flow: f.id, node });
                }
                if !visited.insert(node) {
                    return Err(SpecError::RepeatedNode { flow: f.id, node });
                }
            }
            for w in f.path.windows(2) {
                // `within` is the channel's decode test: valid here ⇒ decodes there.
                let (a, b) = (&self.positions[w[0]], &self.positions[w[1]]);
                if !a.within(b, self.channel.tx_range) {
                    return Err(SpecError::UndecodableHop {
                        flow: f.id,
                        a: w[0],
                        b: w[1],
                        dist: a.distance(b),
                    });
                }
            }
            if f.rate_bps == 0 {
                return Err(SpecError::ZeroRate { flow: f.id });
            }
            if f.payload_bytes == 0 {
                return Err(SpecError::ZeroPayload { flow: f.id });
            }
            if f.payload_bytes > MAX_PAYLOAD_BYTES {
                return Err(SpecError::PayloadTooLarge {
                    flow: f.id,
                    field: "payload_bytes",
                    bytes: f.payload_bytes,
                });
            }
            if let Some(interval_us) = sub_microsecond_interval(f.rate_bps, f.payload_bytes) {
                return Err(SpecError::RateTooHigh {
                    flow: f.id,
                    interval_us,
                });
            }
            match f.transport {
                Transport::Cbr => {}
                Transport::Windowed {
                    window,
                    ack_payload,
                } => {
                    if window == 0 {
                        return Err(SpecError::ZeroWindow { flow: f.id });
                    }
                    if window > MAX_WINDOW {
                        return Err(SpecError::WindowTooLarge { flow: f.id, window });
                    }
                    if ack_payload > MAX_PAYLOAD_BYTES {
                        return Err(SpecError::PayloadTooLarge {
                            flow: f.id,
                            field: "ack_payload",
                            bytes: ack_payload,
                        });
                    }
                }
                Transport::OnOff {
                    mean_on,
                    mean_off,
                    alpha,
                } => {
                    if !(alpha.is_finite() && alpha > 1.0) {
                        return Err(SpecError::BadOnOff {
                            flow: f.id,
                            why: "on-off alpha must be finite and > 1 (mean must exist)",
                        });
                    }
                    if mean_on.as_micros() == 0 || mean_off.as_micros() == 0 {
                        return Err(SpecError::BadOnOff {
                            flow: f.id,
                            why: "on-off mean periods must be nonzero",
                        });
                    }
                }
            }
        }
        // Every flow's path, then each windowed flow's reverse path (its
        // ACKs' route): the table refuses two routes that leave one node
        // toward one destination by different next hops.
        let mut routing = StaticRouting::new();
        let conflict = |flow| {
            move |c: RouteConflict| SpecError::ConflictingRoute {
                flow,
                node: c.node,
                dst: c.dst,
                installed: c.installed,
                offered: c.offered,
            }
        };
        for f in &self.flows {
            routing.install_path(&f.path).map_err(conflict(f.id))?;
        }
        for f in &self.flows {
            if matches!(f.transport, Transport::Windowed { .. }) {
                let back: Vec<usize> = f.path.iter().rev().copied().collect();
                routing.install_path(&back).map_err(conflict(f.id))?;
            }
        }
        if self.telemetry_every.is_some_and(Duration::is_zero) {
            return Err(SpecError::ZeroTelemetryEvery);
        }
        Ok(routing)
    }

    /// Builds the runnable network this spec describes;
    /// `make_controller` is called once per node. Equivalent to
    /// [`Network::new`].
    pub fn build(self, make_controller: &dyn Fn(usize) -> Box<dyn Controller>) -> Network {
        build(self, make_controller)
    }
}

/// Holds a layout against the density budget: O(N + cells), before any
/// neighbour row exists. A layout over it used to abort in the allocator
/// (65,536 nodes in 300 × 300 m ask for 2³² row entries).
pub(crate) fn check_density(positions: &[Position], cs_range: f64) -> Result<(), SpecError> {
    // N nodes cost at most N² tests (everyone in one cell), so a layout of
    // up to 11,585 nodes is inside the budget wherever its nodes are.
    let n = positions.len() as u64;
    if n * n <= MAX_DISTANCE_TESTS {
        return Ok(());
    }
    match distance_tests(positions, cs_range) {
        tests if tests > MAX_DISTANCE_TESTS => Err(SpecError::TooDense { tests }),
        _ => Ok(()),
    }
}

/// Builds a [`Network`] from its spec (the body of [`Network::new`]).
pub(crate) fn build(
    spec: NetworkSpec,
    make_controller: &dyn Fn(usize) -> Box<dyn Controller>,
) -> Network {
    let routing = spec
        .routing()
        .unwrap_or_else(|e| panic!("invalid network spec: {e}"));
    let n = spec.positions.len();
    let master = SimRng::new(spec.seed);
    let mut channel = Channel::new(&spec.positions, spec.channel, spec.loss.clone());
    // A fresh MAC owes no countdown, so nobody listens yet; from here on
    // the engine keeps each bit equal to `Mac::counting_phase`.
    for id in 0..n {
        channel.set_listening(id, false);
    }
    let chan_rng = master.derive(u64::MAX);

    let mut nodes: Vec<Node> = (0..n)
        .map(|id| {
            Node::new(
                id,
                Mac::new(id, spec.mac),
                make_controller(id),
                master.derive(id as u64),
            )
        })
        .collect();

    // Create the queues each flow needs: an own-traffic queue at the
    // source, a forward queue at every relay (per successor).
    for f in &spec.flows {
        let src = f.path[0];
        let dst = *f.path.last().expect("non-empty path");
        let first_hop = routing.next_hop(src, dst).expect("installed");
        nodes[src].queue_index(true, first_hop, spec.queue_cap);
        for &relay in &f.path[1..f.path.len() - 1] {
            let nh = routing.next_hop(relay, dst).expect("installed");
            nodes[relay].queue_index(false, nh, spec.queue_cap);
        }
        if matches!(f.transport, Transport::Windowed { .. }) {
            // Reverse-direction queues: the sink originates ACKs, the
            // relays forward them toward the source.
            let first_back = routing.next_hop(dst, src).expect("installed");
            nodes[dst].queue_index(true, first_back, spec.queue_cap);
            for &relay in f.path[1..f.path.len() - 1].iter() {
                let nh = routing.next_hop(relay, src).expect("installed");
                nodes[relay].queue_index(false, nh, spec.queue_cap);
            }
        }
    }

    // Program initial contention windows. With the audit armed, each
    // build-time assignment becomes the node's first ledger entry — the
    // static-penalty baseline makes all its "decisions" right here.
    let mut audit = crate::audit::AuditLedger::new(n, spec.audit_cap > 0);
    for node in nodes.iter_mut() {
        if let Some(cw) = node.controller.initial_cw_min() {
            if audit.enabled() {
                let before = node.mac.cw_min();
                audit.record_decision(
                    Time::ZERO,
                    node.id,
                    crate::controller::DecisionRecord {
                        kind: crate::controller::DecisionKind::Assign,
                        successor: None,
                        avg: cw as f64,
                        countup: 0,
                        countdown: 0,
                        up_threshold: 0,
                        down_threshold: 0,
                        cw_before: before,
                        cw_after: cw,
                    },
                );
            }
            node.mac.set_cw_min(cw);
        }
    }

    let flow_ids: Vec<u32> = spec.flows.iter().map(|f| f.id).collect();
    let metrics = Metrics::new(n, &flow_ids);

    // Flow RNG streams live above the per-node id space (`1 << 32` +
    // flow id): `derive` is pure, so handing a stream to a stochastic
    // flow perturbs neither the per-node streams nor the channel's.
    let flows: Vec<Flow> = (spec.flows.iter())
        .map(|f| Flow::new(f, master.derive((1u64 << 32) + f.id as u64)))
        .collect();

    let mut sched = Scheduler::new();
    for (i, f) in flows.iter().enumerate() {
        sched.schedule(f.start, Ev::Traffic(i));
    }
    for (i, f) in flows.iter().enumerate() {
        if let Some(p) = f.refresh_period() {
            sched.schedule(f.start + p, Ev::WindowRefresh(i));
        }
    }
    let telemetry = Telemetry::new(n, &flow_ids, spec.telemetry_every);
    let next_sample = Time::ZERO + Metrics::SAMPLE_EVERY;
    let next_telemetry = spec
        .telemetry_every
        .map_or(Time::MAX, |every| Time::ZERO + every);

    Network {
        now: Time::ZERO,
        sched,
        channel,
        arena: ezflow_phy::FrameArena::new(),
        chan_rng,
        tx_timer: vec![TimerSlot::Idle; n],
        ack_timer: vec![TimerSlot::Idle; n],
        nodes,
        routing,
        flows,
        queue_cap: spec.queue_cap,
        eifs: spec.mac.eifs,
        next_sample,
        next_telemetry,
        samplers_due: next_sample.min(next_telemetry),
        metrics,
        flight: crate::flight::FlightRecorder::new(spec.flight_cap),
        telemetry,
        audit,
        profile: spec.profile,
        handler_ns: [0; PROFILE_KINDS],
        next_seq: 0,
        dispatched: [0; EV_KINDS],
        start_report: ezflow_phy::StartReport::default(),
        end_report: ezflow_phy::EndReport::default(),
        mac_out_pool: Vec::new(),
        wall: std::time::Duration::ZERO,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `validate()` of a 2-hop chain after `edit` changed one field.
    fn validated(edit: impl FnOnce(&mut NetworkSpec)) -> Result<(), SpecError> {
        let topo = crate::topo::chain(2, Time::ZERO, Time::from_secs(1));
        let mut spec = NetworkSpec::from_topology(&topo, 1);
        edit(&mut spec);
        spec.validate()
    }

    #[test]
    fn validate_bounds_the_queue_capacity() {
        assert_eq!(validated(|s| s.queue_cap = MAX_QUEUE_CAP), Ok(()));
        let cap = MAX_QUEUE_CAP + 1;
        assert_eq!(
            validated(|s| s.queue_cap = cap),
            Err(SpecError::QueueCapTooLarge { cap })
        );
    }

    #[test]
    fn validate_bounds_the_window() {
        let windowed = |window| {
            validated(|s| {
                s.flows[0].transport = Transport::Windowed {
                    window,
                    ack_payload: 40,
                }
            })
        };
        assert_eq!(windowed(MAX_WINDOW), Ok(()));
        let window = MAX_WINDOW + 1;
        assert_eq!(
            windowed(window),
            Err(SpecError::WindowTooLarge { flow: 0, window })
        );
    }

    #[test]
    fn validate_bounds_the_payload() {
        let max = MAX_PAYLOAD_BYTES;
        assert_eq!(validated(|s| s.flows[0].payload_bytes = max), Ok(()));
        let bytes = max + 1;
        assert_eq!(
            validated(|s| s.flows[0].payload_bytes = bytes),
            Err(SpecError::PayloadTooLarge {
                flow: 0,
                field: "payload_bytes",
                bytes
            })
        );
        let acking = |ack_payload| {
            validated(|s| {
                s.flows[0].transport = Transport::Windowed {
                    window: 8,
                    ack_payload,
                }
            })
        };
        assert_eq!(acking(max), Ok(()));
        let err = acking(bytes).unwrap_err();
        assert_eq!(
            err,
            SpecError::PayloadTooLarge {
                flow: 0,
                field: "ack_payload",
                bytes
            }
        );
        let message = err.to_string();
        assert!(
            message.contains("flow 0") && message.contains("ack_payload 2305"),
            "{message}"
        );
    }

    #[test]
    fn validate_rejects_zero_sampling_periods_and_rings() {
        let zero = Duration::ZERO;
        assert_eq!(
            validated(|s| s.telemetry_every = Some(zero)),
            Err(SpecError::ZeroTelemetryEvery)
        );
        assert_eq!(validated(|s| s.telemetry_every = None), Ok(()));
        let err = SpecError::ZeroTelemetryEvery;
        assert!(err.to_string().starts_with("telemetry_every"), "{err}");
    }

    /// `validate()` of a diamond — nodes 0, 1, 2 in a line, node 3 beside
    /// node 1 — carrying `flows` (id, path, windowed).
    fn diamond(flows: &[(u32, &[usize], bool)]) -> Result<(), SpecError> {
        validated(|s| {
            let at = |x, y| Position { x, y };
            s.positions = vec![
                at(0.0, 0.0),
                at(200.0, 0.0),
                at(400.0, 0.0),
                at(200.0, 150.0),
            ];
            let template = s.flows[0].clone();
            s.flows = (flows.iter())
                .map(|&(id, path, windowed)| FlowSpec {
                    id,
                    path: path.to_vec(),
                    transport: if windowed {
                        Transport::Windowed {
                            window: 8,
                            ack_payload: 40,
                        }
                    } else {
                        Transport::Cbr
                    },
                    ..template.clone()
                })
                .collect();
        })
    }

    #[test]
    fn validate_refuses_two_routes_toward_one_destination() {
        assert_eq!(
            diamond(&[(0, &[0, 1, 2], false), (1, &[3, 1, 2], false)]),
            Ok(())
        );
        assert_eq!(
            diamond(&[(0, &[0, 1, 2], false), (1, &[0, 3, 2], false)]),
            Err(SpecError::ConflictingRoute {
                flow: 1,
                node: 0,
                dst: 2,
                installed: 1,
                offered: 3,
            })
        );
    }

    #[test]
    fn validate_refuses_a_reverse_route_that_conflicts() {
        // The windowed flow's ACKs travel 2-1-0; the CBR flow already
        // routes node 2 toward 0 through node 3.
        let flows: [(u32, &[usize], bool); 2] = [(0, &[0, 1, 2], true), (1, &[2, 3, 0], false)];
        assert_eq!(
            diamond(&flows),
            Err(SpecError::ConflictingRoute {
                flow: 0,
                node: 2,
                dst: 0,
                installed: 3,
                offered: 1,
            })
        );
        let cbr = [(0, flows[0].1, false), flows[1]];
        assert_eq!(diamond(&cbr), Ok(()), "without ACKs nothing goes back");
    }

    #[test]
    fn validate_rejects_packets_under_a_microsecond_apart() {
        // 1,000-byte packets: 8 Gb/s is exactly one per microsecond.
        let at_rate = |rate_bps| validated(|s| s.flows[0].rate_bps = rate_bps);
        assert_eq!(at_rate(8_000_000_000), Ok(()));
        let err = at_rate(20_000_000_000).unwrap_err();
        let (flow, interval_us) = (0, 0.4);
        assert_eq!(err, SpecError::RateTooHigh { flow, interval_us });
        let message = err.to_string();
        assert!(
            message.contains("flow 0") && message.contains("0.4 us"),
            "{message}"
        );
    }
}
