//! Declarative scenario specs — workloads as data, not code.
//!
//! A [`ScenarioSpec`] is a JSON document (read through the in-tree
//! [`ezflow_sim::json`] kernel — no external parser) that describes a
//! complete experiment: a topology (explicit positions or a generative
//! family), a traffic mix (CBR, windowed, bursty on-off), a loss
//! schedule (uniform, per-link, Gilbert-Elliott, link churn) and sweep
//! axes (queue capacity, seed, controller). [`ScenarioSpec::compile`]
//! lowers one into a [`Topology`]. Data flows one way — text → spec →
//! topology → network: the committed documents under `scenarios/` are
//! the canonical form of the paper's layouts, and [`crate::topo::testbed`],
//! [`crate::topo::scenario1`] and [`crate::topo::scenario2`] load them.
//!
//! ## Determinism
//!
//! Everything generative draws from [`SimRng`] streams derived from the
//! spec's own seeds, never from ambient state: random-geometric
//! placement uses `SimRng::with_stream(topology.seed, PLACEMENT_STREAM)`,
//! traffic-source selection `SOURCE_STREAM` of the same seed. Compiling
//! the same document twice therefore yields identical positions, routes
//! and flows, and the sweep's *run* seeds stay an independent axis: they
//! reseed the simulation, not the layout.
//!
//! ## Schema (informal)
//!
//! ```json
//! {
//!   "name": "...", "description": "...",
//!   "duration_secs": 60, "seed": 1, "queue_cap": 50,
//!   "topology": {"kind": "explicit" | "chain" | "grid" | "random_geometric", ...},
//!   "flows": [{"path": [..], "rate_bps": .., "payload_bytes": ..,
//!              "start_secs": .., "stop_secs": .., "transport": {"kind": ..}}],
//!   "traffic": {"flows": .., "rate_bps": .., "payload_bytes": ..,
//!               "start_secs": .., "stop_secs": .., "mix": [{"weight": .., "transport": ..}]},
//!   "loss": {"kind": "ideal" | "uniform" | "custom", ...},
//!   "sweep": {"queue_caps": [..], "seeds": [..], "controllers": ["802.11", ..]}
//! }
//! ```
//!
//! Explicit `flows` and a generative `traffic` mix are mutually
//! exclusive; the mix needs gateways, so it requires a
//! `random_geometric` topology. See DESIGN.md §9 for the full schema.

use ezflow_phy::{ChannelConfig, ChurnWindow, GilbertElliott, LossModel, Position};
use ezflow_sim::json::{JsonError, JsonValue};
use ezflow_sim::{Duration, SimRng, Time};

use crate::routing::GatewayRoutes;
use crate::topo::{FlowSpec, Topology};
use crate::traffic::{sub_microsecond_interval, Transport};

/// Stream tag for random-geometric node placement.
const PLACEMENT_STREAM: u64 = 0x746f_706f; // "topo"
/// Stream tag for traffic-source selection.
const SOURCE_STREAM: u64 = 0x7472_6166; // "traf"

/// Largest node count a spec may ask for. Set-up is linear in nodes at
/// bounded density (`ezflow_phy::geom::neighbors_within` is a grid walk,
/// and `compile` holds the layout against its density budget): a
/// 64 k-node mesh sets up and runs 1 s in ~0.3 s and ~0.1 GB, one at
/// this ceiling in ~1.2 s and ~0.4 GB. Beyond it per-node state (queues,
/// MACs, metrics, the report) is what fills the box, and a `rows × cols`
/// typo should read as a spec error rather than as a hang.
pub const MAX_NODES: usize = 1 << 18;

/// Largest value any `*_secs` field may hold: 10⁷ s ≈ 116 simulated
/// days, over 2,000× the paper's longest run (4,500 s). A run is paced
/// by simulated time, so a `duration_secs` of 1e12 is not a long run but
/// a silent hang; below the bound `secs_to_time` is also exact and no
/// `Time + Duration` sum can wrap.
pub const MAX_DURATION_SECS: f64 = 1e7;

/// Largest interface-queue capacity, in packets. A queue reserves its
/// capacity up front at 8 bytes a slot, so the ceiling costs 512 KiB per
/// queue. It is 1,300× the paper's 50-packet hardware and about nine
/// minutes of a saturated 1 Mb/s link's output (≈ 120 packets/s), so a
/// larger queue already behaves as an unbounded one — while a `queue_cap`
/// of 10¹⁴ is an 800 TB allocation that aborts the process.
pub const MAX_QUEUE_CAP: usize = 1 << 16;

/// Largest window of a windowed transport, in packets. A flow tops itself
/// up to its window at one instant and tracks every outstanding packet, so
/// the window is work done without time moving: 65,536 packets (64 MB in
/// flight at the default payload, against a bandwidth-delay product of
/// tens of packets on a 1 Mb/s mesh) refill in milliseconds, a window of
/// 10¹⁴ never finishes its first fill.
pub const MAX_WINDOW: usize = 1 << 16;

/// Why a scenario document was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// Not valid JSON at all.
    Parse {
        /// 1-based line of the failure.
        line: usize,
        /// 1-based column of the failure.
        col: usize,
        /// The parser's message.
        message: String,
    },
    /// Valid JSON, but not a valid scenario; `path` names the offending
    /// field (e.g. `flows[2].transport.kind`).
    Field {
        /// Dotted field path into the document.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The compiled topology failed
    /// [`NetworkSpec::validate`](crate::builder::NetworkSpec::validate).
    Spec(crate::builder::SpecError),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Parse { line, col, message } => {
                write!(
                    f,
                    "scenario parse error at line {line}, column {col}: {message}"
                )
            }
            ScenarioError::Field { path, message } => {
                write!(f, "scenario error at `{path}`: {message}")
            }
            ScenarioError::Spec(e) => write!(f, "scenario compiles to an invalid network: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<crate::builder::SpecError> for ScenarioError {
    fn from(e: crate::builder::SpecError) -> Self {
        ScenarioError::Spec(e)
    }
}

/// How the node layout is produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TopologySpec {
    /// Positions given verbatim (meters).
    Explicit {
        /// The node positions.
        positions: Vec<Position>,
    },
    /// A K-hop line, nodes every `spacing` meters (see
    /// [`crate::topo::chain`]).
    Chain {
        /// Number of hops (nodes = hops + 1).
        hops: usize,
        /// Inter-node spacing, meters.
        spacing: f64,
    },
    /// A `rows × cols` lattice (see [`crate::topo::grid`]).
    Grid {
        /// Grid rows.
        rows: usize,
        /// Grid columns.
        cols: usize,
        /// Lattice spacing, meters.
        spacing: f64,
    },
    /// Seeded uniform placement on a `width × height` rectangle, with
    /// `gateways` drain nodes pinned on a deterministic sub-lattice.
    /// Node ids `0..gateways` are the gateways.
    RandomGeometric {
        /// Total node count (gateways included).
        nodes: usize,
        /// Area width, meters.
        width: f64,
        /// Area height, meters.
        height: f64,
        /// Number of gateway nodes.
        gateways: usize,
        /// Placement seed (independent of the run seed).
        seed: u64,
    },
}

/// One weighted entry of a generative traffic mix.
#[derive(Clone, Debug, PartialEq)]
pub struct MixEntry {
    /// Relative weight (flows are assigned round-robin by weight).
    pub weight: u32,
    /// The transport template.
    pub transport: Transport,
}

/// A generative traffic mix: `flows` sources picked deterministically
/// among non-gateway nodes, each routed to its nearest gateway.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficMix {
    /// Number of flows to generate.
    pub flows: usize,
    /// Application rate per flow, bits/s.
    pub rate_bps: u64,
    /// Payload bytes per packet.
    pub payload_bytes: u32,
    /// Generation start.
    pub start: Time,
    /// Generation stop.
    pub stop: Time,
    /// Weighted transport templates, assigned cyclically.
    pub mix: Vec<MixEntry>,
}

/// A directed or symmetric per-link Bernoulli override.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkPer {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// Loss probability.
    pub per: f64,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// A per-link Gilbert-Elliott override.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkBurst {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// The burst parameters.
    pub ge: GilbertElliott,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// A per-link deterministic up/down schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkChurn {
    /// Transmitting node (or one end if symmetric).
    pub a: usize,
    /// Receiving node (or the other end).
    pub b: usize,
    /// The schedule.
    pub window: ChurnWindow,
    /// Apply in both directions.
    pub symmetric: bool,
}

/// The loss schedule of a scenario, compiled onto [`LossModel`].
#[derive(Clone, Debug, PartialEq, Default)]
pub struct LossSpec {
    /// Bernoulli loss on every link not overridden.
    pub default_per: f64,
    /// Per-link Bernoulli overrides.
    pub links: Vec<LinkPer>,
    /// Global Gilbert-Elliott overlay.
    pub burst: Option<GilbertElliott>,
    /// Per-link Gilbert-Elliott overrides.
    pub burst_links: Vec<LinkBurst>,
    /// Per-link up/down schedules.
    pub churn: Vec<LinkChurn>,
}

impl LossSpec {
    /// Holds every per-link entry to the layout: both ends are nodes of
    /// it, and within `tx_range` of each other — a decode link, the only
    /// kind a loss process ever samples (the channel keeps loss state for
    /// decode links alone), so an entry anywhere else would be a silent
    /// no-op. The error names the entry.
    fn check_links(&self, positions: &[Position], tx_range: f64) -> Result<(), ScenarioError> {
        let ends = (self.links.iter().enumerate())
            .map(|(i, l)| (format!("loss.links[{i}]"), l.a, l.b))
            .chain(
                (self.burst_links.iter().enumerate())
                    .map(|(i, l)| (format!("loss.burst_links[{i}]"), l.a, l.b)),
            )
            .chain(
                (self.churn.iter().enumerate())
                    .map(|(i, l)| (format!("loss.churn[{i}]"), l.a, l.b)),
            );
        let n = positions.len();
        for (path, a, b) in ends {
            for (key, node) in [("a", a), ("b", b)] {
                if node >= n {
                    let message = format!("node {node} is out of bounds (the layout has {n})");
                    return Err(field(&join(&path, key), &message));
                }
            }
            let (pa, pb) = (&positions[a], &positions[b]);
            if !pa.within(pb, tx_range) {
                let message = format!(
                    "nodes {a} and {b} are {:.0} m apart, beyond the {tx_range} m decode range: \
                     no frame crosses this link",
                    pa.distance(pb)
                );
                return Err(field(&path, &message));
            }
        }
        Ok(())
    }

    /// Lowers the schedule onto a [`LossModel`].
    pub fn compile(&self) -> LossModel {
        let mut m = if self.default_per > 0.0 {
            LossModel::uniform(self.default_per)
        } else {
            LossModel::ideal()
        };
        for l in &self.links {
            if l.symmetric {
                m.set_link_symmetric(l.a, l.b, l.per);
            } else {
                m.set_link(l.a, l.b, l.per);
            }
        }
        if let Some(ge) = self.burst {
            m = m.with_burst(ge);
        }
        for l in &self.burst_links {
            if l.symmetric {
                m.set_link_burst_symmetric(l.a, l.b, l.ge);
            } else {
                m.set_link_burst(l.a, l.b, l.ge);
            }
        }
        for l in &self.churn {
            if l.symmetric {
                m.set_link_churn_symmetric(l.a, l.b, l.window);
            } else {
                m.set_link_churn(l.a, l.b, l.window);
            }
        }
        m
    }
}

/// The sweep axes: one spec file expands into the cartesian product.
/// Empty axes default to the spec's own base values (a single point).
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SweepSpec {
    /// Interface-queue capacities to sweep.
    pub queue_caps: Vec<usize>,
    /// Run seeds to sweep.
    pub seeds: Vec<u64>,
    /// Controller names (resolved by the harness, e.g. `"802.11"`,
    /// `"EZ-flow"`); the net layer treats them as opaque strings.
    pub controllers: Vec<String>,
}

/// A parsed scenario document.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (also the base of every sweep-point label).
    pub name: String,
    /// One-line description (shown by `experiments --list`).
    pub description: String,
    /// Nominal run length, seconds.
    pub duration_secs: f64,
    /// Base run seed (swept by `sweep.seeds`).
    pub seed: u64,
    /// Base interface-queue capacity (swept by `sweep.queue_caps`).
    pub queue_cap: usize,
    /// The layout.
    pub topology: TopologySpec,
    /// Explicit flows (mutually exclusive with `traffic`).
    pub flows: Vec<FlowSpec>,
    /// Generative traffic mix (requires a `random_geometric` topology).
    pub traffic: Option<TrafficMix>,
    /// The loss schedule.
    pub loss: LossSpec,
    /// The sweep axes.
    pub sweep: SweepSpec,
}

/// One expanded run of a scenario's sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepPoint {
    /// Unique label, `{name}/{controller}[/qc{cap}][/seed{seed}]` with
    /// path-hostile characters stripped from the controller.
    pub label: String,
    /// Interface-queue capacity of this run.
    pub queue_cap: usize,
    /// Run seed of this run.
    pub seed: u64,
    /// Controller name (opaque to the net layer).
    pub controller: String,
}

/// The result of compiling a [`ScenarioSpec`]: a runnable topology plus
/// the expanded job matrix.
#[derive(Clone, Debug)]
pub struct CompiledScenario {
    /// Scenario name.
    pub name: String,
    /// One-line description.
    pub description: String,
    /// The compiled (validated) topology.
    pub topology: Topology,
    /// Nominal run length.
    pub until: Time,
    /// The expanded sweep, in controller-major order.
    pub points: Vec<SweepPoint>,
}

impl ScenarioSpec {
    /// Parses a JSON document into a spec, with line/column diagnostics
    /// for syntax errors and field-path diagnostics for schema errors.
    pub fn parse(text: &str) -> Result<ScenarioSpec, ScenarioError> {
        let v = JsonValue::parse(text).map_err(|e: JsonError| {
            let (line, col) = e.line_col(text);
            ScenarioError::Parse {
                line,
                col,
                message: e.message,
            }
        })?;
        ScenarioSpec::from_json(&v)
    }

    /// Builds a spec from an already-parsed JSON value.
    pub fn from_json(v: &JsonValue) -> Result<ScenarioSpec, ScenarioError> {
        let name = req_str(v, "", "name")?;
        let description = opt_str(v, "", "description", "")?;
        let duration_secs = req_f64(v, "", "duration_secs")?;
        if !(duration_secs.is_finite() && duration_secs > 0.0) {
            return Err(field("duration_secs", "must be a positive number"));
        }
        secs_to_time("duration_secs", duration_secs)?;
        let seed = opt_u64(v, "", "seed", 1)?;
        let queue_cap = queue_cap_in_range("queue_cap", opt_u64(v, "", "queue_cap", 50)?)?;
        let topology = parse_topology(req(v, "", "topology")?)?;

        let mut flows = Vec::new();
        if let Some(fv) = v.get("flows") {
            let arr = fv
                .as_array()
                .ok_or_else(|| field("flows", "must be an array"))?;
            for (i, f) in arr.iter().enumerate() {
                flows.push(parse_flow(f, i)?);
            }
        }
        let traffic = match v.get("traffic") {
            Some(t) => Some(parse_traffic(t)?),
            None => None,
        };
        if !flows.is_empty() && traffic.is_some() {
            return Err(field("traffic", "mutually exclusive with explicit `flows`"));
        }
        let loss = match v.get("loss") {
            Some(l) => parse_loss(l)?,
            None => LossSpec::default(),
        };
        let sweep = match v.get("sweep") {
            Some(s) => parse_sweep(s)?,
            None => SweepSpec::default(),
        };
        Ok(ScenarioSpec {
            name,
            description,
            duration_secs,
            seed,
            queue_cap,
            topology,
            flows,
            traffic,
            loss,
            sweep,
        })
    }

    /// Compiles the spec: generates the layout and flows, lowers the
    /// loss schedule, validates the result and expands the sweep.
    pub fn compile(&self) -> Result<CompiledScenario, ScenarioError> {
        let until = secs_to_time("duration_secs", self.duration_secs)?;
        let (positions, builtin) = self.build_layout(until)?;
        // Before the routing pass walks the layout: `validate` below
        // repeats the check for specs built in code.
        crate::builder::check_density(&positions, crate::topo::CS_RANGE)
            .map_err(|e| field("topology", &e.to_string()))?;
        self.loss
            .check_links(&positions, ChannelConfig::default().tx_range)?;
        let flows = self.build_flows(&positions, builtin)?;
        let topology = Topology {
            name: self.name.clone(),
            positions,
            loss: self.loss.compile(),
            flows,
        };
        crate::builder::NetworkSpec::from_topology(&topology, self.seed).validate()?;
        Ok(CompiledScenario {
            name: self.name.clone(),
            description: self.description.clone(),
            topology,
            until,
            points: self.expand_sweep(),
        })
    }

    /// The node positions plus, for the generative families that have
    /// one, the family's built-in workload over `[0, until)` — what runs
    /// when the document gives neither `flows` nor `traffic`.
    fn build_layout(&self, until: Time) -> Result<(Vec<Position>, Vec<FlowSpec>), ScenarioError> {
        match &self.topology {
            TopologySpec::Explicit { positions } => Ok((positions.clone(), Vec::new())),
            TopologySpec::Chain { hops, spacing } => {
                if *hops == 0 {
                    return Err(field("topology.hops", "must be at least 1"));
                }
                let flow = FlowSpec::saturating(0, (0..=*hops).collect(), Time::ZERO, until);
                Ok((
                    ezflow_phy::geom::line_positions(hops + 1, *spacing),
                    vec![flow],
                ))
            }
            TopologySpec::Grid {
                rows,
                cols,
                spacing,
            } => {
                if *rows == 0 || *cols < 2 {
                    return Err(field(
                        "topology",
                        "grid needs rows >= 1 and cols >= 2 (each row carries a flow)",
                    ));
                }
                let grid = crate::topo::grid(*rows, *cols, *spacing, Time::ZERO, until);
                Ok((grid.positions, grid.flows))
            }
            TopologySpec::RandomGeometric {
                nodes,
                width,
                height,
                gateways,
                seed,
            } => {
                if *gateways == 0 || *gateways >= *nodes {
                    return Err(field(
                        "topology.gateways",
                        "need at least one gateway and at least one non-gateway node",
                    ));
                }
                // Gateways sit on a deterministic sub-lattice (cell
                // centers), spreading the drains across the area; the
                // rest land uniformly from the placement stream.
                let gcols = (*gateways as f64).sqrt().ceil() as usize;
                let grows = gateways.div_ceil(gcols);
                let mut positions = Vec::with_capacity(*nodes);
                for g in 0..*gateways {
                    let (c, r) = (g % gcols, g / gcols);
                    positions.push(Position::new(
                        (c as f64 + 0.5) * width / gcols as f64,
                        (r as f64 + 0.5) * height / grows as f64,
                    ));
                }
                let mut rng = SimRng::with_stream(*seed, PLACEMENT_STREAM);
                for _ in *gateways..*nodes {
                    let x = rng.gen_f64() * width;
                    let y = rng.gen_f64() * height;
                    positions.push(Position::new(x, y));
                }
                Ok((positions, Vec::new()))
            }
        }
    }

    fn build_flows(
        &self,
        positions: &[Position],
        builtin: Vec<FlowSpec>,
    ) -> Result<Vec<FlowSpec>, ScenarioError> {
        if !self.flows.is_empty() {
            return Ok(self.flows.clone());
        }
        if let Some(mix) = &self.traffic {
            return self.build_mix_flows(mix, positions);
        }
        // No explicit flows, no mix: the generative families fall back
        // to their built-in workloads.
        if builtin.is_empty() {
            return Err(field(
                "flows",
                "explicit topologies need explicit flows (or a traffic mix on random_geometric)",
            ));
        }
        Ok(builtin)
    }

    fn build_mix_flows(
        &self,
        mix: &TrafficMix,
        positions: &[Position],
    ) -> Result<Vec<FlowSpec>, ScenarioError> {
        let TopologySpec::RandomGeometric { gateways, seed, .. } = &self.topology else {
            return Err(field(
                "traffic",
                "a traffic mix requires a random_geometric topology (it routes to gateways)",
            ));
        };
        if mix.flows == 0 {
            return Err(field("traffic.flows", "must generate at least one flow"));
        }
        if mix.mix.is_empty() {
            return Err(field("traffic.mix", "needs at least one transport entry"));
        }
        let total_weight: u32 = mix.mix.iter().map(|m| m.weight).sum();
        if total_weight == 0 {
            return Err(field("traffic.mix", "weights must not all be zero"));
        }
        // Decode graph + nearest-gateway trees. The connectivity check:
        // a generated mesh where some node cannot drain is a spec bug,
        // reported with the offending node rather than silently routed
        // around.
        let adj = ezflow_phy::geom::neighbors_within(positions, ChannelConfig::default().tx_range);
        let gw: Vec<usize> = (0..*gateways).collect();
        let routes = GatewayRoutes::compute(&adj, &gw);
        let stranded = routes.unreachable();
        if let Some(&node) = stranded.first() {
            return Err(field(
                "topology",
                &format!(
                    "not connected: node {node} (of {} stranded) cannot reach any gateway — \
                     densify (more nodes / smaller area) or reseed",
                    stranded.len()
                ),
            ));
        }
        // Eligible sources: every non-gateway node, shuffled by the
        // source stream (partial Fisher-Yates), so source choice is a
        // pure function of the topology seed.
        let mut eligible: Vec<usize> = (*gateways..positions.len()).collect();
        if mix.flows > eligible.len() {
            return Err(field(
                "traffic.flows",
                &format!("only {} non-gateway nodes available", eligible.len()),
            ));
        }
        let mut rng = SimRng::with_stream(*seed, SOURCE_STREAM);
        for i in 0..mix.flows {
            let j = i + rng.gen_range((eligible.len() - i) as u32) as usize;
            eligible.swap(i, j);
        }
        let mut flows = Vec::with_capacity(mix.flows);
        for (i, &src) in eligible[..mix.flows].iter().enumerate() {
            let path = routes.path_from(src).expect("checked connected above");
            // Transport kinds cycle by weight: flow i takes the entry
            // whose cumulative weight bucket contains i mod total.
            let mut slot = (i as u32) % total_weight;
            let entry = mix
                .mix
                .iter()
                .find(|m| {
                    if slot < m.weight {
                        true
                    } else {
                        slot -= m.weight;
                        false
                    }
                })
                .expect("total weight covers every slot");
            flows.push(FlowSpec {
                id: i as u32,
                path,
                rate_bps: mix.rate_bps,
                payload_bytes: mix.payload_bytes,
                start: mix.start,
                stop: mix.stop,
                transport: entry.transport,
            });
        }
        Ok(flows)
    }

    fn expand_sweep(&self) -> Vec<SweepPoint> {
        let caps = if self.sweep.queue_caps.is_empty() {
            vec![self.queue_cap]
        } else {
            self.sweep.queue_caps.clone()
        };
        let seeds = if self.sweep.seeds.is_empty() {
            vec![self.seed]
        } else {
            self.sweep.seeds.clone()
        };
        let controllers = if self.sweep.controllers.is_empty() {
            vec!["802.11".to_string()]
        } else {
            self.sweep.controllers.clone()
        };
        let mut points = Vec::with_capacity(controllers.len() * caps.len() * seeds.len());
        for c in &controllers {
            for &cap in &caps {
                for &seed in &seeds {
                    let mut label = format!("{}/{}", self.name, slug(c));
                    if caps.len() > 1 {
                        label.push_str(&format!("/qc{cap}"));
                    }
                    if seeds.len() > 1 {
                        label.push_str(&format!("/seed{seed}"));
                    }
                    points.push(SweepPoint {
                        label,
                        queue_cap: cap,
                        seed,
                        controller: c.clone(),
                    });
                }
            }
        }
        points
    }
}

/// File-label slug of a controller name (the scrub `ezflow-bench`'s
/// export stems apply to whole labels).
fn slug(name: &str) -> String {
    name.replace(['.', ' ', '(', ')'], "")
}

// ---- parse helpers -------------------------------------------------------

fn field(path: &str, message: &str) -> ScenarioError {
    ScenarioError::Field {
        path: path.to_string(),
        message: message.to_string(),
    }
}

fn join(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn req<'a>(v: &'a JsonValue, path: &str, key: &str) -> Result<&'a JsonValue, ScenarioError> {
    v.get(key)
        .ok_or_else(|| field(&join(path, key), "missing required field"))
}

fn req_str(v: &JsonValue, path: &str, key: &str) -> Result<String, ScenarioError> {
    req(v, path, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| field(&join(path, key), "must be a string"))
}

fn opt_str(v: &JsonValue, path: &str, key: &str, default: &str) -> Result<String, ScenarioError> {
    match v.get(key) {
        None => Ok(default.to_string()),
        Some(s) => s
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| field(&join(path, key), "must be a string")),
    }
}

fn req_f64(v: &JsonValue, path: &str, key: &str) -> Result<f64, ScenarioError> {
    req(v, path, key)?
        .as_f64()
        .ok_or_else(|| field(&join(path, key), "must be a number"))
}

fn req_u64(v: &JsonValue, path: &str, key: &str) -> Result<u64, ScenarioError> {
    req(v, path, key)?
        .as_u64()
        .ok_or_else(|| field(&join(path, key), "must be a non-negative integer"))
}

fn opt_u64(v: &JsonValue, path: &str, key: &str, default: u64) -> Result<u64, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_u64()
            .ok_or_else(|| field(&join(path, key), "must be a non-negative integer")),
    }
}

fn opt_f64(v: &JsonValue, path: &str, key: &str, default: f64) -> Result<f64, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(n) => n
            .as_f64()
            .ok_or_else(|| field(&join(path, key), "must be a number")),
    }
}

fn opt_bool(v: &JsonValue, path: &str, key: &str, default: bool) -> Result<bool, ScenarioError> {
    match v.get(key) {
        None => Ok(default),
        Some(b) => b
            .as_bool()
            .ok_or_else(|| field(&join(path, key), "must be a boolean")),
    }
}

/// Seconds (possibly fractional) to a microsecond [`Time`]. Exact for
/// any whole-microsecond duration below ~2·10⁹ s: the f64 relative
/// error stays under half a microsecond, and the round recovers it.
fn secs_to_time(path: &str, secs: f64) -> Result<Time, ScenarioError> {
    if !(0.0..=MAX_DURATION_SECS).contains(&secs) {
        return Err(field(
            path,
            &format!("must be a number of seconds in [0, {MAX_DURATION_SECS:e}]"),
        ));
    }
    Ok(Time::from_micros((secs * 1e6).round() as u64))
}

fn secs_to_duration(path: &str, secs: f64) -> Result<Duration, ScenarioError> {
    Ok(Duration::from_micros(secs_to_time(path, secs)?.as_micros()))
}

fn parse_topology(v: &JsonValue) -> Result<TopologySpec, ScenarioError> {
    let p = "topology";
    let kind = req_str(v, p, "kind")?;
    match kind.as_str() {
        "explicit" => {
            let arr = req(v, p, "positions")?
                .as_array()
                .ok_or_else(|| field("topology.positions", "must be an array of [x, y] pairs"))?;
            check_node_count("topology.positions", Some(arr.len()))?;
            let mut positions = Vec::with_capacity(arr.len());
            for (i, pv) in arr.iter().enumerate() {
                let pair = pv.as_array().filter(|a| a.len() == 2).ok_or_else(|| {
                    field(
                        &format!("topology.positions[{i}]"),
                        "must be an [x, y] pair",
                    )
                })?;
                let x = pair[0].as_f64().ok_or_else(|| {
                    field(&format!("topology.positions[{i}][0]"), "must be a number")
                })?;
                let y = pair[1].as_f64().ok_or_else(|| {
                    field(&format!("topology.positions[{i}][1]"), "must be a number")
                })?;
                positions.push(Position::new(x, y));
            }
            Ok(TopologySpec::Explicit { positions })
        }
        "chain" => {
            let hops = req_u64(v, p, "hops")? as usize;
            check_node_count("topology.hops", hops.checked_add(1))?;
            Ok(TopologySpec::Chain {
                hops,
                spacing: positive_meters(
                    "spacing",
                    opt_f64(v, p, "spacing", crate::topo::SPACING)?,
                )?,
            })
        }
        "grid" => {
            let rows = req_u64(v, p, "rows")? as usize;
            let cols = req_u64(v, p, "cols")? as usize;
            check_node_count("topology.rows", rows.checked_mul(cols))?;
            Ok(TopologySpec::Grid {
                rows,
                cols,
                spacing: positive_meters("spacing", req_f64(v, p, "spacing")?)?,
            })
        }
        "random_geometric" => {
            let nodes = req_u64(v, p, "nodes")? as usize;
            check_node_count("topology.nodes", Some(nodes))?;
            Ok(TopologySpec::RandomGeometric {
                nodes,
                width: positive_meters("width", req_f64(v, p, "width")?)?,
                height: positive_meters("height", req_f64(v, p, "height")?)?,
                gateways: req_u64(v, p, "gateways")? as usize,
                seed: req_u64(v, p, "seed")?,
            })
        }
        other => Err(field(
            "topology.kind",
            &format!(
                "unknown kind '{other}' (expected explicit | chain | grid | random_geometric)"
            ),
        )),
    }
}

/// Rejects a layout of more than [`MAX_NODES`] nodes (`None`: the count
/// overflowed) before anything is sized by it.
fn check_node_count(path: &str, nodes: Option<usize>) -> Result<(), ScenarioError> {
    match nodes {
        Some(n) if n <= MAX_NODES => Ok(()),
        _ => Err(field(
            path,
            &format!("layout exceeds the {MAX_NODES}-node limit"),
        )),
    }
}

/// An interface-queue capacity: nonzero and at most [`MAX_QUEUE_CAP`].
fn queue_cap_in_range(path: &str, cap: u64) -> Result<usize, ScenarioError> {
    if !(1..=MAX_QUEUE_CAP as u64).contains(&cap) {
        return Err(field(
            path,
            &format!("must be in 1..={MAX_QUEUE_CAP} packets"),
        ));
    }
    Ok(cap as usize)
}

/// A flow's `rate_bps` beside its payload: packets must be at least one
/// clock tick apart (zero is left to `validate`, which names the flow).
fn rate_in_range(path: &str, rate_bps: u64, payload_bytes: u32) -> Result<u64, ScenarioError> {
    match sub_microsecond_interval(rate_bps, payload_bytes) {
        None => Ok(rate_bps),
        Some(us) => Err(field(
            &join(path, "rate_bps"),
            &format!(
                "puts {payload_bytes}-byte packets {us} us apart, under the clock's \
                 1 us resolution"
            ),
        )),
    }
}

/// A `topology.<key>` length in meters: finite and positive, or the
/// layout is degenerate (co-located nodes, an empty area).
fn positive_meters(key: &str, meters: f64) -> Result<f64, ScenarioError> {
    if !(meters.is_finite() && meters > 0.0) {
        return Err(field(
            &join("topology", key),
            "must be a positive number of meters",
        ));
    }
    Ok(meters)
}

fn parse_transport(v: &JsonValue, path: &str) -> Result<Transport, ScenarioError> {
    let kind = req_str(v, path, "kind")?;
    match kind.as_str() {
        "cbr" => Ok(Transport::Cbr),
        "windowed" => {
            // Zero is left to `validate`, which names the flow.
            let window = req_u64(v, path, "window")?;
            if window > MAX_WINDOW as u64 {
                return Err(field(
                    &join(path, "window"),
                    &format!("exceeds the {MAX_WINDOW}-packet limit"),
                ));
            }
            Ok(Transport::Windowed {
                window: window as usize,
                ack_payload: opt_u32(v, path, "ack_payload", 40)?,
            })
        }
        "onoff" => Ok(Transport::OnOff {
            mean_on: secs_to_duration(
                &join(path, "mean_on_secs"),
                req_f64(v, path, "mean_on_secs")?,
            )?,
            mean_off: secs_to_duration(
                &join(path, "mean_off_secs"),
                req_f64(v, path, "mean_off_secs")?,
            )?,
            alpha: req_f64(v, path, "alpha")?,
        }),
        other => Err(field(
            &join(path, "kind"),
            &format!("unknown transport '{other}' (expected cbr | windowed | onoff)"),
        )),
    }
}

/// A byte count the engine holds in a `u32` (`payload_bytes`,
/// `ack_payload`); a value past that is rejected rather than wrapped.
fn opt_u32(v: &JsonValue, path: &str, key: &str, default: u32) -> Result<u32, ScenarioError> {
    u32::try_from(opt_u64(v, path, key, default.into())?)
        .map_err(|_| field(&join(path, key), "must fit in 32 bits"))
}

/// `(start_secs, stop_secs)` of a flow or traffic block, in order.
fn parse_active_window(v: &JsonValue, path: &str) -> Result<(Time, Time), ScenarioError> {
    let start = secs_to_time(&join(path, "start_secs"), req_f64(v, path, "start_secs")?)?;
    let stop_path = join(path, "stop_secs");
    let stop = secs_to_time(&stop_path, req_f64(v, path, "stop_secs")?)?;
    if stop < start {
        return Err(field(&stop_path, "must not precede start_secs"));
    }
    Ok((start, stop))
}

fn parse_flow(v: &JsonValue, i: usize) -> Result<FlowSpec, ScenarioError> {
    let p = format!("flows[{i}]");
    let path_arr = req(v, &p, "path")?
        .as_array()
        .ok_or_else(|| field(&join(&p, "path"), "must be an array of node ids"))?;
    let mut path = Vec::with_capacity(path_arr.len());
    for (j, nv) in path_arr.iter().enumerate() {
        path.push(
            nv.as_u64()
                .ok_or_else(|| field(&format!("{p}.path[{j}]"), "must be a non-negative integer"))?
                as usize,
        );
    }
    let transport = match v.get("transport") {
        None => Transport::Cbr,
        Some(t) => parse_transport(t, &join(&p, "transport"))?,
    };
    let (start, stop) = parse_active_window(v, &p)?;
    let payload_bytes = opt_u32(v, &p, "payload_bytes", 1000)?;
    Ok(FlowSpec {
        id: i as u32,
        path,
        rate_bps: rate_in_range(&p, opt_u64(v, &p, "rate_bps", 2_000_000)?, payload_bytes)?,
        payload_bytes,
        start,
        stop,
        transport,
    })
}

fn parse_traffic(v: &JsonValue) -> Result<TrafficMix, ScenarioError> {
    let p = "traffic";
    let mix_arr = req(v, p, "mix")?
        .as_array()
        .ok_or_else(|| field("traffic.mix", "must be an array"))?;
    let mut mix = Vec::with_capacity(mix_arr.len());
    for (i, m) in mix_arr.iter().enumerate() {
        let mp = format!("traffic.mix[{i}]");
        mix.push(MixEntry {
            weight: opt_u64(m, &mp, "weight", 1)? as u32,
            transport: parse_transport(req(m, &mp, "transport")?, &join(&mp, "transport"))?,
        });
    }
    let (start, stop) = parse_active_window(v, p)?;
    let payload_bytes = opt_u32(v, p, "payload_bytes", 1000)?;
    Ok(TrafficMix {
        flows: req_u64(v, p, "flows")? as usize,
        rate_bps: rate_in_range(p, req_u64(v, p, "rate_bps")?, payload_bytes)?,
        payload_bytes,
        start,
        stop,
        mix,
    })
}

/// `p` if it is a probability (in `[0, 1]`, so finite), else a field
/// error at `path`.
fn probability(path: &str, p: f64) -> Result<f64, ScenarioError> {
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(field(path, "must be a probability in [0, 1]"))
    }
}

fn parse_ge(v: &JsonValue, path: &str) -> Result<GilbertElliott, ScenarioError> {
    let p = |key: &str, value: f64| probability(&join(path, key), value);
    Ok(GilbertElliott {
        p_g2b: p("p_g2b", req_f64(v, path, "p_g2b")?)?,
        p_b2g: p("p_b2g", req_f64(v, path, "p_b2g")?)?,
        p_good: p("p_good", opt_f64(v, path, "p_good", 0.0)?)?,
        p_bad: p("p_bad", req_f64(v, path, "p_bad")?)?,
    })
}

/// The `a` and `b` of a per-link loss entry at `path`: two different
/// nodes. That they exist and are in decode range of each other is
/// checked at compile, once the layout is known ([`LossSpec::check_links`]).
fn parse_link_ends(v: &JsonValue, path: &str) -> Result<(usize, usize), ScenarioError> {
    let (a, b) = (req_u64(v, path, "a")?, req_u64(v, path, "b")?);
    if a == b {
        return Err(field(
            path,
            &format!("a link needs two nodes; a and b are both {a}"),
        ));
    }
    Ok((a as usize, b as usize))
}

fn parse_loss(v: &JsonValue) -> Result<LossSpec, ScenarioError> {
    let kind = req_str(v, "loss", "kind")?;
    match kind.as_str() {
        "ideal" => Ok(LossSpec::default()),
        "uniform" => Ok(LossSpec {
            default_per: probability("loss.per", req_f64(v, "loss", "per")?)?,
            ..LossSpec::default()
        }),
        "custom" => {
            let default_per =
                probability("loss.default_per", opt_f64(v, "loss", "default_per", 0.0)?)?;
            let mut links = Vec::new();
            if let Some(ls) = v.get("links") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.links", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.links[{i}]");
                    let (a, b) = parse_link_ends(l, &lp)?;
                    links.push(LinkPer {
                        a,
                        b,
                        per: probability(&join(&lp, "per"), req_f64(l, &lp, "per")?)?,
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            let burst = match v.get("burst") {
                None => None,
                Some(b) => Some(parse_ge(b, "loss.burst")?),
            };
            let mut burst_links = Vec::new();
            if let Some(ls) = v.get("burst_links") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.burst_links", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.burst_links[{i}]");
                    let (a, b) = parse_link_ends(l, &lp)?;
                    burst_links.push(LinkBurst {
                        a,
                        b,
                        ge: parse_ge(l, &lp)?,
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            let mut churn = Vec::new();
            if let Some(ls) = v.get("churn") {
                let arr = ls
                    .as_array()
                    .ok_or_else(|| field("loss.churn", "must be an array"))?;
                for (i, l) in arr.iter().enumerate() {
                    let lp = format!("loss.churn[{i}]");
                    let up = secs_to_duration(&join(&lp, "up_secs"), req_f64(l, &lp, "up_secs")?)?;
                    let down =
                        secs_to_duration(&join(&lp, "down_secs"), req_f64(l, &lp, "down_secs")?)?;
                    if up.as_micros() + down.as_micros() == 0 {
                        return Err(field(&lp, "churn cycle must be nonzero"));
                    }
                    let phase = secs_to_duration(
                        &join(&lp, "phase_secs"),
                        opt_f64(l, &lp, "phase_secs", 0.0)?,
                    )?;
                    let (a, b) = parse_link_ends(l, &lp)?;
                    churn.push(LinkChurn {
                        a,
                        b,
                        window: ChurnWindow::new(up, down, phase),
                        symmetric: opt_bool(l, &lp, "symmetric", true)?,
                    });
                }
            }
            Ok(LossSpec {
                default_per,
                links,
                burst,
                burst_links,
                churn,
            })
        }
        other => Err(field(
            "loss.kind",
            &format!("unknown kind '{other}' (expected ideal | uniform | custom)"),
        )),
    }
}

fn parse_sweep(v: &JsonValue) -> Result<SweepSpec, ScenarioError> {
    let mut sweep = SweepSpec::default();
    if let Some(qs) = v.get("queue_caps") {
        let arr = qs
            .as_array()
            .ok_or_else(|| field("sweep.queue_caps", "must be an array of integers"))?;
        for (i, q) in arr.iter().enumerate() {
            let path = format!("sweep.queue_caps[{i}]");
            let cap = q
                .as_u64()
                .ok_or_else(|| field(&path, "must be a positive integer"))?;
            sweep.queue_caps.push(queue_cap_in_range(&path, cap)?);
        }
    }
    if let Some(ss) = v.get("seeds") {
        let arr = ss
            .as_array()
            .ok_or_else(|| field("sweep.seeds", "must be an array of integers"))?;
        for (i, s) in arr.iter().enumerate() {
            sweep.seeds.push(s.as_u64().ok_or_else(|| {
                field(
                    &format!("sweep.seeds[{i}]"),
                    "must be a non-negative integer",
                )
            })?);
        }
    }
    if let Some(cs) = v.get("controllers") {
        let arr = cs
            .as_array()
            .ok_or_else(|| field("sweep.controllers", "must be an array of strings"))?;
        for (i, c) in arr.iter().enumerate() {
            sweep.controllers.push(
                c.as_str()
                    .ok_or_else(|| field(&format!("sweep.controllers[{i}]"), "must be a string"))?
                    .to_string(),
            );
        }
    }
    Ok(sweep)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(topology: &str) -> String {
        format!(
            r#"{{"name": "t", "duration_secs": 10, "topology": {topology},
                "flows": [{{"path": [0, 1], "start_secs": 0, "stop_secs": 10}}]}}"#
        )
    }

    #[test]
    fn parses_a_minimal_chain_spec() {
        let text = r#"{"name": "c3", "duration_secs": 30,
                       "topology": {"kind": "chain", "hops": 3}}"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!(spec.name, "c3");
        assert_eq!(spec.queue_cap, 50, "defaults applied");
        assert_eq!(spec.seed, 1);
        let c = spec.compile().unwrap();
        assert_eq!(c.topology.positions.len(), 4);
        assert_eq!(c.topology.flows.len(), 1, "chain gets its built-in flow");
        assert_eq!(c.topology.flows[0].path, vec![0, 1, 2, 3]);
        assert_eq!(c.until, Time::from_secs(30));
        assert_eq!(c.points.len(), 1);
        assert_eq!(c.points[0].label, "c3/80211");
        assert_eq!(c.points[0].controller, "802.11");
    }

    #[test]
    fn chain_spec_matches_constructor() {
        let spec = ScenarioSpec::parse(&minimal(r#"{"kind": "chain", "hops": 4, "spacing": 200}"#))
            .unwrap();
        let c = spec.compile().unwrap();
        let hand = crate::topo::chain(4, Time::ZERO, Time::from_secs(10));
        assert_eq!(c.topology.positions, hand.positions);
    }

    #[test]
    fn grid_spec_matches_constructor() {
        let text = r#"{"name": "g", "duration_secs": 60,
                       "topology": {"kind": "grid", "rows": 4, "cols": 4, "spacing": 140}}"#;
        let c = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        let hand = crate::topo::grid(4, 4, 140.0, Time::ZERO, Time::from_secs(60));
        assert_eq!(c.topology.positions, hand.positions);
        assert_eq!(c.topology.flows.len(), hand.flows.len());
        for (a, b) in c.topology.flows.iter().zip(hand.flows.iter()) {
            assert_eq!(a.path, b.path);
            assert_eq!(a.start, b.start);
            assert_eq!(a.stop, b.stop);
        }
    }

    #[test]
    fn syntax_errors_carry_line_and_column() {
        let text = "{\n  \"name\": \"x\",\n  \"duration_secs\": @\n}";
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Parse { line, col, .. } => {
                assert_eq!(line, 3);
                assert_eq!(col, 20);
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn schema_errors_carry_field_paths() {
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 10,
                                  "transport": {"kind": "warp"}}]}"#;
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "flows[0].transport.kind");
                assert!(message.contains("warp"), "{message}");
            }
            other => panic!("expected field error, got {other:?}"),
        }
        let text = r#"{"name": "x", "topology": {"kind": "chain", "hops": 2}}"#;
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Field { path, .. } => assert_eq!(path, "duration_secs"),
            other => panic!("expected field error, got {other:?}"),
        }
        // A zero-capacity queue used to reach the builder and abort there.
        let text = r#"{"name": "x", "duration_secs": 10, "queue_cap": 0,
                       "topology": {"kind": "chain", "hops": 2}}"#;
        match ScenarioSpec::parse(text).unwrap_err() {
            ScenarioError::Field { path, .. } => assert_eq!(path, "queue_cap"),
            other => panic!("expected field error, got {other:?}"),
        }
        // A window that ends before it starts, and a payload that would
        // wrap the engine's u32, used to parse silently.
        let spec_with = |section: &str| {
            format!(
                r#"{{"name": "x", "duration_secs": 10,
                    "topology": {{"kind": "chain", "hops": 2}}, {section}}}"#
            )
        };
        for (section, want) in [
            (
                r#""flows": [{"path": [0, 1], "start_secs": 5, "stop_secs": 4}]"#,
                "flows[0].stop_secs",
            ),
            (
                r#""traffic": {"flows": 1, "rate_bps": 1000, "start_secs": 5,
                               "stop_secs": 4, "mix": []}"#,
                "traffic.stop_secs",
            ),
            (
                r#""flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                              "payload_bytes": 5e9}]"#,
                "flows[0].payload_bytes",
            ),
            (
                r#""flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                              "transport": {"kind": "windowed", "window": 4,
                                            "ack_payload": 5e9}}]"#,
                "flows[0].transport.ack_payload",
            ),
            // A window that never finishes its first fill, packets less
            // than a clock tick apart (the tick re-armed at `now` forever)
            // and a queue the allocator cannot serve: two hangs and an
            // abort, once.
            (
                r#""flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                              "transport": {"kind": "windowed", "window": 99999999999999}}]"#,
                "flows[0].transport.window",
            ),
            (
                r#""traffic": {"flows": 1, "rate_bps": 1000, "start_secs": 0, "stop_secs": 4,
                               "mix": [{"transport": {"kind": "windowed", "window": 65537}}]}"#,
                "traffic.mix[0].transport.window",
            ),
            (
                r#""flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                              "rate_bps": 20000000000}]"#,
                "flows[0].rate_bps",
            ),
            (
                r#""flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                              "rate_bps": 1e15, "payload_bytes": 1}]"#,
                "flows[0].rate_bps",
            ),
            (
                r#""traffic": {"flows": 1, "rate_bps": 8000000001, "start_secs": 0,
                               "stop_secs": 4, "mix": []}"#,
                "traffic.rate_bps",
            ),
            (r#""queue_cap": 99999999999999"#, "queue_cap"),
            (
                r#""sweep": {"queue_caps": [50, 65537]}"#,
                "sweep.queue_caps[1]",
            ),
            (r#""sweep": {"queue_caps": [0]}"#, "sweep.queue_caps[0]"),
        ] {
            match ScenarioSpec::parse(&spec_with(section)).unwrap_err() {
                ScenarioError::Field { path, .. } => assert_eq!(path, want),
                other => panic!("expected field error at {want}, got {other:?}"),
            }
        }
        // The limits themselves are legal: 8 Gb/s of 1,000-byte packets is
        // one packet per microsecond.
        ScenarioSpec::parse(&spec_with(
            r#""queue_cap": 65536, "sweep": {"queue_caps": [65536]},
               "flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 4,
                          "rate_bps": 8000000000,
                          "transport": {"kind": "windowed", "window": 65536}}]"#,
        ))
        .expect("the ceilings are inclusive");
        // Layouts past MAX_NODES used to abort in the allocator (grid) or
        // hang in an all-pairs pass; degenerate lengths used to build
        // co-located nodes and report success.
        let rg = |nodes: &str, width: &str, height: &str| {
            format!(
                r#"{{"kind": "random_geometric", "nodes": {nodes}, "width": {width},
                    "height": {height}, "gateways": 1, "seed": 1}}"#
            )
        };
        let too_many = format!(
            r#"{{"kind": "explicit", "positions": [{}[0, 0]]}}"#,
            "[0, 0], ".repeat(MAX_NODES)
        );
        for (topology, want) in [
            (
                r#"{"kind": "grid", "rows": 1000000, "cols": 1000000, "spacing": 100}"#,
                "topology.rows",
            ),
            // rows × cols wraps a 64-bit usize.
            (
                r#"{"kind": "grid", "rows": 4294967296, "cols": 4294967296, "spacing": 100}"#,
                "topology.rows",
            ),
            (r#"{"kind": "chain", "hops": 262144}"#, "topology.hops"),
            (rg("1e8", "100", "100").as_str(), "topology.nodes"),
            (too_many.as_str(), "topology.positions"),
            (
                r#"{"kind": "chain", "hops": 4, "spacing": 0}"#,
                "topology.spacing",
            ),
            (
                r#"{"kind": "chain", "hops": 4, "spacing": -200}"#,
                "topology.spacing",
            ),
            (
                r#"{"kind": "grid", "rows": 2, "cols": 2, "spacing": 0}"#,
                "topology.spacing",
            ),
            (rg("9", "0", "100").as_str(), "topology.width"),
            (rg("9", "-100", "100").as_str(), "topology.width"),
            (rg("9", "100", "0").as_str(), "topology.height"),
            (rg("9", "100", "-100").as_str(), "topology.height"),
        ] {
            match ScenarioSpec::parse(&minimal(topology)).unwrap_err() {
                ScenarioError::Field { path, .. } => assert_eq!(path, want, "{topology:.60}"),
                other => panic!("expected field error at {want}, got {other:?}"),
            }
        }
        // Exactly MAX_NODES is still a layout.
        ScenarioSpec::parse(&minimal(r#"{"kind": "chain", "hops": 262143}"#)).unwrap();
        // Times past MAX_DURATION_SECS used to parse, then spin: a run is
        // paced by simulated time, so 1e12 s never ends.
        let timed = |duration: &str, section: &str| {
            format!(
                r#"{{"name": "x", "duration_secs": {duration},
                    "topology": {{"kind": "chain", "hops": 2}}{section}}}"#
            )
        };
        for (duration, section, want) in [
            ("1e12", "", "duration_secs"),
            ("10000001", "", "duration_secs"),
            (
                "10",
                r#", "flows": [{"path": [0, 1], "start_secs": 1e12, "stop_secs": 2e12}]"#,
                "flows[0].start_secs",
            ),
            (
                "10",
                r#", "flows": [{"path": [0, 1], "start_secs": 0, "stop_secs": 1e12}]"#,
                "flows[0].stop_secs",
            ),
            (
                "10",
                r#", "traffic": {"flows": 1, "rate_bps": 1000, "start_secs": 1e12,
                                 "stop_secs": 2e12, "mix": []}"#,
                "traffic.start_secs",
            ),
            (
                "10",
                r#", "traffic": {"flows": 1, "rate_bps": 1000, "start_secs": 0,
                                 "stop_secs": 1e12, "mix": []}"#,
                "traffic.stop_secs",
            ),
        ] {
            match ScenarioSpec::parse(&timed(duration, section)).unwrap_err() {
                ScenarioError::Field { path, .. } => assert_eq!(path, want),
                other => panic!("expected field error at {want}, got {other:?}"),
            }
        }
        // Exactly the bound is still a run.
        ScenarioSpec::parse(&timed("1e7", "")).unwrap();
    }

    #[test]
    fn compile_validates_the_result() {
        // Hop 0 -> 5 does not exist in a 2-hop chain.
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "flows": [{"path": [0, 5], "start_secs": 0, "stop_secs": 10}]}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Spec(e) => {
                assert!(e.to_string().contains("out of bounds"), "{e}");
            }
            other => panic!("expected spec error, got {other:?}"),
        }
    }

    #[test]
    fn dense_layouts_are_a_spec_error_not_an_allocation() {
        // 65,536 nodes inside one carrier-sense cell ask for 2³² row
        // entries: this used to parse, then abort in the allocator.
        let text = r#"{"name": "x", "duration_secs": 1,
                       "topology": {"kind": "random_geometric", "nodes": 65536,
                                    "width": 300, "height": 300, "gateways": 4, "seed": 1},
                       "traffic": {"flows": 4, "rate_bps": 200000,
                                   "start_secs": 0, "stop_secs": 1,
                                   "mix": [{"transport": {"kind": "cbr"}}]}}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "topology");
                assert!(message.contains("4294967296"), "the count: {message}");
                assert!(message.contains("134217728"), "the budget: {message}");
            }
            other => panic!("expected field error, got {other:?}"),
        }
        // A layout built in code meets the same check in `validate`, at
        // exactly the budget: co-located nodes cost n² tests.
        let colocated = |n: usize| Topology {
            name: "x".into(),
            positions: vec![Position::default(); n],
            loss: LossModel::ideal(),
            flows: vec![FlowSpec::saturating(
                0,
                vec![0, 1],
                Time::ZERO,
                Time::from_secs(1),
            )],
        };
        use crate::builder::{check_density, NetworkSpec, SpecError};
        assert_eq!(
            NetworkSpec::from_topology(&colocated(65_536), 0).validate(),
            Err(SpecError::TooDense { tests: 1 << 32 })
        );
        let at = |n: usize| check_density(&colocated(n).positions, crate::topo::CS_RANGE);
        assert_eq!(at(11_585), Ok(()), "11,585² ≤ 2²⁷");
        assert_eq!(
            at(11_586),
            Err(SpecError::TooDense {
                tests: 11_586 * 11_586
            })
        );
    }

    #[test]
    fn random_geometric_is_deterministic_and_connected() {
        let text = r#"{"name": "rg", "duration_secs": 10,
                       "topology": {"kind": "random_geometric", "nodes": 60,
                                    "width": 900, "height": 900, "gateways": 2, "seed": 9},
                       "traffic": {"flows": 8, "rate_bps": 200000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"weight": 2, "transport": {"kind": "cbr"}},
                                           {"weight": 1, "transport": {"kind": "onoff",
                                             "mean_on_secs": 1, "mean_off_secs": 1,
                                             "alpha": 1.5}}]}}"#;
        let a = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        let b = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        assert_eq!(a.topology.positions, b.topology.positions);
        assert_eq!(a.topology.flows.len(), 8);
        for (fa, fb) in a.topology.flows.iter().zip(b.topology.flows.iter()) {
            assert_eq!(fa.path, fb.path, "same seed ⇒ identical routes");
            assert_eq!(fa.transport, fb.transport);
        }
        // The 2:1 mix assigns kinds cyclically: flows 0,1 CBR, 2 on-off.
        assert_eq!(a.topology.flows[0].transport, Transport::Cbr);
        assert_eq!(a.topology.flows[1].transport, Transport::Cbr);
        assert!(matches!(
            a.topology.flows[2].transport,
            Transport::OnOff { .. }
        ));
        // Every generated path ends at a gateway.
        for f in &a.topology.flows {
            assert!(*f.path.last().unwrap() < 2);
        }
    }

    #[test]
    fn sweep_expands_the_cartesian_product() {
        let text = r#"{"name": "s", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "sweep": {"queue_caps": [25, 50], "seeds": [1, 2, 3],
                                 "controllers": ["802.11", "EZ-flow"]}}"#;
        let c = ScenarioSpec::parse(text).unwrap().compile().unwrap();
        assert_eq!(c.points.len(), 12);
        assert_eq!(c.points[0].label, "s/80211/qc25/seed1");
        assert_eq!(c.points[11].label, "s/EZ-flow/qc50/seed3");
        let uniq: std::collections::BTreeSet<&str> =
            c.points.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(uniq.len(), 12, "labels are unique");
    }

    #[test]
    fn loss_schedule_round_trips_and_compiles() {
        let text = r#"{"name": "l", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 3},
                       "loss": {"kind": "custom", "default_per": 0.01,
                                "links": [{"a": 0, "b": 1, "per": 0.3}],
                                "burst": {"p_g2b": 0.02, "p_b2g": 0.1, "p_bad": 0.8},
                                "burst_links": [{"a": 1, "b": 2, "p_g2b": 0.05,
                                                 "p_b2g": 0.2, "p_bad": 0.9,
                                                 "symmetric": false}],
                                "churn": [{"a": 2, "b": 3, "up_secs": 5, "down_secs": 1}]}}"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        let ge = |p_g2b, p_b2g, p_bad| GilbertElliott {
            p_g2b,
            p_b2g,
            p_good: 0.0,
            p_bad,
        };
        let want = LossSpec {
            default_per: 0.01,
            links: vec![LinkPer {
                a: 0,
                b: 1,
                per: 0.3,
                symmetric: true,
            }],
            burst: Some(ge(0.02, 0.1, 0.8)),
            burst_links: vec![LinkBurst {
                a: 1,
                b: 2,
                ge: ge(0.05, 0.2, 0.9),
                symmetric: false,
            }],
            churn: vec![LinkChurn {
                a: 2,
                b: 3,
                window: ChurnWindow::new(
                    Duration::from_secs(5),
                    Duration::from_secs(1),
                    Duration::ZERO,
                ),
                symmetric: true,
            }],
        };
        assert_eq!(spec.loss, want);
        let m = spec.loss.compile();
        assert_eq!(m.loss_prob(0, 1), 0.3);
        assert_eq!(m.loss_prob(1, 0), 0.3, "symmetric by default");
        assert_eq!(m.loss_prob(1, 2), 0.01, "default per elsewhere");
        assert!(m.burst.is_some());
        assert_eq!(m.burst_link.len(), 1, "directed burst override");
        assert_eq!(m.churn.len(), 2, "symmetric churn covers both directions");

        // The two closed-form kinds.
        let loss_of = |loss: &str| {
            let text = format!(
                r#"{{"name": "l", "duration_secs": 10,
                    "topology": {{"kind": "chain", "hops": 3}}, "loss": {loss}}}"#
            );
            ScenarioSpec::parse(&text).unwrap().loss
        };
        assert_eq!(loss_of(r#"{"kind": "ideal"}"#), LossSpec::default());
        let uniform = LossSpec {
            default_per: 0.25,
            ..LossSpec::default()
        };
        assert_eq!(loss_of(r#"{"kind": "uniform", "per": 0.25}"#), uniform);
        assert_eq!(uniform.compile(), LossModel::uniform(0.25));
    }

    #[test]
    fn explicit_flows_parse_every_transport_kind() {
        let text = r#"{"name": "e", "duration_secs": 10, "seed": 7, "queue_cap": 25,
                       "topology": {"kind": "explicit", "positions": [[0, 0], [150.5, -20]]},
                       "flows": [
                         {"path": [0, 1], "start_secs": 0.5, "stop_secs": 10,
                          "transport": {"kind": "cbr"}},
                         {"path": [1, 0], "rate_bps": 500000, "payload_bytes": 512,
                          "start_secs": 1, "stop_secs": 9,
                          "transport": {"kind": "windowed", "window": 8, "ack_payload": 60}},
                         {"path": [0, 1], "start_secs": 0, "stop_secs": 10,
                          "transport": {"kind": "onoff", "mean_on_secs": 0.25,
                                        "mean_off_secs": 2, "alpha": 1.5}}]}"#;
        let spec = ScenarioSpec::parse(text).unwrap();
        assert_eq!((spec.seed, spec.queue_cap), (7, 25));
        let positions = vec![Position::new(0.0, 0.0), Position::new(150.5, -20.0)];
        assert_eq!(
            spec.topology,
            TopologySpec::Explicit {
                positions: positions.clone()
            }
        );
        let ms = Time::from_millis;
        let windowed = FlowSpec {
            rate_bps: 500_000,
            payload_bytes: 512,
            transport: Transport::Windowed {
                window: 8,
                ack_payload: 60,
            },
            ..FlowSpec::saturating(1, vec![1, 0], ms(1000), ms(9000))
        };
        let onoff = FlowSpec {
            transport: Transport::OnOff {
                mean_on: Duration::from_millis(250),
                mean_off: Duration::from_secs(2),
                alpha: 1.5,
            },
            ..FlowSpec::saturating(2, vec![0, 1], ms(0), ms(10_000))
        };
        let want = vec![
            FlowSpec::saturating(0, vec![0, 1], ms(500), ms(10_000)),
            windowed,
            onoff,
        ];
        assert_eq!(spec.flows, want);
        // An explicit document compiles to exactly what it says.
        let c = spec.compile().unwrap();
        assert_eq!(c.topology.positions, positions);
        assert_eq!(c.topology.flows, want);
        assert_eq!(c.topology.loss, LossModel::ideal());
    }

    #[test]
    fn traffic_mix_rejects_unroutable_topologies() {
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "chain", "hops": 2},
                       "traffic": {"flows": 1, "rate_bps": 100000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"transport": {"kind": "cbr"}}]}}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "traffic");
                assert!(message.contains("random_geometric"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sparse_random_geometric_reports_stranded_nodes() {
        // 5 nodes scattered over 100 km cannot possibly connect.
        let text = r#"{"name": "x", "duration_secs": 10,
                       "topology": {"kind": "random_geometric", "nodes": 5,
                                    "width": 100000, "height": 100000,
                                    "gateways": 1, "seed": 1},
                       "traffic": {"flows": 1, "rate_bps": 100000,
                                   "start_secs": 0, "stop_secs": 10,
                                   "mix": [{"transport": {"kind": "cbr"}}]}}"#;
        match ScenarioSpec::parse(text).unwrap().compile().unwrap_err() {
            ScenarioError::Field { path, message } => {
                assert_eq!(path, "topology");
                assert!(message.contains("cannot reach any gateway"), "{message}");
            }
            other => panic!("{other:?}"),
        }
    }
}
