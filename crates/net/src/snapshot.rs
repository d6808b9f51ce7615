//! End-of-run snapshots.
//!
//! A [`RunSnapshot`] is the cross-layer observability record of one
//! simulation: per-node airtime budgets and counters from the PHY, MAC
//! counters, controller (BOE/CAA) counters, queue statistics, scheduler
//! and wall-clock performance numbers. It serialises to JSON (and back)
//! through the dependency-free `ezflow-sim` JSON kernel, so experiment
//! binaries can write machine-readable results next to their tables.
//!
//! The schema is flat and explicit — every counter appears under its own
//! key — so downstream tooling never needs this crate to read a snapshot.

use ezflow_mac::MacStats;
use ezflow_phy::{Airtime, ChannelStats};
use ezflow_sim::{JsonValue, Time};
use ezflow_stats::LogHistogram;

use crate::controller::ControllerCounters;

/// Version stamped into every snapshot's `schema` key. Bumped when a
/// structural change lands (new always-present key, renamed field);
/// purely *additive* optional sections do not bump it. Documents without
/// the key (written before the key existed) read back as version 1 —
/// [`RunSnapshot::from_json`] is lenient about it and about every
/// section added since, so archived artifacts keep parsing.
pub const SCHEMA_VERSION: u64 = 2;

fn get_u64(v: &JsonValue, name: &str) -> Result<u64, String> {
    v.get(name)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("missing numeric '{name}'"))
}

fn get_f64(v: &JsonValue, name: &str) -> Result<f64, String> {
    v.get(name)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("missing number '{name}'"))
}

fn get_str(v: &JsonValue, name: &str) -> Result<String, String> {
    v.get(name)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string '{name}'"))
}

fn get_obj<'a>(v: &'a JsonValue, name: &str) -> Result<&'a JsonValue, String> {
    v.get(name)
        .ok_or_else(|| format!("missing object '{name}'"))
}

/// One interface queue's statistics at snapshot time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// True for the own-traffic queue, false for a forward queue.
    pub own: bool,
    /// The successor this queue feeds.
    pub successor: usize,
    /// Packets queued right now.
    pub occupancy: usize,
    /// Capacity, packets.
    pub cap: usize,
    /// Deepest occupancy ever reached.
    pub high_water: usize,
    /// Drop-tail rejections.
    pub drops: u64,
    /// Frames ever accepted.
    pub accepted: u64,
}

impl QueueSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("own", self.own.into()),
            ("successor", self.successor.into()),
            ("occupancy", self.occupancy.into()),
            ("cap", self.cap.into()),
            ("high_water", self.high_water.into()),
            ("drops", self.drops.into()),
            ("accepted", self.accepted.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<QueueSnapshot, String> {
        Ok(QueueSnapshot {
            own: v
                .get("own")
                .and_then(JsonValue::as_bool)
                .ok_or("missing bool 'own'")?,
            successor: get_u64(v, "successor")? as usize,
            occupancy: get_u64(v, "occupancy")? as usize,
            cap: get_u64(v, "cap")? as usize,
            high_water: get_u64(v, "high_water")? as usize,
            drops: get_u64(v, "drops")?,
            accepted: get_u64(v, "accepted")?,
        })
    }
}

fn airtime_to_json(a: Airtime) -> JsonValue {
    let (tx, rx, busy, idle) = a.fractions();
    JsonValue::obj(vec![
        ("tx_us", a.tx_us.into()),
        ("rx_us", a.rx_us.into()),
        ("busy_us", a.busy_us.into()),
        ("idle_us", a.idle_us.into()),
        // Derived, for consumers that only want the shape of the budget.
        ("tx_frac", tx.into()),
        ("rx_frac", rx.into()),
        ("busy_frac", busy.into()),
        ("idle_frac", idle.into()),
    ])
}

fn airtime_from_json(v: &JsonValue) -> Result<Airtime, String> {
    Ok(Airtime {
        tx_us: get_u64(v, "tx_us")?,
        rx_us: get_u64(v, "rx_us")?,
        busy_us: get_u64(v, "busy_us")?,
        idle_us: get_u64(v, "idle_us")?,
    })
}

fn mac_to_json(m: &MacStats) -> JsonValue {
    JsonValue::obj(vec![
        ("tx_attempts", m.tx_attempts.into()),
        ("tx_success", m.tx_success.into()),
        ("retries", m.retries.into()),
        ("drops_retry", m.drops_retry.into()),
        ("acks_sent", m.acks_sent.into()),
        ("acks_suppressed", m.acks_suppressed.into()),
        ("dup_rx", m.dup_rx.into()),
        ("spurious_ack", m.spurious_ack.into()),
        ("delivered", m.delivered.into()),
        ("rts_sent", m.rts_sent.into()),
        ("cts_sent", m.cts_sent.into()),
        ("cts_timeouts", m.cts_timeouts.into()),
        ("backoff_slots", m.backoff_slots.into()),
        ("cca_busy", m.cca_busy.into()),
        ("eifs_starts", m.eifs_starts.into()),
        ("stale_epochs", m.stale_epochs.into()),
    ])
}

fn mac_from_json(v: &JsonValue) -> Result<MacStats, String> {
    Ok(MacStats {
        tx_attempts: get_u64(v, "tx_attempts")?,
        tx_success: get_u64(v, "tx_success")?,
        retries: get_u64(v, "retries")?,
        drops_retry: get_u64(v, "drops_retry")?,
        acks_sent: get_u64(v, "acks_sent")?,
        acks_suppressed: get_u64(v, "acks_suppressed")?,
        dup_rx: get_u64(v, "dup_rx")?,
        spurious_ack: get_u64(v, "spurious_ack")?,
        delivered: get_u64(v, "delivered")?,
        rts_sent: get_u64(v, "rts_sent")?,
        cts_sent: get_u64(v, "cts_sent")?,
        cts_timeouts: get_u64(v, "cts_timeouts")?,
        backoff_slots: get_u64(v, "backoff_slots")?,
        cca_busy: get_u64(v, "cca_busy")?,
        eifs_starts: get_u64(v, "eifs_starts")?,
        stale_epochs: get_u64(v, "stale_epochs")?,
    })
}

fn counters_to_json(c: &ControllerCounters) -> JsonValue {
    JsonValue::obj(vec![
        ("boe_hits", c.boe_hits.into()),
        ("boe_misses", c.boe_misses.into()),
        ("boe_ambiguous", c.boe_ambiguous.into()),
        ("caa_increases", c.caa_increases.into()),
        ("caa_decreases", c.caa_decreases.into()),
        ("caa_holds", c.caa_holds.into()),
    ])
}

fn counters_from_json(v: &JsonValue) -> Result<ControllerCounters, String> {
    Ok(ControllerCounters {
        boe_hits: get_u64(v, "boe_hits")?,
        boe_misses: get_u64(v, "boe_misses")?,
        boe_ambiguous: get_u64(v, "boe_ambiguous")?,
        caa_increases: get_u64(v, "caa_increases")?,
        caa_decreases: get_u64(v, "caa_decreases")?,
        caa_holds: get_u64(v, "caa_holds")?,
    })
}

fn channel_to_json(c: &ChannelStats) -> JsonValue {
    JsonValue::obj(vec![
        ("tx_started", c.tx_started.into()),
        ("collisions_at_dst", c.collisions_at_dst.into()),
        ("bernoulli_losses", c.bernoulli_losses.into()),
        ("clean_deliveries", c.clean_deliveries.into()),
        ("captures", c.captures.into()),
        ("hidden_losses", c.hidden_losses.into()),
    ])
}

fn channel_from_json(v: &JsonValue) -> Result<ChannelStats, String> {
    Ok(ChannelStats {
        tx_started: get_u64(v, "tx_started")?,
        collisions_at_dst: get_u64(v, "collisions_at_dst")?,
        bernoulli_losses: get_u64(v, "bernoulli_losses")?,
        clean_deliveries: get_u64(v, "clean_deliveries")?,
        captures: get_u64(v, "captures")?,
        hidden_losses: get_u64(v, "hidden_losses")?,
    })
}

/// Everything observable about one node at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// Node id.
    pub id: usize,
    /// Controller algorithm name.
    pub controller: String,
    /// Current `CWmin`.
    pub cw_min: u32,
    /// Where this node's time went, by radio state.
    pub airtime: Airtime,
    /// MAC counters.
    pub mac: MacStats,
    /// Controller (BOE/CAA) counters; zero for algorithms without them.
    pub counters: ControllerCounters,
    /// Per-queue statistics.
    pub queues: Vec<QueueSnapshot>,
}

impl NodeSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("id", self.id.into()),
            ("controller", JsonValue::str(&self.controller)),
            ("cw_min", self.cw_min.into()),
            ("airtime", airtime_to_json(self.airtime)),
            ("mac", mac_to_json(&self.mac)),
            ("counters", counters_to_json(&self.counters)),
            (
                "queues",
                JsonValue::Array(self.queues.iter().map(QueueSnapshot::to_json).collect()),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<NodeSnapshot, String> {
        let queues = get_obj(v, "queues")?
            .as_array()
            .ok_or("'queues' is not an array")?
            .iter()
            .map(QueueSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NodeSnapshot {
            id: get_u64(v, "id")? as usize,
            controller: get_str(v, "controller")?,
            cw_min: get_u64(v, "cw_min")? as u32,
            airtime: airtime_from_json(get_obj(v, "airtime")?)?,
            mac: mac_from_json(get_obj(v, "mac")?)?,
            counters: counters_from_json(get_obj(v, "counters")?)?,
            queues,
        })
    }
}

/// Scheduler-side accounting: how much event machinery the run turned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedulerSnapshot {
    /// Events ever scheduled.
    pub scheduled_total: u64,
    /// Events dispatched (popped and handled).
    pub dispatched_total: u64,
    /// MAC timers that dispatched after their owner had moved on: the sum
    /// of [`MacStats::stale_epochs`] over all nodes, the one place a stale
    /// timer can be seen (the scheduler itself never drops an entry).
    /// Zero while the engine's eager parking holds. Same value as
    /// [`PerfSnapshot::stale_epoch_drops`]; the key keeps its name until
    /// the next schema bump retires it.
    pub stale_elided: u64,
    /// Timer entries moved in place by keyed rescheduling: each re-arm
    /// consumes the old entry without a dispatch.
    pub rescheduled_total: u64,
    /// Timer entries physically removed (parked frozen countdowns
    /// awaiting a later re-arm).
    pub removed_total: u64,
    /// Events still pending at snapshot time.
    pub pending: usize,
    /// Deepest the pending-event heap ever got.
    pub depth_high_water: usize,
    /// Dispatch counts per event kind, in the network's kind order.
    pub dispatched_by_kind: Vec<(String, u64)>,
}

impl SchedulerSnapshot {
    fn to_json(&self) -> JsonValue {
        let by_kind = self
            .dispatched_by_kind
            .iter()
            .map(|(k, n)| (k.as_str(), JsonValue::from(*n)))
            .collect();
        JsonValue::obj(vec![
            ("scheduled_total", self.scheduled_total.into()),
            ("dispatched_total", self.dispatched_total.into()),
            ("stale_elided", self.stale_elided.into()),
            ("rescheduled_total", self.rescheduled_total.into()),
            ("removed_total", self.removed_total.into()),
            ("pending", self.pending.into()),
            ("depth_high_water", self.depth_high_water.into()),
            ("dispatched_by_kind", JsonValue::obj(by_kind)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<SchedulerSnapshot, String> {
        let by_kind_obj = get_obj(v, "dispatched_by_kind")?;
        let JsonValue::Object(pairs) = by_kind_obj else {
            return Err("'dispatched_by_kind' is not an object".into());
        };
        let dispatched_by_kind = pairs
            .iter()
            .map(|(k, n)| {
                n.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or_else(|| format!("bad count for kind '{k}'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SchedulerSnapshot {
            scheduled_total: get_u64(v, "scheduled_total")?,
            dispatched_total: get_u64(v, "dispatched_total")?,
            stale_elided: get_u64(v, "stale_elided")?,
            rescheduled_total: get_u64(v, "rescheduled_total")?,
            removed_total: get_u64(v, "removed_total")?,
            pending: get_u64(v, "pending")? as usize,
            depth_high_water: get_u64(v, "depth_high_water")? as usize,
            dispatched_by_kind,
        })
    }
}

/// Wall-clock performance of the run, plus the heap-churn gauges that
/// explain it. The wall-clock numbers are the only non-deterministic part
/// of a snapshot — everything else is a pure function of the spec and
/// seed — so tests zero this whole block before comparing.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfSnapshot {
    /// Wall-clock seconds spent inside `run_until`.
    pub wall_secs: f64,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Scheduler entries *consumed* (dispatched plus moved in place by a
    /// keyed reschedule) per wall-clock second.
    pub events_per_sec: f64,
    /// Simulated seconds per wall-clock second.
    pub sim_rate: f64,
    /// Deepest the scheduler's pending-event heap ever got — the working
    /// set the event loop keeps alive.
    pub sched_depth_high_water: u64,
    /// Timer events the MACs discarded as stale: Σ
    /// [`MacStats::stale_epochs`], a duplicate of
    /// [`SchedulerSnapshot::stale_elided`] that retires with it at the
    /// next schema bump.
    pub stale_epoch_drops: u64,
    /// Calendar-queue cursor advances, in buckets. An implementation
    /// gauge, not comparable state.
    pub sched_rotations: u64,
    /// Entries migrated from the calendar queue's overflow heap into
    /// buckets on rotation.
    pub sched_overflow_refills: u64,
    /// Deepest any single calendar-queue bucket ever got.
    pub sched_bucket_high_water: u64,
    /// Peak live-frame population of the frame arena — the run's frame
    /// memory footprint in ~100-byte slots (the slab never shrinks).
    pub arena_high_water: u64,
    /// Self-profiler: wall-clock nanoseconds spent inside each event
    /// kind's handler, in [`crate::engine::PROFILE_NAMES`] order (the
    /// last slot is the telemetry sampler). All zero — and the JSON key
    /// omitted — unless the spec set `profile`.
    pub handler_ns: [u64; crate::engine::PROFILE_KINDS],
    /// Telemetry sample windows completed; zero (key omitted) with
    /// telemetry off.
    pub telemetry_windows: u64,
    /// Telemetry sample windows per wall-clock second.
    pub telemetry_windows_per_sec: f64,
}

impl PerfSnapshot {
    /// An all-zero perf block.
    ///
    /// Wall-clock numbers are the one honestly non-deterministic part of a
    /// [`RunSnapshot`]; tests (and the sweep runner's byte-identity check)
    /// overwrite `snapshot.perf` with this before comparing JSON.
    pub fn zeroed() -> Self {
        PerfSnapshot {
            wall_secs: 0.0,
            sim_secs: 0.0,
            events_per_sec: 0.0,
            sim_rate: 0.0,
            sched_depth_high_water: 0,
            stale_epoch_drops: 0,
            sched_rotations: 0,
            sched_overflow_refills: 0,
            sched_bucket_high_water: 0,
            arena_high_water: 0,
            handler_ns: [0; crate::engine::PROFILE_KINDS],
            telemetry_windows: 0,
            telemetry_windows_per_sec: 0.0,
        }
    }

    /// The JSON representation of the perf block. Public so the perf
    /// harness can splice a zeroed block into a [`Network::snapshot_json`]
    /// document when building its deterministic digest.
    ///
    /// [`Network::snapshot_json`]: crate::Network::snapshot_json
    pub fn to_json(self) -> JsonValue {
        let mut fields = vec![
            ("wall_secs", self.wall_secs.into()),
            ("sim_secs", self.sim_secs.into()),
            ("events_per_sec", self.events_per_sec.into()),
            ("sim_rate", self.sim_rate.into()),
            ("sched_depth_high_water", self.sched_depth_high_water.into()),
            ("stale_epoch_drops", self.stale_epoch_drops.into()),
            ("sched_rotations", self.sched_rotations.into()),
            ("sched_overflow_refills", self.sched_overflow_refills.into()),
            (
                "sched_bucket_high_water",
                self.sched_bucket_high_water.into(),
            ),
            // A dead key, kept in place until the next schema bump so
            // schema-2 documents keep their bytes; the reader skips it.
            ("trace_evictions", 0u64.into()),
            ("arena_high_water", self.arena_high_water.into()),
        ];
        // Profiler and telemetry keys appear only when those features ran:
        // a feature-off (or zeroed) perf block keeps the pre-telemetry
        // schema byte for byte.
        if self.handler_ns.iter().any(|&n| n != 0) {
            fields.push((
                "handler_ns_by_kind",
                JsonValue::obj(
                    crate::engine::PROFILE_NAMES
                        .iter()
                        .zip(self.handler_ns.iter())
                        .map(|(&k, &n)| (k, JsonValue::from(n)))
                        .collect(),
                ),
            ));
        }
        if self.telemetry_windows > 0 {
            fields.push(("telemetry_windows", self.telemetry_windows.into()));
            fields.push((
                "telemetry_windows_per_sec",
                self.telemetry_windows_per_sec.into(),
            ));
        }
        JsonValue::obj(fields)
    }

    fn from_json(v: &JsonValue) -> Result<PerfSnapshot, String> {
        let mut handler_ns = [0u64; crate::engine::PROFILE_KINDS];
        if let Some(by_kind) = v.get("handler_ns_by_kind") {
            for (slot, name) in handler_ns.iter_mut().zip(crate::engine::PROFILE_NAMES) {
                *slot = get_u64(by_kind, name)?;
            }
        }
        Ok(PerfSnapshot {
            wall_secs: get_f64(v, "wall_secs")?,
            sim_secs: get_f64(v, "sim_secs")?,
            events_per_sec: get_f64(v, "events_per_sec")?,
            sim_rate: get_f64(v, "sim_rate")?,
            sched_depth_high_water: get_u64(v, "sched_depth_high_water")?,
            stale_epoch_drops: get_u64(v, "stale_epoch_drops")?,
            sched_rotations: get_u64(v, "sched_rotations")?,
            sched_overflow_refills: get_u64(v, "sched_overflow_refills")?,
            sched_bucket_high_water: get_u64(v, "sched_bucket_high_water")?,
            // Absent in pre-arena snapshots; read leniently so archived
            // run artifacts still parse.
            arena_high_water: v
                .get("arena_high_water")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            handler_ns,
            telemetry_windows: v
                .get("telemetry_windows")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0),
            telemetry_windows_per_sec: v
                .get("telemetry_windows_per_sec")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0),
        })
    }
}

/// One sustained queue-oscillation episode, as detected by
/// `ezflow_stats::stability` over the telemetry queue-depth ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpisodeSnapshot {
    /// Episode start, microseconds of simulated time.
    pub start_us: u64,
    /// Episode end (exclusive), microseconds.
    pub end_us: u64,
    /// Largest analysis-window amplitude inside the episode, packets.
    pub peak_amplitude: f64,
}

impl EpisodeSnapshot {
    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("start_us", self.start_us.into()),
            ("end_us", self.end_us.into()),
            ("peak_amplitude", self.peak_amplitude.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<EpisodeSnapshot, String> {
        Ok(EpisodeSnapshot {
            start_us: get_u64(v, "start_us")?,
            end_us: get_u64(v, "end_us")?,
            peak_amplitude: get_f64(v, "peak_amplitude")?,
        })
    }
}

/// One node's stability verdict: oscillation scores over its telemetry
/// queue-depth ring plus the sustained episodes.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeStabilitySnapshot {
    /// Node id.
    pub node: usize,
    /// Mean per-analysis-window oscillation amplitude (max − min),
    /// packets.
    pub amplitude_mean: f64,
    /// Largest window amplitude seen.
    pub amplitude_max: f64,
    /// Mean windowed coefficient of variation (std / mean).
    pub cv_mean: f64,
    /// Sustained oscillation episodes, in time order.
    pub episodes: Vec<EpisodeSnapshot>,
}

impl NodeStabilitySnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("node", self.node.into()),
            ("amplitude_mean", self.amplitude_mean.into()),
            ("amplitude_max", self.amplitude_max.into()),
            ("cv_mean", self.cv_mean.into()),
            (
                "episodes",
                JsonValue::Array(
                    self.episodes
                        .iter()
                        .map(|e| EpisodeSnapshot::to_json(*e))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<NodeStabilitySnapshot, String> {
        let episodes = get_obj(v, "episodes")?
            .as_array()
            .ok_or("'episodes' is not an array")?
            .iter()
            .map(EpisodeSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NodeStabilitySnapshot {
            node: get_u64(v, "node")? as usize,
            amplitude_mean: get_f64(v, "amplitude_mean")?,
            amplitude_max: get_f64(v, "amplitude_max")?,
            cv_mean: get_f64(v, "cv_mean")?,
            episodes,
        })
    }
}

/// The `stability` section of a [`RunSnapshot`]: the turbulence verdict
/// computed from the telemetry rings. Present only when the run had
/// telemetry armed (`telemetry_every` set) — absent, the snapshot JSON is
/// byte-identical to a telemetry-off run's.
#[derive(Clone, Debug, PartialEq)]
pub struct StabilitySnapshot {
    /// Telemetry sampling interval, microseconds.
    pub interval_us: u64,
    /// Completed sample windows.
    pub windows: u64,
    /// Sustained oscillation episodes across all nodes.
    pub episodes_total: u64,
    /// Largest per-node mean oscillation amplitude — the "how turbulent
    /// is the worst queue" headline number.
    pub worst_amplitude_mean: f64,
    /// Minimum windowed Jain fairness index across sample windows.
    pub fairness_min_window: f64,
    /// Mean windowed Jain fairness index.
    pub fairness_mean_window: f64,
    /// Per-node verdicts, in node-id order.
    pub nodes: Vec<NodeStabilitySnapshot>,
}

impl StabilitySnapshot {
    /// The JSON representation.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("interval_us", self.interval_us.into()),
            ("windows", self.windows.into()),
            ("episodes_total", self.episodes_total.into()),
            ("worst_amplitude_mean", self.worst_amplitude_mean.into()),
            ("fairness_min_window", self.fairness_min_window.into()),
            ("fairness_mean_window", self.fairness_mean_window.into()),
            (
                "nodes",
                JsonValue::Array(
                    self.nodes
                        .iter()
                        .map(NodeStabilitySnapshot::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs the section from its JSON representation.
    pub fn from_json(v: &JsonValue) -> Result<StabilitySnapshot, String> {
        let nodes = get_obj(v, "nodes")?
            .as_array()
            .ok_or("'nodes' is not an array")?
            .iter()
            .map(NodeStabilitySnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(StabilitySnapshot {
            interval_us: get_u64(v, "interval_us")?,
            windows: get_u64(v, "windows")?,
            episodes_total: get_u64(v, "episodes_total")?,
            worst_amplitude_mean: get_f64(v, "worst_amplitude_mean")?,
            fairness_min_window: get_f64(v, "fairness_min_window")?,
            fairness_mean_window: get_f64(v, "fairness_mean_window")?,
            nodes,
        })
    }
}

/// One node's entry in the `controller` section: how often the audit saw
/// its window actually move.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ControllerNodeSnapshot {
    /// Node id.
    pub node: usize,
    /// Decisions that changed `CWmin` (holds and same-window assigns are
    /// counted in `decisions_total`, not here).
    pub cw_changes: u64,
}

impl ControllerNodeSnapshot {
    fn to_json(self) -> JsonValue {
        JsonValue::obj(vec![
            ("node", self.node.into()),
            ("cw_changes", self.cw_changes.into()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<ControllerNodeSnapshot, String> {
        Ok(ControllerNodeSnapshot {
            node: get_u64(v, "node")? as usize,
            cw_changes: get_u64(v, "cw_changes")?,
        })
    }
}

/// One (node → successor) link's BOE estimation-error summary, from the
/// audit's ground-truth probe.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerLinkSnapshot {
    /// The estimating node.
    pub node: usize,
    /// The successor whose buffer it estimates.
    pub successor: usize,
    /// Estimate/truth pairs observed.
    pub samples: u64,
    /// Mean signed error (estimate − truth), packets.
    pub bias: f64,
    /// Mean absolute error, packets.
    pub mae: f64,
    /// Largest absolute error, packets.
    pub max_abs: f64,
    /// Sustained-divergence episodes, in time order.
    pub episodes: Vec<EpisodeSnapshot>,
}

impl ControllerLinkSnapshot {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("node", self.node.into()),
            ("successor", self.successor.into()),
            ("samples", self.samples.into()),
            ("bias", self.bias.into()),
            ("mae", self.mae.into()),
            ("max_abs", self.max_abs.into()),
            (
                "episodes",
                JsonValue::Array(
                    self.episodes
                        .iter()
                        .map(|e| EpisodeSnapshot::to_json(*e))
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<ControllerLinkSnapshot, String> {
        let episodes = get_obj(v, "episodes")?
            .as_array()
            .ok_or("'episodes' is not an array")?
            .iter()
            .map(EpisodeSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ControllerLinkSnapshot {
            node: get_u64(v, "node")? as usize,
            successor: get_u64(v, "successor")? as usize,
            samples: get_u64(v, "samples")?,
            bias: get_f64(v, "bias")?,
            mae: get_f64(v, "mae")?,
            max_abs: get_f64(v, "max_abs")?,
            episodes,
        })
    }
}

/// The `controller` section of a [`RunSnapshot`]: the audit ledger's
/// provenance summary. Present only when the run had the audit armed
/// (`audit_cap > 0`) — absent, the snapshot JSON is byte-identical to an
/// audit-off run's, exactly like the `stability` section.
#[derive(Clone, Debug, PartialEq)]
pub struct ControllerSnapshot {
    /// Audit records ever recorded (including ring-evicted ones).
    pub records: u64,
    /// Decision records among them (holds that completed a round are not
    /// recorded; every record here carried a window verdict).
    pub decisions_total: u64,
    /// Per-node CW-change counts; nodes whose window never moved are
    /// omitted.
    pub nodes: Vec<ControllerNodeSnapshot>,
    /// Per-link estimation-error summaries, in (node, successor) order.
    pub links: Vec<ControllerLinkSnapshot>,
}

impl ControllerSnapshot {
    /// The JSON representation.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj(vec![
            ("records", self.records.into()),
            ("decisions_total", self.decisions_total.into()),
            (
                "nodes",
                JsonValue::Array(
                    self.nodes
                        .iter()
                        .map(|n| ControllerNodeSnapshot::to_json(*n))
                        .collect(),
                ),
            ),
            (
                "links",
                JsonValue::Array(
                    self.links
                        .iter()
                        .map(ControllerLinkSnapshot::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Reconstructs the section from its JSON representation.
    pub fn from_json(v: &JsonValue) -> Result<ControllerSnapshot, String> {
        let nodes = get_obj(v, "nodes")?
            .as_array()
            .ok_or("'nodes' is not an array")?
            .iter()
            .map(ControllerNodeSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let links = get_obj(v, "links")?
            .as_array()
            .ok_or("'links' is not an array")?
            .iter()
            .map(ControllerLinkSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ControllerSnapshot {
            records: get_u64(v, "records")?,
            decisions_total: get_u64(v, "decisions_total")?,
            nodes,
            links,
        })
    }
}

/// One log-bucketed latency histogram as JSON: the sparse buckets (the
/// ground truth that round-trips exactly) plus derived p50/p95/p99/p999
/// microsecond quantiles for consumers that only want headline numbers.
fn hist_to_json(h: &LogHistogram) -> JsonValue {
    let [p50, p95, p99, p999] = h.percentiles();
    let buckets = h
        .buckets()
        .map(|(b, n)| JsonValue::Array(vec![b.into(), n.into()]))
        .collect();
    JsonValue::obj(vec![
        ("total", h.total().into()),
        ("buckets", JsonValue::Array(buckets)),
        ("p50_us", p50.into()),
        ("p95_us", p95.into()),
        ("p99_us", p99.into()),
        ("p999_us", p999.into()),
    ])
}

/// Parses a histogram back from its buckets; the derived quantile keys
/// are recomputed on demand, never trusted from input.
fn hist_from_json(v: &JsonValue) -> Result<LogHistogram, String> {
    let buckets = get_obj(v, "buckets")?
        .as_array()
        .ok_or("'buckets' is not an array")?;
    let mut pairs = Vec::with_capacity(buckets.len());
    for b in buckets {
        let pair = b.as_array().ok_or("histogram bucket is not a pair")?;
        if pair.len() != 2 {
            return Err("histogram bucket is not a [bucket, count] pair".into());
        }
        let idx = pair[0].as_u64().ok_or("bad bucket index")? as u32;
        let n = pair[1].as_u64().ok_or("bad bucket count")?;
        pairs.push((idx, n));
    }
    Ok(LogHistogram::from_buckets(pairs))
}

/// The latency section of a [`RunSnapshot`]: log-bucketed histograms per
/// flow (network latency: first dequeue at the source → delivery) and per
/// hop (enqueue at a node → that hop's successful transmission), all in
/// microseconds.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-flow histograms, in flow-id order.
    pub per_flow: Vec<(u32, LogHistogram)>,
    /// Per-node hop histograms, indexed by node id.
    pub per_hop: Vec<LogHistogram>,
}

/// Serialises a latency section straight from borrowed histograms — the
/// same bytes [`LatencySnapshot::to_json`] produces, without first cloning
/// every bucket vector into an owned [`LatencySnapshot`]. The engine's
/// [`snapshot_json`](crate::Network::snapshot_json) fast path feeds this
/// directly from its metrics store.
pub(crate) fn latency_json<'a>(
    per_flow: impl Iterator<Item = (u32, &'a LogHistogram)>,
    per_hop: impl Iterator<Item = &'a LogHistogram>,
) -> JsonValue {
    let per_flow = per_flow
        .map(|(f, h)| {
            JsonValue::obj(vec![
                ("flow", JsonValue::from(f)),
                ("hist", hist_to_json(h)),
            ])
        })
        .collect();
    let per_hop = per_hop.map(hist_to_json).collect();
    JsonValue::obj(vec![
        ("per_flow", JsonValue::Array(per_flow)),
        ("per_hop", JsonValue::Array(per_hop)),
    ])
}

impl LatencySnapshot {
    fn to_json(&self) -> JsonValue {
        latency_json(
            self.per_flow.iter().map(|(f, h)| (*f, h)),
            self.per_hop.iter(),
        )
    }

    fn from_json(v: &JsonValue) -> Result<LatencySnapshot, String> {
        let per_flow = get_obj(v, "per_flow")?
            .as_array()
            .ok_or("'per_flow' is not an array")?
            .iter()
            .map(|e| {
                let flow = get_u64(e, "flow")? as u32;
                let hist = hist_from_json(get_obj(e, "hist")?)?;
                Ok((flow, hist))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let per_hop = get_obj(v, "per_hop")?
            .as_array()
            .ok_or("'per_hop' is not an array")?
            .iter()
            .map(hist_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(LatencySnapshot { per_flow, per_hop })
    }
}

/// The cross-layer record of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSnapshot {
    /// Free-form label (scenario and algorithm, usually).
    pub label: String,
    /// Simulated instant the snapshot was taken at, microseconds.
    pub at_us: u64,
    /// Per-node state, in node-id order.
    pub nodes: Vec<NodeSnapshot>,
    /// Shared-channel counters.
    pub channel: ChannelStats,
    /// Event-machinery accounting.
    pub scheduler: SchedulerSnapshot,
    /// Wall-clock performance.
    pub perf: PerfSnapshot,
    /// Per-flow and per-hop latency histograms.
    pub latency: LatencySnapshot,
    /// Turbulence/stability verdict from the telemetry rings. `None` —
    /// and the JSON key absent — when the run had telemetry off, keeping
    /// telemetry-off snapshots byte-identical to the pre-telemetry
    /// schema.
    pub stability: Option<StabilitySnapshot>,
    /// Controller-provenance summary from the audit ledger. `None` — and
    /// the JSON key absent — when the run had the audit off, keeping
    /// audit-off snapshots byte-identical to the pre-audit schema.
    pub controller: Option<ControllerSnapshot>,
}

impl RunSnapshot {
    /// Simulated instant the snapshot was taken at.
    pub fn at(&self) -> Time {
        Time::from_micros(self.at_us)
    }

    /// The JSON representation.
    pub fn to_json(&self) -> JsonValue {
        self.to_json_with_latency(self.latency.to_json())
    }

    /// The JSON representation with a caller-supplied latency section.
    /// Lets [`Network::snapshot_json`](crate::Network::snapshot_json)
    /// serialise the histograms from borrows and splice the result in,
    /// instead of cloning them into `self.latency` first.
    pub(crate) fn to_json_with_latency(&self, latency: JsonValue) -> JsonValue {
        let mut fields = vec![
            ("schema", SCHEMA_VERSION.into()),
            ("label", JsonValue::str(&self.label)),
            ("at_us", self.at_us.into()),
            (
                "nodes",
                JsonValue::Array(self.nodes.iter().map(NodeSnapshot::to_json).collect()),
            ),
            ("channel", channel_to_json(&self.channel)),
            ("scheduler", self.scheduler.to_json()),
            ("perf", self.perf.to_json()),
            ("latency", latency),
            // Dead, like `perf.trace_evictions`: a literal 0 in its place.
            ("trace_records", 0u64.into()),
        ];
        if let Some(st) = &self.stability {
            fields.push(("stability", st.to_json()));
        }
        if let Some(ctl) = &self.controller {
            fields.push(("controller", ctl.to_json()));
        }
        JsonValue::obj(fields)
    }

    /// Reconstructs a snapshot from its JSON representation. Lenient
    /// about everything added since schema 1: a missing `schema` key
    /// means version 1, and the optional `stability` / `controller`
    /// sections (plus `arena_high_water` and the telemetry perf keys)
    /// default rather than error, so every older committed snapshot and
    /// golden still parses.
    pub fn from_json(v: &JsonValue) -> Result<RunSnapshot, String> {
        let schema = v.get("schema").and_then(JsonValue::as_u64).unwrap_or(1);
        if schema > SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema {schema} is newer than supported {SCHEMA_VERSION}"
            ));
        }
        let nodes = get_obj(v, "nodes")?
            .as_array()
            .ok_or("'nodes' is not an array")?
            .iter()
            .map(NodeSnapshot::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(RunSnapshot {
            label: get_str(v, "label")?,
            at_us: get_u64(v, "at_us")?,
            nodes,
            channel: channel_from_json(get_obj(v, "channel")?)?,
            scheduler: SchedulerSnapshot::from_json(get_obj(v, "scheduler")?)?,
            perf: PerfSnapshot::from_json(get_obj(v, "perf")?)?,
            latency: LatencySnapshot::from_json(get_obj(v, "latency")?)?,
            stability: v
                .get("stability")
                .map(StabilitySnapshot::from_json)
                .transpose()?,
            controller: v
                .get("controller")
                .map(ControllerSnapshot::from_json)
                .transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunSnapshot {
        RunSnapshot {
            label: "scenario-1/ez-flow".into(),
            at_us: 120_000_000,
            nodes: vec![NodeSnapshot {
                id: 0,
                controller: "ez-flow".into(),
                cw_min: 64,
                airtime: Airtime {
                    tx_us: 10,
                    rx_us: 20,
                    busy_us: 30,
                    idle_us: 40,
                },
                mac: MacStats {
                    tx_attempts: 5,
                    tx_success: 4,
                    retries: 1,
                    backoff_slots: 77,
                    ..MacStats::default()
                },
                counters: ControllerCounters {
                    boe_hits: 9,
                    caa_increases: 2,
                    ..ControllerCounters::default()
                },
                queues: vec![QueueSnapshot {
                    own: true,
                    successor: 1,
                    occupancy: 3,
                    cap: 50,
                    high_water: 17,
                    drops: 2,
                    accepted: 100,
                }],
            }],
            channel: ChannelStats {
                tx_started: 5,
                clean_deliveries: 4,
                collisions_at_dst: 1,
                ..ChannelStats::default()
            },
            scheduler: SchedulerSnapshot {
                scheduled_total: 1000,
                dispatched_total: 983,
                stale_elided: 7,
                rescheduled_total: 3,
                removed_total: 2,
                pending: 10,
                depth_high_water: 42,
                dispatched_by_kind: vec![("traffic".into(), 500), ("tx_end".into(), 483)],
            },
            perf: PerfSnapshot {
                wall_secs: 0.5,
                sim_secs: 120.0,
                events_per_sec: 1980.0,
                sim_rate: 240.0,
                sched_depth_high_water: 42,
                stale_epoch_drops: 7,
                sched_rotations: 11,
                sched_overflow_refills: 2,
                sched_bucket_high_water: 5,
                arena_high_water: 120,
                handler_ns: [0; crate::engine::PROFILE_KINDS],
                telemetry_windows: 0,
                telemetry_windows_per_sec: 0.0,
            },
            latency: LatencySnapshot {
                per_flow: vec![(0, {
                    let mut h = LogHistogram::new();
                    for v in [100, 2_000, 2_000, 55_000] {
                        h.record(v);
                    }
                    h
                })],
                per_hop: vec![LogHistogram::new(), {
                    let mut h = LogHistogram::new();
                    h.record(640);
                    h
                }],
            },
            stability: None,
            controller: None,
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = sample();
        let json = snap.to_json();
        let text = json.to_pretty();
        let parsed = JsonValue::parse(&text).unwrap();
        let back = RunSnapshot::from_json(&parsed).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn optional_sections_round_trip_and_stay_out_of_plain_json() {
        // Telemetry and audit off: no "stability"/"controller" keys, no
        // profiler/telemetry perf keys — the feature-off schema byte for
        // byte.
        let plain = sample();
        let json = plain.to_json();
        let text = json.to_pretty();
        assert!(!text.contains("stability"));
        assert!(!text.contains("handler_ns_by_kind"));
        assert!(!text.contains("telemetry_windows"));
        // Structural probe, not text: each node serialises its controller
        // *name* under "controller" too, so look at the top level only.
        assert!(json.get("controller").is_none());

        // Telemetry + profiler + audit on: everything round-trips.
        let mut snap = sample();
        snap.controller = Some(ControllerSnapshot {
            records: 500,
            decisions_total: 12,
            nodes: vec![ControllerNodeSnapshot {
                node: 1,
                cw_changes: 3,
            }],
            links: vec![ControllerLinkSnapshot {
                node: 1,
                successor: 2,
                samples: 480,
                bias: -0.25,
                mae: 0.5,
                max_abs: 6.0,
                episodes: vec![EpisodeSnapshot {
                    start_us: 2_000_000,
                    end_us: 4_000_000,
                    peak_amplitude: 6.0,
                }],
            }],
        });
        snap.perf.handler_ns[0] = 123;
        snap.perf.handler_ns[crate::engine::PROFILE_KINDS - 1] = 456;
        snap.perf.telemetry_windows = 10;
        snap.perf.telemetry_windows_per_sec = 20.0;
        snap.stability = Some(StabilitySnapshot {
            interval_us: 100_000,
            windows: 10,
            episodes_total: 1,
            worst_amplitude_mean: 31.5,
            fairness_min_window: 0.5,
            fairness_mean_window: 0.9,
            nodes: vec![NodeStabilitySnapshot {
                node: 1,
                amplitude_mean: 31.5,
                amplitude_max: 44.0,
                cv_mean: 0.8,
                episodes: vec![EpisodeSnapshot {
                    start_us: 5_000_000,
                    end_us: 11_000_000,
                    peak_amplitude: 44.0,
                }],
            }],
        });
        let text = snap.to_json().to_pretty();
        assert!(text.contains("fairness_min_window"));
        let parsed = JsonValue::parse(&text).unwrap();
        let back = RunSnapshot::from_json(&parsed).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_carries_airtime_fractions() {
        let json = sample().to_json();
        let air = json.get("nodes").unwrap().as_array().unwrap()[0]
            .get("airtime")
            .unwrap()
            .clone();
        let frac = |k: &str| air.get(k).unwrap().as_f64().unwrap();
        let sum = frac("tx_frac") + frac("rx_frac") + frac("busy_frac") + frac("idle_frac");
        assert!(
            (sum - 1.0).abs() < 1e-9,
            "fractions must sum to 1, got {sum}"
        );
        assert!((frac("tx_frac") - 0.1).abs() < 1e-9);
    }

    #[test]
    fn latency_json_carries_derived_quantiles() {
        let json = sample().to_json();
        let per_flow = json
            .get("latency")
            .unwrap()
            .get("per_flow")
            .unwrap()
            .as_array()
            .unwrap();
        let hist = per_flow[0].get("hist").unwrap();
        assert_eq!(hist.get("total").unwrap().as_u64(), Some(4));
        let q = |k: &str| hist.get(k).unwrap().as_u64().unwrap();
        assert!(q("p50_us") <= q("p95_us"));
        assert!(q("p95_us") <= q("p99_us"));
        assert!(q("p99_us") <= q("p999_us"));
        // The p50 bucket midpoint approximates the 2 ms mode.
        assert!((1_900..=2_100).contains(&q("p50_us")), "{}", q("p50_us"));
    }

    #[test]
    fn from_json_reports_missing_fields() {
        let err = RunSnapshot::from_json(&JsonValue::obj(vec![])).unwrap_err();
        assert!(err.contains("nodes"), "{err}");
    }

    #[test]
    fn schema_version_is_stamped_and_future_versions_are_rejected() {
        let json = sample().to_json();
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        let JsonValue::Object(mut fields) = json else {
            unreachable!()
        };
        fields[0].1 = JsonValue::from(SCHEMA_VERSION + 1);
        let err = RunSnapshot::from_json(&JsonValue::Object(fields)).unwrap_err();
        assert!(err.contains("newer than supported"), "{err}");
    }

    /// The lenient-read guarantee: a document written by any older schema
    /// — no `schema` key (v1), no `stability`, no `controller`, no
    /// `arena_high_water`, no telemetry perf keys — must still parse.
    /// Older documents are synthesised by stripping exactly the keys
    /// those generations lacked from a current snapshot.
    #[test]
    fn older_schema_documents_still_parse() {
        fn strip(v: &mut JsonValue, keys: &[&str]) {
            if let JsonValue::Object(fields) = v {
                fields.retain(|(k, _)| !keys.contains(&k.as_str()));
                for (_, v) in fields.iter_mut() {
                    strip(v, keys);
                }
            }
            if let JsonValue::Array(items) = v {
                for item in items.iter_mut() {
                    strip(item, keys);
                }
            }
        }
        let mut snap = sample();
        snap.perf.telemetry_windows = 4;
        snap.perf.telemetry_windows_per_sec = 8.0;
        let mut json = snap.to_json();
        strip(
            &mut json,
            &[
                "schema",
                "stability",
                "arena_high_water",
                "telemetry_windows",
                "telemetry_windows_per_sec",
            ],
        );
        // "controller" collides with each node's controller-name field,
        // so the audit section is stripped at the top level only.
        if let JsonValue::Object(fields) = &mut json {
            fields.retain(|(k, _)| k != "controller");
        }
        let text = json.to_pretty();
        let back = RunSnapshot::from_json(&JsonValue::parse(&text).unwrap())
            .expect("pre-schema document must parse");
        assert_eq!(back.label, snap.label);
        assert_eq!(back.nodes, snap.nodes);
        assert_eq!(back.perf.arena_high_water, 0, "lenient default");
        assert_eq!(back.perf.telemetry_windows, 0, "lenient default");
        assert_eq!(back.stability, None);
        assert_eq!(back.controller, None);
    }
}
