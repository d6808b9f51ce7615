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
//! Each key is stated once, in emission order, beside its field in a
//! `record!` table; that one table is both the writer and the reader.

use std::borrow::Cow;
use std::fmt::Display;

use ezflow_mac::MacStats;
use ezflow_phy::{Airtime, ChannelStats};
use ezflow_sim::json::Key;
use ezflow_sim::{JsonValue, Time};
use ezflow_stats::hist::MAX_BUCKET;
use ezflow_stats::{Episode, LogHistogram};

use crate::controller::ControllerCounters;
use crate::engine::{PROFILE_KINDS, PROFILE_NAMES};

/// Version stamped into every snapshot's `schema` key. Bumped when a
/// structural change lands (new always-present key, renamed field);
/// purely *additive* optional sections do not bump it. Documents without
/// the key (written before the key existed) read back as version 1 —
/// [`RunSnapshot::from_json`] is lenient about it and about every
/// section added since, so archived artifacts keep parsing.
pub const SCHEMA_VERSION: u64 = 2;

/// One value of a snapshot: how it is written into the JSON tree and
/// read back out of it. A read error starts with a JSON pointer to the
/// offending value (`/nodes/0/cw_min: …`).
trait Codec: Sized {
    fn write(&self) -> JsonValue;
    fn read(v: &JsonValue) -> Result<Self, String>;
}

/// Prefixes a read error with the key or index it arose under.
fn under(at: impl Display, e: String) -> String {
    let sep = if e.starts_with('/') { "" } else { ": " };
    format!("/{at}{sep}{e}")
}

/// Reads the required `key` of object `v`.
fn field<T: Codec>(v: &JsonValue, key: &str) -> Result<T, String> {
    let x = v.get(key).ok_or_else(|| format!("/{key}: missing"))?;
    T::read(x).map_err(|e| under(key, e))
}

/// Reads `key` of object `v`, or the default when a document predates it.
fn lenient<T: Codec + Default>(v: &JsonValue, key: &str) -> Result<T, String> {
    v.get(key).map_or(Ok(T::default()), |_| field(v, key))
}

/// Reads a derived key back only to check it (its type; the schema's
/// version): it is never stored, so a document may omit it.
fn checked<S, T: Codec>(_: fn(&S) -> T, v: &JsonValue, key: &str) -> Result<(), String> {
    lenient::<Option<T>>(v, key).map(drop)
}

/// States each key of a record once, in emission order, and derives the
/// record's [`Codec`] from that table. A struct declared inside `record!`
/// carries each key beside its field (`"key" => pub field: Type,`); a
/// foreign type's table names the fields alone (`"key" => field,`).
/// After the field, `[?]` reads an absent key as the default, and
/// `[? if |r| …]` also writes the key only when the predicate holds for
/// the record. An entry `"key" => (|r| …),` is derived from the record:
/// written always, and read back only by [`checked`].
macro_rules! record {
    (@fields $name:ident [$($lt:lifetime)?] [$($head:tt)*] [$($f:tt)*] [$($t:tt)*]) => {
        $($head)* { $($f)* }
        record!(@impl [$($lt)?] $name<$($lt)?> { $($t)* });
    };
    (@fields $name:ident $lt:tt $head:tt $f:tt $t:tt $(#[$doc:meta])* $key:literal $($rest:tt)*) => {
        record!(@field $name $lt $head $f $t [$(#[$doc])*] $key $($rest)*);
    };
    (@fields $name:ident $lt:tt $head:tt $f:tt $t:tt $(#[$doc:meta])* $key:ident $($rest:tt)*) => {
        record!(@field $name $lt $head $f $t [$(#[$doc])*] $key $($rest)*);
    };
    (@field $name:ident $lt:tt $head:tt [$($f:tt)*] [$($t:tt)*] [$($doc:tt)*]
        $key:tt => $vis:vis $field:ident: $ty:ty $([$($opt:tt)*])?, $($rest:tt)*) => {
        record!(@fields $name $lt $head [$($f)* $($doc)* $vis $field: $ty,]
            [$($t)* $key => $field $([$($opt)*])?,] $($rest)*);
    };
    (@field $name:ident $lt:tt $head:tt $f:tt [$($t:tt)*] []
        $key:tt => ($derive:expr), $($rest:tt)*) => {
        record!(@fields $name $lt $head $f [$($t)* $key => ($derive),] $($rest)*);
    };
    (@impl [$($lt:lifetime)?] $ty:ty { $($key:expr => $target:tt $([$($opt:tt)*])?,)* }) => {
        impl<$($lt)?> Codec for $ty {
            fn write(&self) -> JsonValue {
                let mut out = Vec::with_capacity([$($key),*].len());
                $(record!(@put self, out, $key, $target, [$($($opt)*)?]);)*
                JsonValue::Object(out)
            }

            fn read(v: &JsonValue) -> Result<Self, String> {
                record!(@get v, [], $($key, $target, [$($($opt)*)?];)*)
            }
        }
    };
    (@put $s:ident, $out:ident, $key:expr, $field:ident, [? if $keep:expr]) => {{
        let keep: fn(&Self) -> bool = $keep;
        if keep($s) {
            $out.push(($key.into(), $s.$field.write()));
        }
    }};
    (@put $s:ident, $out:ident, $key:expr, $field:ident, [$($lenient:tt)?]) => {
        $out.push(($key.into(), $s.$field.write()))
    };
    (@put $s:ident, $out:ident, $key:expr, ($derive:expr), []) => {{
        let derive: fn(&Self) -> _ = $derive;
        $out.push(($key.into(), derive($s).write()));
    }};
    (@get $v:ident, [$($done:tt)*],) => {
        Ok(Self { $($done)* })
    };
    (@get $v:ident, [$($done:tt)*], $key:expr, $field:ident, []; $($rest:tt)*) => {
        record!(@get $v, [$($done)* $field: field($v, $key)?,], $($rest)*)
    };
    (@get $v:ident, [$($done:tt)*], $key:expr, $field:ident, [? $($if:tt)*]; $($rest:tt)*) => {
        record!(@get $v, [$($done)* $field: lenient($v, $key)?,], $($rest)*)
    };
    (@get $v:ident, [$($done:tt)*], $key:expr, ($derive:expr), []; $($rest:tt)*) => {{
        let derive: fn(&Self) -> _ = $derive;
        checked(derive, $v, $key)?;
        record!(@get $v, [$($done)*], $($rest)*)
    }};
    ($($(#[$m:meta])* $vis:vis struct $name:ident $(<$lt:lifetime>)? { $($body:tt)* })+) => {$(
        record!(@fields $name [$($lt)?] [$(#[$m])* $vis struct $name $(<$lt>)?] [] [] $($body)*);
    )+};
    ($($ty:ty { $($table:tt)* })+) => {$(
        record!(@impl [] $ty { $($table)* });
    )+};
}

record! {
    /// The cross-layer record of one simulation run.
    #[derive(Clone, Debug, PartialEq)]
    pub struct RunSnapshot {
        "schema" => (|_| Schema),
        /// Free-form label (scenario and algorithm, usually).
        "label" => pub label: String,
        /// Simulated instant the snapshot was taken at, microseconds.
        "at_us" => pub at_us: u64,
        /// Per-node state, in node-id order.
        "nodes" => pub nodes: Vec<NodeSnapshot>,
        /// Shared-channel counters.
        "channel" => pub channel: ChannelStats,
        /// Event-machinery accounting.
        "scheduler" => pub scheduler: SchedulerSnapshot,
        /// Wall-clock performance.
        "perf" => pub perf: PerfSnapshot,
        /// Per-flow and per-hop latency histograms.
        LATENCY => pub latency: LatencySnapshot,
        // Dead, like `perf.trace_evictions`: a literal 0 in its place.
        "trace_records" => (|_| 0u64),
        /// Turbulence/stability verdict from the telemetry bus. `None` —
        /// and the JSON key absent — when the run had telemetry off, keeping
        /// telemetry-off snapshots byte-identical to the pre-telemetry
        /// schema.
        "stability" => pub stability: Option<StabilitySnapshot> [? if |r| r.stability.is_some()],
        /// Controller-provenance summary from the audit ledger. `None` — and
        /// the JSON key absent — when the run had the audit off, keeping
        /// audit-off snapshots byte-identical to the pre-audit schema.
        "controller" => pub controller: Option<ControllerSnapshot> [? if |r| r.controller.is_some()],
    }

    /// Everything observable about one node at snapshot time.
    #[derive(Clone, Debug, PartialEq)]
    pub struct NodeSnapshot {
        /// Node id.
        "id" => pub id: usize,
        /// Controller algorithm name.
        "controller" => pub controller: String,
        /// Current `CWmin`.
        "cw_min" => pub cw_min: u32,
        /// Where this node's time went, by radio state.
        "airtime" => pub airtime: Airtime,
        /// MAC counters.
        "mac" => pub mac: MacStats,
        /// Controller (BOE/CAA) counters; zero for algorithms without them.
        "counters" => pub counters: ControllerCounters,
        /// Per-queue statistics.
        "queues" => pub queues: Vec<QueueSnapshot>,
    }

    /// One interface queue's statistics at snapshot time.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct QueueSnapshot {
        /// True for the own-traffic queue, false for a forward queue.
        "own" => pub own: bool,
        /// The successor this queue feeds.
        "successor" => pub successor: usize,
        /// Packets queued right now.
        "occupancy" => pub occupancy: usize,
        /// Capacity, packets.
        "cap" => pub cap: usize,
        /// Deepest occupancy ever reached.
        "high_water" => pub high_water: usize,
        /// Drop-tail rejections.
        "drops" => pub drops: u64,
        /// Frames ever accepted.
        "accepted" => pub accepted: u64,
    }

    /// Scheduler-side accounting: how much event machinery the run turned.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SchedulerSnapshot {
        /// Events ever scheduled.
        "scheduled_total" => pub scheduled_total: u64,
        /// Events dispatched (popped and handled).
        "dispatched_total" => pub dispatched_total: u64,
        /// MAC timers that dispatched after their owner had stopped owing
        /// them: the sum of [`MacStats::stale_timers`] over all nodes, the
        /// one place a stale timer can be seen (the scheduler itself never
        /// drops an entry). Zero while the engine's eager parking holds.
        /// Same value as [`PerfSnapshot::stale_timer_drops`]; the key keeps
        /// its name until the next schema bump retires it.
        "stale_elided" => pub stale_elided: u64,
        /// Timer entries moved in place by keyed rescheduling: each re-arm
        /// consumes the old entry without a dispatch.
        "rescheduled_total" => pub rescheduled_total: u64,
        /// Timer entries physically removed (parked frozen countdowns
        /// awaiting a later re-arm).
        "removed_total" => pub removed_total: u64,
        /// Events still pending at snapshot time.
        "pending" => pub pending: usize,
        /// Deepest the pending-event heap ever got.
        "depth_high_water" => pub depth_high_water: usize,
        /// Dispatch counts per event kind, in the network's kind order.
        "dispatched_by_kind" => pub dispatched_by_kind: Vec<(String, u64)>,
    }

    /// Wall-clock performance of the run, plus the heap-churn gauges that
    /// explain it. The wall-clock numbers are the only non-deterministic part
    /// of a snapshot — everything else is a pure function of the spec and
    /// seed — so tests zero this whole block before comparing.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct PerfSnapshot {
        /// Wall-clock seconds spent inside `run_until`.
        "wall_secs" => pub wall_secs: f64,
        /// Simulated seconds covered.
        "sim_secs" => pub sim_secs: f64,
        /// Scheduler entries *consumed* (dispatched plus moved in place by a
        /// keyed reschedule) per wall-clock second.
        "events_per_sec" => pub events_per_sec: f64,
        /// Simulated seconds per wall-clock second.
        "sim_rate" => pub sim_rate: f64,
        /// Deepest the scheduler's pending-event heap ever got — the working
        /// set the event loop keeps alive.
        "sched_depth_high_water" => pub sched_depth_high_water: u64,
        /// Timer events the MACs discarded as stale: Σ
        /// [`MacStats::stale_timers`], a duplicate of
        /// [`SchedulerSnapshot::stale_elided`] that retires with it at the
        /// next schema bump. The key predates the field's name.
        "stale_epoch_drops" => pub stale_timer_drops: u64,
        /// Calendar-queue cursor advances, in buckets. An implementation
        /// gauge, not comparable state.
        "sched_rotations" => pub sched_rotations: u64,
        /// Entries migrated from the calendar queue's overflow heap into
        /// buckets on rotation.
        "sched_overflow_refills" => pub sched_overflow_refills: u64,
        /// Deepest any single calendar-queue bucket ever got.
        "sched_bucket_high_water" => pub sched_bucket_high_water: u64,
        // Dead, kept in place until the next schema bump.
        "trace_evictions" => (|_| 0u64),
        /// Peak live-frame population of the frame arena — the run's frame
        /// memory footprint in ~100-byte slots (the slab never shrinks).
        /// Absent from pre-arena documents.
        "arena_high_water" => pub arena_high_water: u64 [?],
        /// Self-profiler: wall-clock nanoseconds spent inside each event
        /// kind's handler, in [`crate::engine::PROFILE_NAMES`] order (the
        /// last slot is the telemetry sampler). All zero — and the JSON key
        /// omitted — unless the spec set `profile`.
        "handler_ns_by_kind" => pub handler_ns: [u64; crate::engine::PROFILE_KINDS]
            [? if |p| p.handler_ns.iter().any(|&n| n != 0)],
        /// Telemetry sample windows completed; zero (key omitted) with
        /// telemetry off.
        "telemetry_windows" => pub telemetry_windows: u64 [? if |p| p.telemetry_windows > 0],
        /// Telemetry sample windows per wall-clock second (key omitted with
        /// telemetry off).
        "telemetry_windows_per_sec" => pub telemetry_windows_per_sec: f64
            [? if |p| p.telemetry_windows > 0],
    }

    /// One sustained episode — of queue oscillation in the stability
    /// section, of estimation divergence in the controller section — as
    /// `ezflow_stats::stability::detect_episodes` finds it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    pub struct EpisodeSnapshot {
        /// Episode start, microseconds of simulated time.
        "start_us" => pub start_us: u64,
        /// Episode end (exclusive), microseconds.
        "end_us" => pub end_us: u64,
        /// Largest analysis-window amplitude inside the episode, packets.
        "peak_amplitude" => pub peak_amplitude: f64,
    }

    /// One node's stability verdict: oscillation scores over its telemetry
    /// queue depths plus the sustained episodes.
    #[derive(Clone, Debug, PartialEq)]
    pub struct NodeStabilitySnapshot {
        /// Node id.
        "node" => pub node: usize,
        /// Mean per-analysis-window oscillation amplitude (max − min),
        /// packets.
        "amplitude_mean" => pub amplitude_mean: f64,
        /// Largest window amplitude seen.
        "amplitude_max" => pub amplitude_max: f64,
        /// Mean windowed coefficient of variation (std / mean).
        "cv_mean" => pub cv_mean: f64,
        /// Sustained oscillation episodes, in time order.
        "episodes" => pub episodes: Vec<EpisodeSnapshot>,
    }

    /// The `stability` section of a [`RunSnapshot`]: the turbulence verdict,
    /// scored from the telemetry windows as they close. Present only when
    /// the run had telemetry armed (`telemetry_every` set) — absent, the
    /// snapshot JSON is byte-identical to a telemetry-off run's.
    #[derive(Clone, Debug, PartialEq)]
    pub struct StabilitySnapshot {
        /// Telemetry sampling interval, microseconds.
        "interval_us" => pub interval_us: u64,
        /// Completed sample windows.
        "windows" => pub windows: u64,
        /// Sustained oscillation episodes across all nodes.
        "episodes_total" => pub episodes_total: u64,
        /// Largest per-node mean oscillation amplitude — the "how turbulent
        /// is the worst queue" headline number.
        "worst_amplitude_mean" => pub worst_amplitude_mean: f64,
        /// Minimum windowed Jain fairness index across sample windows.
        "fairness_min_window" => pub fairness_min_window: f64,
        /// Mean windowed Jain fairness index.
        "fairness_mean_window" => pub fairness_mean_window: f64,
        /// Per-node verdicts, in node-id order.
        "nodes" => pub nodes: Vec<NodeStabilitySnapshot>,
    }

    /// One node's entry in the `controller` section: how often the audit saw
    /// its window actually move.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct ControllerNodeSnapshot {
        /// Node id.
        "node" => pub node: usize,
        /// Decisions that changed `CWmin` (holds and same-window assigns are
        /// counted in `decisions_total`, not here).
        "cw_changes" => pub cw_changes: u64,
    }

    /// One (node → successor) link's BOE estimation-error summary, from the
    /// audit's ground-truth probe.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ControllerLinkSnapshot {
        /// The estimating node.
        "node" => pub node: usize,
        /// The successor whose buffer it estimates.
        "successor" => pub successor: usize,
        /// Estimate/truth pairs observed.
        "samples" => pub samples: u64,
        /// Mean signed error (estimate − truth), packets.
        "bias" => pub bias: f64,
        /// Mean absolute error, packets.
        "mae" => pub mae: f64,
        /// Largest absolute error, packets.
        "max_abs" => pub max_abs: f64,
        /// Sustained-divergence episodes, in time order.
        "episodes" => pub episodes: Vec<EpisodeSnapshot>,
    }

    /// The `controller` section of a [`RunSnapshot`]: the audit ledger's
    /// provenance summary. Present only when the run had the audit armed
    /// (`audit_cap > 0`) — absent, the snapshot JSON is byte-identical to an
    /// audit-off run's, exactly like the `stability` section.
    #[derive(Clone, Debug, PartialEq)]
    pub struct ControllerSnapshot {
        /// Audit records ever recorded.
        "records" => pub records: u64,
        /// Decision records among them (holds that completed a round are not
        /// recorded; every record here carried a window verdict).
        "decisions_total" => pub decisions_total: u64,
        /// Per-node CW-change counts; nodes whose window never moved are
        /// omitted.
        "nodes" => pub nodes: Vec<ControllerNodeSnapshot>,
        /// Per-link estimation-error summaries, in (node, successor) order.
        "links" => pub links: Vec<ControllerLinkSnapshot>,
    }

    /// The latency section as written: histograms borrowed from a
    /// [`LatencySnapshot`] or straight from the engine's metrics store, and
    /// owned once read back.
    struct Latency<'a> {
        "per_flow" => per_flow: Vec<FlowLatency<'a>>,
        "per_hop" => per_hop: Vec<Cow<'a, LogHistogram>>,
    }

    struct FlowLatency<'a> {
        "flow" => flow: u32,
        "hist" => hist: Cow<'a, LogHistogram>,
    }
}

record! {
    Airtime {
        "tx_us" => tx_us,
        "rx_us" => rx_us,
        "busy_us" => busy_us,
        "idle_us" => idle_us,
        // Derived, for consumers that only want the shape of the budget.
        "tx_frac" => (|a| a.fractions().0),
        "rx_frac" => (|a| a.fractions().1),
        "busy_frac" => (|a| a.fractions().2),
        "idle_frac" => (|a| a.fractions().3),
    }
    MacStats {
        "tx_attempts" => tx_attempts,
        "tx_success" => tx_success,
        "retries" => retries,
        "drops_retry" => drops_retry,
        "acks_sent" => acks_sent,
        "acks_suppressed" => acks_suppressed,
        "dup_rx" => dup_rx,
        "spurious_ack" => spurious_ack,
        "delivered" => delivered,
        "rts_sent" => rts_sent,
        "cts_sent" => cts_sent,
        "cts_timeouts" => cts_timeouts,
        "backoff_slots" => backoff_slots,
        "cca_busy" => cca_busy,
        "eifs_starts" => eifs_starts,
        // The key predates the counter's name; both stay until schema 3.
        "stale_epochs" => stale_timers,
    }
    ControllerCounters {
        "boe_hits" => boe_hits,
        "boe_misses" => boe_misses,
        "boe_ambiguous" => boe_ambiguous,
        "caa_increases" => caa_increases,
        "caa_decreases" => caa_decreases,
        "caa_holds" => caa_holds,
    }
    ChannelStats {
        "tx_started" => tx_started,
        "collisions_at_dst" => collisions_at_dst,
        "bernoulli_losses" => bernoulli_losses,
        "clean_deliveries" => clean_deliveries,
        "captures" => captures,
        "hidden_losses" => hidden_losses,
    }
}

impl RunSnapshot {
    /// Simulated instant the snapshot was taken at.
    pub fn at(&self) -> Time {
        Time::from_micros(self.at_us)
    }

    /// The JSON representation.
    pub fn to_json(&self) -> JsonValue {
        self.write()
    }

    /// The JSON representation with a caller-supplied latency section.
    /// Lets [`Network::snapshot_json`](crate::Network::snapshot_json)
    /// serialise the histograms from borrows and splice the result in,
    /// instead of cloning them into `self.latency` first.
    pub(crate) fn to_json_with_latency(&self, latency: JsonValue) -> JsonValue {
        let mut json = self.write();
        if let JsonValue::Object(fields) = &mut json {
            if let Some((_, v)) = fields.iter_mut().find(|(key, _)| key == LATENCY) {
                *v = latency;
            }
        }
        json
    }

    /// Reconstructs a snapshot from its JSON representation. Lenient
    /// about everything added since schema 1: a missing `schema` key
    /// means version 1, and the optional `stability` / `controller`
    /// sections (plus `arena_high_water` and the profiler and telemetry
    /// perf keys) default rather than error, so every older committed
    /// snapshot and golden still parses. Any other missing or malformed
    /// value is an error naming it as a JSON pointer.
    pub fn from_json(v: &JsonValue) -> Result<RunSnapshot, String> {
        Self::read(v)
    }
}

impl From<&Episode> for EpisodeSnapshot {
    fn from(e: &Episode) -> Self {
        EpisodeSnapshot {
            start_us: e.start.as_micros(),
            end_us: e.end.as_micros(),
            peak_amplitude: e.peak_amplitude,
        }
    }
}

/// Named because [`RunSnapshot::to_json_with_latency`] splices a section
/// in under it.
const LATENCY: &str = "latency";

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
            stale_timer_drops: 0,
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
        self.write()
    }
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

impl Codec for LatencySnapshot {
    fn write(&self) -> JsonValue {
        latency_json(
            self.per_flow.iter().map(|(f, h)| (*f, h)),
            self.per_hop.iter(),
        )
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let Latency { per_flow, per_hop } = Latency::read(v)?;
        Ok(LatencySnapshot {
            per_flow: per_flow
                .into_iter()
                .map(|f| (f.flow, f.hist.into_owned()))
                .collect(),
            per_hop: per_hop.into_iter().map(Cow::into_owned).collect(),
        })
    }
}

/// Serialises a latency section straight from borrowed histograms — the
/// same bytes a [`LatencySnapshot`] writes, without first cloning every
/// bucket vector into an owned one. The engine's
/// [`snapshot_json`](crate::Network::snapshot_json) fast path feeds this
/// directly from its metrics store.
pub(crate) fn latency_json<'a>(
    per_flow: impl Iterator<Item = (u32, &'a LogHistogram)>,
    per_hop: impl Iterator<Item = &'a LogHistogram>,
) -> JsonValue {
    let flow = |(flow, h)| FlowLatency {
        flow,
        hist: Cow::Borrowed(h),
    };
    Latency {
        per_flow: per_flow.map(flow).collect(),
        per_hop: per_hop.map(Cow::Borrowed).collect(),
    }
    .write()
}

/// Named because it is the one histogram key both written and read.
const BUCKETS: &str = "buckets";

/// A latency histogram: its sparse buckets, the ground truth that
/// round-trips exactly, plus the derived total and p50/p95/p99/p999
/// microsecond quantiles for consumers that only want headline numbers.
/// The derived keys are recomputed, never trusted from input.
impl Codec for LogHistogram {
    fn write(&self) -> JsonValue {
        let [p50, p95, p99, p999] = self.percentiles();
        JsonValue::obj(vec![
            ("total", self.total().into()),
            (
                BUCKETS,
                JsonValue::Array(self.buckets().map(|b| b.write()).collect()),
            ),
            ("p50_us", p50.into()),
            ("p95_us", p95.into()),
            ("p99_us", p99.into()),
            ("p999_us", p999.into()),
        ])
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let buckets: Vec<(u32, u64)> = field(v, BUCKETS)?;
        let total = buckets.iter().try_fold(0u64, |s, b| s.checked_add(b.1));
        total.ok_or(format!("/{BUCKETS}: counts sum past u64"))?;
        Ok(LogHistogram::from_buckets(buckets))
    }
}

/// One histogram bucket, `[index, count]`. An index past [`MAX_BUCKET`]
/// names no range of `u64` values, so it is refused before it can reach
/// the quantile arithmetic.
impl Codec for (u32, u64) {
    fn write(&self) -> JsonValue {
        JsonValue::Array(vec![self.0.write(), self.1.write()])
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let Some([b, n]) = v.as_array() else {
            return Err("not an [index, count] pair".into());
        };
        match u32::read(b)? {
            b if b > MAX_BUCKET => Err(format!("bucket {b} is past the last, {MAX_BUCKET}")),
            b => Ok((b, u64::read(n)?)),
        }
    }
}

/// The `schema` key: written as [`SCHEMA_VERSION`]; a newer version is
/// refused on read.
struct Schema;

impl Codec for Schema {
    fn write(&self) -> JsonValue {
        SCHEMA_VERSION.into()
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        match u64::read(v)? {
            n if n > SCHEMA_VERSION => Err(format!("{n} is newer than supported {SCHEMA_VERSION}")),
            _ => Ok(Schema),
        }
    }
}

/// `scheduler.dispatched_by_kind`: `{kind: count}`, in the network's kind
/// order.
impl Codec for Vec<(String, u64)> {
    fn write(&self) -> JsonValue {
        let kinds = self.iter().map(|(k, n)| (Key::from(k.clone()), n.write()));
        JsonValue::Object(kinds.collect())
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let JsonValue::Object(kinds) = v else {
            return Err("not an object".into());
        };
        kinds
            .iter()
            .map(|(k, _)| Ok((k.to_string(), field(v, k)?)))
            .collect()
    }
}

/// `perf.handler_ns_by_kind`: `{kind: ns}`, keyed by [`PROFILE_NAMES`].
impl Codec for [u64; PROFILE_KINDS] {
    fn write(&self) -> JsonValue {
        let kinds = PROFILE_NAMES.iter().zip(self);
        JsonValue::Object(kinds.map(|(&k, n)| (k.into(), n.write())).collect())
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let ns: Result<Vec<u64>, _> = PROFILE_NAMES.iter().map(|k| field(v, k)).collect();
        Ok(ns?.try_into().expect("one count per profile name"))
    }
}

/// The scalars `JsonValue` converts from, each with its reader.
macro_rules! scalar {
    ($($ty:ty => |$v:ident| $read:expr),* $(,)?) => {$(
        impl Codec for $ty {
            fn write(&self) -> JsonValue {
                (*self).into()
            }

            fn read($v: &JsonValue) -> Result<Self, String> {
                $read
            }
        }
    )*};
}

scalar! {
    u64 => |v| v.as_u64().ok_or_else(|| "not an integer in 0..=2^53".into()),
    u32 => |v| narrow(v),
    usize => |v| narrow(v),
    f64 => |v| v.as_f64().ok_or_else(|| "not a number".into()),
    bool => |v| v.as_bool().ok_or_else(|| "not a bool".into()),
}

/// Reads a narrower integer as `u64` and converts with `try_from`, so an
/// out-of-range value is an error, not a truncation.
fn narrow<T: TryFrom<u64>>(v: &JsonValue) -> Result<T, String> {
    let n = u64::read(v)?;
    T::try_from(n).map_err(|_| format!("{n} does not fit in {}", std::any::type_name::<T>()))
}

impl Codec for String {
    fn write(&self) -> JsonValue {
        JsonValue::str(self)
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        Ok(v.as_str().ok_or("not a string")?.into())
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn write(&self) -> JsonValue {
        JsonValue::Array(self.iter().map(T::write).collect())
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        let items = v.as_array().ok_or("not an array")?;
        let read = |(i, x)| T::read(x).map_err(|e| under(i, e));
        items.iter().enumerate().map(read).collect()
    }
}

/// An optional section, only ever written when present (`[? if …]`).
impl<T: Codec> Codec for Option<T> {
    fn write(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::write)
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        T::read(v).map(Some)
    }
}

/// Written from a borrow, read back owned.
impl<T: Codec + Clone> Codec for Cow<'_, T> {
    fn write(&self) -> JsonValue {
        T::write(self)
    }

    fn read(v: &JsonValue) -> Result<Self, String> {
        T::read(v).map(Cow::Owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot in which both optional sections are present, the
    /// profiler and telemetry perf keys are set, and every stored number is
    /// distinct and nonzero: the `n`-th number drawn, in field order (a
    /// float adds a fraction, a negative one is negated).
    fn fixture() -> RunSnapshot {
        let mut k = 0u64;
        let mut n = || {
            k += 1;
            k
        };
        let hist = |values: &[u64]| {
            let mut h = LogHistogram::new();
            values.iter().for_each(|&v| h.record(v));
            h
        };
        let flow_hist = hist(&[100, 2_000, 2_000, 55_000]);
        let hop_hists = vec![hist(&[640]), hist(&[7, 7, 90_000])];
        RunSnapshot {
            label: "scenario-1/ez-flow".into(),
            at_us: n(),
            nodes: vec![NodeSnapshot {
                id: n() as usize,
                controller: "ez-flow".into(),
                cw_min: n() as u32,
                airtime: Airtime {
                    tx_us: n(),
                    rx_us: n(),
                    busy_us: n(),
                    idle_us: n(),
                },
                mac: MacStats {
                    tx_attempts: n(),
                    tx_success: n(),
                    retries: n(),
                    drops_retry: n(),
                    acks_sent: n(),
                    acks_suppressed: n(),
                    dup_rx: n(),
                    spurious_ack: n(),
                    delivered: n(),
                    rts_sent: n(),
                    cts_sent: n(),
                    cts_timeouts: n(),
                    backoff_slots: n(),
                    cca_busy: n(),
                    eifs_starts: n(),
                    stale_timers: n(),
                },
                counters: ControllerCounters {
                    boe_hits: n(),
                    boe_misses: n(),
                    boe_ambiguous: n(),
                    caa_increases: n(),
                    caa_decreases: n(),
                    caa_holds: n(),
                },
                queues: vec![QueueSnapshot {
                    own: true,
                    successor: n() as usize,
                    occupancy: n() as usize,
                    cap: n() as usize,
                    high_water: n() as usize,
                    drops: n(),
                    accepted: n(),
                }],
            }],
            channel: ChannelStats {
                tx_started: n(),
                collisions_at_dst: n(),
                bernoulli_losses: n(),
                clean_deliveries: n(),
                captures: n(),
                hidden_losses: n(),
            },
            scheduler: SchedulerSnapshot {
                scheduled_total: n(),
                dispatched_total: n(),
                stale_elided: n(),
                rescheduled_total: n(),
                removed_total: n(),
                pending: n() as usize,
                depth_high_water: n() as usize,
                dispatched_by_kind: vec![("traffic".into(), n()), ("tx_end".into(), n())],
            },
            perf: PerfSnapshot {
                wall_secs: n() as f64 + 0.5,
                sim_secs: n() as f64 + 0.25,
                events_per_sec: n() as f64 + 0.125,
                sim_rate: n() as f64 + 0.75,
                sched_depth_high_water: n(),
                stale_timer_drops: n(),
                sched_rotations: n(),
                sched_overflow_refills: n(),
                sched_bucket_high_water: n(),
                arena_high_water: n(),
                handler_ns: std::array::from_fn(|_| n()),
                telemetry_windows: n(),
                telemetry_windows_per_sec: n() as f64 + 0.5,
            },
            latency: LatencySnapshot {
                per_flow: vec![(n() as u32, flow_hist)],
                per_hop: hop_hists,
            },
            stability: Some(StabilitySnapshot {
                interval_us: n(),
                windows: n(),
                episodes_total: n(),
                worst_amplitude_mean: n() as f64 + 0.5,
                fairness_min_window: n() as f64 + 0.25,
                fairness_mean_window: n() as f64 + 0.125,
                nodes: vec![NodeStabilitySnapshot {
                    node: n() as usize,
                    amplitude_mean: n() as f64 + 0.5,
                    amplitude_max: n() as f64 + 0.25,
                    cv_mean: n() as f64 + 0.125,
                    episodes: vec![EpisodeSnapshot {
                        start_us: n(),
                        end_us: n(),
                        peak_amplitude: n() as f64 + 0.5,
                    }],
                }],
            }),
            controller: Some(ControllerSnapshot {
                records: n(),
                decisions_total: n(),
                nodes: vec![ControllerNodeSnapshot {
                    node: n() as usize,
                    cw_changes: n(),
                }],
                links: vec![ControllerLinkSnapshot {
                    node: n() as usize,
                    successor: n() as usize,
                    samples: n(),
                    bias: -(n() as f64) - 0.5,
                    mae: n() as f64 + 0.25,
                    max_abs: n() as f64 + 0.125,
                    episodes: vec![EpisodeSnapshot {
                        start_us: n(),
                        end_us: n(),
                        peak_amplitude: n() as f64 + 0.75,
                    }],
                }],
            }),
        }
    }

    /// The fixture as a run with telemetry, profiler and audit off.
    fn plain() -> RunSnapshot {
        let mut snap = fixture();
        snap.perf.handler_ns = [0; PROFILE_KINDS];
        snap.perf.telemetry_windows = 0;
        snap.perf.telemetry_windows_per_sec = 0.0;
        snap.stability = None;
        snap.controller = None;
        snap
    }

    fn round_trip(snap: &RunSnapshot) -> RunSnapshot {
        let text = snap.to_json().to_pretty();
        RunSnapshot::from_json(&JsonValue::parse(&text).unwrap()).unwrap()
    }

    /// The value at JSON-pointer segments `path`.
    fn at<'a>(v: &'a mut JsonValue, path: &[String]) -> &'a mut JsonValue {
        path.iter().fold(v, |v, seg| match v {
            JsonValue::Object(fields) => {
                &mut fields
                    .iter_mut()
                    .find(|(k, _)| k.as_str() == seg)
                    .unwrap()
                    .1
            }
            JsonValue::Array(items) => &mut items[seg.parse::<usize>().unwrap()],
            _ => panic!("no {seg} in a scalar"),
        })
    }

    /// The path of every object key in `v`, depth first.
    fn key_paths(v: &JsonValue, prefix: &[String], out: &mut Vec<Vec<String>>) {
        let children: Vec<(String, &JsonValue)> = match v {
            JsonValue::Object(fields) => fields.iter().map(|(k, v)| (k.to_string(), v)).collect(),
            JsonValue::Array(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (i.to_string(), v))
                .collect(),
            _ => return,
        };
        for (seg, child) in children {
            let path = [prefix, &[seg]].concat();
            if matches!(v, JsonValue::Object(_)) {
                out.push(path.clone());
            }
            key_paths(child, &path, out);
        }
    }

    #[test]
    fn json_round_trips() {
        let snap = fixture();
        assert_eq!(round_trip(&snap), snap);
        assert_eq!(round_trip(&plain()), plain());

        // One table writes and reads, so a swapped pair of keys would still
        // round-trip. The fixture's numbers, read back in document order,
        // must count 1, 2, 3, …: a key swapped or moved breaks the count.
        fn stored(v: &JsonValue, out: &mut Vec<u64>) {
            const DERIVED: [&str; 9] = [
                "schema",
                "trace_records",
                "trace_evictions",
                "tx_frac",
                "rx_frac",
                "busy_frac",
                "idle_frac",
                "hist",
                "per_hop",
            ];
            match v {
                JsonValue::Num(x) => out.push(x.abs().trunc() as u64),
                JsonValue::Array(items) => items.iter().for_each(|x| stored(x, out)),
                JsonValue::Object(fields) => fields
                    .iter()
                    .filter(|(k, _)| !DERIVED.contains(&k.as_str()))
                    .for_each(|(_, x)| stored(x, out)),
                _ => {}
            }
        }
        let mut numbers = Vec::new();
        stored(&snap.to_json(), &mut numbers);
        assert_eq!(numbers, (1..=numbers.len() as u64).collect::<Vec<_>>());
        assert!(numbers.len() > 90, "{} stored numbers", numbers.len());
    }

    #[test]
    fn optional_sections_round_trip_and_stay_out_of_plain_json() {
        // Telemetry and audit off: no "stability"/"controller" keys, no
        // profiler/telemetry perf keys — the feature-off schema byte for
        // byte.
        let json = plain().to_json();
        let text = json.to_pretty();
        assert!(!text.contains("stability"));
        assert!(!text.contains("handler_ns_by_kind"));
        assert!(!text.contains("telemetry_windows"));
        // Structural probe, not text: each node serialises its controller
        // *name* under "controller" too, so look at the top level only.
        assert!(json.get("controller").is_none());

        // Telemetry + profiler + audit on: everything round-trips.
        let snap = fixture();
        let text = snap.to_json().to_pretty();
        for key in [
            "fairness_min_window",
            "handler_ns_by_kind",
            "telemetry_windows_per_sec",
        ] {
            assert!(text.contains(key), "{key}");
        }
        assert_eq!(round_trip(&snap), snap);
    }

    #[test]
    fn json_carries_airtime_fractions() {
        let snap = fixture();
        let json = snap.to_json();
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
        let a = snap.nodes[0].airtime;
        assert_eq!(frac("tx_frac"), a.tx_us as f64 / a.total_us() as f64);
    }

    #[test]
    fn latency_json_carries_derived_quantiles() {
        let json = fixture().to_json();
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
        // `schema` reads leniently; `label` is the first required key.
        let err = RunSnapshot::from_json(&JsonValue::Object(vec![])).unwrap_err();
        assert_eq!(err, "/label: missing");
        let err = RunSnapshot::from_json(&JsonValue::from(1u64)).unwrap_err();
        assert_eq!(err, "/label: missing");
    }

    #[test]
    fn schema_version_is_stamped_and_future_versions_are_rejected() {
        let json = fixture().to_json();
        assert_eq!(
            json.get("schema").and_then(JsonValue::as_u64),
            Some(SCHEMA_VERSION)
        );
        let JsonValue::Object(mut fields) = json else {
            unreachable!()
        };
        fields[0].1 = JsonValue::from(SCHEMA_VERSION + 1);
        let err = RunSnapshot::from_json(&JsonValue::Object(fields)).unwrap_err();
        assert!(err.starts_with("/schema: "), "{err}");
        assert!(err.contains("newer than supported"), "{err}");
    }

    /// The lenient-read guarantee: a document written by any older schema
    /// — no `schema` key (v1), no `stability`, no `controller`, no
    /// `arena_high_water`, no telemetry perf keys, an event kind the
    /// engine no longer has — must still parse.
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
        let snap = fixture();
        let mut json = snap.to_json();
        strip(
            &mut json,
            &[
                "schema",
                "stability",
                "arena_high_water",
                "handler_ns_by_kind",
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
        let mut old = plain();
        old.perf.arena_high_water = 0;
        assert_eq!(back, old, "lenient defaults");

        // A schema-2 report from when the engine had a `backlog` event
        // kind: the profiler map ignores the extra slot, and the open
        // dispatch map keeps it as one more entry.
        assert_eq!(SCHEMA_VERSION, 2);
        let mut json = snap.to_json();
        for map in [
            ["perf", "handler_ns_by_kind"],
            ["scheduler", "dispatched_by_kind"],
        ] {
            let JsonValue::Object(kinds) = at(&mut json, &map.map(String::from)) else {
                unreachable!()
            };
            kinds.push(("backlog".into(), JsonValue::from(9u64)));
        }
        let back = RunSnapshot::from_json(&JsonValue::parse(&json.to_pretty()).unwrap())
            .expect("a report with a backlog kind must parse");
        let mut old = snap.clone();
        old.scheduler.dispatched_by_kind.push(("backlog".into(), 9));
        assert_eq!(back, old);
    }

    /// The reader's contract, key by key: removing any one key from the
    /// fixture's document fails with an error naming that key, except for
    /// the documented lenient keys (which read as their default), the
    /// derived and dead keys (recomputed or never stored), and the entries
    /// of the open `dispatched_by_kind` map.
    #[test]
    fn removing_any_one_key_fails_naming_it_unless_it_is_lenient_or_derived() {
        let snap = fixture();
        let doc = snap.to_json();
        let mut paths = Vec::new();
        key_paths(&doc, &[], &mut paths);
        let mut forgiven = std::collections::BTreeSet::new();
        for path in &paths {
            let (key, parent) = path.split_last().unwrap();
            let mut cut = doc.clone();
            let JsonValue::Object(fields) = at(&mut cut, parent) else {
                unreachable!()
            };
            fields.retain(|(k, _)| k.as_str() != key);
            let mut want = snap.clone();
            let lenient = match (parent.len(), key.as_str()) {
                (0, "schema" | "trace_records") => true,
                (0, "stability") => want.stability.take().is_some(),
                (0, "controller") => want.controller.take().is_some(),
                (1, "arena_high_water") => {
                    want.perf.arena_high_water = 0;
                    true
                }
                (1, "handler_ns_by_kind") => {
                    want.perf.handler_ns = [0; PROFILE_KINDS];
                    true
                }
                (1, "telemetry_windows") => {
                    want.perf.telemetry_windows = 0;
                    true
                }
                (1, "telemetry_windows_per_sec") => {
                    want.perf.telemetry_windows_per_sec = 0.0;
                    true
                }
                (1, "trace_evictions") => true,
                (_, "tx_frac" | "rx_frac" | "busy_frac" | "idle_frac") => true,
                (_, "total" | "p50_us" | "p95_us" | "p99_us" | "p999_us") => true,
                _ if parent.last().is_some_and(|p| p == "dispatched_by_kind") => {
                    want.scheduler.dispatched_by_kind.retain(|(k, _)| k != key);
                    true
                }
                _ => false,
            };
            let pointer: String = path.iter().map(|seg| format!("/{seg}")).collect();
            match RunSnapshot::from_json(&cut) {
                Ok(back) => {
                    assert!(lenient, "{pointer} is required but its absence parsed");
                    assert_eq!(back, want, "{pointer} must read as its default");
                    forgiven.insert(key.as_str());
                }
                Err(e) => {
                    assert!(!lenient, "{pointer} is lenient but failed: {e}");
                    assert_eq!(e, format!("{pointer}: missing"));
                }
            }
        }
        let expected = [
            "arena_high_water",
            "busy_frac",
            "controller",
            "handler_ns_by_kind",
            "idle_frac",
            "p50_us",
            "p95_us",
            "p999_us",
            "p99_us",
            "rx_frac",
            "schema",
            "stability",
            "telemetry_windows",
            "telemetry_windows_per_sec",
            "total",
            "trace_evictions",
            "trace_records",
            "traffic",
            "tx_end",
            "tx_frac",
        ];
        assert_eq!(forgiven.into_iter().collect::<Vec<_>>(), expected);
        assert!(paths.len() > 140, "{} key paths", paths.len());
    }

    #[test]
    fn out_of_range_integers_are_refused_naming_the_key() {
        for path in ["/nodes/0/cw_min", "/latency/per_flow/0/flow"] {
            let mut doc = fixture().to_json();
            let segs: Vec<String> = path.split('/').skip(1).map(String::from).collect();
            *at(&mut doc, &segs) = JsonValue::from(1u64 << 32);
            let err = RunSnapshot::from_json(&doc).unwrap_err();
            assert_eq!(err, format!("{path}: 4294967296 does not fit in u32"));
        }
    }

    /// A bucket index past `MAX_BUCKET` would make the next quantile shift
    /// past the word (a panic in a debug build, a wrapped value in
    /// release), and counts that sum past `u64` would overflow the total.
    #[test]
    fn hostile_histograms_are_refused_not_panicked_on() {
        let buckets = ["latency", "per_hop", "0", "buckets"].map(String::from);
        let read = |pairs: Vec<(u32, u64)>| {
            let mut doc = fixture().to_json();
            *at(&mut doc, &buckets) = pairs.write();
            RunSnapshot::from_json(&doc)
        };
        for b in [MAX_BUCKET + 1, 1040, u32::MAX] {
            let err = read(vec![(1, 1), (b, 1)]).unwrap_err();
            assert_eq!(
                err,
                format!("/latency/per_hop/0/buckets/1: bucket {b} is past the last, 975")
            );
        }
        let snap = read(vec![(MAX_BUCKET, 1)]).unwrap();
        assert!(snap.latency.per_hop[0].quantile(1.0) > u64::MAX / 2);
        let err = read(vec![(1, 1 << 53); 2049]).unwrap_err();
        assert_eq!(err, "/latency/per_hop/0/buckets: counts sum past u64");
    }
}
