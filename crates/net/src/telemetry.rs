//! The telemetry bus — deterministic periodic sampling of live state.
//!
//! When a spec sets `telemetry_every`, the engine runs a periodic
//! sampler between events (default every 100 ms of simulated time). Two
//! kinds of reading are kept in ring-buffered [`TimeSeries`], because the
//! snapshot's stability section scores them: per-node queue depth and
//! per-flow windowed throughput. With a sink attached, the sampler also
//! streams one JSONL record per window while the run is in flight, which
//! adds each node's airtime fractions and MAC counter deltas; those are
//! written and not kept. The record is written as it is sampled —
//! header, then each node's object, then the flows — straight into one
//! line buffer the sampler owns and reuses, and handed to the sink in a
//! single `write_all`: a window costs its bytes (≈ 110 per node) and,
//! after the first, no allocation.
//!
//! ## Zero interference
//!
//! Telemetry must never change what a run computes:
//!
//! * the sampler only *reads* simulation state — queue occupancies, MAC
//!   counters, throughput totals and the airtime split
//!   ([`ezflow_phy::Channel::airtime_breakdown`], derived from horizons
//!   and gaps, never settled) are pure reads;
//! * it is not a scheduler event: [`Network::run_until`] runs it between
//!   events, at its own instant, so it schedules nothing and is not
//!   counted, and a telemetry-on snapshot serialises byte-identically to
//!   the telemetry-off one (perf zeroed, stability section aside);
//! * with `telemetry_every` unset it never runs, and the pop loop's one
//!   comparison per event against the next sampler instant is all the
//!   bus costs.
//!
//! [`Network::run_until`]: crate::network::Network::run_until
//! [`Network`]: crate::network::Network

use std::io::Write;

use ezflow_mac::MacStats;
use ezflow_phy::Airtime;
use ezflow_sim::{Duration, JsonWriter, Time};
use ezflow_stats::{stability, TimeSeries};

use crate::snapshot::{EpisodeSnapshot, NodeStabilitySnapshot, StabilitySnapshot};

/// Per-flow telemetry state: id, previous cumulative delivered bits, and
/// the windowed-throughput ring.
struct FlowTelemetry {
    id: u32,
    prev_bits: f64,
    kbps: TimeSeries<f64>,
}

/// The telemetry sampler's state: the rings the stability section reads,
/// previous-counter baselines for the streamed deltas, and the optional
/// JSONL sink. Owned by [`crate::network::Network`] as the public
/// `telemetry` field.
pub struct Telemetry {
    every: Option<Duration>,
    /// Completed sample windows.
    windows: u64,
    /// Per-node queue-depth ring (total interface-queue occupancy at
    /// each window boundary).
    queue_depth: Vec<TimeSeries<f64>>,
    flows: Vec<FlowTelemetry>,
    prev_mac: Vec<MacStats>,
    prev_air: Vec<Airtime>,
    /// The current window's JSONL record, written as the window is
    /// sampled (only while a sink is attached) and reused across windows.
    line: JsonWriter,
    sink: Option<Box<dyn Write + Send>>,
}

impl Telemetry {
    /// Creates the sampler state for `n` nodes and the given flows.
    /// `every: None` disables telemetry entirely; `cap` bounds each ring
    /// (oldest windows are evicted first).
    pub(crate) fn new(n: usize, flow_ids: &[u32], every: Option<Duration>, cap: usize) -> Self {
        let (queue_depth, flows) = match every {
            Some(p) => {
                assert!(!p.is_zero(), "telemetry interval must be nonzero");
                let mut ids: Vec<u32> = flow_ids.to_vec();
                ids.sort_unstable();
                (
                    (0..n).map(|_| TimeSeries::new(p, cap)).collect(),
                    ids.into_iter()
                        .map(|id| FlowTelemetry {
                            id,
                            prev_bits: 0.0,
                            kbps: TimeSeries::new(p, cap),
                        })
                        .collect(),
                )
            }
            None => (Vec::new(), Vec::new()),
        };
        Telemetry {
            every,
            windows: 0,
            queue_depth,
            flows,
            prev_mac: vec![MacStats::default(); if every.is_some() { n } else { 0 }],
            prev_air: vec![Airtime::default(); if every.is_some() { n } else { 0 }],
            line: JsonWriter::new(),
            sink: None,
        }
    }

    /// True iff the sampler is armed (the spec set `telemetry_every`).
    pub fn enabled(&self) -> bool {
        self.every.is_some()
    }

    /// The sampling interval. Panics when telemetry is disabled.
    pub fn every(&self) -> Duration {
        self.every.expect("telemetry is enabled")
    }

    /// Completed sample windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Per-node queue-depth ring (one value per completed window).
    pub fn queue_depth(&self, node: usize) -> &TimeSeries<f64> {
        &self.queue_depth[node]
    }

    /// Per-flow windowed throughput rings, `(flow id, kb/s series)`, in
    /// flow-id order.
    pub fn flow_kbps(&self) -> impl Iterator<Item = (u32, &TimeSeries<f64>)> {
        self.flows.iter().map(|f| (f.id, &f.kbps))
    }

    /// Attaches a JSONL sink: one compact record per completed sample
    /// window, written while the run is in flight — one `write_all` per
    /// window. Write errors are ignored (telemetry must never fail a run).
    pub fn set_sink(&mut self, sink: Box<dyn Write + Send>) {
        self.sink = Some(sink);
    }

    /// Opens the window closing at `now`: with a sink attached, starts its
    /// record (`at_us`, `window`, `interval_us`, and the `nodes` array the
    /// samples that follow append to).
    pub(crate) fn begin_window(&mut self, now: Time) {
        if self.sink.is_none() {
            return;
        }
        let w = &mut self.line;
        w.clear();
        w.begin_object();
        w.field("at_us", now.as_micros());
        w.field("window", self.windows);
        w.field(
            "interval_us",
            self.every.expect("telemetry is enabled").as_micros(),
        );
        w.key("nodes");
        w.begin_array();
    }

    /// Feeds one node's readings for the closing window.
    pub(crate) fn node_sample(&mut self, node: usize, queue: f64, air: Airtime, mac: MacStats) {
        self.queue_depth[node].push(queue);
        if self.sink.is_some() {
            let prev_air = &self.prev_air[node];
            let d_total = air.total_us() - prev_air.total_us();
            let d_idle = air.idle_us - prev_air.idle_us;
            let d_tx = air.tx_us - prev_air.tx_us;
            let prev = &self.prev_mac[node];
            // The two fractions as integer ratios over the window: a
            // 100 ms window's are printed without the float formatter. An
            // empty window reads 0 / 1, that is 0.0.
            let den = d_total.max(1);
            let w = &mut self.line;
            w.begin_object();
            w.raw(r#""id":"#);
            w.value(node);
            w.raw(r#","queue":"#);
            w.value(queue);
            w.field_ratio("active_frac", d_total - d_idle, den);
            w.field_ratio("tx_frac", d_tx, den);
            w.raw(r#","mac_tx":"#);
            w.value(mac.tx_attempts - prev.tx_attempts);
            w.raw(r#","mac_success":"#);
            w.value(mac.tx_success - prev.tx_success);
            w.raw(r#","mac_retries":"#);
            w.value(mac.retries - prev.retries);
            w.end_object();
        }
        self.prev_air[node] = air;
        self.prev_mac[node] = mac;
    }

    /// Feeds one flow's cumulative delivered bits for the closing window
    /// (`i` indexes flows in flow-id order).
    pub(crate) fn flow_sample(&mut self, i: usize, total_bits: f64) {
        let f = &mut self.flows[i];
        let secs = self.every.expect("telemetry is enabled").as_secs_f64();
        f.kbps.push((total_bits - f.prev_bits) / secs / 1000.0);
        f.prev_bits = total_bits;
    }

    /// Closes the window [`Telemetry::begin_window`] opened: bumps the
    /// window count and, with a sink attached, finishes the record with
    /// the per-flow rates and hands the line over.
    pub(crate) fn finish_window(&mut self) {
        self.windows += 1;
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let w = &mut self.line;
        w.end_array();
        w.key("flows");
        w.begin_array();
        for f in &self.flows {
            w.begin_object();
            w.field("flow", f.id);
            w.field("kbps", *f.kbps.latest().unwrap_or(&0.0));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.end_line();
        let _ = sink.write_all(w.as_bytes());
    }

    /// The stability section of a [`crate::snapshot::RunSnapshot`]:
    /// per-node oscillation scores and episodes over the retained queue
    /// rings, plus the windowed Jain fairness over the flow rings.
    /// `None` while telemetry is disabled — the snapshot key is omitted
    /// so telemetry-off JSON stays byte-identical.
    pub fn stability_snapshot(&self) -> Option<StabilitySnapshot> {
        let every = self.every?;
        let cfg = stability::StabilityConfig::default();
        let nodes: Vec<NodeStabilitySnapshot> = self
            .queue_depth
            .iter()
            .enumerate()
            .map(|(node, series)| {
                let st = stability::analyze(series, &cfg);
                NodeStabilitySnapshot {
                    node,
                    amplitude_mean: st.amplitude.mean,
                    amplitude_max: st.amplitude.max,
                    cv_mean: st.cv.mean,
                    episodes: st
                        .episodes
                        .iter()
                        .map(|e| EpisodeSnapshot {
                            start_us: e.start.as_micros(),
                            end_us: e.end.as_micros(),
                            peak_amplitude: e.peak_amplitude,
                        })
                        .collect(),
                }
            })
            .collect();
        let flow_series: Vec<&TimeSeries<f64>> = self.flows.iter().map(|f| &f.kbps).collect();
        let fairness = stability::windowed_jain(&flow_series);
        let (mut f_min, mut f_sum) = (1.0f64, 0.0f64);
        for &(_, fi) in &fairness {
            f_min = f_min.min(fi);
            f_sum += fi;
        }
        Some(StabilitySnapshot {
            interval_us: every.as_micros(),
            windows: self.windows,
            episodes_total: nodes.iter().map(|n| n.episodes.len() as u64).sum(),
            worst_amplitude_mean: nodes.iter().map(|n| n.amplitude_mean).fold(0.0, f64::max),
            fairness_min_window: f_min,
            fairness_mean_window: if fairness.is_empty() {
                1.0
            } else {
                f_sum / fairness.len() as f64
            },
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezflow_sim::JsonValue;
    use proptest::prelude::*;

    /// Cumulative readings of node `id` after `window` windows, derived
    /// from one seed: airtime that sometimes stands still (zero-length
    /// deltas), counters that only grow.
    fn readings(seed: u64, id: usize, window: u64) -> (f64, Airtime, MacStats) {
        let r = seed
            .wrapping_add(id as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            >> 40;
        let grown = window * (r % 7);
        let air = Airtime {
            idle_us: grown * 900,
            tx_us: grown * (r % 100),
            rx_us: grown * 3,
            ..Airtime::default()
        };
        let mac = MacStats {
            tx_attempts: grown * 5,
            tx_success: grown * 4,
            retries: grown,
            ..MacStats::default()
        };
        (((r + window) % 51) as f64, air, mac)
    }

    proptest! {
        /// The window record streamed to the sink is, byte for byte, the
        /// compact form of the document built from the same readings —
        /// for no nodes, one node and a thousand, with and without flows,
        /// over three windows so deltas and the window index move.
        #[test]
        fn streamed_window_equals_its_tree_form(
            n in prop_oneof![Just(0usize), Just(1usize), Just(3usize), Just(1024usize)],
            flows in prop_oneof![Just(0u32), Just(2u32)],
            seed in any::<u64>()
        ) {
            let every = Duration::from_millis(100);
            let flow_ids: Vec<u32> = (0..flows).map(|f| f * 7).collect();
            let mut tel = Telemetry::new(n, &flow_ids, Some(every), 8);
            // Any sink arms the record; the line buffer keeps what it got.
            tel.set_sink(Box::new(std::io::sink()));
            let mut prev: Vec<(Airtime, MacStats)> = vec![Default::default(); n];
            for window in 0..3u64 {
                let now = Time::from_micros((window + 1) * every.as_micros());
                tel.begin_window(now);
                let mut nodes = Vec::new();
                for (id, prev) in prev.iter_mut().enumerate() {
                    let (queue, air, mac) = readings(seed, id, window + 1);
                    tel.node_sample(id, queue, air, mac);
                    let d_total = air.total_us() - prev.0.total_us();
                    let frac = |part: u64| if d_total > 0 { part as f64 / d_total as f64 } else { 0.0 };
                    nodes.push(JsonValue::obj(vec![
                        ("id", id.into()),
                        ("queue", queue.into()),
                        ("active_frac", frac(d_total - (air.idle_us - prev.0.idle_us)).into()),
                        ("tx_frac", frac(air.tx_us - prev.0.tx_us).into()),
                        ("mac_tx", (mac.tx_attempts - prev.1.tx_attempts).into()),
                        ("mac_success", (mac.tx_success - prev.1.tx_success).into()),
                        ("mac_retries", (mac.retries - prev.1.retries).into()),
                    ]));
                    *prev = (air, mac);
                }
                let mut rates = Vec::new();
                for (i, &id) in flow_ids.iter().enumerate() {
                    let bits = |w: u64| (w * (seed % 90_000 + u64::from(id))) as f64;
                    tel.flow_sample(i, bits(window + 1));
                    let kbps = (bits(window + 1) - bits(window)) / every.as_secs_f64() / 1000.0;
                    rates.push(JsonValue::obj(vec![("flow", id.into()), ("kbps", kbps.into())]));
                }
                tel.finish_window();
                let doc = JsonValue::obj(vec![
                    ("at_us", now.as_micros().into()),
                    ("window", window.into()),
                    ("interval_us", every.as_micros().into()),
                    ("nodes", JsonValue::Array(nodes)),
                    ("flows", JsonValue::Array(rates)),
                ]);
                prop_assert_eq!(tel.line.as_str(), doc.to_compact() + "\n");
            }
            prop_assert_eq!(tel.windows(), 3);
        }
    }
}
