//! The telemetry bus — deterministic periodic sampling of live state.
//!
//! When a spec sets `telemetry_every`, the engine runs a periodic
//! sampler between events (default every 100 ms of simulated time). The
//! snapshot's stability section is scored as each window closes and no
//! reading is kept: each node's queue depth feeds its
//! [`StabilityTracker`], and the flows' windowed throughputs feed a
//! running Jain fairness (minimum, sum). With a sink attached, the
//! sampler also streams one JSONL record per window while the run is in
//! flight, which adds each node's airtime fractions and MAC counter
//! deltas. The record is written as it is sampled —
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
use ezflow_stats::{jain_index, StabilityConfig, StabilityTracker};

use crate::snapshot::{NodeStabilitySnapshot, StabilitySnapshot};

/// The telemetry sampler's state: per-node stability trackers, per-flow
/// throughput state, the running windowed fairness, previous-counter
/// baselines for the streamed deltas, and the optional JSONL sink.
/// Owned by [`crate::network::Network`] as the public `telemetry` field.
pub struct Telemetry {
    every: Option<Duration>,
    /// Completed sample windows.
    windows: u64,
    /// Per-node queue-depth stability, scored chunk by chunk.
    nodes: Vec<StabilityTracker>,
    /// Flow ids, in id order; the two vectors below are indexed alike.
    flow_ids: Vec<u32>,
    /// Each flow's cumulative delivered bits at the last window end.
    prev_bits: Vec<f64>,
    /// Each flow's kb/s over the latest window.
    kbps: Vec<f64>,
    /// Smallest and summed per-window Jain index over the flows: with
    /// flows, every window adds one, so the mean is over `windows`.
    jain_min: f64,
    jain_sum: f64,
    prev_mac: Vec<MacStats>,
    prev_air: Vec<Airtime>,
    /// The current window's JSONL record, written as the window is
    /// sampled (only while a sink is attached) and reused across windows.
    line: JsonWriter,
    sink: Option<Box<dyn Write + Send>>,
}

impl Telemetry {
    /// Creates the sampler state for `n` nodes and the given flows.
    /// `every: None` disables telemetry entirely.
    pub(crate) fn new(n: usize, flow_ids: &[u32], every: Option<Duration>) -> Self {
        let (nodes, flow_ids) = match every {
            Some(p) => {
                assert!(!p.is_zero(), "telemetry interval must be nonzero");
                let mut ids = flow_ids.to_vec();
                ids.sort_unstable();
                let tracker = || StabilityTracker::new(p, StabilityConfig::default());
                ((0..n).map(|_| tracker()).collect(), ids)
            }
            None => (Vec::new(), Vec::new()),
        };
        let n = nodes.len();
        Telemetry {
            every,
            windows: 0,
            nodes,
            prev_bits: vec![0.0; flow_ids.len()],
            kbps: vec![0.0; flow_ids.len()],
            flow_ids,
            jain_min: 1.0,
            jain_sum: 0.0,
            prev_mac: vec![MacStats::default(); n],
            prev_air: vec![Airtime::default(); n],
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
        self.nodes[node].push(queue);
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
        let secs = self.every.expect("telemetry is enabled").as_secs_f64();
        self.kbps[i] = (total_bits - self.prev_bits[i]) / secs / 1000.0;
        self.prev_bits[i] = total_bits;
    }

    /// Closes the window [`Telemetry::begin_window`] opened: bumps the
    /// window count, folds the window's Jain index over the flows (an
    /// all-zero window counts 1.0) and, with a sink attached, finishes
    /// the record with the per-flow rates and hands the line over.
    pub(crate) fn finish_window(&mut self) {
        self.windows += 1;
        if !self.kbps.is_empty() {
            let jain = jain_index(&self.kbps);
            self.jain_min = self.jain_min.min(jain);
            self.jain_sum += jain;
        }
        let Some(sink) = self.sink.as_mut() else {
            return;
        };
        let w = &mut self.line;
        w.end_array();
        w.key("flows");
        w.begin_array();
        for (&id, &kbps) in self.flow_ids.iter().zip(&self.kbps) {
            w.begin_object();
            w.field("flow", id);
            w.field("kbps", kbps);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.end_line();
        let _ = sink.write_all(w.as_bytes());
    }

    /// The stability section of a [`crate::snapshot::RunSnapshot`]:
    /// each node's tracker verdict over every window of the run, plus
    /// the windowed Jain fairness. `None` while telemetry is disabled —
    /// the snapshot key is omitted so telemetry-off JSON stays
    /// byte-identical.
    pub fn stability_snapshot(&self) -> Option<StabilitySnapshot> {
        let every = self.every?;
        let nodes: Vec<NodeStabilitySnapshot> = (self.nodes.iter().enumerate())
            .map(|(node, tracker)| {
                let st = tracker.summary();
                NodeStabilitySnapshot {
                    node,
                    amplitude_mean: st.amplitude.mean,
                    amplitude_max: st.amplitude.max,
                    cv_mean: st.cv.mean,
                    episodes: st.episodes.iter().map(Into::into).collect(),
                }
            })
            .collect();
        Some(StabilitySnapshot {
            interval_us: every.as_micros(),
            windows: self.windows,
            episodes_total: nodes.iter().map(|n| n.episodes.len() as u64).sum(),
            worst_amplitude_mean: nodes.iter().map(|n| n.amplitude_mean).fold(0.0, f64::max),
            fairness_min_window: self.jain_min,
            fairness_mean_window: if self.kbps.is_empty() || self.windows == 0 {
                1.0
            } else {
                self.jain_sum / self.windows as f64
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

    /// Windowed fairness folds one Jain index per window over every flow:
    /// an all-zero window counts 1.0, a starved flow drags its window
    /// to 1/n, and no flows at all read 1.0.
    #[test]
    fn windowed_fairness_counts_every_window() {
        let every = Duration::from_millis(100);
        let mut tel = Telemetry::new(1, &[7, 0], Some(every));
        // Cumulative bits per window, flows in id order (0, then 7).
        for (window, bits) in [[0.0, 0.0], [100.0, 0.0], [200.0, 100.0]]
            .into_iter()
            .enumerate()
        {
            tel.begin_window(Time::from_micros((window as u64 + 1) * every.as_micros()));
            tel.node_sample(0, 0.0, Airtime::default(), MacStats::default());
            for (i, b) in bits.into_iter().enumerate() {
                tel.flow_sample(i, b);
            }
            tel.finish_window();
        }
        let st = tel.stability_snapshot().unwrap();
        assert_eq!(st.windows, 3);
        assert_eq!(st.fairness_min_window, 0.5);
        assert_eq!(st.fairness_mean_window, (1.0 + 0.5 + 1.0) / 3.0);

        let mut alone = Telemetry::new(1, &[], Some(every));
        alone.begin_window(Time::from_micros(every.as_micros()));
        alone.node_sample(0, 0.0, Airtime::default(), MacStats::default());
        alone.finish_window();
        let st = alone.stability_snapshot().unwrap();
        assert_eq!(
            (st.fairness_min_window, st.fairness_mean_window),
            (1.0, 1.0)
        );
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
            let mut tel = Telemetry::new(n, &flow_ids, Some(every));
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
