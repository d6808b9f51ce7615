//! Experiment instrumentation.
//!
//! One [`Metrics`] instance records everything the paper's figures and
//! tables need, for one simulation run:
//!
//! * per-flow **throughput** series (bits delivered at the sink, binned),
//! * per-flow **network delay** series, from the packet's first dequeue
//!   at the source MAC to delivery (see DESIGN.md §4 on why the figures
//!   measure from there, not from creation),
//! * per-node **buffer occupancy** trace, sampled once every sampling
//!   period (Figs. 1, 4),
//! * per-node **`CWmin`** trace, on the same instants (Figs. 8, 11 plot
//!   `log2` of these values) — both [`PeriodicSeries`]: the sampling
//!   instants are implied by the period, so each sample is one `u32`,
//! * drop counters by cause.
//!
//! Per-flow maps are `BTreeMap`s, not `HashMap`s: everything downstream
//! that iterates them (snapshot JSON, report tables, CSV export) then
//! emits flows in id order, so identical runs serialise byte-identically.

use std::collections::BTreeMap;

use ezflow_phy::Frame;
use ezflow_sim::{Duration, Time};
use ezflow_stats::{LogHistogram, PeriodicSeries, SampleSeries, ThroughputSeries};

/// All series recorded during one run.
pub struct Metrics {
    /// Per-flow delivered-bits series.
    pub throughput: BTreeMap<u32, ThroughputSeries>,
    /// Per-flow delay from first dequeue at the source (seconds).
    pub delay_net: BTreeMap<u32, SampleSeries>,
    /// Per-flow delivered packet counts.
    pub delivered: BTreeMap<u32, u64>,
    /// Per-node total interface-queue occupancy, sampled periodically.
    pub buffer: Vec<PeriodicSeries>,
    /// Per-node `CWmin`, sampled periodically.
    pub cw: Vec<PeriodicSeries>,
    /// Per-node packets dropped on queue overflow (relay queues).
    pub queue_drops: Vec<u64>,
    /// Per-flow packets dropped at the (full) source queue.
    pub source_drops: BTreeMap<u32, u64>,
    /// Per-flow network-latency histogram (µs from first dequeue at the
    /// source to delivery) — the p50/p95/p99/p999 source for snapshots.
    pub flow_latency: BTreeMap<u32, LogHistogram>,
    /// Per-node hop-latency histogram (µs from enqueue at the node to the
    /// hop's successful transmission).
    pub hop_latency: Vec<LogHistogram>,
}

impl Metrics {
    /// Throughput bin width of every flow's series.
    pub const BIN: Duration = Duration::from_secs(10);

    /// Period of the per-node buffer and `CWmin` samples.
    pub const SAMPLE_EVERY: Duration = Duration::from_secs(1);

    /// Creates metrics for `nodes` nodes and the given flow ids, with
    /// per-node samples taken every [`Metrics::SAMPLE_EVERY`].
    pub fn new(nodes: usize, flows: &[u32]) -> Self {
        let mut throughput = BTreeMap::new();
        let mut delay_net = BTreeMap::new();
        let mut delivered = BTreeMap::new();
        let mut source_drops = BTreeMap::new();
        let mut flow_latency = BTreeMap::new();
        for &f in flows {
            throughput.insert(f, ThroughputSeries::new(Self::BIN));
            delay_net.insert(f, SampleSeries::new());
            delivered.insert(f, 0);
            source_drops.insert(f, 0);
            flow_latency.insert(f, LogHistogram::new());
        }
        Metrics {
            throughput,
            delay_net,
            delivered,
            buffer: (0..nodes)
                .map(|_| PeriodicSeries::new(Self::SAMPLE_EVERY))
                .collect(),
            cw: (0..nodes)
                .map(|_| PeriodicSeries::new(Self::SAMPLE_EVERY))
                .collect(),
            queue_drops: vec![0; nodes],
            source_drops,
            flow_latency,
            hop_latency: (0..nodes).map(|_| LogHistogram::new()).collect(),
        }
    }

    /// Records a packet reaching its final destination.
    ///
    /// Deliveries for flows that were not registered in [`Metrics::new`]
    /// are ignored *uniformly*: no series, no `delivered` count. (An
    /// earlier version counted unknown flows in `delivered` while the
    /// series silently dropped them, which made `delivered` disagree with
    /// `throughput` totals.)
    pub fn on_delivery(&mut self, now: Time, frame: &Frame) {
        let flow = frame.flow;
        if let Some(ts) = self.throughput.get_mut(&flow) {
            ts.record(now, frame.payload_bytes as u64 * 8);
        }
        if let Some(d) = self.delay_net.get_mut(&flow) {
            d.push(now, now.saturating_since(frame.entered_net).as_secs_f64());
        }
        if let Some(h) = self.flow_latency.get_mut(&flow) {
            h.record(now.saturating_since(frame.entered_net).as_micros());
        }
        if let Some(n) = self.delivered.get_mut(&flow) {
            *n += 1;
        }
    }

    /// Records a periodic per-node sample.
    pub fn on_sample(&mut self, now: Time, node: usize, buffer: usize, cw_min: u32) {
        let buffer = u32::try_from(buffer).expect("a node's occupancy fits a u32");
        self.buffer[node].push(now, buffer);
        self.cw[node].push(now, cw_min);
    }

    /// Mean throughput of `flow` in kb/s over `[from, to)` (total bits over
    /// the span).
    pub fn mean_kbps(&self, flow: u32, from: Time, to: Time) -> f64 {
        self.throughput
            .get(&flow)
            .map_or(0.0, |ts| ts.average_kbps(from, to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with_times(created_s: u64, entered_s: u64) -> Frame {
        let mut f = Frame::data(1, 0, 0, 4, 1000, Time::from_secs(created_s));
        f.entered_net = Time::from_secs(entered_s);
        f
    }

    #[test]
    fn delivery_updates_all_series() {
        let mut m = Metrics::new(5, &[0]);
        let f = frame_with_times(1, 3);
        m.on_delivery(Time::from_secs(7), &f);
        assert_eq!(m.delivered[&0], 1);
        assert!((m.throughput[&0].total_bits() - 8000.0).abs() < 1e-9);
        let d_net = m.delay_net[&0].points()[0].1;
        assert!((d_net - 4.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_flow_is_ignored() {
        let mut m = Metrics::new(2, &[0]);
        let mut f = frame_with_times(0, 0);
        f.flow = 99;
        m.on_delivery(Time::from_secs(1), &f);
        assert_eq!(m.delivered.get(&99), None, "unknown flows dropped whole");
        assert_eq!(m.throughput.len(), 1, "no series allocated for unknowns");
        assert_eq!(m.delay_net.len(), 1);
    }

    #[test]
    fn samples_and_window_means() {
        let mut m = Metrics::new(2, &[0, 1]);
        m.on_sample(Time::from_secs(1), 0, 10, 32);
        m.on_sample(Time::from_secs(2), 0, 20, 64);
        let sm = m.buffer[0].window(Time::ZERO, Time::from_secs(10));
        assert!((sm.mean - 15.0).abs() < 1e-9);
        let cw = m.cw[0].window(Time::ZERO, Time::from_secs(10));
        assert!((cw.mean - 48.0).abs() < 1e-9);
    }
}
