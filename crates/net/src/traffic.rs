//! Constant-bit-rate traffic sources.
//!
//! §5.1: *"To ensure that the systems run in saturated mode, we generate at
//! the source a Constant Bit Rate (CBR) traffic at a rate of 2 Mb/s."* —
//! i.e. deliberately more than the 1 Mb/s channel can carry, so the source
//! queue is always backlogged and the MAC, not the application, paces the
//! flow.

use ezflow_sim::{Duration, Time};

/// How a flow's source paces itself.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum Transport {
    /// Open-loop constant bit rate (the paper's workload: UDP-like, no
    /// feedback whatsoever).
    #[default]
    Cbr,
    /// Closed-loop fixed-window transport: at most `window` data packets
    /// are in flight; the sink returns a small end-to-end ACK packet
    /// (routed hop-by-hop over the reverse path) that releases the next
    /// one. A minimal stand-in for TCP's self-clocking — no
    /// retransmission or congestion control, just window flow control
    /// (lost packets are written off by a credit timeout).
    Windowed {
        /// Maximum packets in flight.
        window: usize,
        /// Transport-ACK payload bytes (a real TCP ACK is ~40).
        ack_payload: u32,
    },
    /// Open-loop bursty on-off source: CBR at `rate_bps` during ON
    /// periods, silent during OFF periods. ON durations are drawn from a
    /// bounded Pareto (heavy-tailed, shape `alpha`) with mean `mean_on`,
    /// OFF durations from an exponential with mean `mean_off` — the
    /// classic self-similar-traffic generator. All draws come from a
    /// per-flow `SimRng` stream derived at build time, so runs stay a
    /// pure function of `(spec, seed)`.
    OnOff {
        /// Mean ON-period duration.
        mean_on: Duration,
        /// Mean OFF-period duration.
        mean_off: Duration,
        /// Pareto shape for ON durations; must exceed 1 so the mean
        /// exists. Smaller ⇒ heavier tail (longer rare bursts).
        alpha: f64,
    },
}

/// A CBR source description. `Copy` (5 words) so the per-tick hot path
/// reads it without cloning through the heap.
#[derive(Clone, Copy, Debug)]
pub struct CbrSource {
    /// Flow id (index into the network's flow table).
    pub flow: u32,
    /// Source node.
    pub src: usize,
    /// Final destination node.
    pub dst: usize,
    /// Application rate in bits/s.
    pub rate_bps: u64,
    /// Transport payload per packet, bytes.
    pub payload_bytes: u32,
    /// First packet is generated at `start`.
    pub start: Time,
    /// No packets are generated at or after `stop`.
    pub stop: Time,
}

/// The exact inter-packet interval in µs of `payload_bytes`-byte packets
/// at `rate_bps`, when it is under the clock's 1 µs resolution: such a
/// source would re-arm its tick at the instant it fired, forever.
pub(crate) fn sub_microsecond_interval(rate_bps: u64, payload_bytes: u32) -> Option<f64> {
    let bit_micros = payload_bytes as u64 * 8 * 1_000_000;
    (rate_bps > bit_micros).then(|| bit_micros as f64 / rate_bps as f64)
}

impl CbrSource {
    /// Inter-packet interval; at least 1 µs for any source that passed
    /// [`NetworkSpec::validate`](crate::builder::NetworkSpec::validate).
    pub fn interval(&self) -> Duration {
        debug_assert!(self.rate_bps > 0);
        let bits = self.payload_bytes as u64 * 8;
        // Round to nearest microsecond; CBR at 2 Mb/s with 1000 B packets
        // is exactly 4 ms.
        Duration::from_micros((bits * 1_000_000 + self.rate_bps / 2) / self.rate_bps)
    }

    /// Whether the source is active at `now` (generation instant).
    pub fn active_at(&self, now: Time) -> bool {
        now >= self.start && now < self.stop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cbr(rate: u64) -> CbrSource {
        CbrSource {
            flow: 0,
            src: 0,
            dst: 4,
            rate_bps: rate,
            payload_bytes: 1000,
            start: Time::from_secs(5),
            stop: Time::from_secs(10),
        }
    }

    #[test]
    fn paper_cbr_interval_is_4ms() {
        assert_eq!(cbr(2_000_000).interval(), Duration::from_millis(4));
    }

    #[test]
    fn interval_rounds_to_nearest_us() {
        // 8000 bits at 3 Mb/s = 2666.67 µs -> 2667.
        assert_eq!(cbr(3_000_000).interval(), Duration::from_micros(2667));
    }

    #[test]
    fn activity_window_is_half_open() {
        let s = cbr(2_000_000);
        assert!(!s.active_at(Time::from_micros(4_999_999)));
        assert!(s.active_at(Time::from_secs(5)));
        assert!(s.active_at(Time::from_micros(9_999_999)));
        assert!(!s.active_at(Time::from_secs(10)));
    }
}
