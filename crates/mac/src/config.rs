//! MAC timing and protocol parameters.

use ezflow_phy::PhyTiming;
use ezflow_sim::Duration;

/// DCF parameters. Defaults are IEEE 802.11b DSSS at 1 Mb/s, matching the
/// paper's testbed (Asus WL-500gP + Atheros, 802.11b, RTS/CTS off) and its
/// ns-2 configuration.
#[derive(Clone, Copy, Debug)]
pub struct MacConfig {
    /// Slot time (802.11b: 20 µs).
    pub slot: Duration,
    /// Short inter-frame space (802.11b: 10 µs).
    pub sifs: Duration,
    /// DCF inter-frame space = SIFS + 2·slot (802.11b: 50 µs).
    pub difs: Duration,
    /// PHY timing used to compute frame air times.
    pub phy: PhyTiming,
    /// MAC header + FCS bytes added to every data payload (24 + 4).
    pub data_overhead_bytes: u32,
    /// ACK frame size in bytes (14).
    pub ack_bytes: u32,
    /// Maximum number of transmission attempts per frame (first try
    /// included). The standard short-retry limit is 7.
    pub max_attempts: u32,
    /// Standard upper bound of the exponential backoff window, in slots.
    /// When `CWmin` exceeds this (EZ-flow territory), the window is pinned
    /// at `CWmin` instead.
    pub cw_max: u32,
    /// Default minimum contention window, in slots (802.11b: 32).
    pub cw_min_default: u32,
    /// Enable the RTS/CTS handshake for data frames. The paper's testbed
    /// and simulations disable it (§5.1: the sensing range already covers
    /// the RTS/CTS protection area); the implementation exists so that
    /// claim can be checked experimentally.
    pub rts_cts: bool,
    /// RTS frame size, bytes (20).
    pub rts_bytes: u32,
    /// CTS frame size, bytes (14).
    pub cts_bytes: u32,
    /// Enable EIFS: after sensing a frame it could not decode, a station
    /// defers `SIFS + T_ack + DIFS` instead of DIFS before resuming its
    /// backoff (the standard's protection for the unseen ACK). Off by
    /// default — ns-2-era simulations commonly omit it and the paper's
    /// phenomena do not rely on it; the `eifs` ablation measures what it
    /// changes.
    pub eifs: bool,
}

impl Default for MacConfig {
    fn default() -> Self {
        MacConfig {
            slot: Duration::from_micros(20),
            sifs: Duration::from_micros(10),
            difs: Duration::from_micros(50),
            phy: PhyTiming::default(),
            data_overhead_bytes: 28,
            ack_bytes: 14,
            max_attempts: 7,
            cw_max: 1024,
            cw_min_default: 32,
            rts_cts: false,
            rts_bytes: 20,
            cts_bytes: 14,
            eifs: false,
        }
    }
}

impl MacConfig {
    /// Air time of a data frame with `payload` transport bytes.
    pub fn data_air(&self, payload: u32) -> Duration {
        self.phy.air_time(payload + self.data_overhead_bytes)
    }

    /// Air time of an ACK frame.
    pub fn ack_air(&self) -> Duration {
        self.phy.air_time(self.ack_bytes)
    }

    /// Air time of an RTS frame.
    pub fn rts_air(&self) -> Duration {
        self.phy.air_time(self.rts_bytes)
    }

    /// Air time of a CTS frame.
    pub fn cts_air(&self) -> Duration {
        self.phy.air_time(self.cts_bytes)
    }

    /// The extended inter-frame space: SIFS + ACK air time + DIFS.
    pub fn eifs_value(&self) -> Duration {
        self.sifs + self.ack_air() + self.difs
    }

    /// How long the RTS sender waits for the CTS.
    pub fn cts_timeout(&self) -> Duration {
        self.sifs + self.cts_air() + self.slot
    }

    /// NAV a fresh RTS announces: CTS + DATA + ACK + 3 SIFS.
    pub fn rts_nav(&self, payload: u32) -> Duration {
        self.sifs * 3 + self.cts_air() + self.data_air(payload) + self.ack_air()
    }

    /// How long the sender waits for an ACK after its data frame left the
    /// air before declaring the attempt failed: SIFS + ACK air time + one
    /// slot of scheduling slack.
    pub fn ack_timeout(&self) -> Duration {
        self.sifs + self.ack_air() + self.slot
    }

    /// Contention window (in slots) for transmission attempt `attempt`
    /// (0-based) with minimum window `cw_min`.
    ///
    /// Standard binary exponential backoff doubles up to `cw_max`; a
    /// `cw_min` at or above `cw_max` pins the window at `cw_min`, which is
    /// how a driver-level `CWmin` override behaves.
    pub fn window(&self, cw_min: u32, attempt: u32) -> u32 {
        debug_assert!(cw_min >= 1);
        let cap = self.cw_max.max(cw_min);
        let shifted = cw_min.checked_shl(attempt.min(16)).unwrap_or(cap);
        shifted.min(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timings_are_802_11b() {
        let c = MacConfig::default();
        assert_eq!(c.slot, Duration::from_micros(20));
        assert_eq!(c.difs, Duration::from_micros(50));
        // 1000-byte payload: 192 + (1000+28)*8 = 8416 µs.
        assert_eq!(c.data_air(1000), Duration::from_micros(8416));
        // ACK: 192 + 14*8 = 304 µs.
        assert_eq!(c.ack_air(), Duration::from_micros(304));
        assert_eq!(c.ack_timeout(), Duration::from_micros(10 + 304 + 20));
    }

    #[test]
    fn beb_window_doubles_and_caps() {
        let c = MacConfig::default();
        assert_eq!(c.window(32, 0), 32);
        assert_eq!(c.window(32, 1), 64);
        assert_eq!(c.window(32, 4), 512);
        assert_eq!(c.window(32, 5), 1024);
        assert_eq!(c.window(32, 6), 1024, "capped at cw_max");
        assert_eq!(c.window(32, 31), 1024, "huge attempt does not overflow");
    }

    #[test]
    fn large_cwmin_pins_the_window() {
        let c = MacConfig::default();
        // EZ-flow raised CWmin above the standard CWmax.
        assert_eq!(c.window(4096, 0), 4096);
        assert_eq!(c.window(4096, 3), 4096);
        assert_eq!(c.window(32768, 5), 32768);
    }

    #[test]
    fn small_cwmin_below_cap() {
        let c = MacConfig::default();
        // EZ-flow's mincw = 16.
        assert_eq!(c.window(16, 0), 16);
        assert_eq!(c.window(16, 6), 1024);
        assert_eq!(c.window(16, 7), 1024);
    }
}
