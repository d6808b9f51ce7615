//! The DCF's constants and its two switches.
//!
//! Every timing, frame size and window bound is IEEE 802.11b DSSS at
//! 1 Mb/s, the one configuration of the paper's testbed and ns-2 runs
//! (§5.1); the crate docs list them with their sources. Only RTS/CTS and
//! EIFS are settable: the ablations and the golden flip them.

use ezflow_phy::air_time;
use ezflow_sim::Duration;

/// Slot time (802.11b: 20 µs).
pub const SLOT: Duration = Duration::from_micros(20);

/// Short inter-frame space (802.11b: 10 µs).
pub const SIFS: Duration = Duration::from_micros(10);

/// DCF inter-frame space, SIFS + 2·slot (802.11b: 50 µs).
pub const DIFS: Duration = Duration::from_micros(SIFS.as_micros() + 2 * SLOT.as_micros());

/// MAC header + FCS bytes added to every data payload (24 + 4).
const DATA_OVERHEAD_BYTES: u32 = 28;

/// ACK air time (a 14-byte frame).
pub const ACK_AIR: Duration = air_time(14);

/// RTS air time (a 20-byte frame).
pub(crate) const RTS_AIR: Duration = air_time(20);

/// CTS air time (a 14-byte frame).
pub(crate) const CTS_AIR: Duration = air_time(14);

/// Transmission attempts per frame, the first included: the standard's
/// short retry limit.
pub const RETRY_LIMIT: u32 = 7;

/// Standard upper bound of the exponential backoff window, in slots. A
/// `CWmin` above it (EZ-flow territory) pins the window at `CWmin`.
const CW_MAX: u32 = 1024;

/// Default minimum contention window, in slots (802.11b: 32).
pub const CW_MIN_DEFAULT: u32 = 32;

/// The DCF's two switches, both off by default as in the paper's setup.
#[derive(Clone, Copy, Debug, Default)]
pub struct MacConfig {
    /// Enable the RTS/CTS handshake for data frames. The paper's testbed
    /// and simulations disable it (§5.1: the sensing range already covers
    /// the RTS/CTS protection area); the implementation exists so that
    /// claim can be checked experimentally.
    pub rts_cts: bool,
    /// Enable EIFS: after sensing a frame it could not decode, a station
    /// defers `SIFS + T_ack + DIFS` instead of DIFS before resuming its
    /// backoff (the standard's protection for the unseen ACK). Off by
    /// default — ns-2-era simulations commonly omit it and the paper's
    /// phenomena do not rely on it; the `eifs` ablation measures what it
    /// changes.
    pub eifs: bool,
}

/// Air time of a data frame with `payload` transport bytes.
pub fn data_air(payload: u32) -> Duration {
    air_time(payload + DATA_OVERHEAD_BYTES)
}

/// The extended inter-frame space: SIFS + ACK air time + DIFS.
pub(crate) fn eifs() -> Duration {
    SIFS + ACK_AIR + DIFS
}

/// How long the RTS sender waits for the CTS.
pub(crate) fn cts_timeout() -> Duration {
    SIFS + CTS_AIR + SLOT
}

/// NAV a fresh RTS announces: CTS + DATA + ACK + 3 SIFS.
pub(crate) fn rts_nav(payload: u32) -> Duration {
    SIFS * 3 + CTS_AIR + data_air(payload) + ACK_AIR
}

/// How long the sender waits for an ACK after its data frame left the
/// air before declaring the attempt failed: SIFS + ACK air time + one
/// slot of scheduling slack.
pub fn ack_timeout() -> Duration {
    SIFS + ACK_AIR + SLOT
}

/// Contention window (in slots) for transmission attempt `attempt`
/// (0-based) with minimum window `cw_min`.
///
/// Standard binary exponential backoff doubles up to `CW_MAX`; a
/// `cw_min` at or above it pins the window at `cw_min`, which is how a
/// driver-level `CWmin` override behaves.
pub fn window(cw_min: u32, attempt: u32) -> u32 {
    debug_assert!(cw_min >= 1);
    let cap = CW_MAX.max(cw_min);
    let shifted = cw_min.checked_shl(attempt.min(16)).unwrap_or(cap);
    shifted.min(cap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_timings_are_802_11b() {
        assert_eq!(SLOT, Duration::from_micros(20));
        assert_eq!(DIFS, Duration::from_micros(50));
        // 1000-byte payload: 192 + (1000+28)*8 = 8416 µs.
        assert_eq!(data_air(1000), Duration::from_micros(8416));
        // ACK: 192 + 14*8 = 304 µs.
        assert_eq!(ACK_AIR, Duration::from_micros(304));
        assert_eq!(ack_timeout(), Duration::from_micros(10 + 304 + 20));
    }

    #[test]
    fn beb_window_doubles_and_caps() {
        assert_eq!(window(32, 0), 32);
        assert_eq!(window(32, 1), 64);
        assert_eq!(window(32, 4), 512);
        assert_eq!(window(32, 5), 1024);
        assert_eq!(window(32, 6), 1024, "capped at CW_MAX");
        assert_eq!(window(32, 31), 1024, "huge attempt does not overflow");
    }

    #[test]
    fn large_cwmin_pins_the_window() {
        // EZ-flow raised CWmin above the standard CWmax.
        assert_eq!(window(4096, 0), 4096);
        assert_eq!(window(4096, 3), 4096);
        assert_eq!(window(32768, 5), 32768);
    }

    #[test]
    fn small_cwmin_below_cap() {
        // EZ-flow's mincw = 16.
        assert_eq!(window(16, 0), 16);
        assert_eq!(window(16, 6), 1024);
        assert_eq!(window(16, 7), 1024);
    }
}
