//! PHY timing: how long a frame occupies the air.
//!
//! IEEE 802.11b DSSS at the fixed 1 Mb/s rate of the paper's testbed and
//! simulations (§5.1), with the long PLCP preamble + header (144 + 48 =
//! 192 µs, always sent at 1 Mb/s). At 1 Mb/s a byte takes exactly 8 µs,
//! so no air time has a partial microsecond to round.

use ezflow_sim::Duration;

/// PLCP preamble + header duration, µs.
const PLCP_US: u64 = 192;

/// Air time of one payload byte at 1 Mb/s, µs.
const US_PER_BYTE: u64 = 8;

/// Air time of a frame whose MAC-level size (header + payload + FCS) is
/// `bytes`.
pub const fn air_time(bytes: u32) -> Duration {
    Duration::from_micros(PLCP_US + bytes as u64 * US_PER_BYTE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_mbps_is_8us_per_byte() {
        // 1028-byte data MPDU (1000 payload + 28 header/FCS).
        assert_eq!(air_time(1028), Duration::from_micros(192 + 8224));
        // 14-byte ACK.
        assert_eq!(air_time(14), Duration::from_micros(192 + 112));
    }

    #[test]
    fn zero_bytes_is_just_plcp() {
        assert_eq!(air_time(0), Duration::from_micros(192));
    }
}
