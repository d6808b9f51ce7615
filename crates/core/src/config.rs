//! EZ-flow parameters: the paper's fixed values, and the three a run
//! may set.

/// Default lower buffer threshold (§5.1: 0.05). Deliberately below one
/// packet: the mean must be *essentially always zero* before a node dares
/// to become more aggressive (§3.3: "the most important parameter to set
/// is b_min, which has to be very small").
pub const B_MIN: f64 = 0.05;

/// Default upper buffer threshold (§5.1: 20).
pub const B_MAX: f64 = 20.0;

/// BOE samples averaged per CAA decision (§3.3: 50).
pub const SAMPLES: usize = 50;

/// Smallest `CWmin` the CAA sets (§3.3: 2^4).
pub const MIN_CW: u32 = 1 << 4;

/// Largest `CWmin` the CAA sets (§3.3, §5.1: 2^15).
pub const MAX_CW: u32 = 1 << 15;

/// BOE history length, packets (§3.2: 1000).
pub(crate) const HISTORY: usize = 1000;

/// What a run may set: the thresholds the ablations sweep, and the
/// testbed's hardware cap. Defaults are the paper's simulation values.
#[derive(Clone, Copy, Debug)]
pub struct EzFlowConfig {
    /// Lower buffer threshold ([`B_MIN`] unless swept).
    pub b_min: f64,
    /// Upper buffer threshold ([`B_MAX`] unless swept).
    pub b_max: f64,
    /// Optional hardware clamp below [`MAX_CW`] — the MadWifi driver of
    /// the testbed silently ignores `CWmin` above 2^10 (§4.1); set this
    /// to `Some(1024)` to reproduce the testbed's partially-stabilized
    /// Fig. 4.
    pub hw_cap: Option<u32>,
}

impl Default for EzFlowConfig {
    fn default() -> Self {
        EzFlowConfig {
            b_min: B_MIN,
            b_max: B_MAX,
            hw_cap: None,
        }
    }
}

impl EzFlowConfig {
    /// The paper's testbed configuration: MadWifi caps `CWmin` at 2^10.
    pub fn testbed() -> Self {
        EzFlowConfig {
            hw_cap: Some(1024),
            ..EzFlowConfig::default()
        }
    }

    /// Effective upper bound for `CWmin` (hardware cap included).
    pub fn effective_max_cw(&self) -> u32 {
        match self.hw_cap {
            Some(cap) => MAX_CW.min(cap),
            None => MAX_CW,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = EzFlowConfig::default();
        assert_eq!(c.b_min, 0.05);
        assert_eq!(c.b_max, 20.0);
        assert_eq!(SAMPLES, 50);
        assert_eq!(MIN_CW, 16);
        assert_eq!(MAX_CW, 32768);
        assert_eq!(HISTORY, 1000);
        assert_eq!(c.effective_max_cw(), 32768);
    }

    #[test]
    fn testbed_cap() {
        let c = EzFlowConfig::testbed();
        assert_eq!(c.effective_max_cw(), 1024);
    }
}
