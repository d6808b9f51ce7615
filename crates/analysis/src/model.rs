//! The slotted random walk (Eqs. 2–4).

use ezflow_sim::SimRng;

use crate::kernel::sample_pattern;

/// `b_min` of Eq. 2 (paper: 0.05 — i.e. "the buffer is empty").
pub const B_MIN: f64 = 0.05;

/// `b_max` of Eq. 2 (paper: 20).
pub const B_MAX: f64 = 20.0;

/// `mincw` of Eq. 2 (2^4).
pub const MIN_CW: u32 = 1 << 4;

/// `maxcw` of Eq. 2 (2^15).
pub const MAX_CW: u32 = 1 << 15;

/// Initial window at every node: the 802.11 default `CWmin`.
pub const INITIAL_CW: u32 = 32;

/// Parameters of the slotted model. The window map's constants are the
/// paper's (§5.1) and stated here, not read from `ezflow_core`, so the
/// model stays an independent oracle; `tests/paper_claims.rs` pins that
/// the two agree.
#[derive(Clone, Copy, Debug)]
pub struct ModelConfig {
    /// Number of hops `K` (so `K` transmitters `0..K` and `K-1` relay
    /// buffers `b_1..b_{K-1}`).
    pub hops: usize,
    /// True = EZ-flow dynamics (Eq. 2); false = fixed windows (802.11).
    pub adaptive: bool,
    /// `Some(n)` makes the window map act on an `n`-sample running
    /// average of the successor buffer instead of its instantaneous value
    /// — the implementation's 50-sample CAA, transplanted into the model.
    /// `None` is the paper's Eq. 2 (per-slot, instantaneous).
    pub averaging: Option<usize>,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            hops: 4,
            adaptive: true,
            averaging: None,
        }
    }
}

/// The state of the random walk: relay buffers + contention windows.
#[derive(Clone, Debug)]
pub struct SlottedModel {
    cfg: ModelConfig,
    /// `b[i]` = buffer of node `i`; `b[0]` is unused (source = ∞),
    /// indices `1..hops` are the relays.
    b: Vec<u64>,
    /// Window of each transmitter `0..hops`.
    cw: Vec<u32>,
    /// Per-node running sums/counts when `averaging` is enabled.
    avg_state: Vec<(f64, usize)>,
    /// Slots simulated.
    pub slots: u64,
    /// End-to-end deliveries (successful activations of the last link).
    pub delivered: u64,
}

impl SlottedModel {
    /// Fresh model: empty buffers, uniform initial windows.
    pub fn new(cfg: ModelConfig) -> Self {
        assert!(cfg.hops >= 2);
        SlottedModel {
            cfg,
            b: vec![0; cfg.hops],
            cw: vec![INITIAL_CW; cfg.hops],
            avg_state: vec![(0.0, 0); cfg.hops],
            slots: 0,
            delivered: 0,
        }
    }

    /// Model parameters.
    pub fn config(&self) -> ModelConfig {
        self.cfg
    }

    /// Relay buffers `b_1..b_{K-1}`.
    pub fn buffers(&self) -> &[u64] {
        &self.b[1..]
    }

    /// Buffer of node `i` (`1 <= i < hops`).
    pub fn buffer(&self, i: usize) -> u64 {
        self.b[i]
    }

    /// Contention windows of transmitters `0..hops`.
    pub fn windows(&self) -> &[u32] {
        &self.cw
    }

    /// The Lyapunov function `h(b) = Σ b_i` of Theorem 1.
    pub fn h(&self) -> u64 {
        self.b[1..].iter().sum()
    }

    /// Sets a relay buffer (for drift probing from chosen states).
    pub fn set_buffer(&mut self, i: usize, v: u64) {
        assert!((1..self.cfg.hops).contains(&i));
        self.b[i] = v;
    }

    /// Sets a transmitter window.
    pub fn set_window(&mut self, i: usize, cw: u32) {
        assert!(cw.is_power_of_two());
        self.cw[i] = cw.clamp(MIN_CW, MAX_CW);
    }

    /// Advances one slot: draws a transmission pattern, moves the buffers
    /// (Eq. 3), then — if adaptive — applies the window map `f` (Eq. 2)
    /// using the *pre-update* buffer values, exactly as the recursion in
    /// §6.2 is written. Returns the pattern.
    pub fn step(&mut self, rng: &mut SimRng) -> Vec<bool> {
        let k = self.cfg.hops;
        let contends: Vec<bool> = (0..k).map(|i| i == 0 || self.b[i] > 0).collect();
        let z = sample_pattern(&contends, &self.cw, rng);

        // Eq. 2 on the pre-update state: f(cw_i(n), b_{i+1}(n)) — or, with
        // `averaging`, on the completed n-sample mean (the CAA variant).
        let mut new_cw = self.cw.clone();
        if self.cfg.adaptive {
            #[allow(clippy::needless_range_loop)] // i spans two state arrays
            for i in 0..k {
                let b_next = if i + 1 < k { self.b[i + 1] as f64 } else { 0.0 };
                match self.cfg.averaging {
                    None => new_cw[i] = self.f(self.cw[i], b_next),
                    Some(n) => {
                        let (sum, count) = &mut self.avg_state[i];
                        *sum += b_next;
                        *count += 1;
                        if *count >= n {
                            let avg = *sum / *count as f64;
                            *sum = 0.0;
                            *count = 0;
                            new_cw[i] = self.f(self.cw[i], avg);
                        }
                    }
                }
            }
        }

        // Eq. 3: b_i(n+1) = b_i(n) + z_{i-1}(n) − z_i(n).
        for i in 1..k {
            if z[i - 1] {
                self.b[i] += 1;
            }
            if z[i] {
                debug_assert!(self.b[i] > 0, "a silent buffer cannot transmit");
                self.b[i] -= 1;
            }
        }
        if z[k - 1] {
            self.delivered += 1;
        }
        self.cw = new_cw;
        self.slots += 1;
        z
    }

    /// The threshold map `f` of Eq. 2.
    fn f(&self, cw: u32, b_next: f64) -> u32 {
        if b_next > B_MAX {
            (cw * 2).min(MAX_CW)
        } else if b_next < B_MIN {
            (cw / 2).max(MIN_CW)
        } else {
            cw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regions::{region_of, Region};

    #[test]
    fn buffers_follow_flow_conservation() {
        let mut m = SlottedModel::new(ModelConfig {
            adaptive: false,
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(1);
        let mut inflow = [0u64; 4];
        let mut outflow = [0u64; 4];
        for _ in 0..10_000 {
            let z = m.step(&mut rng);
            for i in 0..4 {
                if z[i] {
                    inflow[i] += 1; // into node i+1
                    outflow[i] += 1;
                }
            }
        }
        // b_i = arrivals (z_{i-1}) - departures (z_i).
        for i in 1..4 {
            assert_eq!(m.buffer(i), inflow[i - 1] - outflow[i]);
        }
        assert_eq!(m.delivered, outflow[3]);
    }

    #[test]
    fn empty_relays_never_transmit() {
        let mut m = SlottedModel::new(ModelConfig {
            adaptive: false,
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(2);
        for _ in 0..5_000 {
            let b_before: Vec<u64> = (1..4).map(|i| m.buffer(i)).collect();
            let z = m.step(&mut rng);
            for i in 1..4 {
                if z[i] {
                    assert!(b_before[i - 1] > 0);
                }
            }
        }
    }

    #[test]
    fn fixed_windows_are_never_touched() {
        let mut m = SlottedModel::new(ModelConfig {
            adaptive: false,
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(3);
        for _ in 0..5_000 {
            m.step(&mut rng);
        }
        assert!(m.windows().iter().all(|&c| c == 32));
    }

    #[test]
    fn adaptive_windows_respond_to_thresholds() {
        let mut m = SlottedModel::new(ModelConfig::default());
        // Force b1 over b_max: node 0 must double next step.
        m.set_buffer(1, 25);
        let mut rng = SimRng::new(4);
        m.step(&mut rng);
        assert_eq!(m.windows()[0], 64);
        // The last node's "successor buffer" is the sink (0): it halves
        // toward mincw.
        let mut m = SlottedModel::new(ModelConfig::default());
        let mut rng = SimRng::new(5);
        m.step(&mut rng);
        assert_eq!(m.windows()[3], 16);
    }

    #[test]
    fn window_bounds_hold_forever() {
        let mut m = SlottedModel::new(ModelConfig::default());
        let mut rng = SimRng::new(6);
        for _ in 0..50_000 {
            m.step(&mut rng);
            for &c in m.windows() {
                assert!((16..=32768).contains(&c));
                assert!(c.is_power_of_two());
            }
        }
    }

    #[test]
    fn averaged_caa_variant_also_stabilizes() {
        // The implementation's 50-sample averaging, transplanted into the
        // slotted model, preserves Theorem 1's conclusion: the walk stays
        // bounded (it reacts ~50x slower, so the bound is looser).
        let mut m = SlottedModel::new(ModelConfig {
            averaging: Some(50),
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(21);
        let mut max_h = 0;
        for _ in 0..300_000 {
            m.step(&mut rng);
            max_h = max_h.max(m.h());
        }
        assert!(
            max_h < 3_000,
            "averaged EZ-flow should stay bounded, max h = {max_h}"
        );
        // And it still delivers.
        assert!(m.delivered as f64 / 300_000.0 > 0.2);
    }

    #[test]
    fn four_hop_fixed_cw_is_unstable_adaptive_is_not() {
        // The paper's Theorem 1, empirically: with fixed windows the
        // 4-hop walk's h(b) grows without bound (driven by region H);
        // with EZ-flow dynamics it stays bounded.
        let steps = 300_000;
        let mut fixed = SlottedModel::new(ModelConfig {
            adaptive: false,
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(7);
        for _ in 0..steps {
            fixed.step(&mut rng);
        }
        let mut ez = SlottedModel::new(ModelConfig::default());
        let mut rng = SimRng::new(7);
        let mut max_h = 0;
        for _ in 0..steps {
            ez.step(&mut rng);
            max_h = max_h.max(ez.h());
        }
        // Divergence is linear but slow (~0.015/slot): after 300k slots
        // the fixed walk is far above anything a stable walk reaches.
        assert!(
            fixed.h() > 1_000,
            "fixed-cw h should diverge, got {}",
            fixed.h()
        );
        assert!(
            max_h < 500,
            "EZ-flow h should stay bounded, max was {max_h}"
        );
        // The stabilized walk lives near the origin most of the time.
        assert!(matches!(
            region_of(ez.buffer(1), ez.buffer(2), ez.buffer(3)),
            Region::A
                | Region::B
                | Region::C
                | Region::D
                | Region::E
                | Region::F
                | Region::G
                | Region::H
        ));
    }
}
