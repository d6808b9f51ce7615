//! Testbed link calibration.
//!
//! The paper's campus links (Table 1) have very different measured
//! capacities — 845 kb/s on `l0` down to 408 kb/s on the bottleneck `l2`,
//! at a nominal 1 Mb/s PHY rate. We reproduce each link by a per-link
//! Bernoulli packet-error rate chosen so that the *isolated saturation
//! throughput* of the simulated link matches the measured capacity.
//!
//! The forward model is the exact expected-cycle-time of our DCF on a
//! single contention-free link with frame error probability `p` applied
//! independently to data frames and ACKs:
//!
//! * attempt `k` costs `DIFS + E[backoff_k] + T_data` plus either
//!   `SIFS + T_ack` (success, probability `s = (1-p)^2`) or the ACK
//!   timeout;
//! * the packet is *delivered* at the first attempt whose **data** frame
//!   is clean (an ACK loss triggers a retry, but the receiver already has
//!   the packet and filters the duplicate);
//! * after `RETRY_LIMIT` failures the packet is dropped.
//!
//! Every timing is the MAC's own constant, so the model is the DCF's
//! cycle, not a copy of it.
//!
//! `per_for_capacity` inverts the model by bisection.

use ezflow_mac::{
    ack_timeout, data_air, window, ACK_AIR, CW_MIN_DEFAULT, DIFS, RETRY_LIMIT, SIFS, SLOT,
};

/// Expected saturation throughput (payload kb/s) of an isolated link with
/// per-frame error probability `p`, payload `payload` bytes.
pub fn link_capacity_kbps(payload: u32, p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p));
    let slot = SLOT.as_micros() as f64;
    let t_data = data_air(payload).as_micros() as f64;
    let t_ack = ACK_AIR.as_micros() as f64;
    let difs = DIFS.as_micros() as f64;
    let sifs = SIFS.as_micros() as f64;
    let t_to = ack_timeout().as_micros() as f64;

    let d = 1.0 - p; // data frame survives
    let s = d * d; // data + ack survive
    let mut expected_us = 0.0;
    let mut reach = 1.0; // probability of reaching attempt k
    for k in 0..RETRY_LIMIT {
        let w = window(CW_MIN_DEFAULT, k) as f64;
        let backoff = (w - 1.0) / 2.0 * slot;
        let tail = s * (sifs + t_ack) + (1.0 - s) * t_to;
        expected_us += reach * (difs + backoff + t_data + tail);
        reach *= 1.0 - s;
    }
    let p_delivered = 1.0 - (1.0 - d).powi(RETRY_LIMIT as i32);
    let bits = payload as f64 * 8.0;
    bits * p_delivered / expected_us * 1000.0
}

/// Finds the per-frame error probability that makes the isolated link's
/// saturation throughput equal `target_kbps`. Returns 0 when the target is
/// at or above the loss-free capacity.
pub fn per_for_capacity(payload: u32, target_kbps: f64) -> f64 {
    let ideal = link_capacity_kbps(payload, 0.0);
    if target_kbps >= ideal {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 0.95f64);
    for _ in 0..60 {
        let mid = (lo + hi) / 2.0;
        if link_capacity_kbps(payload, mid) > target_kbps {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_capacity_matches_hand_computation() {
        // Cycle: DIFS 50 + mean backoff 15.5*20=310 + data 8416 + SIFS 10
        // + ACK 304 = 9090 µs for 8000 payload bits -> 880.1 kb/s.
        let c = link_capacity_kbps(1000, 0.0);
        assert!((c - 880.1).abs() < 0.5, "capacity {c}");
    }

    #[test]
    fn capacity_decreases_with_loss() {
        let c0 = link_capacity_kbps(1000, 0.0);
        let c1 = link_capacity_kbps(1000, 0.1);
        let c2 = link_capacity_kbps(1000, 0.3);
        assert!(c0 > c1 && c1 > c2, "{c0} {c1} {c2}");
    }

    #[test]
    fn inversion_roundtrips_table1_targets() {
        for target in [845.0, 672.0, 408.0, 748.0, 746.0, 805.0, 648.0] {
            let p = per_for_capacity(1000, target);
            let back = link_capacity_kbps(1000, p);
            assert!(
                (back - target).abs() < 1.0,
                "target {target}: p={p}, back={back}"
            );
        }
    }

    #[test]
    fn target_above_ideal_gives_zero_loss() {
        assert_eq!(per_for_capacity(1000, 2000.0), 0.0);
    }
}
