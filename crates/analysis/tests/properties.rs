//! Property-based tests for the slotted model.

use ezflow_analysis::{pattern_distribution, ModelConfig, SlottedModel, MAX_CW, MIN_CW};
use ezflow_sim::SimRng;
use proptest::prelude::*;

fn cw_strategy() -> impl Strategy<Value = u32> {
    (4u32..=15).prop_map(|e| 1 << e)
}

proptest! {
    /// The exact pattern distribution is a probability distribution, and
    /// every pattern in its support obeys the model's structural rules:
    /// no two adjacent links active, no link active without its sender
    /// contending, and `z_i` implies node `i+2` silent.
    #[test]
    fn kernel_distributions_are_valid(
        contends_tail in prop::collection::vec(any::<bool>(), 1..7),
        cw in prop::collection::vec(cw_strategy(), 8),
    ) {
        let mut contends = vec![true];
        contends.extend(contends_tail);
        let k = contends.len();
        let dist = pattern_distribution(&contends, &cw[..k]);
        let total: f64 = dist.iter().map(|(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for (z, p) in &dist {
            prop_assert!(*p > 0.0);
            prop_assert_eq!(z.len(), k);
            for i in 0..k {
                if z[i] {
                    prop_assert!(contends[i], "z_{} active without contender", i);
                    if i + 1 < k {
                        prop_assert!(!z[i + 1], "adjacent links both active");
                    }
                }
            }
        }
    }

    /// Flow conservation along any trajectory: deliveries never exceed
    /// source activations, and every buffer equals its in-minus-out.
    #[test]
    fn model_conserves_packets(seed in any::<u64>(), hops in 2usize..7, adaptive in any::<bool>()) {
        let mut m = SlottedModel::new(ModelConfig {
            hops,
            adaptive,
            ..ModelConfig::default()
        });
        let mut rng = SimRng::new(seed);
        let mut source_out = 0u64;
        for _ in 0..3_000 {
            let z = m.step(&mut rng);
            if z[0] {
                source_out += 1;
            }
        }
        let queued: u64 = m.buffers().iter().sum();
        prop_assert_eq!(source_out, queued + m.delivered);
    }

    /// Windows remain powers of two within bounds, whatever happens.
    #[test]
    fn model_windows_bounded(seed in any::<u64>(), hops in 2usize..7) {
        let cfg = ModelConfig { hops, ..ModelConfig::default() };
        let mut m = SlottedModel::new(cfg);
        let mut rng = SimRng::new(seed);
        for _ in 0..2_000 {
            m.step(&mut rng);
            for &cw in m.windows() {
                prop_assert!(cw.is_power_of_two());
                prop_assert!((MIN_CW..=MAX_CW).contains(&cw));
            }
        }
    }
}
