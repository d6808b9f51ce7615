//! Property-based tests for the simulation kernel.

use ezflow_sim::{Scheduler, SimRng, Time};
use proptest::prelude::*;

proptest! {
    /// The scheduler pops events in exactly the order of a stable sort by
    /// time — for any interleaving of pushes.
    #[test]
    fn scheduler_is_a_stable_time_sort(times in prop::collection::vec(0u64..1000, 1..200)) {
        let mut s = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule(Time::from_micros(t), i);
        }
        let mut reference: Vec<(u64, usize)> =
            times.iter().copied().zip(0..times.len()).collect();
        reference.sort_by_key(|&(t, _)| t); // stable: preserves push order
        let mut popped = Vec::new();
        while let Some((t, i)) = s.pop() {
            popped.push((t.as_micros(), i));
        }
        prop_assert_eq!(popped, reference);
    }

    /// Popping interleaved with pushing never yields an event earlier than
    /// one already delivered.
    #[test]
    fn time_never_goes_backwards(
        ops in prop::collection::vec((0u64..1000, prop::bool::ANY), 1..300)
    ) {
        let mut s = Scheduler::new();
        let mut last = 0u64;
        let mut horizon = 0u64;
        for (t, pop) in ops {
            // Only schedule at/after the delivery horizon, as the network
            // does (no scheduling into the past).
            let at = horizon.max(t);
            s.schedule(Time::from_micros(at), ());
            if pop {
                if let Some((t, ())) = s.pop() {
                    prop_assert!(t.as_micros() >= last);
                    last = t.as_micros();
                    horizon = last;
                }
            }
        }
    }

    /// gen_range never leaves its bound and hits both halves of the range.
    #[test]
    fn gen_range_is_bounded(seed in any::<u64>(), bound in 1u32..10_000) {
        let mut rng = SimRng::new(seed);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..200 {
            let v = rng.gen_range(bound);
            prop_assert!(v < bound);
            if v < bound / 2 { lo = true; } else { hi = true; }
        }
        if bound >= 16 {
            prop_assert!(lo && hi, "draws should cover the range");
        }
    }

    /// Identical seeds give identical streams; the stream survives clone.
    #[test]
    fn rng_is_deterministic_and_cloneable(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = a.clone();
        for _ in 0..50 {
            prop_assert_eq!(a.next_u64(), c.next_u64());
        }
    }

    /// pick_weighted only ever picks indices with positive weight.
    #[test]
    fn pick_weighted_respects_support(
        seed in any::<u64>(),
        weights in prop::collection::vec(0f64..10.0, 1..20)
    ) {
        let mut rng = SimRng::new(seed);
        let total: f64 = weights.iter().sum();
        for _ in 0..100 {
            match rng.pick_weighted(&weights) {
                Some(i) => prop_assert!(weights[i] > 0.0),
                None => prop_assert!(total <= 0.0),
            }
        }
    }
}
