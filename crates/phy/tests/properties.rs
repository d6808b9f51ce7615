//! Property-based tests for the channel: sense bookkeeping, delivery
//! ranges and capture symmetry under random transmission schedules.

use ezflow_phy::{Channel, ChannelConfig, EndReport, FrameId, LossModel, Position, StartReport};
use ezflow_sim::{SimRng, Time};
use proptest::prelude::*;

fn positions(n: usize, coords: &[(f64, f64)]) -> Vec<Position> {
    (0..n)
        .map(|i| {
            let (x, y) = coords[i % coords.len()];
            Position::new(x + (i / coords.len()) as f64 * 37.0, y)
        })
        .collect()
}

proptest! {
    /// After every transmission ends, all sense counters return to idle,
    /// and deliveries only ever reach nodes inside the decode range.
    #[test]
    fn sense_counters_balance_and_deliveries_in_range(
        seed in any::<u64>(),
        // (src, dst, start offset, duration) tuples
        txs in prop::collection::vec(
            (0usize..6, 0usize..6, 0u64..500, 1u64..400),
            1..25
        )
    ) {
        let pos = positions(6, &[
            (0.0, 0.0), (200.0, 0.0), (400.0, 0.0),
            (600.0, 0.0), (150.0, 180.0), (450.0, 210.0),
        ]);
        let mut ch = Channel::new(&pos, ChannelConfig::default(), LossModel::ideal());
        let mut rng = SimRng::new(seed);

        // Build a global schedule of start/end events, time-ordered.
        #[derive(Clone, Copy)]
        enum Ev { Start(usize), End(usize) }
        let mut events: Vec<(u64, Ev)> = Vec::new();
        for (i, &(_, _, start, dur)) in txs.iter().enumerate() {
            events.push((start, Ev::Start(i)));
            events.push((start + dur, Ev::End(i)));
        }
        events.sort_by_key(|&(t, ev)| (t, match ev { Ev::Start(_) => 1, Ev::End(_) => 0 }));

        let mut ids = vec![None; txs.len()];
        let mut last = 0;
        let mut start_rep = StartReport::default();
        let mut end_rep = EndReport::default();
        for (t, ev) in events {
            last = t;
            match ev {
                Ev::Start(i) => {
                    let (src, dst, start, dur) = txs[i];
                    if dst == src { continue; }
                    ch.start_tx_into(
                        Time::from_micros(start),
                        FrameId::default(),
                        src,
                        dst,
                        Time::from_micros(start + dur),
                        &mut start_rep,
                    );
                    // The transmitter never senses its own energy.
                    prop_assert!(!start_rep.became_busy.contains(&src));
                    ids[i] = Some(start_rep.tx_id);
                }
                Ev::End(i) => {
                    let Some(id) = ids[i] else { continue };
                    let (src, _, _, _) = txs[i];
                    ch.end_tx_into(Time::from_micros(t), id, &mut rng, &mut end_rep);
                    for d in &end_rep.deliveries {
                        prop_assert!(d.node != src);
                        prop_assert!(
                            ch.can_decode(src, d.node),
                            "delivery outside decode range"
                        );
                    }
                }
            }
        }
        prop_assert_eq!(ch.active_count(), 0);
        for n in 0..6 {
            prop_assert!(!ch.is_busy(n, Time::from_micros(last)), "node {} stuck busy", n);
        }
    }

    /// An isolated transmission (no overlap) is always received cleanly by
    /// every in-range node under an ideal loss model.
    #[test]
    fn isolated_transmissions_are_clean(seed in any::<u64>(), src in 0usize..4, dst in 0usize..4) {
        prop_assume!(src != dst);
        let pos = positions(4, &[(0.0, 0.0), (200.0, 0.0), (400.0, 0.0), (600.0, 0.0)]);
        let mut ch = Channel::new(&pos, ChannelConfig::default(), LossModel::ideal());
        let mut rng = SimRng::new(seed);
        let mut start = StartReport::default();
        let mut end = EndReport::default();
        ch.start_tx_into(Time::from_micros(0), FrameId::default(), src, dst, Time::from_micros(100), &mut start);
        ch.end_tx_into(Time::from_micros(100), start.tx_id, &mut rng, &mut end);
        for d in &end.deliveries {
            prop_assert!(d.clean, "lone tx corrupted at {}", d.node);
        }
        // If dst is within decode range it must be among the deliveries.
        if ch.can_decode(src, dst) {
            prop_assert!(end.deliveries.iter().any(|d| d.node == dst));
        }
    }

    /// The capture rule is monotone in distance: if an interferer at
    /// distance d corrupts, any interferer closer than d also corrupts
    /// (same sender/receiver pair).
    #[test]
    fn capture_monotone_in_interferer_distance(d1 in 10f64..600.0, d2 in 10f64..600.0) {
        let near = d1.min(d2);
        let far = d1.max(d2);
        // receiver at origin, sender 200 m away, interferers east.
        let pos = vec![
            Position::new(0.0, 0.0),     // receiver 0
            Position::new(-200.0, 0.0),  // sender 1
            Position::new(near, 0.0),    // interferer 2
            Position::new(far, 0.0),     // interferer 3
        ];
        let ch = Channel::new(&pos, ChannelConfig::default(), LossModel::ideal());
        if ch.corrupts(3, 1, 0) {
            prop_assert!(ch.corrupts(2, 1, 0), "closer interferer must corrupt too");
        }
    }
}
