//! Property-based tests for the EZ-flow mechanism.
//!
//! The central one checks the BOE against a *reference implementation* of
//! the physical truth: a real FIFO queue standing in for the successor.
//! Whatever interleaving of sends, forwards and missed overhearings
//! occurs, an estimate produced by the BOE must equal the reference
//! queue's instantaneous occupancy.

use std::collections::VecDeque;

use ezflow_core::{Boe, Caa, CaaDecision, EzFlowConfig, MIN_CW, SAMPLES};
use proptest::prelude::*;

/// Script actions against the (node, successor) pair.
#[derive(Clone, Debug)]
enum Action {
    /// The node delivers a packet into the successor's queue.
    Send,
    /// The successor forwards its head packet; we overhear it.
    ForwardHeard,
    /// The successor forwards its head packet; we miss it.
    ForwardMissed,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        3 => Just(Action::Send),
        2 => Just(Action::ForwardHeard),
        1 => Just(Action::ForwardMissed),
    ]
}

proptest! {
    /// BOE estimates equal the reference FIFO's occupancy, under any
    /// schedule, including missed overhearings. (Checksums here are the
    /// real 16-bit hash, so rare aliases are possible; the reference
    /// tracks the paper's "most recent match" resolution by construction
    /// because distinct seqs almost never alias within these tiny runs —
    /// we skip the comparison on the rare alias.)
    #[test]
    fn boe_matches_reference_fifo(actions in prop::collection::vec(action_strategy(), 1..400)) {
        let mut boe = Boe::new(1000);
        let mut fifo: VecDeque<u64> = VecDeque::new(); // successor's queue (seq)
        let mut next_seq = 0u64;
        let mut alias_possible = std::collections::HashSet::new();
        for a in actions {
            match a {
                Action::Send => {
                    let ck = ezflow_phy::frame::checksum16(next_seq);
                    // Track alias risk: same checksum for two live seqs.
                    let clash = !alias_possible.insert(ck);
                    boe.on_sent(ck);
                    fifo.push_back(next_seq);
                    next_seq += 1;
                    if clash {
                        // Aliased histories may legitimately disagree;
                        // abandon this case (rare).
                        return Ok(());
                    }
                }
                Action::ForwardHeard => {
                    if let Some(seq) = fifo.pop_front() {
                        let truth = fifo.len();
                        let (_, est) = boe.on_overheard(ezflow_phy::frame::checksum16(seq));
                        prop_assert_eq!(est, Some(truth), "seq {}", seq);
                    }
                }
                Action::ForwardMissed => {
                    // The successor forwards but we hear nothing: the BOE
                    // must silently cope (next heard forward re-syncs).
                    fifo.pop_front();
                }
            }
        }
    }

    /// The CAA's window always stays a power of two inside
    /// [MIN_CW, effective max], whatever sample sequence it sees.
    #[test]
    fn caa_window_invariants(
        samples in prop::collection::vec(0usize..60, 1..3000),
        hw_cap in prop::option::of(Just(1024u32)),
    ) {
        let cfg = EzFlowConfig { hw_cap, ..EzFlowConfig::default() };
        let mut caa = Caa::new(cfg, 32);
        for s in samples {
            match caa.on_sample(s).map(|r| r.decision) {
                None | Some(CaaDecision::Hold) => {}
                Some(CaaDecision::Increase(cw) | CaaDecision::Decrease(cw)) => {
                    prop_assert_eq!(cw, caa.cw());
                }
            }
            let cw = caa.cw();
            prop_assert!(cw.is_power_of_two());
            prop_assert!(cw >= MIN_CW);
            prop_assert!(cw <= cfg.effective_max_cw());
        }
    }

    /// Monotone response: a window change can only be an Increase when the
    /// completed average is above b_max, and only a Decrease when below
    /// b_min.
    #[test]
    fn caa_changes_have_the_right_sign(samples in prop::collection::vec(0usize..60, 50..2000)) {
        let cfg = EzFlowConfig::default();
        let mut caa = Caa::new(cfg, 128);
        let mut window_sum = 0usize;
        let mut window_n = 0usize;
        for s in samples {
            window_sum += s;
            window_n += 1;
            let complete = window_n == SAMPLES;
            let avg = window_sum as f64 / window_n as f64;
            let round = caa.on_sample(s);
            prop_assert_eq!(round.is_some(), complete);
            match round.map(|r| r.decision) {
                Some(CaaDecision::Increase(_)) => {
                    prop_assert!(avg > cfg.b_max);
                }
                Some(CaaDecision::Decrease(_)) => {
                    prop_assert!(avg < cfg.b_min);
                }
                None | Some(CaaDecision::Hold) => {}
            }
            if complete {
                window_sum = 0;
                window_n = 0;
            }
        }
    }

    /// BOE history bound holds under any load.
    #[test]
    fn boe_history_is_bounded(n in 1usize..5000, cap in 1usize..64) {
        let mut boe = Boe::new(cap);
        for seq in 0..n as u64 {
            boe.on_sent(ezflow_phy::frame::checksum16(seq));
            prop_assert!(boe.len() <= cap);
        }
    }
}
