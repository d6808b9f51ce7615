//! The Buffer Occupancy Estimator (§3.2).
//!
//! The node keeps the identifiers (16-bit transport checksums) of the last
//! `history` packets it successfully handed to its successor, in send
//! order. When it overhears the successor forwarding some packet `p`, FIFO
//! queueing guarantees that exactly the packets recorded *after* `p` are
//! still sitting in the successor's buffer — so the position of `p`'s
//! checksum in the ring yields the successor's instantaneous buffer
//! occupancy, with zero message exchange.
//!
//! Two practical details the paper calls out, both reproduced here:
//!
//! * **Checksum aliasing.** A 16-bit identifier over a 1000-entry window
//!   occasionally collides. We resolve a lookup to the *most recent*
//!   matching entry, which makes an aliased estimate err low rather than
//!   high — a conservative error for a congestion signal (it can delay,
//!   never amplify, a throttle-down).
//! * **Missed overhearings are harmless.** The estimator produces a sample
//!   only when it actually overhears a forward; gaps simply mean fewer
//!   samples (the CAA just waits longer for its 50), never wrong ones.
//!
//! One refinement over the paper's pseudo-code: after a successful match,
//! every entry up to and including the match is pruned. FIFO means the
//! successor has already forwarded all of them, so they can never match a
//! *future* overhearing — keeping them would only create stale aliases.

use std::collections::VecDeque;

use ezflow_net::lifecycle::BoeVerdict;

/// Per-successor passive buffer estimator.
#[derive(Clone, Debug)]
pub struct Boe {
    history: usize,
    /// Checksums of packets handed to the successor, oldest first.
    sent: VecDeque<u16>,
    /// Occurrence count of every 16-bit checksum currently in `sent`,
    /// indexed by checksum. Boxed (128 KiB) so a `Boe` itself stays a few
    /// words — moving one around is cheap, and a mesh with thousands of
    /// estimators keeps them out of every cache line that touches the
    /// struct. Makes the common *miss* (`counts[ck] == 0`) and the
    /// unambiguous/ambiguous distinction (`counts[ck] >= 2`) O(1); the
    /// ring is scanned only on an actual hit, and only back to the most
    /// recent match.
    counts: Box<[u16]>,
    /// Diagnostics: samples produced.
    pub samples_produced: u64,
    /// Diagnostics: overheard frames whose checksum matched nothing
    /// (either aliasing already pruned it, or we never saw the send).
    pub misses: u64,
    /// Diagnostics: lookups whose checksum matched more than one recorded
    /// send (aliasing); the most recent match was used.
    pub ambiguous: u64,
}

impl Boe {
    /// Creates an estimator remembering the last `history` sends.
    ///
    /// `history` is capped at `u16::MAX` so the per-checksum occurrence
    /// counts cannot overflow even if every recorded send aliases.
    pub fn new(history: usize) -> Self {
        assert!(history > 0);
        assert!(history <= u16::MAX as usize);
        Boe {
            history,
            sent: VecDeque::with_capacity(history.min(4096)),
            counts: vec![0u16; 1 << 16].into_boxed_slice(),
            samples_produced: 0,
            misses: 0,
            ambiguous: 0,
        }
    }

    /// Records that a packet with transport checksum `ck` was delivered to
    /// the successor (it is now at the tail of the successor's FIFO).
    pub fn on_sent(&mut self, ck: u16) {
        if self.sent.len() == self.history {
            let evicted = self.sent.pop_front().expect("non-empty at capacity");
            self.counts[evicted as usize] -= 1;
        }
        self.sent.push_back(ck);
        self.counts[ck as usize] += 1;
    }

    /// Processes an overheard forward by the successor: its verdict and,
    /// unless the checksum matched nothing, the estimated successor
    /// buffer occupancy in packets.
    ///
    /// The common miss costs one table read; a hit scans the ring only
    /// back to the most recent match (the occurrence count already says
    /// whether an older alias exists).
    pub fn on_overheard(&mut self, ck: u16) -> (BoeVerdict, Option<usize>) {
        let occurrences = self.counts[ck as usize];
        if occurrences == 0 {
            self.misses += 1;
            return (BoeVerdict::Miss, None);
        }
        let verdict = if occurrences >= 2 {
            self.ambiguous += 1;
            BoeVerdict::Ambiguous
        } else {
            BoeVerdict::Hit
        };
        let idx = self
            .sent
            .iter()
            .rposition(|&c| c == ck)
            .expect("count says present");
        // Packets recorded after `p` are still queued at the successor.
        let b = self.sent.len() - 1 - idx;
        // Everything up to and including `p` has left the successor.
        for evicted in self.sent.drain(..=idx) {
            self.counts[evicted as usize] -= 1;
        }
        self.samples_produced += 1;
        (verdict, Some(b))
    }

    /// Number of sends currently remembered.
    pub fn len(&self) -> usize {
        self.sent.len()
    }

    /// True iff no sends are remembered.
    pub fn is_empty(&self) -> bool {
        self.sent.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The estimate of one overhearing, whatever its verdict.
    fn est(boe: &mut Boe, ck: u16) -> Option<usize> {
        boe.on_overheard(ck).1
    }

    #[test]
    fn exact_occupancy_for_fifo_successor() {
        let mut boe = Boe::new(1000);
        // We send packets 1..=5 (checksums used directly for clarity).
        for ck in 1..=5u16 {
            boe.on_sent(ck);
        }
        // Successor forwards packet 1: packets 2..5 still buffered -> 4.
        assert_eq!(est(&mut boe, 1), Some(4));
        // Then packet 2: 3..5 buffered -> 3.
        assert_eq!(est(&mut boe, 2), Some(3));
        // We send 2 more; successor forwards 3: 4,5,6,7 buffered -> 4.
        boe.on_sent(6);
        boe.on_sent(7);
        assert_eq!(est(&mut boe, 3), Some(4));
    }

    #[test]
    fn empty_buffer_reads_zero() {
        let mut boe = Boe::new(100);
        boe.on_sent(9);
        assert_eq!(est(&mut boe, 9), Some(0));
        assert!(boe.is_empty());
    }

    #[test]
    fn unknown_checksum_yields_no_sample() {
        let mut boe = Boe::new(100);
        boe.on_sent(1);
        assert_eq!(est(&mut boe, 42), None);
        assert_eq!(boe.len(), 1, "a miss must not disturb the history");
    }

    #[test]
    fn match_prunes_older_entries() {
        let mut boe = Boe::new(100);
        for ck in 1..=10u16 {
            boe.on_sent(ck);
        }
        assert_eq!(est(&mut boe, 7), Some(3));
        assert_eq!(boe.len(), 3);
        // Packets 1..=7 are gone: overhearing 3 again can't match.
        assert_eq!(est(&mut boe, 3), None);
    }

    #[test]
    fn aliased_checksum_resolves_to_most_recent() {
        let mut boe = Boe::new(100);
        boe.on_sent(5);
        boe.on_sent(8);
        boe.on_sent(5); // alias of the first
        boe.on_sent(9);
        // Most recent '5' is at index 2: one packet (9) after it.
        assert_eq!(boe.on_overheard(5), (BoeVerdict::Ambiguous, Some(1)));
        assert_eq!(boe.ambiguous, 1, "the older alias was detected");
        // Unambiguous lookups leave the counter alone.
        assert_eq!(boe.on_overheard(9), (BoeVerdict::Hit, Some(0)));
        assert_eq!(boe.ambiguous, 1);
        assert_eq!(boe.on_overheard(5), (BoeVerdict::Miss, None));
        assert_eq!(boe.misses, 1, "the estimator counts its own misses");
    }

    #[test]
    fn history_is_bounded() {
        let mut boe = Boe::new(10);
        for ck in 0..50u16 {
            boe.on_sent(ck);
        }
        assert_eq!(boe.len(), 10);
        // Oldest surviving entry is 40.
        assert_eq!(est(&mut boe, 39), None);
        assert_eq!(est(&mut boe, 40), Some(9));
    }

    /// The pre-filter estimator, kept verbatim as a test oracle: one
    /// reverse scan per overheard frame, no occurrence table. The filtered
    /// path must produce identical estimates *and* identical diagnostics.
    struct RefBoe {
        history: usize,
        sent: VecDeque<u16>,
        samples_produced: u64,
        ambiguous: u64,
    }

    impl RefBoe {
        fn new(history: usize) -> Self {
            RefBoe {
                history,
                sent: VecDeque::new(),
                samples_produced: 0,
                ambiguous: 0,
            }
        }

        fn on_sent(&mut self, ck: u16) {
            if self.sent.len() == self.history {
                self.sent.pop_front();
            }
            self.sent.push_back(ck);
        }

        fn on_overheard(&mut self, ck: u16) -> Option<usize> {
            let mut idx = None;
            for (i, &c) in self.sent.iter().enumerate().rev() {
                if c == ck {
                    if idx.is_some() {
                        self.ambiguous += 1;
                        break;
                    }
                    idx = Some(i);
                }
            }
            let idx = idx?;
            let b = self.sent.len() - 1 - idx;
            self.sent.drain(..=idx);
            self.samples_produced += 1;
            Some(b)
        }
    }

    #[test]
    fn count_filter_matches_reference_scan_exactly() {
        // A deliberately alias-heavy workload: checksums folded into a
        // tiny space (0..=7) over a small history, interleaving sends,
        // hits, and misses. Every estimate and every counter must agree
        // with the unfiltered reference at every step.
        let mut fast = Boe::new(12);
        let mut slow = RefBoe::new(12);
        let mut x: u32 = 0x2545_f491;
        // xorshift: deterministic, dependency-free pseudo-randomness.
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        for _ in 0..4000 {
            let r = step();
            let ck = (r & 7) as u16;
            if r & 0x18 == 0 {
                // 1-in-4: overhear (often a miss or an alias).
                let (verdict, b) = fast.on_overheard(ck);
                let ambiguous = slow.ambiguous;
                assert_eq!(b, slow.on_overheard(ck));
                let expected = match b {
                    None => BoeVerdict::Miss,
                    Some(_) if slow.ambiguous > ambiguous => BoeVerdict::Ambiguous,
                    Some(_) => BoeVerdict::Hit,
                };
                assert_eq!(verdict, expected);
            } else {
                fast.on_sent(ck);
                slow.on_sent(ck);
            }
            assert_eq!(fast.len(), slow.sent.len());
            assert_eq!(fast.samples_produced, slow.samples_produced);
            assert_eq!(fast.ambiguous, slow.ambiguous);
        }
        assert!(fast.ambiguous > 0, "the workload must exercise aliasing");
        assert!(fast.samples_produced > 0, "and produce samples");
    }

    #[test]
    fn count_table_tracks_ring_across_eviction_and_prune() {
        let mut boe = Boe::new(4);
        for ck in [1u16, 2, 1, 3] {
            boe.on_sent(ck);
        }
        // Ring full: sending 4 evicts the oldest '1'; the remaining '1'
        // must still be findable (count went 2 -> 1, not to 0).
        boe.on_sent(4);
        assert_eq!(est(&mut boe, 1), Some(2), "ring is [2,1,3,4]");
        // The prune dropped 2 and 1; both must now be O(1) misses.
        assert_eq!(est(&mut boe, 2), None);
        assert_eq!(est(&mut boe, 1), None);
        assert_eq!(est(&mut boe, 3), Some(1));
    }

    #[test]
    fn cloned_estimator_diverges_independently() {
        // `Boe` is cloned when controllers are duplicated; the boxed count
        // table must deep-copy so the clones do not share state.
        let mut a = Boe::new(8);
        a.on_sent(5);
        let mut b = a.clone();
        assert_eq!(est(&mut b, 5), Some(0));
        assert_eq!(est(&mut a, 5), Some(0), "clone's prune must not leak");
        assert_eq!(est(&mut b, 5), None);
    }

    #[test]
    fn missed_overhearings_do_not_corrupt_estimates() {
        // The paper's robustness property: if the node fails to overhear
        // some forwards, later estimates are still exact.
        let mut boe = Boe::new(1000);
        for ck in 1..=10u16 {
            boe.on_sent(ck);
        }
        // Forwards of 1..=4 all missed; we only hear 5.
        assert_eq!(est(&mut boe, 5), Some(5));
    }
}
