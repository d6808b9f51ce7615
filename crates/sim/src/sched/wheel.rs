//! The calendar queue: a bucket wheel plus an overflow heap, over one
//! slab of pending entries.
//!
//! The 802.11 DCF schedules almost everything within a few hundred slot
//! times of *now* — DIFS/backoff expiries, SIFS responses, ACK timeouts,
//! frame airtimes — and moves or removes its countdown timers constantly
//! (every freeze and resume of a backoff). That short-horizon churn is the
//! textbook case for Brown's calendar queue:
//!
//! * **Slab** — every pending entry lives in one `Vec` of slots; a freed
//!   slot goes on a free list and the next push reuses it, so the slab
//!   never holds more slots than the queue's deepest pending count
//!   (`Scheduler::depth_high_water`). A [`TimerHandle`](super::TimerHandle)
//!   names its entry's slot and `seq`; removal through it is an O(1)
//!   unlink, and a handle whose `seq` no longer matches its slot (the
//!   entry left, the slot went to a newer one) removes nothing.
//! * **Near future** — an array of [`NUM_BUCKETS`] fixed-width buckets,
//!   each [`BUCKET_WIDTH_US`] µs wide (64 µs ≈ 3 slot times of 20 µs:
//!   wide enough that adjacent backoff slots share a bucket, narrow
//!   enough that a bucket rarely holds more than a handful of
//!   entries). Bucket `i` holds entries whose `at` falls in
//!   the window `[i·W, (i+1)·W) mod horizon`, as a doubly linked list
//!   through the slab in ascending `(at, seq)` order. An insert walks back
//!   from the tail; `seq` grows monotonically, so the common case is an
//!   append after one comparison.
//! * **Rotation** — the cursor only ever moves forward, to the bucket of
//!   the entry being popped; a bitmap of occupied buckets makes "find the
//!   next non-empty bucket" a couple of word scans instead of a walk.
//!   Every cursor advance slides the wheel's window forward and migrates
//!   newly in-horizon entries out of the overflow heap into their
//!   buckets ([`WheelStats::overflow_refills`]); a migrated entry keeps
//!   its slot, so its handle stays good.
//! * **Far future** — entries at or beyond `base + horizon` (65.536 ms
//!   out) wait in an overflow min-heap of `(at, seq, slot)` keys. Only
//!   coarse periodic machinery lands there (metric sampling, CAA epochs,
//!   flow start/stop), so the heap stays small and its O(log n) — and the
//!   O(n) of a keyed removal from it — is off the hot path.
//!
//! **Determinism argument.** Total order is preserved exactly: (1) the
//! overflow invariant — everything in a bucket is earlier than everything
//! in the overflow heap — means buckets always drain first; (2) buckets
//! are visited in cursor order and bucket `b`'s window lies entirely
//! before bucket `b+1`'s, so cross-bucket order is time order; (3) within
//! a bucket, sorted insertion keeps exact `(at, seq)` order, which also
//! handles the degenerate case of an entry scheduled at or before the
//! wheel's `base` (it clamps into the *current* bucket, where the sort
//! ranks it first). Pop sequences are therefore identical to a plain
//! binary heap's — property-tested against one in `tests/sched_equiv.rs`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::WheelStats;
use crate::time::Time;

/// Width of one bucket, µs. Tuned to the 802.11b slot time (20 µs): most
/// MAC timers land within a few slots, so 64 µs keeps same-instant and
/// adjacent-slot entries in the same or neighbouring buckets while
/// staying a power of two (bucket indexing is a shift and a mask).
/// Measured against 32 µs and 128 µs on the hotpath scenarios, 64 µs
/// sits at the flat bottom of the cost curve (fewer rotations than 32,
/// no deeper buckets in practice).
pub const BUCKET_WIDTH_US: u64 = 64;

/// Number of buckets (power of two). With 64 µs buckets the wheel covers
/// a 65.536 ms horizon — several maximum frame airtimes plus worst-case
/// backoff — beyond which events overflow to the far-future heap.
pub const NUM_BUCKETS: usize = 1024;

/// The wheel's time horizon, µs: `NUM_BUCKETS * BUCKET_WIDTH_US`.
pub const HORIZON_US: u64 = NUM_BUCKETS as u64 * BUCKET_WIDTH_US;

const MASK: usize = NUM_BUCKETS - 1;
const WORDS: usize = NUM_BUCKETS / 64;

/// "No slot": the end of a bucket list or of the free list.
const NIL: u32 = u32::MAX;
/// [`Slot::home`] of an entry waiting in the overflow heap.
const OVERFLOW: u16 = u16::MAX;
/// [`Slot::seq`] of a free slot: no handle carries it (the scheduler's
/// sequence counter would have to wrap first).
const FREE: u64 = u64::MAX;

/// One slab slot: a pending entry and its bucket links, or (with `seq ==
/// FREE`) a link in the free list.
struct Slot<E> {
    at: Time,
    seq: u64,
    /// Previous entry in the bucket; [`NIL`] at the head.
    prev: u32,
    /// Next entry in the bucket ([`NIL`] at the tail), or the next free
    /// slot.
    next: u32,
    /// The bucket the entry is linked into, or [`OVERFLOW`].
    home: u16,
    /// `None` only in a free slot.
    event: Option<E>,
}

impl<E> Slot<E> {
    /// The total-order key.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// One near-future bucket: the ends of its list through the slab, and
/// how many entries it holds ([`WheelStats::bucket_high_water`]).
#[derive(Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
    live: u32,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        head: NIL,
        tail: NIL,
        live: 0,
    };
}

/// Calendar-queue event queue (see the module docs).
pub(crate) struct WheelQueue<E> {
    /// Every pending entry; free slots chain from `free`.
    slots: Vec<Slot<E>>,
    /// Head of the free list, or [`NIL`].
    free: u32,
    /// The near-future buckets (see [`Bucket`]).
    buckets: [Bucket; NUM_BUCKETS],
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Index of the bucket whose window starts at `base`.
    cursor: usize,
    /// Start of the cursor bucket's window, µs; always a multiple of
    /// [`BUCKET_WIDTH_US`], and `cursor == (base / W) & MASK` always.
    base: u64,
    /// Entries currently in buckets (the rest are in `overflow`).
    in_buckets: usize,
    /// Far-future entries (`at >= base + HORIZON_US`) as `(at, seq,
    /// slot)` keys, earliest first.
    overflow: BinaryHeap<Reverse<(Time, u64, u32)>>,
    stats: WheelStats,
}

impl<E> WheelQueue<E> {
    pub(crate) fn new() -> Self {
        WheelQueue {
            slots: Vec::new(),
            free: NIL,
            buckets: [Bucket::EMPTY; NUM_BUCKETS],
            occupied: [0; WORDS],
            cursor: 0,
            base: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            stats: WheelStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Queues `event` at `at` under key `(at, seq)`; returns its slot.
    pub(crate) fn push(&mut self, at: Time, seq: u64, event: E) -> u32 {
        debug_assert_ne!(seq, FREE, "the sequence counter wrapped");
        let slot = Slot {
            at,
            seq,
            prev: NIL,
            next: NIL,
            home: OVERFLOW,
            event: Some(event),
        };
        let i = if self.free == NIL {
            let i = u32::try_from(self.slots.len()).expect("pending entries fit a u32 slot index");
            self.slots.push(slot);
            i
        } else {
            let i = self.free;
            self.free = self.slots[i as usize].next;
            self.slots[i as usize] = slot;
            i
        };
        if at.as_micros() >= self.base + HORIZON_US {
            self.overflow.push(Reverse((at, seq, i)));
        } else {
            self.link(i);
        }
        i
    }

    /// Links slot `i` into its bucket, keeping the bucket's ascending
    /// `(at, seq)` order. Entries at or before `base` clamp into the
    /// cursor bucket: nothing earlier can still be pending, and the sort
    /// ranks them ahead of the bucket's in-window entries.
    fn link(&mut self, i: u32) {
        let at = self.slots[i as usize].at.as_micros();
        let idx = if at < self.base {
            self.cursor
        } else {
            (at / BUCKET_WIDTH_US) as usize & MASK
        };
        let key = self.slots[i as usize].key();
        // Walk back from the tail to the last entry keyed below `key`:
        // seq grows monotonically, so a push for the same or a later
        // instant stops at the tail.
        let mut after = self.buckets[idx].tail;
        while after != NIL && self.slots[after as usize].key() > key {
            after = self.slots[after as usize].prev;
        }
        let bucket = &mut self.buckets[idx];
        let before = if after == NIL {
            std::mem::replace(&mut bucket.head, i)
        } else {
            std::mem::replace(&mut self.slots[after as usize].next, i)
        };
        if before == NIL {
            bucket.tail = i;
        } else {
            self.slots[before as usize].prev = i;
        }
        bucket.live += 1;
        self.stats.bucket_high_water = self.stats.bucket_high_water.max(u64::from(bucket.live));
        let slot = &mut self.slots[i as usize];
        slot.prev = after;
        slot.next = before;
        slot.home = idx as u16;
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.in_buckets += 1;
    }

    /// Unlinks slot `i` from its bucket, keeping the bitmap and entry
    /// count consistent.
    fn unlink(&mut self, i: u32) {
        let Slot {
            prev, next, home, ..
        } = self.slots[i as usize];
        let idx = usize::from(home);
        let bucket = &mut self.buckets[idx];
        if prev == NIL {
            bucket.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            bucket.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        bucket.live -= 1;
        if bucket.live == 0 {
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.in_buckets -= 1;
    }

    /// Puts slot `i` on the free list and moves its event out.
    fn release(&mut self, i: u32) -> E {
        let slot = &mut self.slots[i as usize];
        slot.seq = FREE;
        slot.next = self.free;
        self.free = i;
        slot.event.take().expect("a pending slot holds its event")
    }

    /// Removes the pending entry in `slot` if it is still the one keyed
    /// `seq`; returns whether it was. An in-bucket entry is an O(1)
    /// unlink wherever it sits (clamped entries included); an overflow
    /// entry's key is filtered out of the (small) far-future heap.
    pub(crate) fn remove(&mut self, slot: u32, seq: u64) -> bool {
        let Some(entry) = self.slots.get(slot as usize) else {
            return false;
        };
        if entry.seq != seq {
            return false;
        }
        if entry.home == OVERFLOW {
            self.overflow.retain(|&Reverse((_, s, _))| s != seq);
        } else {
            self.unlink(slot);
        }
        self.release(slot);
        true
    }

    /// Offset (in buckets, from the cursor) of the first occupied bucket.
    /// `None` iff all buckets are empty.
    fn next_occupied_offset(&self) -> Option<usize> {
        let word0 = self.cursor >> 6;
        let bit0 = self.cursor & 63;
        let masked = self.occupied[word0] >> bit0;
        if masked != 0 {
            return Some(masked.trailing_zeros() as usize);
        }
        for step in 1..=WORDS {
            let mut word = self.occupied[(word0 + step) & (WORDS - 1)];
            if step == WORDS {
                // Wrapped back to the cursor's word: only bits below the
                // cursor remain unchecked.
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                return Some(step * 64 - bit0 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Advances the cursor by `steps` buckets, sliding the window forward
    /// and refilling newly in-horizon entries from the overflow heap.
    fn advance(&mut self, steps: usize) {
        self.cursor = (self.cursor + steps) & MASK;
        self.base += steps as u64 * BUCKET_WIDTH_US;
        self.stats.rotations += steps as u64;
        self.refill();
    }

    /// Teleports the wheel to the bucket containing instant `to_us`
    /// (which must be at or beyond the current window: it comes from the
    /// overflow head while every bucket is empty).
    fn jump_to(&mut self, to_us: u64) {
        debug_assert_eq!(self.in_buckets, 0);
        self.base = to_us / BUCKET_WIDTH_US * BUCKET_WIDTH_US;
        self.cursor = (to_us / BUCKET_WIDTH_US) as usize & MASK;
        // One rotation, not `distance / width`: an idle jump's length
        // carries no information about wheel work.
        self.stats.rotations += 1;
        self.refill();
    }

    /// Links every overflow entry that now falls inside the window into
    /// its bucket.
    fn refill(&mut self) {
        let horizon_end = self.base + HORIZON_US;
        while let Some(&Reverse((at, _, slot))) = self.overflow.peek() {
            if at.as_micros() >= horizon_end {
                break;
            }
            self.overflow.pop();
            self.stats.overflow_refills += 1;
            self.link(slot);
        }
    }

    /// Removes and returns the earliest entry if it is at or before
    /// `until`; leaves the queue untouched otherwise (the cursor may
    /// still advance — pure bookkeeping, invisible to the total order).
    pub(crate) fn pop_before(&mut self, until: Time) -> Option<(Time, E)> {
        if self.in_buckets == 0 {
            let &Reverse((head_at, _, _)) = self.overflow.peek()?;
            if head_at > until {
                return None;
            }
            self.jump_to(head_at.as_micros());
            debug_assert!(self.in_buckets > 0, "jump_to must refill the head");
        }
        let offset = self
            .next_occupied_offset()
            .expect("in_buckets > 0 implies an occupied bucket");
        if offset > 0 {
            self.advance(offset);
        }
        let head = self.buckets[self.cursor].head;
        let at = self.slots[head as usize].at;
        if at > until {
            return None;
        }
        self.unlink(head);
        Some((at, self.release(head)))
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        if self.in_buckets == 0 {
            return self.overflow.peek().map(|&Reverse((at, _, _))| at);
        }
        let offset = self.next_occupied_offset()?;
        let head = self.buckets[(self.cursor + offset) & MASK].head;
        Some(self.slots[head as usize].at)
    }

    /// Slots in the slab, free ones included.
    #[cfg(test)]
    fn slab_len(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{Scheduler, TimerHandle};
    use crate::time::Duration;

    /// Pushes `seq` at `at_us` with the seq as its event.
    fn push(w: &mut WheelQueue<u64>, at_us: u64, seq: u64) -> u32 {
        w.push(Time::from_micros(at_us), seq, seq)
    }

    fn drain(w: &mut WheelQueue<u64>) -> Vec<u64> {
        std::iter::from_fn(|| w.pop_before(Time::MAX).map(|(_, e)| e)).collect()
    }

    #[test]
    fn constants_are_powers_of_two() {
        assert!(BUCKET_WIDTH_US.is_power_of_two());
        assert!(NUM_BUCKETS.is_power_of_two());
        assert_eq!(HORIZON_US, 65_536);
        assert!(
            NUM_BUCKETS < usize::from(OVERFLOW),
            "bucket indices fit Slot::home"
        );
    }

    #[test]
    fn same_bucket_entries_pop_in_seq_order() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // All inside one bucket window, pushed out of order.
        push(&mut w, 10, 1);
        push(&mut w, 5, 2);
        push(&mut w, 10, 0);
        assert_eq!(
            drain(&mut w),
            vec![2, 0, 1],
            "(at, seq) order within the bucket"
        );
    }

    #[test]
    fn overflow_entries_return_in_order_after_rotation() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        push(&mut w, HORIZON_US + 5, 0); // overflow
        push(&mut w, 3, 1); // bucket
        assert_eq!(w.pop_before(Time::MAX).unwrap().1, 1);
        assert_eq!(w.pop_before(Time::MAX).unwrap().1, 0);
        assert_eq!(w.stats().overflow_refills, 1);
        assert!(w.pop_before(Time::MAX).is_none());
    }

    #[test]
    fn entries_at_or_before_base_clamp_into_the_cursor_bucket() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // Advance the wheel deep into its second lap.
        push(&mut w, 2 * HORIZON_US + 100, 0);
        assert_eq!(w.pop_before(Time::MAX).unwrap().1, 0);
        // A "late" push behind the wheel's base must still pop, and first.
        push(&mut w, 7, 2);
        push(&mut w, 2 * HORIZON_US + 120, 1);
        assert_eq!(drain(&mut w), vec![2, 1]);
    }

    #[test]
    fn bitmap_tracks_occupancy_across_wrap() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // Spread entries over more than one bitmap word, including the
        // last bucket (wrap case).
        let w_us = BUCKET_WIDTH_US;
        for (i, &us) in [0, 63 * w_us, 64 * w_us, 1023 * w_us].iter().enumerate() {
            push(&mut w, us, i as u64);
        }
        assert_eq!(drain(&mut w), vec![0, 1, 2, 3]);
        assert_eq!(w.peek_time(), None);
    }

    #[test]
    fn a_park_revive_pop_storm_never_grows_the_slab_past_the_high_water() {
        // 64 keyed timers at one instant, parked, revived and popped at
        // random for 10^5 operations (a popped timer counts as parked):
        // every freed slot is reused, so the slab is never larger than
        // the deepest the queue has been.
        let mut s: Scheduler<u64> = Scheduler::new();
        let mut rng = crate::SimRng::new(36);
        let mut armed: Vec<(u64, TimerHandle)> = Vec::new();
        let mut parked = 0u32;
        let mut now = Time::ZERO;
        for tag in 0..64 {
            armed.push((tag, s.schedule_keyed(Time::from_micros(50), tag)));
        }
        for tag in 64..100_064u64 {
            match rng.gen_range(3) {
                0 if !armed.is_empty() => {
                    let (_, h) = armed.swap_remove(rng.gen_range(armed.len() as u32) as usize);
                    assert!(s.remove(h));
                    parked += 1;
                }
                1 if parked > 0 => {
                    parked -= 1;
                    let at = now + Duration::from_micros(50);
                    armed.push((tag, s.reschedule(None, at, tag)));
                }
                _ => {
                    if let Some((at, popped)) = s.pop() {
                        now = at;
                        armed.retain(|&(t, _)| t != popped);
                        parked += 1;
                    }
                }
            }
            assert!(s.wheel.slab_len() <= s.depth_high_water());
        }
        assert_eq!(s.depth_high_water(), 64);
        assert_eq!(s.wheel.slab_len(), 64);
    }

    #[test]
    fn a_handle_survives_a_refill_from_overflow_and_a_clamp_behind_base() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // Far future: its slot sits in the overflow heap until the wheel
        // reaches it, then the refill links that same slot into a bucket.
        let far = s.schedule_keyed(Time::from_micros(HORIZON_US + 500), 1);
        s.schedule(Time::from_micros(HORIZON_US), 0);
        assert_eq!(s.pop(), Some((Time::from_micros(HORIZON_US), 0)));
        assert_eq!(s.wheel_stats().overflow_refills, 2);
        assert!(
            s.remove(far),
            "the refilled entry is removed through its handle"
        );
        assert_eq!(s.peek_time(), None);
        // Behind base: clamped into the cursor bucket, not its natural one.
        let behind = s.schedule_keyed(Time::from_micros(7), 2);
        s.schedule(Time::from_micros(HORIZON_US + 10), 3);
        assert!(
            s.remove(behind),
            "the clamped entry is removed through its handle"
        );
        assert_eq!(s.pop(), Some((Time::from_micros(HORIZON_US + 10), 3)));
        assert!(s.is_empty());
    }

    #[test]
    fn a_handle_whose_slot_was_reused_removes_nothing() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let old = s.schedule_keyed(Time::from_micros(10), 1);
        assert_eq!(s.pop(), Some((Time::from_micros(10), 1)));
        // The newer entry takes the freed slot over.
        let new = s.schedule_keyed(Time::from_micros(20), 2);
        assert_eq!(s.wheel.slab_len(), 1, "the slot was reused");
        assert_eq!(old.slot, new.slot);
        assert!(!s.remove(old), "a stale handle removes nothing");
        assert_eq!(s.removed_total(), 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop(), Some((Time::from_micros(20), 2)));
        // A handle to a freed, not yet reused slot removes nothing either.
        assert!(!s.remove(new));
        s.schedule(Time::from_micros(30), 3);
        assert_eq!(s.pop(), Some((Time::from_micros(30), 3)));
    }
}
