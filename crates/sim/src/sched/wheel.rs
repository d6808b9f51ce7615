//! The calendar queue: a bucket wheel plus an overflow heap.
//!
//! The 802.11 DCF schedules almost everything within a few hundred slot
//! times of *now* — DIFS/backoff expiries, SIFS responses, ACK timeouts,
//! frame airtimes — and moves or removes its countdown timers constantly
//! (every freeze and resume of a backoff). That short-horizon churn is the
//! textbook case for Brown's calendar queue:
//!
//! * **Near future** — an array of [`NUM_BUCKETS`] fixed-width buckets,
//!   each [`BUCKET_WIDTH_US`] µs wide (64 µs ≈ 3 slot times of 20 µs:
//!   wide enough that adjacent backoff slots share a bucket, narrow
//!   enough that a bucket rarely holds more than a handful of
//!   entries). Bucket `i` holds entries whose `at` falls in
//!   the window `[i·W, (i+1)·W) mod horizon`; within a bucket entries are
//!   kept in ascending `(at, seq)` order by sorted insertion (buckets are
//!   tiny, so the insertion is effectively O(1) and the common
//!   append-at-end case is one comparison).
//! * **Rotation** — the cursor only ever moves forward, to the bucket of
//!   the entry being popped; a bitmap of occupied buckets makes "find the
//!   next non-empty bucket" a couple of word scans instead of a walk.
//!   Every cursor advance slides the wheel's window forward and migrates
//!   newly in-horizon entries out of the overflow heap into their
//!   buckets ([`WheelStats::overflow_refills`]).
//! * **Far future** — entries at or beyond `base + horizon` (65.536 ms
//!   out) wait in an overflow min-heap. Only coarse periodic machinery
//!   lands there (metric sampling, CAA epochs, flow start/stop), so the
//!   heap stays small and its O(log n) is off the hot path.
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

use std::collections::BinaryHeap;

use super::{Entry, WheelStats};
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

/// One near-future bucket. `items[head..]` are the live entries in
/// ascending `(at, seq)` order; `items[..head]` is the dead prefix of
/// already-popped entries, reclaimed in one `clear` when the bucket
/// drains. The cursor-plus-`Vec` layout keeps both ends O(1) *with*
/// `Vec`'s plain append on the push side — a `VecDeque` ring buffer's
/// wrap arithmetic on every push showed up in profiles, and `remove(0)`
/// on a bare `Vec` is a whole-bucket memmove per pop.
struct Bucket<E> {
    items: Vec<Entry<E>>,
    head: usize,
}

impl<E> Bucket<E> {
    fn new() -> Self {
        Bucket {
            items: Vec::new(),
            head: 0,
        }
    }

    /// Live entries (the dead prefix excluded).
    fn live(&self) -> usize {
        self.items.len() - self.head
    }
}

/// Calendar-queue event queue (see the module docs).
pub(crate) struct WheelQueue<E> {
    /// The near-future buckets (see [`Bucket`]).
    buckets: Vec<Bucket<E>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Index of the bucket whose window starts at `base`.
    cursor: usize,
    /// Start of the cursor bucket's window, µs; always a multiple of
    /// [`BUCKET_WIDTH_US`], and `cursor == (base / W) & MASK` always.
    base: u64,
    /// Entries currently in buckets (the rest are in `overflow`).
    in_buckets: usize,
    /// Far-future entries (`at >= base + HORIZON_US`), earliest first.
    overflow: BinaryHeap<Entry<E>>,
    stats: WheelStats,
}

impl<E> WheelQueue<E> {
    pub(crate) fn new() -> Self {
        WheelQueue {
            buckets: (0..NUM_BUCKETS).map(|_| Bucket::new()).collect(),
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

    pub(crate) fn push(&mut self, entry: Entry<E>) {
        if entry.at.as_micros() >= self.base + HORIZON_US {
            self.overflow.push(entry);
        } else {
            self.bucket_insert(entry);
        }
    }

    /// Inserts an in-horizon entry into its bucket, keeping the bucket's
    /// ascending `(at, seq)` order. Entries at or before `base` clamp
    /// into the cursor bucket: nothing earlier can still be pending, and
    /// the sort ranks them ahead of the bucket's in-window entries.
    fn bucket_insert(&mut self, entry: Entry<E>) {
        let at = entry.at.as_micros();
        let idx = if at < self.base {
            self.cursor
        } else {
            (at / BUCKET_WIDTH_US) as usize & MASK
        };
        let bucket = &mut self.buckets[idx];
        let key = (entry.at, entry.seq);
        // Fast path: seq grows monotonically, so pushes for the same or a
        // later instant append at the end.
        match bucket.items.last() {
            Some(last) if (last.at, last.seq) > key => {
                // Search the live slice only: a clamped late push can key
                // below the dead prefix (already-popped entries), which
                // would break the predicate's monotonicity.
                let live = &bucket.items[bucket.head..];
                let pos = bucket.head + live.partition_point(|e| (e.at, e.seq) < key);
                bucket.items.insert(pos, entry);
            }
            _ => bucket.items.push(entry),
        }
        self.stats.bucket_high_water = self.stats.bucket_high_water.max(bucket.live() as u64);
        self.occupied[idx >> 6] |= 1 << (idx & 63);
        self.in_buckets += 1;
    }

    /// Removes the pending entry with key `(at, seq)`; returns whether it
    /// was found. The bucket an in-horizon entry lives in is normally the
    /// one its `at` maps to, but an entry pushed while its instant was
    /// already at or behind the then-`base` was clamped into the
    /// then-cursor bucket — for those (and only those) the natural-bucket
    /// probe misses and a bitmap walk over the occupied buckets finishes
    /// the job. Buckets hold a handful of entries (see
    /// [`WheelStats::bucket_high_water`]), so the common case is one
    /// binary search plus a tiny `Vec::remove` memmove.
    pub(crate) fn remove(&mut self, at: Time, seq: u64) -> bool {
        let at_us = at.as_micros();
        if at_us >= self.base + HORIZON_US {
            // Overflow invariant: everything at or past the horizon is in
            // the far-future heap (refill migrates the rest on rotation).
            let before = self.overflow.len();
            self.overflow.retain(|e| e.seq != seq || e.at != at);
            return self.overflow.len() != before;
        }
        let natural = if at_us < self.base {
            self.cursor
        } else {
            (at_us / BUCKET_WIDTH_US) as usize & MASK
        };
        if self.remove_in_bucket(natural, at, seq) {
            return true;
        }
        for idx in 0..NUM_BUCKETS {
            if idx == natural || self.occupied[idx >> 6] & (1u64 << (idx & 63)) == 0 {
                continue;
            }
            if self.remove_in_bucket(idx, at, seq) {
                return true;
            }
        }
        false
    }

    /// Binary-searches bucket `idx`'s live slice for `(at, seq)` and
    /// removes the entry if present, keeping the bitmap and entry count
    /// consistent.
    fn remove_in_bucket(&mut self, idx: usize, at: Time, seq: u64) -> bool {
        let bucket = &mut self.buckets[idx];
        let key = (at, seq);
        let live = &bucket.items[bucket.head..];
        let pos = bucket.head + live.partition_point(|e| (e.at, e.seq) < key);
        if pos == bucket.items.len() || (bucket.items[pos].at, bucket.items[pos].seq) != key {
            return false;
        }
        bucket.items.remove(pos);
        if bucket.head == bucket.items.len() {
            bucket.items.clear();
            bucket.head = 0;
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
        }
        self.in_buckets -= 1;
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

    /// Migrates every overflow entry that now falls inside the window
    /// into its bucket.
    fn refill(&mut self) {
        let horizon_end = self.base + HORIZON_US;
        while let Some(head) = self.overflow.peek() {
            if head.at.as_micros() >= horizon_end {
                break;
            }
            let entry = self.overflow.pop().expect("peeked");
            self.stats.overflow_refills += 1;
            self.bucket_insert(entry);
        }
    }

    /// Removes and returns the earliest entry if it is at or before
    /// `until`; leaves the queue untouched otherwise (the cursor may
    /// still advance — pure bookkeeping, invisible to the total order).
    pub(crate) fn pop_before(&mut self, until: Time) -> Option<Entry<E>>
    where
        E: Clone,
    {
        if self.in_buckets == 0 {
            let head_at = self.overflow.peek()?.at;
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
        let cur = self.cursor;
        let bucket = &mut self.buckets[cur];
        let head = &bucket.items[bucket.head];
        if head.at > until {
            return None;
        }
        // Clone the entry out and grow the dead prefix; the backing Vec is
        // reclaimed in one `clear` once the bucket drains. Events are small
        // enum payloads, so the clone is a plain copy in practice.
        let entry = head.clone();
        bucket.head += 1;
        if bucket.head == bucket.items.len() {
            bucket.items.clear();
            bucket.head = 0;
            self.occupied[cur >> 6] &= !(1u64 << (cur & 63));
        }
        self.in_buckets -= 1;
        Some(entry)
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        if self.in_buckets == 0 {
            return self.overflow.peek().map(|e| e.at);
        }
        let offset = self.next_occupied_offset()?;
        let idx = (self.cursor + offset) & MASK;
        let bucket = &self.buckets[idx];
        Some(bucket.items[bucket.head].at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(at_us: u64, seq: u64) -> Entry<u64> {
        Entry {
            at: Time::from_micros(at_us),
            seq,
            event: seq,
        }
    }

    #[test]
    fn constants_are_powers_of_two() {
        assert!(BUCKET_WIDTH_US.is_power_of_two());
        assert!(NUM_BUCKETS.is_power_of_two());
        assert_eq!(HORIZON_US, 65_536);
    }

    #[test]
    fn same_bucket_entries_pop_in_seq_order() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // All inside one bucket window, pushed out of order.
        w.push(entry(10, 1));
        w.push(entry(5, 2));
        w.push(entry(10, 0));
        let order: Vec<u64> =
            std::iter::from_fn(|| w.pop_before(Time::MAX).map(|e| e.seq)).collect();
        assert_eq!(order, vec![2, 0, 1], "(at, seq) order within the bucket");
    }

    #[test]
    fn overflow_entries_return_in_order_after_rotation() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        w.push(entry(HORIZON_US + 5, 0)); // overflow
        w.push(entry(3, 1)); // bucket
        assert_eq!(w.pop_before(Time::MAX).unwrap().seq, 1);
        assert_eq!(w.pop_before(Time::MAX).unwrap().seq, 0);
        assert_eq!(w.stats().overflow_refills, 1);
        assert!(w.pop_before(Time::MAX).is_none());
    }

    #[test]
    fn entries_at_or_before_base_clamp_into_the_cursor_bucket() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // Advance the wheel deep into its second lap.
        w.push(entry(2 * HORIZON_US + 100, 0));
        assert_eq!(w.pop_before(Time::MAX).unwrap().seq, 0);
        // A "late" push behind the wheel's base must still pop, and first.
        w.push(entry(7, 2));
        w.push(entry(2 * HORIZON_US + 120, 1));
        assert_eq!(w.pop_before(Time::MAX).unwrap().seq, 2);
        assert_eq!(w.pop_before(Time::MAX).unwrap().seq, 1);
    }

    #[test]
    fn bitmap_tracks_occupancy_across_wrap() {
        let mut w: WheelQueue<u64> = WheelQueue::new();
        // Spread entries over more than one bitmap word, including the
        // last bucket (wrap case).
        let w_us = BUCKET_WIDTH_US;
        for (i, &us) in [0, 63 * w_us, 64 * w_us, 1023 * w_us].iter().enumerate() {
            w.push(entry(us, i as u64));
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| w.pop_before(Time::MAX).map(|e| e.seq)).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert_eq!(w.peek_time(), None);
    }
}
