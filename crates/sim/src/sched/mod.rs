//! The event scheduler.
//!
//! A total-order event queue over `(Time, sequence, event)` triples. The
//! monotonically increasing sequence number breaks ties between events
//! scheduled for the same instant, so that event delivery order — and
//! hence the entire simulation — is a pure function of the inputs and the
//! RNG seed. This determinism is what makes the EXPERIMENTS.md numbers
//! regenerable to the last digit.
//!
//! The scheduler is a hierarchical calendar queue ([`wheel`]): an array of
//! fixed-width near-future buckets (width tuned to the 802.11 slot time)
//! rotated as time advances, plus an overflow min-heap for far-future
//! events that refills buckets on rotation. Amortised O(1) push/pop under
//! the short-horizon timer churn of the DCF (Brown's calendar queue — the
//! same structure ns-2, the paper's own substrate, uses for its event
//! list). `tests/sched_equiv.rs` drives it in lock-step with a plain
//! binary-heap model that keeps its own accounting.
//!
//! A pending entry is cancelled or moved in exactly one way: through the
//! [`TimerHandle`] that [`Scheduler::schedule_keyed`] returned
//! ([`Scheduler::remove`], [`Scheduler::reschedule`]). The pop side asks no
//! questions — whatever is still queued when its instant arrives is
//! delivered.

use crate::time::Time;
use core::cmp::Ordering;

pub mod wheel;

use wheel::WheelQueue;

/// Handle to one *pending* entry, for keyed removal and in-place
/// rescheduling. Returned by [`Scheduler::schedule_keyed`] and
/// [`Scheduler::reschedule`]; dead the moment the entry is popped or
/// removed — the owner must drop its copy on those events (the engine
/// keeps one slot per MAC timer and clears it when the timer dispatches),
/// so a held handle always refers to a live entry.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimerHandle {
    at: Time,
    seq: u64,
}

/// Calendar-queue accounting. These are implementation detail gauges —
/// deterministic, but a property of the queue's geometry rather than of
/// the event order, so snapshots carry them only in the perf block that
/// determinism comparisons zero.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WheelStats {
    /// Cursor advances, in buckets (an idle jump over an empty wheel
    /// counts once — the distance carries no information).
    pub rotations: u64,
    /// Entries migrated from the overflow heap into buckets on rotation.
    pub overflow_refills: u64,
    /// Deepest any single bucket has ever been.
    pub bucket_high_water: u64,
}

/// One pending entry. The wheel's overflow heap orders it through the
/// inverted [`Ord`] below; its buckets keep ascending `(at, seq)` order
/// directly.
#[derive(Clone)]
pub(crate) struct Entry<E> {
    pub(crate) at: Time,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> Entry<E> {
    /// The total-order key.
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within one
        // instant, the first-scheduled) entry is popped first.
        other.key().cmp(&self.key())
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use ezflow_sim::{Scheduler, Time};
///
/// let mut s: Scheduler<&str> = Scheduler::new();
/// s.schedule(Time::from_micros(20), "second");
/// s.schedule(Time::from_micros(10), "first");
/// s.schedule(Time::from_micros(20), "third"); // same time: FIFO among ties
/// assert_eq!(s.pop(), Some((Time::from_micros(10), "first")));
/// assert_eq!(s.pop(), Some((Time::from_micros(20), "second")));
/// assert_eq!(s.pop(), Some((Time::from_micros(20), "third")));
/// assert_eq!(s.pop(), None);
/// ```
///
/// The bookkeeping every caller observes (`len`, `scheduled_total`,
/// `depth_high_water`, `rescheduled_total`, `removed_total`) lives here in
/// the wrapper; the queue itself only orders entries.
pub struct Scheduler<E> {
    /// Boxed: the wheel's bucket array and bitmap stay off the owner's
    /// own layout.
    wheel: Box<WheelQueue<E>>,
    next_seq: u64,
    len: usize,
    depth_high_water: usize,
    /// Entries created by [`Scheduler::reschedule`] — re-arms of a logical
    /// timer that already paid its fresh [`Scheduler::schedule`].
    rescheduled: u64,
    /// Entries physically removed by [`Scheduler::remove`] (parked logical
    /// timers awaiting a later reschedule, or outright cancellations).
    removed: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Scheduler {
            wheel: Box::new(WheelQueue::new()),
            next_seq: 0,
            len: 0,
            depth_high_water: 0,
            rescheduled: 0,
            removed: 0,
        }
    }

    /// Schedules `event` for instant `at`.
    ///
    /// Inlined across the crate boundary: the engine calls this once per
    /// MAC timer and transmission, and the wheel's common case is a bitmap
    /// update plus a bucket push.
    #[inline]
    pub fn schedule(&mut self, at: Time, event: E) {
        self.push(at, event);
    }

    /// [`Scheduler::schedule`], returning a [`TimerHandle`] for later
    /// keyed rescheduling or removal.
    #[inline]
    pub fn schedule_keyed(&mut self, at: Time, event: E) -> TimerHandle {
        let seq = self.push(at, event);
        TimerHandle { at, seq }
    }

    /// Queues one entry under the next sequence number, which it returns.
    #[inline]
    fn push(&mut self, at: Time, event: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.wheel.push(Entry { at, seq, event });
        // The pending count only grows on push, so sampling the high water
        // here captures the true peak.
        self.len += 1;
        self.depth_high_water = self.depth_high_water.max(self.len);
        seq
    }

    /// Moves a pending entry to a new instant in place: removes `prev`
    /// (when `Some` — pass `None` to revive a timer that was parked via
    /// [`Scheduler::remove`]) and inserts `event` at `at` under a fresh
    /// sequence number.
    ///
    /// The fresh seq is deliberate: it is exactly the `(at, seq)` key a
    /// plain [`Scheduler::schedule`] call would assign at this moment, so
    /// the pop order is the one a cancel-then-schedule-new caller would
    /// see. Only the churn accounting differs: the entry counts in
    /// [`Scheduler::rescheduled_total`], not [`Scheduler::scheduled_total`].
    #[inline]
    pub fn reschedule(&mut self, prev: Option<TimerHandle>, at: Time, event: E) -> TimerHandle {
        if let Some(h) = prev {
            let found = self.wheel.remove(h.at, h.seq);
            debug_assert!(found, "reschedule of a dead handle {h:?}");
            if found {
                self.len -= 1;
            }
        }
        self.rescheduled += 1;
        let seq = self.push(at, event);
        TimerHandle { at, seq }
    }

    /// Physically removes a pending entry (a parked logical timer — the
    /// owner expects to [`Scheduler::reschedule`] it later — or an
    /// outright cancellation). Returns whether the entry was found; a
    /// `false` means the caller's handle was dead, which the handle
    /// discipline (see [`TimerHandle`]) rules out.
    pub fn remove(&mut self, h: TimerHandle) -> bool {
        if self.wheel.remove(h.at, h.seq) {
            self.len -= 1;
            self.removed += 1;
            true
        } else {
            false
        }
    }

    /// The instant of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Time> {
        self.wheel.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of *fresh* events ever scheduled (diagnostic).
    /// Re-arms through [`Scheduler::reschedule`] are counted separately in
    /// [`Scheduler::rescheduled_total`]: a logical timer that is armed
    /// once and then moved N times contributes 1 here and N there.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq - self.rescheduled
    }

    /// Entries created by [`Scheduler::reschedule`] — in-place re-arms of
    /// already-scheduled logical timers.
    pub fn rescheduled_total(&self) -> u64 {
        self.rescheduled
    }

    /// Entries physically removed by [`Scheduler::remove`].
    pub fn removed_total(&self) -> u64 {
        self.removed
    }

    /// The deepest the pending-event queue has ever been — a measure of
    /// how much simultaneous future the simulation keeps in flight.
    pub fn depth_high_water(&self) -> usize {
        self.depth_high_water
    }

    /// Calendar-queue gauges (bucket rotations, overflow refills, bucket
    /// high water).
    pub fn wheel_stats(&self) -> WheelStats {
        self.wheel.stats()
    }
}

/// The pop side requires `E: Clone`: the wheel's buckets hand entries out
/// by clone so the backing `Vec` can keep a cheap dead-prefix cursor
/// instead of shifting on every pop. Every event type in the workspace is
/// a small `Clone` enum, so this costs a plain copy.
impl<E: Clone> Scheduler<E> {
    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_before(Time::MAX)
    }

    /// Removes and returns the earliest event scheduled at or before
    /// `until`; `None` when no such event remains (later ones stay
    /// queued).
    pub fn pop_before(&mut self, until: Time) -> Option<(Time, E)> {
        let entry = self.wheel.pop_before(until)?;
        self.len -= 1;
        Some((entry.at, entry.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut s: Scheduler<u64> = Scheduler::new();
        for us in [50u64, 10, 30, 20, 40] {
            s.schedule(Time::from_micros(us), us);
        }
        let mut out = Vec::new();
        while let Some((t, e)) = s.pop() {
            assert_eq!(t.as_micros(), e);
            out.push(e);
        }
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let t = Time::from_micros(5);
        for i in 0..100 {
            s.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(s.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule(Time::from_micros(10), 1);
        assert_eq!(s.pop(), Some((Time::from_micros(10), 1)));
        s.schedule(Time::from_micros(30), 3);
        s.schedule(Time::from_micros(20), 2);
        assert_eq!(s.peek_time(), Some(Time::from_micros(20)));
        assert_eq!(s.pop().unwrap().1, 2);
        assert_eq!(s.pop().unwrap().1, 3);
        assert!(s.is_empty());
    }

    #[test]
    fn far_future_events_survive_the_overflow_path() {
        // Beyond the wheel horizon (65.536 ms) by orders of magnitude:
        // these take the overflow-heap path and come back on rotation.
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule(Time::from_secs(2), 2);
        s.schedule(Time::from_micros(7), 0);
        s.schedule(Time::from_secs(1), 1);
        s.schedule(Time::from_secs(3), 3);
        for want in 0..4 {
            assert_eq!(s.pop().unwrap().1, want);
        }
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn len_and_counters() {
        let mut s: Scheduler<u64> = Scheduler::new();
        assert!(s.is_empty());
        let base = Time::ZERO;
        for i in 0..10u64 {
            s.schedule(base + Duration::from_micros(i), i);
        }
        assert_eq!(s.len(), 10);
        assert_eq!(s.scheduled_total(), 10);
        s.pop();
        assert_eq!(s.len(), 9);
        assert_eq!(s.scheduled_total(), 10);
    }

    #[test]
    fn depth_high_water_tracks_peak_not_current() {
        let mut s: Scheduler<u64> = Scheduler::new();
        assert_eq!(s.depth_high_water(), 0);
        for i in 0..4 {
            s.schedule(Time::from_micros(i), i);
        }
        s.pop();
        s.pop();
        assert_eq!(s.len(), 2);
        assert_eq!(s.depth_high_water(), 4);
        // Refilling below the old peak leaves the high-water untouched.
        s.schedule(Time::from_micros(9), 9);
        assert_eq!(s.depth_high_water(), 4);
        // Exceeding it moves it.
        s.schedule(Time::from_micros(10), 10);
        s.schedule(Time::from_micros(11), 11);
        assert_eq!(s.depth_high_water(), 5);
    }

    #[test]
    fn pop_before_respects_the_horizon() {
        let mut s: Scheduler<u64> = Scheduler::new();
        s.schedule(Time::from_micros(10), 1);
        s.schedule(Time::from_micros(30), 3);
        assert_eq!(
            s.pop_before(Time::from_micros(20)),
            Some((Time::from_micros(10), 1))
        );
        assert_eq!(s.pop_before(Time::from_micros(20)), None);
        assert_eq!(s.len(), 1, "the later event must stay queued");
        assert_eq!(
            s.pop_before(Time::from_micros(30)),
            Some((Time::from_micros(30), 3))
        );
    }

    #[test]
    fn event_ids_are_unique_and_monotone() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let a = s.schedule_keyed(Time::from_micros(1), 0);
        let b = s.schedule_keyed(Time::from_micros(1), 0);
        assert!(b.seq > a.seq);
    }

    #[test]
    fn reschedule_moves_an_entry_in_place() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let h = s.schedule_keyed(Time::from_micros(10), 1);
        s.schedule(Time::from_micros(20), 2);
        assert_eq!(s.len(), 2);
        // Move the first entry past the second: it must pop second,
        // and under the seq a fresh schedule would have received.
        let h2 = s.reschedule(Some(h), Time::from_micros(30), 3);
        assert_eq!((h2.at, h2.seq), (Time::from_micros(30), 2));
        assert_eq!(s.len(), 2);
        assert_eq!(s.scheduled_total(), 2, "re-arm is not a fresh schedule");
        assert_eq!(s.rescheduled_total(), 1);
        assert_eq!(s.pop(), Some((Time::from_micros(20), 2)));
        assert_eq!(s.pop(), Some((Time::from_micros(30), 3)));
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn remove_then_reschedule_none_revives_a_parked_timer() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let h = s.schedule_keyed(Time::from_micros(10), 1);
        s.schedule(Time::from_micros(15), 2);
        assert!(s.remove(h));
        assert_eq!(s.len(), 1);
        assert_eq!(s.removed_total(), 1);
        assert_eq!(s.pop(), Some((Time::from_micros(15), 2)));
        let h2 = s.reschedule(None, Time::from_micros(40), 4);
        assert_eq!(h2.seq, 2);
        assert_eq!(s.pop(), Some((Time::from_micros(40), 4)));
        assert!(s.is_empty());
        assert_eq!(s.scheduled_total(), 2);
        assert_eq!(s.rescheduled_total(), 1);
    }

    #[test]
    fn remove_finds_entries_in_every_region() {
        // Near-future bucket, far-future overflow, and the behind-base
        // clamp case all resolve through the same keyed removal.
        let mut s: Scheduler<u64> = Scheduler::new();
        // Far future (wheel overflow).
        let far = s.schedule_keyed(Time::from_secs(2), 9);
        assert!(s.remove(far));
        // Advance the wheel deep into a later lap, then schedule
        // behind its base (the clamp path).
        s.schedule(Time::from_secs(1), 1);
        assert_eq!(s.pop(), Some((Time::from_secs(1), 1)));
        let behind = s.schedule_keyed(Time::from_micros(7), 2);
        let near = s.schedule_keyed(Time::from_secs(1) + Duration::from_micros(50), 3);
        assert!(s.remove(behind));
        assert!(s.remove(near));
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        assert_eq!(s.pop(), None);
        assert_eq!(s.removed_total(), 3);
    }

    #[test]
    fn removed_entries_never_surface_in_peek_or_pop() {
        let mut s: Scheduler<u64> = Scheduler::new();
        let doomed = s.schedule_keyed(Time::from_micros(5), 0);
        s.schedule(Time::from_micros(9), 1);
        assert_eq!(s.peek_time(), Some(Time::from_micros(5)));
        assert!(s.remove(doomed));
        assert_eq!(s.peek_time(), Some(Time::from_micros(9)));
        assert_eq!(s.pop(), Some((Time::from_micros(9), 1)));
    }

    #[test]
    fn wheel_reports_rotation_stats() {
        let mut s: Scheduler<u64> = Scheduler::new();
        // One near event, one far (overflow) event.
        s.schedule(Time::from_micros(100), 0);
        s.schedule(Time::from_secs(1), 1);
        assert_eq!(s.pop().unwrap().1, 0);
        assert_eq!(s.pop().unwrap().1, 1);
        let stats = s.wheel_stats();
        assert!(stats.rotations > 0, "cursor must have advanced");
        assert_eq!(stats.overflow_refills, 1, "the far event came back");
        assert!(stats.bucket_high_water >= 1);
    }
}
