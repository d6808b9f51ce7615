//! Calendar queue vs binary-heap model.
//!
//! The scheduler must be observationally indistinguishable from the
//! plainest implementation of its contract: a binary heap over
//! `(at, seq)` with its own sequence counter and its own accounting
//! ([`HeapModel`]). Both must agree on pop sequences (times and payloads)
//! and on bookkeeping (`len`, `depth_high_water`, `scheduled_total`,
//! `rescheduled_total`, `removed_total`, `peek_time`). This harness
//! drives both with the same randomized schedule/move/remove workload —
//! short DCF-like timers, same-instant FIFO ties, deep-overflow events
//! past the wheel horizon, keyed reschedule and park storms, and
//! `pop_before` horizons that slice the run arbitrarily — and asserts
//! lock-step equality after every operation.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ezflow_sim::{Scheduler, SimRng, Time, TimerHandle};
use proptest::prelude::*;

/// Event payload: an owner plus a unique tag for identity checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    owner: usize,
    tag: u64,
}

const OWNERS: usize = 8;

/// A pending model entry's total-order key.
type Key = (Time, u64);

/// The reference: the scheduler's contract as a plain binary heap, with
/// every counter kept here rather than read from the scheduler.
#[derive(Default)]
struct HeapModel {
    /// Pending entries, earliest `(at, seq)` on top (`Ev` never breaks a
    /// tie: the key is unique).
    queue: BinaryHeap<Reverse<(Time, u64, Ev)>>,
    next_seq: u64,
    depth_high_water: usize,
    scheduled: u64,
    rescheduled: u64,
    removed: u64,
}

impl HeapModel {
    /// Queues `ev` at `at` under the next sequence number.
    fn push(&mut self, at: Time, ev: Ev) -> Key {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((at, seq, ev)));
        self.depth_high_water = self.depth_high_water.max(self.queue.len());
        (at, seq)
    }

    fn schedule(&mut self, at: Time, ev: Ev) -> Key {
        self.scheduled += 1;
        self.push(at, ev)
    }

    fn reschedule(&mut self, prev: Option<Key>, at: Time, ev: Ev) -> Key {
        if let Some(key) = prev {
            assert!(self.take(key), "the model lost a live key");
        }
        self.rescheduled += 1;
        self.push(at, ev)
    }

    fn remove(&mut self, key: Key) -> bool {
        let found = self.take(key);
        self.removed += u64::from(found);
        found
    }

    /// Drops the entry under `key`; whether it was pending.
    fn take(&mut self, key: Key) -> bool {
        let before = self.queue.len();
        self.queue
            .retain(|Reverse((at, seq, _))| (*at, *seq) != key);
        self.queue.len() != before
    }

    fn pop_before(&mut self, until: Time) -> Option<(Time, Ev)> {
        if self.queue.peek()?.0 .0 > until {
            return None;
        }
        self.queue.pop().map(|Reverse((at, _, ev))| (at, ev))
    }

    fn peek_time(&self) -> Option<Time> {
        self.queue.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// `rng.gen_range` with u64 ergonomics for this file's workload mixes.
fn below(rng: &mut SimRng, bound: u64) -> u64 {
    rng.gen_range(bound as u32) as u64
}

struct Pair {
    heap: HeapModel,
    wheel: Scheduler<Ev>,
    /// Live key pairs `(tag, model key, scheduler handle)` for keyed
    /// entries still pending in both queues.
    handles: Vec<(u64, Key, TimerHandle)>,
    /// Logical timers currently parked (removed, awaiting revival).
    parked: usize,
    now: u64,
    next_tag: u64,
}

impl Pair {
    fn new() -> Self {
        Pair {
            heap: HeapModel::default(),
            wheel: Scheduler::new(),
            handles: Vec::new(),
            parked: 0,
            now: 0,
            next_tag: 0,
        }
    }

    /// The next event for `owner`, under a fresh tag.
    fn ev(&mut self, owner: usize) -> Ev {
        let tag = self.next_tag;
        self.next_tag += 1;
        Ev { owner, tag }
    }

    fn schedule(&mut self, delta_us: u64, owner: usize) {
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.ev(owner);
        self.heap.schedule(at, ev);
        self.wheel.schedule(at, ev);
        self.check();
    }

    /// Schedules a keyed entry and tracks its handles.
    fn schedule_keyed(&mut self, delta_us: u64, owner: usize) {
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.ev(owner);
        let a = self.heap.schedule(at, ev);
        let b = self.wheel.schedule_keyed(at, ev);
        self.handles.push((ev.tag, a, b));
        self.check();
    }

    /// Moves the `pick`-th live keyed entry to a new instant in place.
    fn reschedule(&mut self, pick: usize, delta_us: u64) {
        if self.handles.is_empty() {
            return;
        }
        let i = pick % self.handles.len();
        let (_, ka, hb) = self.handles[i];
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.ev(pick % OWNERS);
        let a = self.heap.reschedule(Some(ka), at, ev);
        let b = self.wheel.reschedule(Some(hb), at, ev);
        self.handles[i] = (ev.tag, a, b);
        self.check();
    }

    /// Parks the `pick`-th live keyed entry (physical removal).
    fn park(&mut self, pick: usize) {
        if self.handles.is_empty() {
            return;
        }
        let i = pick % self.handles.len();
        let (_, ka, hb) = self.handles.swap_remove(i);
        assert!(self.heap.remove(ka), "the model lost a live key");
        assert!(self.wheel.remove(hb), "the scheduler lost a live handle");
        self.parked += 1;
        self.check();
    }

    /// Revives one parked logical timer as a reschedule without a
    /// predecessor.
    fn resume(&mut self, delta_us: u64, owner: usize) {
        if self.parked == 0 {
            return;
        }
        self.parked -= 1;
        let at = Time::from_micros(self.now + delta_us);
        let ev = self.ev(owner);
        let a = self.heap.reschedule(None, at, ev);
        let b = self.wheel.reschedule(None, at, ev);
        self.handles.push((ev.tag, a, b));
        self.check();
    }

    /// Pops one event from each queue up to `until`, asserting both
    /// return the same thing.
    fn pop_before(&mut self, until: Time) -> Option<(Time, Ev)> {
        let a = self.heap.pop_before(until);
        let b = self.wheel.pop_before(until);
        assert_eq!(a, b, "pop sequences must match");
        if let Some((t, ev)) = a {
            assert!(t.as_micros() >= self.now, "time went backwards");
            self.now = t.as_micros();
            // The entry left the queue: if it was keyed, its handles are
            // dead.
            self.handles.retain(|(tag, _, _)| *tag != ev.tag);
        } else if until != Time::MAX {
            self.now = until.as_micros();
        }
        self.check();
        a
    }

    /// Lock-step bookkeeping equality: the scheduler's counters against
    /// the model's own.
    fn check(&self) {
        let (m, s) = (&self.heap, &self.wheel);
        assert_eq!(m.queue.len(), s.len());
        assert_eq!(m.queue.is_empty(), s.is_empty());
        assert_eq!(m.scheduled, s.scheduled_total());
        assert_eq!(
            m.depth_high_water,
            s.depth_high_water(),
            "high-water accounting diverged"
        );
        assert_eq!(m.rescheduled, s.rescheduled_total());
        assert_eq!(m.removed, s.removed_total());
        assert_eq!(m.peek_time(), s.peek_time());
    }

    /// Drains both queues to empty, comparing every pop.
    fn drain(&mut self) {
        while self.pop_before(Time::MAX).is_some() {}
        assert!(self.heap.queue.is_empty() && self.wheel.is_empty());
    }
}

/// Which operation generator [`run_workload`] draws from.
#[derive(Clone, Copy)]
enum Mix {
    /// Schedule-heavy, with keyed churn and arbitrary pop horizons.
    Uniform,
    /// The engine's shape: one slot-granular backoff timer per owner.
    Dcf,
}

/// One [`Mix::Uniform`] operation.
fn uniform_op(pair: &mut Pair, rng: &mut SimRng) {
    // Shared delta mix: mostly short DCF-like horizons, with tie
    // pressure, around-the-horizon and deep-overflow tails.
    let delta = match below(rng, 10) {
        0..=4 => below(rng, 2_048),          // slots, SIFS/DIFS, ACK timeouts
        5..=6 => below(rng, 4) * 20,         // same-instant / same-slot ties
        7..=8 => 61_000 + below(rng, 9_000), // straddles the 65.536 ms horizon
        _ => below(rng, 3_000_000),          // far future (overflow heap)
    };
    let owner = below(rng, OWNERS as u64) as usize;
    match below(rng, 90) {
        0..=39 => pair.schedule(delta, owner),
        40..=49 => pair.schedule_keyed(delta, owner),
        // In-place reschedule storm: move a live keyed entry,
        // possibly across the bucket/overflow boundary.
        50..=61 => {
            let pick = below(rng, 1 << 30) as usize;
            pair.reschedule(pick, delta);
        }
        62..=66 => {
            let pick = below(rng, 1 << 30) as usize;
            pair.park(pick);
        }
        67..=69 => pair.resume(delta, owner),
        _ => {
            let until = Time::from_micros(pair.now + below(rng, 100_000));
            pair.pop_before(until);
        }
    }
}

/// One [`Mix::Dcf`] operation. [`OWNERS`] logical backoff timers, each
/// idle, armed or parked like the engine's per-MAC timer slot: arming
/// one picks the verb the engine would (`reschedule(Some)` for an armed
/// slot, `reschedule(None)` for a parked one, `schedule_keyed` for an
/// idle one) at DIFS plus a whole number of 20 µs slots, so several
/// countdowns started from one `now` expire at the same instant. Around
/// them: medium-busy freezes (`remove`), unkeyed frame timers, and
/// source arrivals past the 65.536 ms wheel horizon, so the overflow
/// heap refills buckets while the timers churn.
fn dcf_op(pair: &mut Pair, rng: &mut SimRng) {
    const SLOT: u64 = 20;
    const DIFS: u64 = 50;
    let timer = below(rng, OWNERS as u64) as usize;
    match below(rng, 15) {
        0..=6 => {
            let backoff = DIFS + below(rng, 16) * SLOT;
            let armed = pair.handles.len();
            if timer < armed {
                pair.reschedule(timer, backoff);
            } else if timer < armed + pair.parked {
                pair.resume(backoff, timer);
            } else {
                pair.schedule_keyed(backoff, timer);
            }
        }
        7..=8 => pair.park(timer),
        // ACK timeout or end of a data frame.
        9 => pair.schedule(304 + below(rng, 2) * 8_192, timer),
        // Next source arrival: far enough out to land in the overflow heap
        // even when the cursor has run ahead of `now` to a frame timer.
        10 => pair.schedule(70_000 + below(rng, 30_000), timer),
        _ => {
            let until = Time::from_micros(pair.now + below(rng, 2_000));
            while pair.pop_before(until).is_some() {}
        }
    }
}

/// One randomized workload of `ops` operations drawn from `mix`, then a
/// full drain.
fn run_workload(seed: u64, ops: usize, mix: Mix) {
    let mut rng = SimRng::new(seed);
    let mut pair = Pair::new();
    for _ in 0..ops {
        match mix {
            Mix::Uniform => uniform_op(&mut pair, &mut rng),
            Mix::Dcf => dcf_op(&mut pair, &mut rng),
        }
    }
    if let Mix::Dcf = mix {
        // The point of the mix: all three timer verbs ran, and overflow
        // entries came back into buckets before the final drain.
        assert!(pair.wheel.rescheduled_total() > 0 && pair.wheel.removed_total() > 0);
        assert!(pair.wheel.wheel_stats().overflow_refills > 0);
    }
    pair.drain();
}

proptest! {
    #[test]
    fn heap_and_wheel_agree_on_random_workloads(seed in any::<u64>()) {
        run_workload(seed, 400, Mix::Uniform);
        run_workload(seed, 400, Mix::Dcf);
    }

    /// Keyed churn under horizon slicing: `remove`/`reschedule` storms
    /// interleaved with small `pop_before` horizons, so entries are moved
    /// and parked *while* the wheel rotates bucket by bucket instead of
    /// draining in one sweep.
    #[test]
    fn keyed_churn_under_horizon_slicing_stays_in_lock_step(
        seed in any::<u64>(),
        slice_us in 1u64..150_000,
    ) {
        let mut rng = SimRng::new(seed);
        let mut pair = Pair::new();
        for i in 0..16 {
            pair.schedule_keyed(below(&mut rng, 2_048), i % OWNERS);
        }
        for step in 0..250usize {
            // Delta mix biased to straddle bucket and horizon boundaries,
            // so keyed moves cross the bucket/overflow seam mid-rotation.
            let delta = match below(&mut rng, 6) {
                0 => below(&mut rng, 256),
                1 => below(&mut rng, 4) * 20,
                2 => 60_000 + below(&mut rng, 12_000),
                3 => 65_536 + below(&mut rng, 128),
                _ => below(&mut rng, 1_500_000),
            };
            match below(&mut rng, 9) {
                0..=3 => pair.reschedule(below(&mut rng, 1 << 30) as usize, delta),
                4 => pair.park(below(&mut rng, 1 << 30) as usize),
                5 => pair.resume(delta, step % OWNERS),
                6 => pair.schedule_keyed(delta, step % OWNERS),
                7 => pair.schedule(delta, step % OWNERS),
                _ => {
                    // Advance through several thin horizon slices rather
                    // than one big drain: rotation happens under churn.
                    for _ in 0..3 {
                        let until = Time::from_micros(pair.now + slice_us);
                        while pair.pop_before(until).is_some() {}
                    }
                }
            }
        }
        pair.drain();
    }
}

#[test]
fn same_instant_fifo_ties_pop_identically() {
    let mut pair = Pair::new();
    for i in 0..64 {
        pair.schedule(100, i % OWNERS);
    }
    let mut tags = Vec::new();
    while let Some((at, ev)) = pair.pop_before(Time::from_micros(100)) {
        assert_eq!(at, Time::from_micros(100));
        tags.push(ev.tag);
    }
    let mut sorted = tags.clone();
    sorted.sort_unstable();
    assert_eq!(tags.len(), 64);
    assert_eq!(tags, sorted, "ties must pop in schedule (FIFO) order");
}

#[test]
fn reschedule_storm_stays_in_lock_step() {
    // A dense in-place reschedule storm — every keyed entry moved many
    // times, crossing the wheel's bucket/overflow boundary in both
    // directions and mixing with parks, revivals and unkeyed bystanders
    // — must keep the scheduler and the model in lock-step.
    let mut rng = SimRng::new(77);
    let mut pair = Pair::new();
    for i in 0..24 {
        pair.schedule_keyed(below(&mut rng, 2_048), i % OWNERS);
        pair.schedule(below(&mut rng, 2_048), i % OWNERS);
    }
    for step in 0..600 {
        let delta = match below(&mut rng, 4) {
            0 => below(&mut rng, 512),
            1 => below(&mut rng, 4) * 20,
            2 => 60_000 + below(&mut rng, 12_000),
            _ => below(&mut rng, 1_000_000),
        };
        match below(&mut rng, 9) {
            0..=5 => pair.reschedule(below(&mut rng, 1 << 30) as usize, delta),
            6 => pair.park(below(&mut rng, 1 << 30) as usize),
            7 => pair.resume(delta, step % OWNERS),
            _ => {
                let until = Time::from_micros(pair.now + below(&mut rng, 5_000));
                pair.pop_before(until);
            }
        }
    }
    assert!(
        pair.heap.rescheduled > 100,
        "the storm must actually reschedule"
    );
    pair.drain();
}

#[test]
fn horizon_slicing_never_changes_decisions() {
    // Slicing the same workload into many tiny pop_before horizons must
    // give the same pop sequence and final accounting as one big drain.
    let run = |slice_us: u64| {
        let mut rng = SimRng::new(9);
        let mut pair = Pair::new();
        for _ in 0..100 {
            let delta = below(&mut rng, 50_000);
            let owner = below(&mut rng, OWNERS as u64) as usize;
            pair.schedule(delta, owner);
        }
        let mut popped = Vec::new();
        let mut until = 0;
        while !pair.wheel.is_empty() {
            until += slice_us;
            while let Some((t, ev)) = pair.pop_before(Time::from_micros(until)) {
                popped.push((t, ev.tag));
            }
        }
        assert_eq!(popped.len(), 100);
        (popped, pair.wheel.depth_high_water())
    };
    assert_eq!(run(100), run(1_000_000));
}
