//! The reference backend: a plain binary heap.
//!
//! O(log n) push/pop with the inverted `Entry` ordering (earliest
//! `(at, seq)` first). This is the original scheduler implementation,
//! kept as a test reference only: it has no tuning parameters and no
//! geometry, so it is the oracle the calendar queue is checked against
//! in lock-step (`tests/sched_equiv.rs`). No network runs on it.

use std::collections::BinaryHeap;

use super::{Cancelable, Entry};
use crate::time::Time;

/// Binary-heap event queue (see the module docs).
pub(crate) struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> HeapQueue<E> {
    pub(crate) fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    pub(crate) fn push(&mut self, entry: Entry<E>) {
        self.heap.push(entry);
    }

    /// Removes the pending entry with key `(at, seq)`; returns whether it
    /// was found. O(n) rebuild via `retain` — this backend is the oracle,
    /// not the fast path, and a physical removal keeps `peek_time` exact
    /// (a tombstone scheme would let a dead entry masquerade as the head).
    pub(crate) fn remove(&mut self, at: Time, seq: u64) -> bool {
        let before = self.heap.len();
        self.heap.retain(|e| e.seq != seq || e.at != at);
        self.heap.len() != before
    }

    /// Removes and returns the earliest *live* entry at or before `until`,
    /// consulting `cancel` on each entry in `(at, seq)` order and counting
    /// the stale ones it consumes into `skipped` (their `len` and
    /// `stale_drops` accounting stays with the wrapper). Mirrors the wheel
    /// backend's method of the same name so the wrapper's pop loop is a
    /// single backend call either way.
    pub(crate) fn pop_live_before<C: Cancelable<E>>(
        &mut self,
        until: Time,
        cancel: &mut C,
        skipped: &mut u64,
    ) -> Option<Entry<E>> {
        loop {
            if self.heap.peek()?.at > until {
                return None;
            }
            let entry = self.heap.pop().expect("peeked");
            if cancel.is_stale(entry.at, &entry.event) {
                *skipped += 1;
                continue;
            }
            return Some(entry);
        }
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }
}
