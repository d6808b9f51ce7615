//! The reference backend: a plain binary heap.
//!
//! O(log n) push/pop with the inverted `Entry` ordering (earliest
//! `(at, seq)` first). This is the original scheduler implementation,
//! kept as a test reference only: it has no tuning parameters and no
//! geometry, so it is the oracle the calendar queue is checked against
//! in lock-step (`tests/sched_equiv.rs`). No network runs on it.

use std::collections::BinaryHeap;

use super::Entry;
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

    /// Removes and returns the earliest entry if it is at or before
    /// `until`.
    pub(crate) fn pop_before(&mut self, until: Time) -> Option<Entry<E>> {
        if self.heap.peek()?.at > until {
            return None;
        }
        self.heap.pop()
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }
}
