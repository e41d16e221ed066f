//! The pending-event queue: a time-ordered priority queue with FIFO
//! tie-breaking.
//!
//! Events scheduled for the same millisecond fire in the order they were
//! scheduled. This matters for determinism: a cluster heartbeat and an
//! application reaction at the same timestamp must interleave identically
//! across runs, or two runs with the same seed would produce different logs.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Millis;

/// A scheduled entry; ordered by `(time, seq)` so the heap pops the earliest
/// event, breaking ties in insertion order.
struct Entry<E> {
    at: Millis,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
        // Reversed: BinaryHeap is a max-heap and we want the earliest entry.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Time-ordered event queue with deterministic FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Millis, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Millis, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// The timestamp of the earliest pending event.
    pub(crate) fn peek_time(&self) -> Option<Millis> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Millis(30), "c");
        q.push(Millis(10), "a");
        q.push(Millis(20), "b");
        assert_eq!(q.pop(), Some((Millis(10), "a")));
        assert_eq!(q.pop(), Some((Millis(20), "b")));
        assert_eq!(q.pop(), Some((Millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Millis(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Millis(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Millis(10), 1);
        q.push(Millis(10), 2);
        assert_eq!(q.pop(), Some((Millis(10), 1)));
        q.push(Millis(10), 3);
        // 2 was scheduled before 3, so it still comes first.
        assert_eq!(q.pop(), Some((Millis(10), 2)));
        assert_eq!(q.pop(), Some((Millis(10), 3)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Millis(7), ());
        q.push(Millis(3), ());
        assert_eq!(q.peek_time(), Some(Millis(3)));
        assert_eq!(q.len(), 2);
    }
}
