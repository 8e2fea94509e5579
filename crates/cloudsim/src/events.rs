//! A generic discrete-event queue.
//!
//! Events fire in non-decreasing time order; ties break by insertion order
//! (FIFO), which keeps simulations deterministic regardless of heap
//! internals.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A time-ordered queue of simulation events.
///
/// # Example
///
/// ```
/// use smartpick_cloudsim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(20), "late");
/// q.push(SimTime::from_millis(10), "early");
/// q.push(SimTime::from_millis(10), "early-second");
///
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(10), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(20), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time (then lowest
        // sequence number) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Removes and returns the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.time, e.event))
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

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 'b');
        q.push(SimTime::from_millis(1), 'a');
        q.push(SimTime::from_millis(9), 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(42), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
