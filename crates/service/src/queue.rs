//! The bounded MPMC queue behind the retrain workers and the wire
//! executor pool.
//!
//! `std::sync::mpsc` hides its depth and has a single consumer, so this
//! is a small purpose-built queue over the `parking_lot` shim's
//! `Mutex` and `Condvar`: non-blocking bounded producers (full is an
//! admission-control rejection, never a stall on the client's hot path),
//! blocking consumers, an exact [`BoundedQueue::len`] for the
//! queue-depth stat, and close semantics for shutdown (producers are
//! rejected, consumers drain what is left and then see end-of-queue).
//! A condvar is notified only when a thread is parked on it (an
//! uncontended hand-off makes no wake syscall), and one consumer at a
//! time: a woken consumer that leaves items behind wakes the next, so a
//! burst of pushes does not turn every idle consumer runnable at once.
//!
//! [`ShardedQueue`] splays the service's update traffic across N such
//! queues — one per retrain worker — by tenant hash: every tenant's
//! reports land on exactly one shard (preserving the tenant's FIFO
//! order), while distinct tenants on distinct shards retrain in parallel.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Why a push was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushRejected {
    /// The queue is at capacity.
    Full,
    /// The queue has been closed (shutting down).
    Closed,
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    /// Consumers parked on `not_empty`.
    parked_consumers: usize,
    /// Producers parked on `not_full`.
    parked_producers: usize,
    /// A consumer has been notified and is not back yet.
    consumer_waking: bool,
}

impl<T> Inner<T> {
    /// Whether to wake a parked consumer: not while another is on its way.
    /// Waking every idle executor for a burst of jobs lets them crowd the
    /// retrain workers off a shared core.
    fn claim_consumer_wake(&mut self) -> bool {
        let wake = self.parked_consumers > 0 && !self.consumer_waking;
        self.consumer_waking |= wake;
        wake
    }
}

/// A bounded multi-producer multi-consumer queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items; panics on zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity.min(1024)),
                closed: false,
                parked_consumers: 0,
                parked_producers: 0,
                consumer_waking: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// Attempts to enqueue without blocking.
    pub fn try_push(&self, item: T) -> Result<(), PushRejected> {
        self.push(item, false)
    }

    /// Enqueues, blocking while the queue is full. Only fails once the
    /// queue is closed. For control messages (flush) that must get in
    /// without burning CPU; data producers use the non-blocking
    /// [`BoundedQueue::try_push`] so backpressure stays a rejection.
    pub(crate) fn push_blocking(&self, item: T) -> Result<(), PushRejected> {
        self.push(item, true)
    }

    fn push(&self, item: T, block: bool) -> Result<(), PushRejected> {
        let mut inner = self.inner.lock();
        while inner.items.len() >= self.capacity && !inner.closed {
            if !block {
                return Err(PushRejected::Full);
            }
            inner.parked_producers += 1;
            self.not_full.wait(&mut inner);
            inner.parked_producers -= 1;
        }
        if inner.closed {
            return Err(PushRejected::Closed);
        }
        inner.items.push_back(item);
        let wake = inner.claim_consumer_wake();
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(item) = inner.items.pop_front() {
                let wake_producer = inner.parked_producers > 0;
                let wake_consumer = !inner.items.is_empty() && inner.claim_consumer_wake();
                drop(inner);
                if wake_producer {
                    self.not_full.notify_one();
                }
                if wake_consumer {
                    self.not_empty.notify_one();
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner.parked_consumers += 1;
            self.not_empty.wait(&mut inner);
            inner.parked_consumers -= 1;
            inner.consumer_waking = false;
        }
    }

    /// Dequeues up to `n` immediately available items without blocking.
    pub(crate) fn drain_up_to(&self, n: usize) -> Vec<T> {
        let mut inner = self.inner.lock();
        let take = n.min(inner.items.len());
        let items: Vec<T> = inner.items.drain(..take).collect();
        let wake = !items.is_empty() && inner.parked_producers > 0;
        drop(inner);
        if wake {
            self.not_full.notify_all();
        }
        items
    }

    /// Re-enqueues `items` at the *front* of the queue, preserving their
    /// order ahead of everything queued behind them.
    ///
    /// This is the worker-panic rescue path: the items were already
    /// admitted (and counted against capacity/quota) once, so readmission
    /// deliberately ignores the capacity bound — the queue may transiently
    /// exceed it by at most one worker batch — and ignores `closed`, so a
    /// restarted worker can still drain rescued work during shutdown.
    pub(crate) fn requeue_front(&self, items: Vec<T>) {
        let mut inner = self.inner.lock();
        for item in items.into_iter().rev() {
            inner.items.push_front(item);
        }
        let wake = inner.parked_consumers > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_all();
        }
    }

    /// Current depth.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().items.len()
    }

    /// Whether [`BoundedQueue::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        self.inner.lock().closed
    }

    /// Closes the queue: producers are rejected from now on; consumers
    /// drain the remaining items and then see end-of-queue.
    pub fn close(&self) {
        let mut inner = self.inner.lock();
        inner.closed = true;
        let (consumers, producers) = (inner.parked_consumers > 0, inner.parked_producers > 0);
        drop(inner);
        if consumers {
            self.not_empty.notify_all();
        }
        if producers {
            self.not_full.notify_all();
        }
    }
}

/// N tenant-hash-sharded [`BoundedQueue`]s, one per retrain worker.
///
/// The total configured capacity is divided evenly across shards
/// (rounded up, minimum one slot each), so configuring a service for
/// `queue_capacity` reports admits roughly that many regardless of the
/// worker count.
#[derive(Debug)]
pub(crate) struct ShardedQueue<T> {
    shards: Box<[Arc<BoundedQueue<T>>]>,
    shard_capacity: usize,
}

impl<T> ShardedQueue<T> {
    /// Creates `shards` queues sharing `total_capacity` slots.
    pub(crate) fn new(shards: usize, total_capacity: usize) -> Self {
        assert!(shards > 0, "at least one queue shard required");
        let shard_capacity = total_capacity.div_ceil(shards).max(1);
        ShardedQueue {
            shards: (0..shards)
                .map(|_| Arc::new(BoundedQueue::new(shard_capacity)))
                .collect(),
            shard_capacity,
        }
    }

    /// The per-shard capacity (what a `QueueFull` rejection reports).
    pub(crate) fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of shards (= retrain workers).
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a tenant hash routes to.
    pub(crate) fn shard_of(&self, tenant_hash: u64) -> usize {
        (tenant_hash as usize) % self.shards.len()
    }

    /// Every shard in index order (each worker thread holds a clone of
    /// its own).
    pub(crate) fn shards(&self) -> &[Arc<BoundedQueue<T>>] {
        &self.shards
    }

    /// Non-blocking push onto a specific shard.
    pub(crate) fn try_push(&self, shard: usize, item: T) -> Result<(), PushRejected> {
        // lint:allow(panic-free-server-paths, reason = "shard comes from shard_of(), which is modulo shards.len()")
        self.shards[shard].try_push(item)
    }

    /// Blocking push onto a specific shard (control messages only).
    pub(crate) fn push_blocking(&self, shard: usize, item: T) -> Result<(), PushRejected> {
        // lint:allow(panic-free-server-paths, reason = "shard comes from shard_of(), which is modulo shards.len()")
        self.shards[shard].push_blocking(item)
    }

    /// Per-shard depths, indexed by shard.
    pub(crate) fn depths(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.len()).collect()
    }

    /// Whether [`ShardedQueue::close`] has been called.
    pub(crate) fn is_closed(&self) -> bool {
        // Shards are only ever closed together, so one speaks for all.
        self.shards[0].is_closed()
    }

    /// Closes every shard.
    pub(crate) fn close(&self) {
        for shard in self.shards.iter() {
            shard.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_fifo_with_backpressure() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushRejected::Full));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
        assert_eq!(q.drain_up_to(10), vec![2, 3]);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn close_rejects_producers_and_drains_consumer() {
        let q = BoundedQueue::new(4);
        q.try_push("a").unwrap();
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push("b"), Err(PushRejected::Closed));
        assert_eq!(q.pop(), Some("a"));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_blocking_parks_until_space_and_fails_closed() {
        let q = BoundedQueue::new(1);
        q.try_push(0).unwrap();
        // A parked producer wakes when a consumer pops or drains a slot free.
        for (next, drain) in [(1, false), (2, true)] {
            std::thread::scope(|s| {
                let producer = s.spawn(|| q.push_blocking(next));
                wait_until(&q, |i| i.parked_producers == 1);
                let freed = if drain {
                    q.drain_up_to(10)
                } else {
                    q.pop().into_iter().collect()
                };
                assert_eq!(freed, vec![next - 1]);
                producer.join().unwrap().unwrap();
            });
        }
        assert_eq!(q.pop(), Some(2));
        q.close();
        assert_eq!(q.push_blocking(3), Err(PushRejected::Closed));
    }

    #[test]
    fn sharded_queue_routes_and_splits_capacity() {
        let q: ShardedQueue<u32> = ShardedQueue::new(4, 10);
        assert_eq!(q.shard_count(), 4);
        assert_eq!(q.shard_capacity(), 3, "10 slots over 4 shards, rounded up");
        // Same hash, same shard, always.
        assert_eq!(q.shard_of(42), q.shard_of(42));
        q.try_push(1, 7).unwrap();
        q.try_push(1, 8).unwrap();
        q.try_push(2, 9).unwrap();
        assert_eq!(q.depths(), vec![0, 2, 1, 0]);
        assert_eq!(q.depths().iter().sum::<usize>(), 3);
        q.try_push(1, 10).unwrap();
        assert_eq!(q.try_push(1, 11), Err(PushRejected::Full));
        // Shard 1 is full, but other shards still admit.
        q.try_push(0, 12).unwrap();
        assert!(!q.is_closed());
        q.close();
        assert!(q.is_closed());
        assert_eq!(q.try_push(3, 13), Err(PushRejected::Closed));
        // Consumers drain what was admitted before the close.
        assert_eq!(q.shards()[1].pop(), Some(7));
    }

    #[test]
    fn requeue_front_preserves_order_and_ignores_caps() {
        let q = BoundedQueue::new(2);
        q.try_push(3).unwrap();
        q.try_push(4).unwrap();
        // Rescue two "already admitted" items ahead of the queue, past
        // the capacity bound.
        q.requeue_front(vec![1, 2]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        // Rescue still works after close (shutdown-time worker panic);
        // the consumer drains it before seeing end-of-queue.
        q.close();
        q.requeue_front(vec![0]);
        assert_eq!(q.pop(), Some(0));
        assert_eq!(q.pop(), Some(4));
        assert_eq!(q.pop(), None);
    }

    /// Spins until `q`'s state satisfies `parked`.
    fn wait_until<T>(q: &BoundedQueue<T>, parked: fn(&Inner<T>) -> bool) {
        while !parked(&q.inner.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn blocking_pop_wakes_on_push_and_close() {
        // Three consumers: each item is popped exactly once, none is left
        // behind while all park, and the close wakes every parked consumer.
        let q = BoundedQueue::new(4);
        let mut seen: Vec<u32> = std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| s.spawn(|| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>()))
                .collect();
            for i in 0..200 {
                while q.try_push(i) == Err(PushRejected::Full) {
                    std::thread::yield_now();
                }
            }
            wait_until(&q, |i| i.parked_consumers == 3 && i.items.is_empty());
            q.close();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect()
        });
        seen.sort_unstable();
        assert_eq!(seen, (0..200).collect::<Vec<_>>());
    }
}
