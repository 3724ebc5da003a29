//! Hermetic scoped thread pool for the Muffin workspace.
//!
//! `muffin-par` replaces what `rayon` would provide with the one primitive
//! the search actually needs: map a closure over a slice on a fixed number
//! of OS threads and collect the results **in input order**. It is built
//! entirely on `std` (`thread::scope`, an atomic work counter and an mpsc
//! channel), so the workspace stays dependency-free.
//!
//! Guarantees:
//!
//! - **Deterministic collection** — `WorkerPool::map` returns results
//!   indexed exactly like the input slice, independent of which worker ran
//!   which item or in what order they finished. A caller that feeds
//!   deterministic per-item inputs (e.g. pre-derived seeds) therefore gets
//!   bit-identical output at any worker count, including 1.
//! - **Panic propagation** — a panic inside the closure unwinds out of
//!   `map` on the calling thread (via `std::thread::scope`'s join) instead
//!   of deadlocking or being silently dropped.
//! - **No oversubscription** — at most `workers` threads run at once; the
//!   work queue is a single atomic counter, so items are handed out with
//!   no per-item allocation or locking.
//!
//! # Example
//!
//! ```
//! use muffin_par::WorkerPool;
//!
//! let pool = WorkerPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

#![deny(missing_docs)]

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};

/// Number of hardware threads, falling back to 1 where it cannot be
/// queried (the value `--workers` defaults to in the CLI).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A fixed-width scoped thread pool.
///
/// The pool holds no threads between calls: each [`WorkerPool::map`]
/// spawns its workers inside a `std::thread::scope`, which lets the closure
/// borrow from the caller's stack (the search borrows its model pool and
/// datasets) without `Arc` or `'static` bounds, and joins them before
/// returning. Spawn cost is microseconds against the multi-millisecond
/// candidate evaluations it schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// A pool running `workers` threads per map (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
        }
    }

    /// The single-threaded pool: `map` runs inline on the calling thread.
    pub fn serial() -> Self {
        Self::new(1)
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning results in input order.
    ///
    /// `f` receives the item index alongside the item so callers can pair
    /// results with pre-derived per-item state (seeds, labels) without
    /// capturing mutable bookkeeping.
    ///
    /// # Panics
    ///
    /// Re-raises (on the calling thread) any panic raised by `f` on a
    /// worker thread.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                let tx = tx.clone();
                let (next, f) = (&next, &f);
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // A send can only fail if the receiver was dropped,
                    // which cannot happen while the scope is alive.
                    if tx.send((i, f(i, &items[i]))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // The scope joins every worker here and re-raises the first
            // panic, so a poisoned map never returns partial results.
        });

        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in rx {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every index mapped exactly once"))
            .collect()
    }
}

#[derive(Debug)]
struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer multi-consumer queue with **load-shedding**
/// admission: [`BoundedQueue::try_push`] never blocks — when the queue is
/// full the item comes straight back to the caller, which is the
/// backpressure signal a serving admission queue needs (reject loudly
/// rather than stall every client).
///
/// Consumers block in [`BoundedQueue::pop`] until an item arrives or the
/// queue is closed *and* drained, so a fixed set of long-lived worker
/// threads can loop on `pop` and exit cleanly at shutdown. Built on
/// `Mutex` + `Condvar` only.
///
/// # Example
///
/// ```
/// use muffin_par::BoundedQueue;
///
/// let q = BoundedQueue::new(2);
/// assert!(q.try_push(1).is_ok());
/// assert!(q.try_push(2).is_ok());
/// assert_eq!(q.try_push(3), Err(3)); // full: shed, never block
/// q.close();
/// assert_eq!(q.pop(), Some(1)); // close still drains queued items
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None); // closed and empty
/// ```
#[derive(Debug)]
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Attempts to enqueue `item` without blocking.
    ///
    /// # Errors
    ///
    /// Returns the item back when the queue is at capacity (the caller
    /// sheds the request) or already closed.
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.closed || state.items.len() >= self.capacity {
            return Err(item);
        }
        state.items.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Dequeues the oldest item, blocking while the queue is empty but
    /// still open. Returns `None` once the queue is closed **and**
    /// drained — the worker-loop exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue poisoned");
        }
    }

    /// Dequeues the oldest item if one is ready, never blocking — the
    /// batching path: a worker takes one job via [`BoundedQueue::pop`]
    /// and then coalesces whatever else is already waiting.
    pub fn try_pop(&self) -> Option<T> {
        self.state.lock().expect("queue poisoned").items.pop_front()
    }

    /// Closes the queue: subsequent pushes fail, queued items still drain,
    /// and blocked consumers wake up (returning `None` once empty).
    pub fn close(&self) {
        self.state.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..100).collect();
        // Make later items finish first so ordering must come from the
        // index bookkeeping, not completion order.
        let out = pool.map(&items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn closure_sees_matching_index() {
        let pool = WorkerPool::new(3);
        let items = vec![10u64, 20, 30, 40, 50];
        let out = pool.map(&items, |i, &x| (i, x));
        for (i, (seen_i, x)) in out.iter().enumerate() {
            assert_eq!(*seen_i, i);
            assert_eq!(*x, items[i]);
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        let pool = WorkerPool::new(8);
        assert_eq!(pool.map(&Vec::<u32>::new(), |_, &x| x), Vec::<u32>::new());
        assert_eq!(pool.map(&[9u32], |_, &x| x + 1), vec![10]);
    }

    #[test]
    fn zero_workers_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.map(&[1, 2, 3], |_, &x: &i32| x), vec![1, 2, 3]);
    }

    #[test]
    fn more_workers_than_items_is_fine() {
        let pool = WorkerPool::new(64);
        let out = pool.map(&[1u8, 2, 3], |_, &x| x as u32);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn worker_panic_propagates() {
        // Expected panics on worker threads would spam the test log via the
        // default hook; silence it for the duration.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..32).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                if x == 13 {
                    panic!("unlucky item");
                }
                x
            })
        }));
        std::panic::set_hook(prev);
        assert!(caught.is_err(), "panic must unwind out of map");
    }

    #[test]
    fn auto_pool_has_at_least_one_worker() {
        assert!(available_parallelism() >= 1);
        assert!(WorkerPool::new(available_parallelism()).workers() >= 1);
    }

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_after_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "full queue must shed");
        q.close();
        assert_eq!(q.try_push(4), Err(4), "closed queue rejects pushes");
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_pop(), Some(2));
        assert_eq!(q.pop(), None, "closed and drained");
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    fn bounded_queue_zero_capacity_clamps_to_one() {
        let q = BoundedQueue::new(0);
        assert!(q.try_push(7).is_ok());
        assert_eq!(q.try_push(8), Err(8));
    }

    #[test]
    fn bounded_queue_blocked_consumers_wake_on_close() {
        let q = BoundedQueue::<u32>::new(4);
        std::thread::scope(|s| {
            let consumers: Vec<_> = (0..3)
                .map(|_| s.spawn(|| std::iter::from_fn(|| q.pop()).count()))
                .collect();
            for i in 0..10 {
                // Producers retry on shed so every item gets through.
                let mut item = i;
                loop {
                    match q.try_push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::thread::yield_now();
                        }
                    }
                }
            }
            q.close();
            let consumed: usize = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            assert_eq!(consumed, 10, "every pushed item is consumed exactly once");
        });
    }

    #[test]
    fn bounded_queue_preserves_fifo_order() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        q.close();
        let drained: Vec<i32> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained, vec![0, 1, 2, 3, 4]);
    }
}
