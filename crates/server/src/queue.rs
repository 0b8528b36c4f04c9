//! A bounded multi-producer/multi-consumer job queue with explicit
//! backpressure.
//!
//! The accept loop `try_push`es accepted connections; when the queue is
//! full the push fails *immediately* and the server answers `429` instead
//! of letting latency grow without bound. Workers block in [`JobQueue::pop`]
//! until a job arrives or the queue is closed; closing wakes everyone and
//! lets workers drain whatever is still queued — that is what makes
//! graceful shutdown a one-liner.

use crate::lock;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, PoisonError};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// The queue holds `capacity` jobs already — shed load.
    Full,
    /// The queue was closed (shutdown in progress) — stop accepting.
    Closed,
}

struct State<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// The queue. All methods take `&self`; share it behind an `Arc`.
pub struct JobQueue<T> {
    state: Mutex<State<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> JobQueue<T> {
    /// A queue holding at most `capacity` jobs (minimum 1).
    pub fn new(capacity: usize) -> JobQueue<T> {
        JobQueue {
            state: Mutex::new(State { items: VecDeque::new(), closed: false }),
            available: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueue without blocking; `Err` means the caller must shed the job.
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let mut s = lock(&self.state);
        if s.closed {
            return Err((item, PushError::Closed));
        }
        if s.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        s.items.push_back(item);
        drop(s);
        self.available.notify_one();
        Ok(())
    }

    /// Block until a job is available or the queue is closed *and* empty.
    /// `None` is the worker's signal to exit; jobs queued before the close
    /// are still handed out (drain semantics).
    pub fn pop(&self) -> Option<T> {
        let mut s = lock(&self.state);
        loop {
            if let Some(item) = s.items.pop_front() {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s = self.available.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Close the queue: further pushes fail, blocked poppers wake up, and
    /// already-queued jobs remain poppable.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.available.notify_all();
    }

    /// Take every still-queued job at once, leaving the queue empty. The
    /// shutdown drain deadline uses this: jobs that did not get a worker in
    /// time are pulled out en masse and answered `503` instead of being
    /// silently dropped when the process exits.
    pub fn drain_remaining(&self) -> Vec<T> {
        let mut s = lock(&self.state);
        s.items.drain(..).collect()
    }

    /// Jobs currently waiting (diagnostic; racy by nature).
    pub fn len(&self) -> usize {
        lock(&self.state).items.len()
    }

    /// Is the queue empty right now?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn push_pop_fifo() {
        let q = JobQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_sheds_load() {
        let q = JobQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        let (item, err) = q.try_push(3).unwrap_err();
        assert_eq!(item, 3);
        assert_eq!(err, PushError::Full);
        // Popping frees a slot again.
        assert_eq!(q.pop(), Some(1));
        q.try_push(3).unwrap();
    }

    #[test]
    fn close_wakes_poppers_and_drains() {
        let q = Arc::new(JobQueue::new(4));
        q.try_push(7).unwrap();
        q.close();
        // Queued items survive the close…
        assert_eq!(q.pop(), Some(7));
        // …then poppers see the end.
        assert_eq!(q.pop(), None);
        // And pushes are refused.
        assert_eq!(q.try_push(8).unwrap_err().1, PushError::Closed);
    }

    #[test]
    fn poisoned_queue_still_hands_out_jobs() {
        let q = JobQueue::new(4);
        q.try_push(1).unwrap();
        crate::poison(&q.state);
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn drain_remaining_empties_the_queue_in_order() {
        let q = JobQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.drain_remaining(), vec![1, 2]);
        assert_eq!(q.pop(), None, "drained queue hands out nothing further");
    }

    #[test]
    fn blocked_pop_wakes_on_close() {
        let q = Arc::new(JobQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(h.join().unwrap(), None);
    }

    #[test]
    fn mpmc_under_contention_loses_nothing() {
        let q = Arc::new(JobQueue::new(1024));
        let total = 4 * 250;
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..250 {
                        while q.try_push(t * 1000 + i).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut handles = Vec::new();
            for _ in 0..4 {
                let q = Arc::clone(&q);
                handles.push(s.spawn(move || {
                    let mut got = 0;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                }));
            }
            // Give producers time to finish, then close to release consumers.
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(200));
                q.close();
            });
            let got: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(got, total);
        });
    }
}
