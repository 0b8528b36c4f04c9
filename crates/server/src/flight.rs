//! Per-key single-flight: when several requests miss the cache on the same
//! content address at once, exactly one (the leader) runs the repair; the
//! rest block until the leader finishes, then re-check the cache. Without
//! this, N concurrent submissions of the same spec run N full fixpoint
//! computations and the cache stores N-1 of them for nothing.

use crate::lock;
use std::collections::HashSet;
use std::sync::{Condvar, Mutex, PoisonError};

/// The set of content keys currently being computed.
pub struct InFlight {
    keys: Mutex<HashSet<String>>,
    done: Condvar,
}

impl Default for InFlight {
    fn default() -> Self {
        InFlight::new()
    }
}

impl InFlight {
    pub fn new() -> InFlight {
        InFlight { keys: Mutex::new(HashSet::new()), done: Condvar::new() }
    }

    /// Try to become the leader for `key`. Returns a guard (release on
    /// drop, including panics and error returns) if no one holds the key;
    /// otherwise blocks until the current leader releases it and returns
    /// `None` — the caller should then re-check the cache and retry.
    pub fn begin<'a>(&'a self, key: &str) -> Option<FlightGuard<'a>> {
        let mut keys = lock(&self.keys);
        if keys.insert(key.to_string()) {
            return Some(FlightGuard { inflight: self, key: key.to_string() });
        }
        let _waited = self
            .done
            .wait_while(keys, |keys| keys.contains(key))
            .unwrap_or_else(PoisonError::into_inner);
        None
    }

    fn release(&self, key: &str) {
        lock(&self.keys).remove(key);
        self.done.notify_all();
    }
}

/// Leadership over one key; dropping it wakes every waiting follower.
pub struct FlightGuard<'a> {
    inflight: &'a InFlight,
    key: String,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.inflight.release(&self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn second_claim_waits_for_the_first() {
        let inflight = Arc::new(InFlight::new());
        let guard = inflight.begin("k").expect("first claim leads");

        let follower = {
            let inflight = Arc::clone(&inflight);
            std::thread::spawn(move || inflight.begin("k").is_none())
        };
        // Give the follower time to block, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        assert!(follower.join().unwrap(), "follower returns None after leader releases");

        // The key is free again: the next claim leads.
        assert!(inflight.begin("k").is_some());
    }

    #[test]
    fn distinct_keys_do_not_block_each_other() {
        let inflight = InFlight::new();
        let a = inflight.begin("a");
        let b = inflight.begin("b");
        assert!(a.is_some() && b.is_some());
    }

    #[test]
    fn only_one_leader_among_many_racers() {
        let inflight = Arc::new(InFlight::new());
        let executions = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let inflight = Arc::clone(&inflight);
            let executions = Arc::clone(&executions);
            handles.push(std::thread::spawn(move || {
                loop {
                    // Stand-in for "check cache": once someone executed,
                    // everyone is satisfied.
                    if executions.load(Ordering::SeqCst) > 0 {
                        return;
                    }
                    match inflight.begin("k") {
                        Some(_guard) => {
                            std::thread::sleep(std::time::Duration::from_millis(10));
                            executions.fetch_add(1, Ordering::SeqCst);
                            return;
                        }
                        None => continue,
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(executions.load(Ordering::SeqCst), 1, "exactly one racer executed");
    }
}
