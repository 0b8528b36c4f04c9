//! Content-addressed result cache (the in-memory tier).
//!
//! A repair is a pure function of the *canonicalized* spec text and the
//! [`RepairOptions`](ftrepair_core::RepairOptions), so its result can be
//! addressed by a hash of exactly those inputs. Canonicalization (parse →
//! `unparse`) means formatting, comments, and declaration spelling do not
//! fragment the cache; two differently-indented copies of the same program
//! hit the same entry.
//!
//! Keys are SHA-256 digests computed by [`ftrepair_store::content_key`] —
//! the same addressing the on-disk tier uses, so one key identifies a
//! result in both tiers. (The hash must be collision-resistant because the
//! spec text is untrusted network input; see `ftrepair_store::sha`.) The
//! capacity is bounded with LRU eviction — touch-on-hit, matching the disk
//! tier's policy — so the daemon's memory stays flat no matter how many
//! distinct specs it has seen, and a hot key survives capacity pressure
//! from a stream of one-off specs.

use crate::job::SimStatus;
use crate::lock;
use ftrepair_telemetry::{Counter, Json, Telemetry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};

/// The content address of a (canonical spec, options fingerprint) pair —
/// shared with the disk tier.
pub use ftrepair_store::content_key;

/// One cached repair: the `/repair` response document plus, for instances
/// small enough to enumerate, the explicit bundle `/simulate` replays.
pub struct CacheEntry {
    /// Content address of this entry (hex).
    pub key: String,
    /// The full `/repair` response body (without the `cached` flag, which
    /// is stamped per response).
    pub response: Json,
    /// Explicit-state bundle for fault-injection simulation, or the
    /// precise reason `/simulate` must refuse this entry.
    pub sim: SimStatus,
}

struct Inner {
    map: HashMap<String, Arc<CacheEntry>>,
    /// Front = least recently used. A hit moves the key to the back; the
    /// O(n) reposition is fine at the default capacity (256).
    order: VecDeque<String>,
}

/// The cache. Hit/miss/eviction counts feed the server's telemetry
/// registry, so they show up in `GET /metrics` and the JSONL reports.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl ResultCache {
    /// A cache holding at most `capacity` entries, reporting counters into
    /// `tele`'s registry.
    pub fn new(capacity: usize, tele: &Telemetry) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner { map: HashMap::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
            hits: tele.counter("server.cache.hits"),
            misses: tele.counter("server.cache.misses"),
            evictions: tele.counter("server.cache.evictions"),
        }
    }

    /// Look up a content address, counting the hit or miss. A hit marks the
    /// key most-recently-used.
    pub fn get(&self, key: &str) -> Option<Arc<CacheEntry>> {
        let mut inner = lock(&self.inner);
        match inner.map.get(key) {
            Some(entry) => {
                let entry = Arc::clone(entry);
                self.hits.inc();
                if let Some(pos) = inner.order.iter().position(|k| k == key) {
                    inner.order.remove(pos);
                    inner.order.push_back(key.to_string());
                }
                Some(entry)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert an entry, evicting the least recently used when full.
    /// Re-inserting an existing key replaces the value and refreshes its
    /// recency without growing the queue.
    pub fn insert(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        let entry = Arc::new(entry);
        let mut inner = lock(&self.inner);
        if inner.map.insert(entry.key.clone(), Arc::clone(&entry)).is_none() {
            inner.order.push_back(entry.key.clone());
            while inner.order.len() > self.capacity {
                if let Some(old) = inner.order.pop_front() {
                    inner.map.remove(&old);
                    self.evictions.inc();
                }
            }
        } else if let Some(pos) = inner.order.iter().position(|k| k == &entry.key) {
            inner.order.remove(pos);
            inner.order.push_back(entry.key.clone());
        }
        entry
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        lock(&self.inner).map.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct PoisonInner {
    set: HashSet<String>,
    order: VecDeque<String>,
}

/// Quarantine set for content keys whose repair panicked the engine.
///
/// A spec that crashed the worker once will crash it again — the repair is
/// deterministic — so resubmissions are refused (`422`) straight from the
/// cache path instead of being handed to a fresh worker to kill. Like
/// [`ResultCache`] the set is bounded, but with FIFO eviction (quarantine
/// entries have no useful recency): an adversary feeding an endless stream
/// of crashing specs must not grow the daemon's memory, and the oldest
/// quarantine aging out is harmless (the spec just gets one more chance to
/// panic and be re-quarantined).
pub struct PoisonList {
    inner: Mutex<PoisonInner>,
    capacity: usize,
}

impl PoisonList {
    /// A quarantine list holding at most `capacity` keys (minimum 1).
    pub fn new(capacity: usize) -> PoisonList {
        PoisonList {
            inner: Mutex::new(PoisonInner { set: HashSet::new(), order: VecDeque::new() }),
            capacity: capacity.max(1),
        }
    }

    /// Quarantine `key`. Returns `true` if it was newly added, `false` if
    /// it was already quarantined (lets callers count distinct keys).
    pub fn insert(&self, key: &str) -> bool {
        let mut inner = lock(&self.inner);
        if !inner.set.insert(key.to_string()) {
            return false;
        }
        inner.order.push_back(key.to_string());
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                inner.set.remove(&old);
            }
        }
        true
    }

    /// Is `key` currently quarantined?
    pub fn contains(&self, key: &str) -> bool {
        lock(&self.inner).set.contains(key)
    }

    /// Keys currently quarantined.
    pub fn len(&self) -> usize {
        lock(&self.inner).set.len()
    }

    /// Is the list empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: &str) -> CacheEntry {
        CacheEntry { key: key.to_string(), response: Json::obj(), sim: SimStatus::Unavailable }
    }

    #[test]
    fn keys_are_content_addressed() {
        let a = content_key("program p;\n", "lazy");
        let b = content_key("program p;\n", "lazy");
        let c = content_key("program q;\n", "lazy");
        let d = content_key("program p;\n", "cautious");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_eq!(a.len(), 64);
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(8, &tele);
        assert!(cache.get("k").is_none());
        cache.insert(entry("k"));
        assert!(cache.get("k").is_some());
        let snap = tele.snapshot();
        assert_eq!(snap.counter("server.cache.hits"), 1);
        assert_eq!(snap.counter("server.cache.misses"), 1);
    }

    #[test]
    fn poisoned_cache_still_serves() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(8, &tele);
        cache.insert(entry("before"));
        crate::poison(&cache.inner);
        assert!(cache.get("before").is_some());
        cache.insert(entry("after"));
        assert!(cache.get("after").is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_is_bounded_lru() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("a"));
        cache.insert(entry("b"));
        cache.insert(entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_none(), "least recently used evicted");
        assert!(cache.get("b").is_some());
        assert!(cache.get("c").is_some());
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 1);
    }

    #[test]
    fn hot_key_survives_capacity_pressure() {
        // The LRU upgrade's whole point: a key that is *hit* between
        // insertions of one-off keys must outlive them all. Under the old
        // FIFO policy `hot` would age out after two insertions regardless
        // of traffic.
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("hot"));
        for i in 0..10 {
            assert!(cache.get("hot").is_some(), "hot key evicted after {i} one-offs");
            cache.insert(entry(&format!("one-off-{i}")));
        }
        assert!(cache.get("hot").is_some());
        assert_eq!(cache.len(), 2);
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 9);
    }

    #[test]
    fn reinsert_replaces_and_refreshes_recency() {
        let tele = Telemetry::new();
        let cache = ResultCache::new(2, &tele);
        cache.insert(entry("a"));
        cache.insert(entry("b"));
        // Re-inserting `a` marks it most recently used, so `b` is the LRU
        // victim when `c` arrives.
        cache.insert(entry("a"));
        cache.insert(entry("c"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get("a").is_some());
        assert!(cache.get("b").is_none());
        assert_eq!(tele.snapshot().counter("server.cache.evictions"), 1);
    }

    #[test]
    fn poison_list_quarantines_and_reports_novelty() {
        let poison = PoisonList::new(8);
        assert!(!poison.contains("k"));
        assert!(poison.insert("k"), "first insert is new");
        assert!(!poison.insert("k"), "second insert is a repeat");
        assert!(poison.contains("k"));
        assert_eq!(poison.len(), 1);
    }

    #[test]
    fn poison_list_is_bounded_fifo() {
        let poison = PoisonList::new(2);
        poison.insert("a");
        poison.insert("b");
        poison.insert("c");
        assert_eq!(poison.len(), 2);
        assert!(!poison.contains("a"), "oldest quarantine aged out");
        assert!(poison.contains("b"));
        assert!(poison.contains("c"));
    }
}
