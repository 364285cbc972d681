//! Bounded in-memory stores and the uniform accounting over them.
//!
//! Every cache in the service is a [`Bounded`]: a `String`-keyed map
//! split into mutex shards (the key's `DefaultHasher` hash picks one),
//! each holding at most a fixed number of entries and evicting its
//! least-recently-used entry to admit a new key. Recency is a per-shard
//! access tick, and eviction scans the shard for the oldest stamp —
//! `O(shard capacity)`, which is cheap at the tens-to-hundreds of
//! entries these stores hold and far simpler than an intrusive list.
//! Stores whose values are expensive to build use
//! [`Bounded::get_or_build`]: the slot is created under the shard lock
//! and built outside it, so only callers of the same key wait on each
//! other, and whatever the builder returned — failures included — stays
//! cached until the slot is evicted.
//!
//! The module also defines the [`Introspect`] seam: every bounded
//! in-memory structure in the service (result cache, design registry,
//! technique models, library LRU, trace store, work queue, event log)
//! reports the same seven numbers, so `GET /v1/status` and the
//! `scpg_store_*` metric families cover each of them — and any future
//! store — with one implementation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// One uniform snapshot of a bounded in-memory structure, as reported
/// by [`Introspect::stats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreStats {
    /// Stable store identifier (`"result_cache"`, `"trace_store"`, ...)
    /// used as the `store` label on `scpg_store_*` metric families.
    pub name: &'static str,
    /// Entries currently resident.
    pub entries: usize,
    /// Configured entry ceiling.
    pub capacity: usize,
    /// Best-effort resident size in bytes (payloads plus keys; see each
    /// implementation for what it counts).
    pub bytes_estimate: usize,
    /// Lookups (or admissions, for append-only structures) that were
    /// served from the structure.
    pub hits: u64,
    /// Lookups that missed (or were refused, for queues).
    pub misses: u64,
    /// Entries displaced by the capacity bound since construction.
    pub evictions: u64,
}

/// Uniform accounting over every bounded in-memory structure.
///
/// Implementations are expected to be cheap enough to call on every
/// `GET /v1/status` and `/metrics` scrape: counters are relaxed
/// atomics, and `bytes_estimate` may walk the structure under its
/// ordinary locks (all structures here are small by construction).
pub trait Introspect: Send + Sync {
    /// All seven numbers as one row.
    fn stats(&self) -> StoreStats;
}

/// Shared hit/miss/eviction counters for [`Introspect`] implementors.
/// All relaxed atomics: these sit on lookup hot paths and must never
/// contend with the work they count.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Lookups served from the structure.
    pub hits: AtomicU64,
    /// Lookups that missed.
    pub misses: AtomicU64,
    /// Entries displaced by the capacity bound.
    pub evictions: AtomicU64,
}

impl StoreCounters {
    /// A fresh zeroed counter set.
    pub const fn new() -> Self {
        StoreCounters {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Records a hit.
    pub fn hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a miss.
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an eviction.
    pub fn evicted(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }
}

/// One shard: values stamped with the shard's access tick.
struct Shard<V> {
    map: HashMap<String, (V, u64)>,
    tick: u64,
}

impl<V> Shard<V> {
    fn stamp(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }
}

/// A sharded, least-recently-used bounded map from `String` keys to
/// cheaply cloned values (`Arc`s, in practice).
///
/// Counting rules: [`get`](Self::get) and
/// [`get_or_build`](Self::get_or_build) count a hit or a miss;
/// [`peek`](Self::peek) and [`insert`](Self::insert) count neither;
/// every displacement by the capacity bound counts an eviction.
pub struct Bounded<V> {
    name: &'static str,
    shards: Vec<Mutex<Shard<V>>>,
    per_shard: usize,
    counters: Arc<StoreCounters>,
    weigh: fn(&str, &V) -> usize,
}

impl<V> Bounded<V> {
    /// A store of `shards` shards holding `per_shard` entries each
    /// (zero values are clamped to 1). It reports as `"bounded"` and
    /// weighs only its keys until [`named`](Self::named).
    pub fn new(shards: usize, per_shard: usize) -> Self {
        Bounded {
            name: "bounded",
            shards: (0..shards.max(1))
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            per_shard: per_shard.max(1),
            counters: Arc::default(),
            weigh: |key, _| key.len(),
        }
    }

    /// Sets the [`Introspect`] name and how many bytes one entry holds.
    pub fn named(self, name: &'static str, weigh: fn(&str, &V) -> usize) -> Self {
        Bounded {
            name,
            weigh,
            ..self
        }
    }

    /// Counts into `counters` instead of a private set, so several
    /// stores can report as one row.
    pub fn sharing(self, counters: Arc<StoreCounters>) -> Self {
        Bounded { counters, ..self }
    }

    fn shard_index(&self, key: &str) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn shard(&self, key: &str) -> MutexGuard<'_, Shard<V>> {
        self.shards[self.shard_index(key)]
            .lock()
            .expect("bounded store poisoned")
    }

    /// Stores `value` under `key` in `shard`, first evicting the shard's
    /// least-recently-used entry when `key` is new and the shard is full.
    fn admit(&self, shard: &mut Shard<V>, key: String, value: V) {
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard {
            let victim = shard
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone());
            if let Some(victim) = victim {
                shard.map.remove(&victim);
                self.counters.evicted();
            }
        }
        let tick = shard.stamp();
        shard.map.insert(key, (value, tick));
    }

    /// Inserts or replaces `key`, refreshing its recency. Replacing
    /// never evicts.
    pub fn insert(&self, key: String, value: V) {
        let mut shard = self.shard(&key);
        self.admit(&mut shard, key, value);
    }

    /// Entries resident across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("bounded store poisoned").map.len())
            .sum()
    }

    /// `true` when no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry ceiling: shard count × per-shard capacity.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard
    }
}

impl<V: Clone> Bounded<V> {
    /// Looks `key` up in `shard`, refreshing its recency; counts a hit
    /// or a miss.
    fn lookup(&self, shard: &mut Shard<V>, key: &str) -> Option<V> {
        let tick = shard.stamp();
        let found = shard.map.get_mut(key).map(|(value, used)| {
            *used = tick;
            value.clone()
        });
        if found.is_some() {
            self.counters.hit();
        } else {
            self.counters.miss();
        }
        found
    }

    /// The value under `key`, refreshing its recency; counts a hit or a
    /// miss.
    pub fn get(&self, key: &str) -> Option<V> {
        self.lookup(&mut self.shard(key), key)
    }

    /// The value under `key`, without counting or refreshing recency.
    pub fn peek(&self, key: &str) -> Option<V> {
        self.shard(key).map.get(key).map(|(value, _)| value.clone())
    }

    /// Every resident value (a snapshot, in no particular order).
    pub fn values(&self) -> Vec<V> {
        self.shards
            .iter()
            .flat_map(|s| {
                let shard = s.lock().expect("bounded store poisoned");
                shard
                    .map
                    .values()
                    .map(|(v, _)| v.clone())
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

impl<T: Clone> Bounded<Arc<OnceLock<T>>> {
    /// The value under `key`, built by `build` on first use. The slot is
    /// looked up (a hit) or created (a miss) under the shard lock and
    /// built outside it, so concurrent callers of one key run `build`
    /// once and callers of other keys never wait on it. The result —
    /// an `Err` included — is cached until the slot is evicted; holders
    /// of an evicted slot keep their value.
    pub fn get_or_build(&self, key: &str, build: impl FnOnce() -> T) -> T {
        let slot = {
            let mut shard = self.shard(key);
            self.lookup(&mut shard, key).unwrap_or_else(|| {
                let slot = Arc::new(OnceLock::new());
                self.admit(&mut shard, key.to_string(), Arc::clone(&slot));
                slot
            })
        };
        slot.get_or_init(build).clone()
    }
}

impl<V: Send> Introspect for Bounded<V> {
    fn stats(&self) -> StoreStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock().expect("bounded store poisoned");
            entries += shard.map.len();
            bytes += shard
                .map
                .iter()
                .map(|(k, (v, _))| (self.weigh)(k, v))
                .sum::<usize>();
        }
        StoreStats {
            name: self.name,
            entries,
            capacity: self.capacity(),
            bytes_estimate: bytes,
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use std::time::Duration;

    /// The first generated key that lands in `shard`.
    fn key_in<V>(store: &Bounded<V>, prefix: &str, shard: usize) -> String {
        (0..)
            .map(|i| format!("{prefix}{i}"))
            .find(|k| store.shard_index(k) == shard)
            .expect("some key hashes to every shard")
    }

    #[test]
    fn a_full_shard_evicts_its_least_recently_used_entry() {
        let store = Bounded::new(1, 3);
        for k in ["a", "b", "c"] {
            store.insert(k.into(), k.to_string());
        }
        assert!(store.get("a").is_some(), "touch `a`, leaving `b` the LRU");
        store.insert("d".into(), "d".into());
        assert_eq!(store.peek("b"), None, "LRU entry evicted first");
        store.insert("e".into(), "e".into());
        assert_eq!(store.peek("c"), None, "then the next oldest");
        let mut resident = store.values();
        resident.sort();
        assert_eq!(resident, ["a", "d", "e"]);
        assert_eq!(store.stats().evictions, 2);
    }

    #[test]
    fn replacing_a_key_refreshes_it_without_evicting() {
        let store = Bounded::new(1, 2);
        store.insert("a".into(), 1);
        store.insert("b".into(), 2);
        store.insert("a".into(), 3);
        assert_eq!(store.stats().evictions, 0, "replacement never evicts");
        assert_eq!(store.peek("a"), Some(3));
        store.insert("c".into(), 4);
        assert_eq!(store.peek("b"), None, "`b` became the LRU");
        assert_eq!(store.peek("a"), Some(3));
    }

    #[test]
    fn shards_fill_and_evict_independently() {
        let store = Bounded::new(2, 1);
        let (left, right) = (key_in(&store, "k", 0), key_in(&store, "k", 1));
        store.insert(left.clone(), 0);
        store.insert(right.clone(), 1);
        assert_eq!(store.len(), 2, "each shard holds its own entry");
        store.insert(key_in(&store, "x", 0), 2);
        assert_eq!(store.peek(&left), None, "shard 0 evicted its own entry");
        assert_eq!(store.peek(&right), Some(1), "shard 1 untouched");
        assert_eq!(store.stats().evictions, 1);
    }

    #[test]
    fn zero_sizes_clamp_to_one() {
        let store = Bounded::new(0, 0);
        assert_eq!(store.capacity(), 1);
        store.insert("a".into(), 1);
        store.insert("b".into(), 2);
        assert_eq!((store.len(), store.peek("b")), (1, Some(2)));
    }

    #[test]
    fn counters_count_lookups_and_evictions_only() {
        let store = Bounded::new(1, 1).named("probe", |k, v: &String| k.len() + v.len());
        assert_eq!(store.get("a"), None, "miss");
        store.insert("a".into(), "xyz".into());
        assert_eq!(store.get("a").as_deref(), Some("xyz"), "hit");
        assert_eq!(
            store.peek("a").as_deref(),
            Some("xyz"),
            "peek counts nothing"
        );
        assert_eq!(store.peek("zz"), None, "not even when absent");
        store.insert("b".into(), "pq".into());
        let stats = store.stats();
        assert_eq!(
            (
                stats.name,
                stats.entries,
                stats.capacity,
                stats.bytes_estimate
            ),
            ("probe", 1, 1, 3)
        );
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 1));

        let built: Bounded<Arc<OnceLock<u8>>> = Bounded::new(1, 4);
        built.get_or_build("a", || 1);
        built.get_or_build("a", || 2);
        let stats = built.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 1, 0));

        // Stores sharing one counter set report as one row.
        let shared = Arc::new(StoreCounters::new());
        let x = Bounded::<u8>::new(1, 1).sharing(Arc::clone(&shared));
        let y = Bounded::<u8>::new(1, 1).sharing(Arc::clone(&shared));
        assert_eq!((x.get("a"), y.get("a")), (None, None));
        assert_eq!(shared.misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_get_or_build_runs_each_builder_once_failures_included() {
        let store: Bounded<Arc<OnceLock<Result<u32, String>>>> = Bounded::new(4, 4);
        let builds = AtomicUsize::new(0);
        let start = Barrier::new(8);
        let expected = |key: &str| {
            if key == "ok" {
                Ok(7)
            } else {
                Err(format!("{key} cannot build"))
            }
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    for key in ["ok", "err"] {
                        let got = store.get_or_build(key, || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            // Hold the build open while the others arrive.
                            std::thread::sleep(Duration::from_millis(20));
                            expected(key)
                        });
                        assert_eq!(got, expected(key));
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 2, "one build per key");
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses), (14, 2));
    }

    #[test]
    fn an_evicted_slot_rebuilds_while_its_holders_keep_their_value() {
        let store: Bounded<Arc<OnceLock<Arc<str>>>> = Bounded::new(1, 1);
        let first = store.get_or_build("a", || "a1".into());
        store.get_or_build("b", || "b".into());
        let again = store.get_or_build("a", || "a2".into());
        assert_eq!((&*first, &*again), ("a1", "a2"));
        assert_eq!(store.stats().evictions, 2);
    }

    #[test]
    fn concurrent_inserts_and_gets_stay_within_capacity() {
        let store = Bounded::new(8, 16);
        std::thread::scope(|s| {
            for t in 0..4 {
                let store = &store;
                s.spawn(move || {
                    for i in 0..200 {
                        let key = format!("k{}", (t * 131 + i) % 400);
                        store.insert(key.clone(), key.clone());
                        if let Some(v) = store.get(&key) {
                            assert_eq!(v, key);
                        }
                    }
                });
            }
        });
        assert!(store.len() <= store.capacity());
        assert!(store.stats().evictions > 0, "400 keys overflow 128 slots");
    }
}
