//! Trace contexts: ids, span events and a bounded in-memory store.
//!
//! Histograms (the rest of this crate) answer "how long do requests
//! take in aggregate?"; the trace store answers "what did request X
//! actually do?". Every HTTP request and batch job gets a **trace id**
//! — client-supplied via the `x-scpg-trace-id` header or generated —
//! and accumulates [`SpanEvent`]s (stage name, start offset, duration,
//! `key=value` annotations) under that id in a [`TraceStore`].
//!
//! The store is a lock-sharded ring buffer with a fixed total capacity:
//! shards are `VecDeque`s pre-allocated at construction, recording a
//! span into an existing trace never allocates ring space, and creating
//! a trace in a full shard evicts that shard's oldest trace. Per-trace
//! span lists are bounded by [`MAX_SPANS_PER_TRACE`]; spans past the
//! bound are counted, not stored. Memory use is therefore bounded for
//! the life of the process no matter how many requests flow through.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime};

use crate::bounded::{Introspect, StoreCounters, StoreStats};

/// Longest accepted trace id (client-supplied ids past this are
/// rejected and replaced with a generated one).
pub const TRACE_ID_MAX_LEN: usize = 64;

/// Most spans retained per trace; later spans increment a drop counter
/// instead of growing the list.
pub const MAX_SPANS_PER_TRACE: usize = 128;

/// Number of independently locked shards in a [`TraceStore`].
const SHARDS: usize = 8;

/// Is `id` acceptable as a trace id? Rules: 1..=[`TRACE_ID_MAX_LEN`]
/// bytes drawn from `[A-Za-z0-9_.-]`. The alphabet is safe to echo in
/// an HTTP header, embed in a URL path segment and print in a logfmt
/// line without escaping.
pub fn valid_trace_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= TRACE_ID_MAX_LEN
        && id
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

/// Generates a fresh trace id: `"t"` + 16 lowercase hex digits, unique
/// within the process and seeded from the wall clock so ids from
/// successive process incarnations do not collide in practice.
pub fn generate_trace_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = SystemTime::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    // splitmix64 over (seed ^ counter-offset): well mixed, zero deps.
    let mut z = seed.wrapping_add(n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    format!("t{z:016x}")
}

/// One timed stage within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name (`"parse"`, `"execute"`, `"chunk"`, ...).
    pub stage: String,
    /// Microseconds from the trace's (current-incarnation) origin to
    /// the span's start.
    pub start_us: u64,
    /// Span duration in microseconds.
    pub duration_us: u64,
    /// Free-form `key=value` annotations (`cache=hit`, `chunk=3/16`,
    /// `design=multiplier16`, ...).
    pub annotations: Vec<(String, String)>,
}

/// A one-line view of a trace for `GET /v1/traces`.
#[derive(Debug, Clone)]
pub struct TraceSummary {
    /// The trace id.
    pub id: String,
    /// What started the trace (endpoint name or `"job"`).
    pub kind: String,
    /// Creation order within this store; recent-first listings sort by
    /// it descending, and `before=` pagination cursors carry it.
    pub seq: u64,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Spans currently stored.
    pub spans: usize,
    /// Furthest span end seen, microseconds from the trace origin.
    pub total_us: u64,
}

/// The full record behind `GET /v1/traces/{id}`.
#[derive(Debug, Clone)]
pub struct TraceDetail {
    /// The trace id.
    pub id: String,
    /// What started the trace (endpoint name or `"job"`).
    pub kind: String,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub started_unix_ms: u64,
    /// Spans that exceeded [`MAX_SPANS_PER_TRACE`] and were dropped.
    pub dropped_spans: u64,
    /// Stored spans, in recording order.
    pub spans: Vec<SpanEvent>,
}

struct TraceEntry {
    id: String,
    kind: String,
    started_unix_ms: u64,
    origin: Instant,
    seq: u64,
    dropped: u64,
    spans: Vec<SpanEvent>,
}

impl TraceEntry {
    fn total_us(&self) -> u64 {
        self.spans
            .iter()
            .map(|s| s.start_us.saturating_add(s.duration_us))
            .max()
            .unwrap_or(0)
    }
}

/// Bounded, lock-sharded ring buffer of recent traces.
///
/// A trace id is hashed (FNV-1a) to one of a fixed number of shards;
/// concurrent recordings on different traces usually take different
/// locks. Each shard is a fixed-capacity `VecDeque` used as a ring:
/// inserting into a full shard pops its oldest trace.
pub struct TraceStore {
    shards: Vec<Mutex<VecDeque<TraceEntry>>>,
    per_shard: usize,
    seq: AtomicU64,
    evicted: AtomicU64,
    counters: StoreCounters,
}

impl TraceStore {
    /// A store retaining roughly `capacity` traces in total (rounded up
    /// to a multiple of the shard count; minimum one per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        TraceStore {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                .collect(),
            per_shard,
            seq: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            counters: StoreCounters::new(),
        }
    }

    /// Total trace capacity (shard count × per-shard ring size).
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Traces currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("trace store poisoned").len())
            .sum()
    }

    /// `true` when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traces evicted from full shards since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    fn shard(&self, id: &str) -> &Mutex<VecDeque<TraceEntry>> {
        // FNV-1a; stable and dependency-free.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in id.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % SHARDS]
    }

    /// Records a span with an explicit start offset (microseconds from
    /// the trace origin). Creates the trace — evicting the shard's
    /// oldest if full — when `id` is not present; `kind` only applies
    /// at creation.
    pub fn record_at(
        &self,
        id: &str,
        kind: &str,
        stage: &str,
        start_us: u64,
        duration_us: u64,
        annotations: Vec<(String, String)>,
    ) {
        let span = SpanEvent {
            stage: stage.to_string(),
            start_us,
            duration_us,
            annotations,
        };
        let mut shard = self.shard(id).lock().expect("trace store poisoned");
        if let Some(entry) = shard.iter_mut().find(|e| e.id == id) {
            if entry.spans.len() < MAX_SPANS_PER_TRACE {
                entry.spans.push(span);
            } else {
                entry.dropped += 1;
            }
            return;
        }
        if shard.len() >= self.per_shard {
            shard.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(TraceEntry {
            id: id.to_string(),
            kind: kind.to_string(),
            started_unix_ms: unix_ms_now(),
            origin: Instant::now(),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            dropped: 0,
            spans: vec![span],
        });
    }

    /// Records a span that just finished (duration `d`, ending now):
    /// its start offset is computed against the trace's origin in this
    /// process incarnation. Creates the trace when absent.
    pub fn record_now(
        &self,
        id: &str,
        kind: &str,
        stage: &str,
        d: Duration,
        annotations: Vec<(String, String)>,
    ) {
        let dur_us = duration_us(d);
        // Resolve the origin first so the offset is computed against
        // the entry we will append to (or 0 for a brand-new trace).
        let start_us = {
            let shard = self.shard(id).lock().expect("trace store poisoned");
            shard
                .iter()
                .find(|e| e.id == id)
                .map(|e| duration_us(e.origin.elapsed()).saturating_sub(dur_us))
                .unwrap_or(0)
        };
        self.record_at(id, kind, stage, start_us, dur_us, annotations);
    }

    /// Recent-first summaries of every stored trace.
    pub fn summaries(&self) -> Vec<TraceSummary> {
        let mut all: Vec<(u64, TraceSummary)> = Vec::with_capacity(self.capacity());
        for shard in &self.shards {
            let shard = shard.lock().expect("trace store poisoned");
            for e in shard.iter() {
                all.push((
                    e.seq,
                    TraceSummary {
                        id: e.id.clone(),
                        kind: e.kind.clone(),
                        seq: e.seq,
                        started_unix_ms: e.started_unix_ms,
                        spans: e.spans.len(),
                        total_us: e.total_us(),
                    },
                ));
            }
        }
        all.sort_by_key(|e| std::cmp::Reverse(e.0));
        all.into_iter().map(|(_, s)| s).collect()
    }

    /// The full span list for `id`, or `None` if unknown (or evicted).
    pub fn detail(&self, id: &str) -> Option<TraceDetail> {
        let shard = self.shard(id).lock().expect("trace store poisoned");
        let found = shard.iter().find(|e| e.id == id).map(|e| TraceDetail {
            id: e.id.clone(),
            kind: e.kind.clone(),
            started_unix_ms: e.started_unix_ms,
            dropped_spans: e.dropped,
            spans: e.spans.clone(),
        });
        if found.is_some() {
            self.counters.hit();
        } else {
            self.counters.miss();
        }
        found
    }
}

impl Introspect for TraceStore {
    // Hits/misses count `detail` (`GET /v1/traces/{id}`) lookups: a
    // miss is an operator chasing an evicted or never-recorded id.
    fn stats(&self) -> StoreStats {
        let bytes_estimate = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("trace store poisoned")
                    .iter()
                    .map(|e| {
                        std::mem::size_of::<TraceEntry>()
                            + e.id.len()
                            + e.kind.len()
                            + e.spans
                                .iter()
                                .map(|sp| {
                                    std::mem::size_of::<SpanEvent>()
                                        + sp.stage.len()
                                        + sp.annotations
                                            .iter()
                                            .map(|(k, v)| k.len() + v.len())
                                            .sum::<usize>()
                                })
                                .sum::<usize>()
                    })
                    .sum::<usize>()
            })
            .sum();
        StoreStats {
            name: "trace_store",
            entries: self.len(),
            capacity: self.capacity(),
            bytes_estimate,
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: self.evicted(),
        }
    }
}

/// Microseconds in `d`, saturating.
pub fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

pub(crate) fn unix_ms_now() -> u64 {
    SystemTime::UNIX_EPOCH
        .elapsed()
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_validation_and_generation() {
        assert!(valid_trace_id("t0123abc"));
        assert!(valid_trace_id("job-7.retry_2"));
        assert!(!valid_trace_id(""));
        assert!(!valid_trace_id("has space"));
        assert!(!valid_trace_id("crlf\r\ninjection"));
        assert!(!valid_trace_id(&"x".repeat(TRACE_ID_MAX_LEN + 1)));

        let a = generate_trace_id();
        let b = generate_trace_id();
        assert!(valid_trace_id(&a), "{a}");
        assert_ne!(a, b, "consecutive ids differ");
        assert_eq!(a.len(), 17);
        assert!(a.starts_with('t'));
    }

    #[test]
    fn spans_accumulate_under_one_id() {
        let store = TraceStore::new(16);
        store.record_at("t1", "sweep", "parse", 0, 30, vec![]);
        store.record_at(
            "t1",
            "sweep",
            "execute",
            30,
            400,
            vec![("cache".into(), "miss".into())],
        );
        let d = store.detail("t1").expect("trace exists");
        assert_eq!(d.kind, "sweep");
        assert_eq!(d.spans.len(), 2);
        assert_eq!(d.spans[1].stage, "execute");
        assert_eq!(d.spans[1].annotations[0].1, "miss");
        assert_eq!(d.dropped_spans, 0);
        assert!(store.detail("t2").is_none());

        let summaries = store.summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].id, "t1");
        assert_eq!(summaries[0].spans, 2);
        assert_eq!(summaries[0].total_us, 430);
    }

    #[test]
    fn full_shards_evict_oldest_and_never_grow() {
        let store = TraceStore::new(8); // one slot per shard
        assert_eq!(store.capacity(), 8);
        for i in 0..100 {
            store.record_at(&format!("t{i}"), "k", "s", 0, 1, vec![]);
        }
        assert!(
            store.len() <= store.capacity(),
            "len {} bounded",
            store.len()
        );
        assert_eq!(store.evicted(), 100 - store.len() as u64);
        // Summaries are recent-first by creation order.
        let summaries = store.summaries();
        let newest = &summaries[0].id;
        assert_eq!(newest, "t99");
    }

    #[test]
    fn per_trace_span_lists_are_bounded() {
        let store = TraceStore::new(8);
        for i in 0..(MAX_SPANS_PER_TRACE + 10) {
            store.record_at("t1", "k", "s", i as u64, 1, vec![]);
        }
        let d = store.detail("t1").unwrap();
        assert_eq!(d.spans.len(), MAX_SPANS_PER_TRACE);
        assert_eq!(d.dropped_spans, 10);
    }

    #[test]
    fn record_now_offsets_are_monotone_per_incarnation() {
        let store = TraceStore::new(8);
        store.record_now("t1", "job", "chunk", Duration::from_micros(5), vec![]);
        std::thread::sleep(Duration::from_millis(2));
        store.record_now("t1", "job", "chunk", Duration::from_micros(5), vec![]);
        let d = store.detail("t1").unwrap();
        assert_eq!(d.spans[0].start_us, 0, "first span anchors the origin");
        assert!(
            d.spans[1].start_us > d.spans[0].start_us,
            "later spans start later: {:?}",
            d.spans
        );
    }
}
