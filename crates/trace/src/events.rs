//! Wide events, their stderr mirror and the CPU clocks they carry.
//!
//! A histogram answers "how long do requests take in aggregate?" and a
//! trace answers "what did request X do, stage by stage?". The **wide
//! event** sits between the two: one canonical record per request (or
//! per batch-job chunk) carrying everything an operator filters on —
//! endpoint, status, cache disposition, timing breakdown, engine work
//! counters and per-thread CPU time — in a single row. The [`EventLog`]
//! stores them in the same bounded lock-sharded ring shape as
//! `TraceStore`, so memory stays fixed no matter the request rate, and
//! `GET /v1/logs` can filter without scanning more than the ring.
//!
//! The log is also the process's one stderr writer: an event whose
//! `total_us` reaches the `SCPG_SLOW_MS` threshold is mirrored there as
//! one logfmt line carrying its trace id, so the per-stage split of a
//! slow request is one `GET /v1/traces/{id}` away.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use crate::bounded::{Introspect, StoreStats};

/// Number of independently locked shards in an [`EventLog`].
const SHARDS: usize = 8;

/// One canonical record of a completed request or batch-job chunk.
///
/// `seq` and `unix_ms` are assigned by [`EventLog::record`]; callers
/// fill everything else. Timing fields that do not apply (e.g.
/// `worker_cpu_us` for a cache hit served on the event loop) stay 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WideEvent {
    /// Monotone sequence number, assigned at record time.
    pub seq: u64,
    /// Wall-clock record time, milliseconds since the Unix epoch;
    /// assigned at record time.
    pub unix_ms: u64,
    /// The trace id shared with the trace store, so one id pivots
    /// between `/v1/logs` and `/v1/traces/{id}`.
    pub trace_id: String,
    /// What produced the event: `"request"`, `"chunk"` or `"watchdog"`.
    pub kind: String,
    /// Endpoint name (`"sweep"`, `"(refused)"`, `"job"`, ...).
    pub endpoint: String,
    /// HTTP status (chunks report 200/500 for ok/failed).
    pub status: u16,
    /// End-to-end wall time in microseconds.
    pub total_us: u64,
    /// Time spent queued behind other work, microseconds.
    pub queue_wait_us: u64,
    /// Artifact compilation time, microseconds.
    pub compile_us: u64,
    /// Analysis execution time, microseconds.
    pub execute_us: u64,
    /// Thread CPU time consumed on the event loop for this request,
    /// microseconds ([`thread_cpu_time`] delta).
    pub loop_cpu_us: u64,
    /// Thread CPU time consumed on the worker that ran the job,
    /// microseconds ([`thread_cpu_time`] delta).
    pub worker_cpu_us: u64,
    /// Free-form `key=value` columns (`cache=hit`, `design=...`,
    /// `sim_events=...`, `lib=...`, `backend=...`).
    pub fields: Vec<(String, String)>,
}

impl WideEvent {
    /// A zeroed event for `endpoint`/`status`; callers fill the rest.
    pub fn new(kind: &str, endpoint: &str, status: u16) -> Self {
        WideEvent {
            seq: 0,
            unix_ms: 0,
            trace_id: String::new(),
            kind: kind.to_string(),
            endpoint: endpoint.to_string(),
            status,
            total_us: 0,
            queue_wait_us: 0,
            compile_us: 0,
            execute_us: 0,
            loop_cpu_us: 0,
            worker_cpu_us: 0,
            fields: Vec::new(),
        }
    }

    /// The value of field `key`, when present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Renders the event as one logfmt line (the stderr mirror format).
    pub fn logfmt(&self) -> String {
        use std::fmt::Write;
        let mut line = format!(
            "ts_ms={} seq={} trace={} kind={} endpoint={} status={} total_us={} \
             queue_wait_us={} compile_us={} execute_us={} loop_cpu_us={} worker_cpu_us={}",
            self.unix_ms,
            self.seq,
            if self.trace_id.is_empty() {
                "-"
            } else {
                &self.trace_id
            },
            self.kind,
            self.endpoint,
            self.status,
            self.total_us,
            self.queue_wait_us,
            self.compile_us,
            self.execute_us,
            self.loop_cpu_us,
            self.worker_cpu_us,
        );
        for (k, v) in &self.fields {
            if v.contains(' ') {
                let _ = write!(line, " {k}={v:?}");
            } else {
                let _ = write!(line, " {k}={v}");
            }
        }
        line
    }

    fn bytes_estimate(&self) -> usize {
        std::mem::size_of::<WideEvent>()
            + self.trace_id.len()
            + self.kind.len()
            + self.endpoint.len()
            + self
                .fields
                .iter()
                .map(|(k, v)| k.len() + v.len() + std::mem::size_of::<(String, String)>())
                .sum::<usize>()
    }
}

/// Filters applied by [`EventLog::query`]; `None` means "any".
#[derive(Debug, Clone, Default)]
pub struct EventFilter {
    /// Exact endpoint match.
    pub endpoint: Option<String>,
    /// Exact status match.
    pub status: Option<u16>,
    /// Keep events with `total_us >=` this.
    pub min_duration_us: Option<u64>,
    /// Keep events recorded at or after this Unix-epoch millisecond.
    pub since_unix_ms: Option<u64>,
    /// Most events returned (recent-first); `None` = everything stored.
    pub limit: Option<usize>,
}

impl EventFilter {
    fn matches(&self, e: &WideEvent) -> bool {
        self.endpoint.as_deref().is_none_or(|ep| e.endpoint == ep)
            && self.status.is_none_or(|s| e.status == s)
            && self.min_duration_us.is_none_or(|d| e.total_us >= d)
            && self.since_unix_ms.is_none_or(|t| e.unix_ms >= t)
    }
}

/// Bounded, lock-sharded ring of recent [`WideEvent`]s.
///
/// Events are append-only, so sharding is round-robin by sequence
/// number: concurrent recorders from the event loop, the workers and
/// the job runner usually take different locks. Each shard is a
/// fixed-capacity `VecDeque` ring; recording into a full shard pops its
/// oldest event. Memory is bounded for the life of the process.
pub struct EventLog {
    shards: Vec<Mutex<VecDeque<WideEvent>>>,
    per_shard: usize,
    seq: AtomicU64,
    evicted: AtomicU64,
    recorded: AtomicU64,
}

impl EventLog {
    /// A log retaining roughly `capacity` events in total (rounded up
    /// to a multiple of the shard count; minimum one per shard).
    pub fn new(capacity: usize) -> Self {
        let per_shard = capacity.div_ceil(SHARDS).max(1);
        EventLog {
            shards: (0..SHARDS)
                .map(|_| Mutex::new(VecDeque::with_capacity(per_shard)))
                .collect(),
            per_shard,
            seq: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
        }
    }

    /// Total event capacity (shard count × per-shard ring size).
    pub fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// Events currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("event log poisoned").len())
            .sum()
    }

    /// `true` when no events are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from full shards since construction.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Events recorded since construction (stored + since evicted).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Stamps `seq`/`unix_ms`, stores the event, mirrors it to stderr
    /// when its `total_us` reaches [`slow_threshold_ms`], and returns its
    /// sequence number.
    pub fn record(&self, mut event: WideEvent) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        event.seq = seq;
        if event.unix_ms == 0 {
            event.unix_ms = crate::store::unix_ms_now();
        }
        if is_slow(event.total_us, slow_threshold_ms()) {
            eprintln!("[scpg-event] {}", event.logfmt());
        }
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.shards[(seq as usize) % SHARDS]
            .lock()
            .expect("event log poisoned");
        if shard.len() >= self.per_shard {
            shard.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        shard.push_back(event);
        seq
    }

    /// Recent-first events passing `filter`.
    pub fn query(&self, filter: &EventFilter) -> Vec<WideEvent> {
        let mut all: Vec<WideEvent> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().expect("event log poisoned");
            all.extend(shard.iter().filter(|e| filter.matches(e)).cloned());
        }
        all.sort_by_key(|e| std::cmp::Reverse(e.seq));
        if let Some(limit) = filter.limit {
            all.truncate(limit);
        }
        all
    }
}

impl Introspect for EventLog {
    // An append-only ring has no lookup path: admissions count as hits
    // so the hit column still tracks throughput, and misses stay 0.
    fn stats(&self) -> StoreStats {
        let bytes_estimate = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("event log poisoned")
                    .iter()
                    .map(WideEvent::bytes_estimate)
                    .sum::<usize>()
            })
            .sum();
        StoreStats {
            name: "event_log",
            entries: self.len(),
            capacity: self.capacity(),
            bytes_estimate,
            hits: self.recorded(),
            misses: 0,
            evictions: self.evicted(),
        }
    }
}

/// Slow-event threshold applied when `SCPG_SLOW_MS` is unset.
pub const DEFAULT_SLOW_MS: u64 = 1000;

/// Resolves a raw `SCPG_SLOW_MS` value against the default: the parsed
/// threshold when it is a non-negative integer, else the default plus a
/// warning naming the rejected value. Pure so the policy is testable
/// without touching the process environment.
fn resolve_slow_ms(raw: Option<&str>) -> (u64, Option<String>) {
    match raw {
        None => (DEFAULT_SLOW_MS, None),
        Some(v) => match v.trim().parse::<u64>() {
            Ok(ms) => (ms, None),
            Err(_) => (
                DEFAULT_SLOW_MS,
                Some(format!(
                    "SCPG_SLOW_MS={v:?} is not a non-negative integer; \
                     using the default of {DEFAULT_SLOW_MS} ms"
                )),
            ),
        },
    }
}

/// Whether an event lasting `total_us` reaches a `threshold_ms` slow
/// threshold (0 makes every event slow).
fn is_slow(total_us: u64, threshold_ms: u64) -> bool {
    total_us >= threshold_ms.saturating_mul(1000)
}

/// The stderr-mirror threshold in milliseconds: `SCPG_SLOW_MS` when set
/// to a non-negative integer (0 mirrors every event), else
/// [`DEFAULT_SLOW_MS`]. Read once per process; an unparsable value
/// warns once on stderr and falls back to the default.
pub fn slow_threshold_ms() -> u64 {
    static THRESHOLD: OnceLock<u64> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let raw = std::env::var("SCPG_SLOW_MS").ok();
        let (ms, warning) = resolve_slow_ms(raw.as_deref());
        if let Some(msg) = warning {
            eprintln!("[scpg-trace] warning: {msg}");
        }
        ms
    })
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
}

/// Reads a CPU-time clock; [`Duration::ZERO`] if the call fails.
fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and the kernel only writes within it.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        u64::try_from(ts.tv_sec).unwrap_or(0),
        u32::try_from(ts.tv_nsec).unwrap_or(0).min(999_999_999),
    )
}

/// CPU time consumed by the calling thread
/// (`CLOCK_THREAD_CPUTIME_ID`). Two reads bracketing a stretch of work
/// give that thread's CPU cost of the work — unlike wall time,
/// unaffected by preemption or blocking.
pub fn thread_cpu_time() -> Duration {
    cpu_clock(3)
}

/// CPU time consumed by every thread of this process
/// (`CLOCK_PROCESS_CPUTIME_ID`), at nanosecond resolution where
/// `/proc/self/stat` ticks in 10 ms steps.
pub fn process_cpu_time() -> Duration {
    cpu_clock(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(endpoint: &str, status: u16, total_us: u64) -> WideEvent {
        let mut e = WideEvent::new("request", endpoint, status);
        e.total_us = total_us;
        e
    }

    #[test]
    fn record_assigns_seq_and_timestamp() {
        let log = EventLog::new(16);
        let a = log.record(ev("sweep", 200, 100));
        let b = log.record(ev("table", 422, 50));
        assert_eq!((a, b), (0, 1));
        let all = log.query(&EventFilter::default());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].endpoint, "table", "recent first");
        assert!(all[0].unix_ms > 0, "timestamp stamped");
        assert_eq!(log.recorded(), 2);
    }

    #[test]
    fn filters_compose() {
        let log = EventLog::new(64);
        log.record(ev("sweep", 200, 10));
        log.record(ev("sweep", 200, 5_000));
        log.record(ev("sweep", 422, 7));
        log.record(ev("table", 200, 9_000));
        let f = |filter: EventFilter| log.query(&filter).len();
        assert_eq!(
            f(EventFilter {
                endpoint: Some("sweep".into()),
                ..Default::default()
            }),
            3
        );
        assert_eq!(
            f(EventFilter {
                endpoint: Some("sweep".into()),
                status: Some(200),
                ..Default::default()
            }),
            2
        );
        assert_eq!(
            f(EventFilter {
                min_duration_us: Some(1_000),
                ..Default::default()
            }),
            2
        );
        assert_eq!(
            f(EventFilter {
                limit: Some(1),
                ..Default::default()
            }),
            1
        );
        let future = EventFilter {
            since_unix_ms: Some(u64::MAX),
            ..Default::default()
        };
        assert_eq!(f(future), 0);
    }

    #[test]
    fn full_shards_evict_oldest_and_never_grow() {
        let log = EventLog::new(8); // one slot per shard
        assert_eq!(EventLog::capacity(&log), 8);
        for i in 0..100 {
            log.record(ev("sweep", 200, i));
        }
        assert!(log.len() <= EventLog::capacity(&log), "len {}", log.len());
        assert_eq!(log.evicted(), 100 - log.len() as u64);
        let newest = &log.query(&EventFilter::default())[0];
        assert_eq!(newest.total_us, 99, "newest survives");
    }

    #[test]
    fn introspect_reports_the_ring() {
        let log = EventLog::new(8);
        log.record(ev("sweep", 200, 1));
        let stats = log.stats();
        assert_eq!(stats.name, "event_log");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.capacity, 8);
        assert!(stats.bytes_estimate > 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn logfmt_quotes_only_when_needed() {
        let mut e = ev("sweep", 200, 42);
        e.trace_id = "t1".into();
        e.fields.push(("cache".into(), "miss".into()));
        e.fields.push(("note".into(), "two words".into()));
        let line = e.logfmt();
        assert!(line.contains("endpoint=sweep"), "{line}");
        assert!(line.contains("total_us=42"), "{line}");
        assert!(line.contains("cache=miss"), "{line}");
        assert!(line.contains("note=\"two words\""), "{line}");
    }

    #[test]
    fn resolve_slow_ms_policy() {
        assert_eq!(resolve_slow_ms(None), (DEFAULT_SLOW_MS, None));
        assert_eq!(resolve_slow_ms(Some("0")), (0, None));
        assert_eq!(resolve_slow_ms(Some(" 250 ")), (250, None));
        for bad in ["", "abc", "-5", "1.5"] {
            let (ms, warning) = resolve_slow_ms(Some(bad));
            assert_eq!(ms, DEFAULT_SLOW_MS, "fallback for {bad:?}");
            let msg = warning.expect("bad value warns");
            assert!(msg.contains(&format!("{bad:?}")), "names the value: {msg}");
        }
    }

    #[test]
    fn slow_events_reach_the_threshold() {
        let hour_us = 3_600_000_000;
        assert!(
            is_slow(hour_us, DEFAULT_SLOW_MS),
            "an hour-long event is slow"
        );
        assert!(is_slow(0, 0), "a zero event is slow at threshold 0");
        assert!(!is_slow(0, DEFAULT_SLOW_MS), "and only then");
        assert!(is_slow(250_000, 250), "reaching the threshold is slow");
        assert!(!is_slow(249_999, 250));
        assert!(!is_slow(hour_us, u64::MAX), "a huge threshold saturates");
    }

    #[test]
    fn cpu_clocks_advance_under_load() {
        let (thread, process) = (thread_cpu_time(), process_cpu_time());
        // Burn a little CPU; volatile-ish accumulation defeats LLVM
        // constant folding.
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        assert!(acc != 42, "keep the loop alive");
        assert!(thread_cpu_time() > thread, "thread clock advances");
        assert!(process_cpu_time() > process, "process clock advances");
    }
}
