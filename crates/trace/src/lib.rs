//! `scpg-trace`: a zero-dependency latency observability core.
//!
//! The paper this repo reproduces lives on per-phase time accounting —
//! `T_eval` vs `T_idle` within a single clock cycle decides whether
//! sub-clock gating pays. The serving stack needs the same discipline:
//! knowing a request took 12 ms is useless without knowing whether the
//! time went to queue wait, artifact compilation, analysis execution or
//! serialization. This crate provides the measuring tools, built only on
//! `std`:
//!
//! * [`Histogram`] — a fixed-bucket latency histogram (lock-free
//!   relaxed atomics on the observe path, so instrumentation never
//!   contends with the work it measures);
//! * [`Registry`] — named histogram families with one label dimension,
//!   rendered as Prometheus `histogram` text (`_bucket`/`_sum`/`_count`);
//! * [`Span`] — a drop-records duration timer:
//!   `let _s = Span::start("compile");` records on scope exit;
//! * [`Bounded`] — the sharded LRU map every service cache is built on,
//!   with the [`Introspect`] accounting every bounded store reports;
//! * [`EventLog`] — the ring of per-request wide events, mirrored to
//!   stderr when one reaches the `SCPG_SLOW_MS` threshold (default
//!   1000; `0` mirrors everything).
//!
//! Two registries exist by convention: library code (the analysis
//! engine, the execution pool) records into the process-wide
//! [`global`] registry under the `scpg_engine_stage_duration_seconds`
//! family, while each server instance owns a private [`Registry`] for
//! its per-endpoint and per-stage request series, so tests running
//! several servers in one process never see each other's counts.

#![warn(missing_docs)]

// `thread_cpu_time`, `process_cpu_time` and the service's epoll event
// loop are Linux interfaces; no other target is built or tested.
#[cfg(not(target_os = "linux"))]
compile_error!("scpg supports Linux only (CPU-time clocks and epoll)");

mod bounded;
mod events;
mod store;

pub use bounded::{Bounded, Introspect, StoreCounters, StoreStats};
pub use events::{
    process_cpu_time, slow_threshold_ms, thread_cpu_time, EventFilter, EventLog, WideEvent,
    DEFAULT_SLOW_MS,
};
pub use store::{
    duration_us, generate_trace_id, valid_trace_id, SpanEvent, TraceDetail, TraceStore,
    TraceSummary, MAX_SPANS_PER_TRACE, TRACE_ID_MAX_LEN,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Upper bounds (seconds, inclusive) of the fixed histogram buckets.
/// Log-ish spacing from 10 µs to 10 s covers everything from a cache
/// hit to a Monte-Carlo study; an implicit `+Inf` bucket catches the
/// rest. Fixed buckets keep [`Histogram::observe`] allocation-free and
/// make every series in a process directly comparable.
pub const BUCKET_BOUNDS_SECS: [f64; 19] = [
    1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0,
];

/// Bucket count including the `+Inf` overflow bucket.
const BUCKETS: usize = BUCKET_BOUNDS_SECS.len() + 1;

/// The metric family library-level (engine) stages record into on the
/// [`global`] registry. Serving layers should use their own family
/// names on their own registries so per-server counts stay isolated.
pub const ENGINE_STAGE_HISTOGRAM: &str = "scpg_engine_stage_duration_seconds";

const ENGINE_STAGE_HELP: &str = "Wall-clock seconds spent in engine-level stages (process-wide).";

/// The metric family asynchronous batch-job stages record into on the
/// [`global`] registry: chunk execution, checkpoint persistence, final
/// assembly, restart recovery.
pub const JOB_STAGE_HISTOGRAM: &str = "scpg_job_stage_duration_seconds";

const JOB_STAGE_HELP: &str = "Wall-clock seconds spent in async batch-job stages (process-wide).";

/// A fixed-bucket latency histogram. Observation is two relaxed atomic
/// adds; rendering and statistics walk the buckets.
#[derive(Debug)]
pub struct Histogram {
    /// Per-bucket (non-cumulative) counts; the last slot is `+Inf`.
    buckets: [AtomicU64; BUCKETS],
    /// Total observed time in nanoseconds.
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
        }
    }

    /// Records one duration.
    pub fn observe(&self, d: Duration) {
        let secs = d.as_secs_f64();
        let idx = BUCKET_BOUNDS_SECS
            .iter()
            .position(|&bound| secs <= bound)
            .unwrap_or(BUCKET_BOUNDS_SECS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Total observed time in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Renders this series into `out` in Prometheus histogram text form,
    /// labelled `{label_name="label_value"}`. The `_count` line equals
    /// the `+Inf` cumulative bucket by construction.
    fn render_series(&self, out: &mut String, name: &str, label_name: &str, label_value: &str) {
        use std::fmt::Write;
        let mut cumulative = 0u64;
        for (i, bound) in BUCKET_BOUNDS_SECS.iter().enumerate() {
            cumulative += self.buckets[i].load(Ordering::Relaxed);
            let _ = writeln!(
                out,
                "{name}_bucket{{{label_name}=\"{label_value}\",le=\"{bound}\"}} {cumulative}"
            );
        }
        cumulative += self.buckets[BUCKETS - 1].load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{{label_name}=\"{label_value}\",le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(
            out,
            "{name}_sum{{{label_name}=\"{label_value}\"}} {}",
            self.sum_seconds()
        );
        let _ = writeln!(
            out,
            "{name}_count{{{label_name}=\"{label_value}\"}} {cumulative}"
        );
    }
}

/// One metric family: a help string, one label dimension and its series.
struct Family {
    help: &'static str,
    label_name: &'static str,
    series: BTreeMap<String, Arc<Histogram>>,
}

/// A set of named histogram families. Lookup takes a short mutex; the
/// returned [`Arc<Histogram>`] can (and on hot paths should) be cached
/// by the caller so observation itself never locks.
pub struct Registry {
    families: Mutex<BTreeMap<&'static str, Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A fresh, empty registry. `const` so registries can live in
    /// statics.
    pub const fn new() -> Self {
        Self {
            families: Mutex::new(BTreeMap::new()),
        }
    }

    /// The histogram for `(name, label_value)`, created on first use.
    /// The first caller of a family fixes its `help` and `label_name`;
    /// label values must not need Prometheus escaping (this crate's
    /// callers use fixed identifiers like `"sweep"` or `"compile"`).
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        label_name: &'static str,
        label_value: &str,
    ) -> Arc<Histogram> {
        let mut families = self.families.lock().expect("trace registry poisoned");
        let family = families.entry(name).or_insert_with(|| Family {
            help,
            label_name,
            series: BTreeMap::new(),
        });
        if let Some(h) = family.series.get(label_value) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        family
            .series
            .insert(label_value.to_string(), Arc::clone(&h));
        h
    }

    /// Renders every family as Prometheus `histogram` text
    /// (`# HELP` / `# TYPE histogram` / `_bucket` / `_sum` / `_count`).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let families = self.families.lock().expect("trace registry poisoned");
        let mut out = String::with_capacity(4096);
        for (name, family) in families.iter() {
            let _ = writeln!(out, "# HELP {name} {}", family.help);
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (value, hist) in &family.series {
                hist.render_series(&mut out, name, family.label_name, value);
            }
        }
        out
    }
}

/// The process-wide registry for library-level instrumentation (the
/// analysis engine, the execution pool). Server front ends should own a
/// private [`Registry`] for per-request series and render both.
pub fn global() -> &'static Registry {
    static GLOBAL: Registry = Registry::new();
    &GLOBAL
}

/// The [`global`] histogram for an engine stage (family
/// [`ENGINE_STAGE_HISTOGRAM`], label `stage`). Hot paths should call
/// this once and cache the `Arc` — observation is then lock-free.
pub fn engine_stage(stage: &str) -> Arc<Histogram> {
    global().histogram(ENGINE_STAGE_HISTOGRAM, ENGINE_STAGE_HELP, "stage", stage)
}

/// The [`global`] histogram for an async batch-job stage (family
/// [`JOB_STAGE_HISTOGRAM`], label `stage`). Pair with [`Span::on`]:
/// `let _span = Span::on(job_stage("chunk"));`.
pub fn job_stage(stage: &str) -> Arc<Histogram> {
    global().histogram(JOB_STAGE_HISTOGRAM, JOB_STAGE_HELP, "stage", stage)
}

/// A duration timer that records into a histogram when dropped (or
/// explicitly via [`Span::finish`]), so early returns and panics are
/// timed like the happy path.
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
    recorded: bool,
}

impl Span {
    /// Starts a span on the [`global`] engine-stage histogram:
    /// `let _span = Span::start("compile");`.
    pub fn start(stage: &str) -> Self {
        Self::on(engine_stage(stage))
    }

    /// Starts a span on an explicit histogram (use with a cached `Arc`
    /// on hot paths, or with a per-server registry's series).
    pub fn on(hist: Arc<Histogram>) -> Self {
        Self {
            hist,
            start: Instant::now(),
            recorded: false,
        }
    }

    /// Time elapsed so far, without recording.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Records now and returns the duration (instead of waiting for the
    /// drop).
    pub fn finish(mut self) -> Duration {
        let d = self.start.elapsed();
        self.hist.observe(d);
        self.recorded = true;
        d
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.recorded {
            self.hist.observe(self.start.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observations_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.observe(Duration::from_micros(5)); // ≤ 10 µs → first bucket
        h.observe(Duration::from_millis(3)); // ≤ 5 ms
        h.observe(Duration::from_secs(20)); // beyond 10 s → +Inf
        assert_eq!(h.count(), 3);
        let sum = h.sum_seconds();
        assert!((sum - 20.003005).abs() < 1e-9, "{sum}");

        let mut out = String::new();
        h.render_series(&mut out, "t", "stage", "x");
        // Cumulative counts: nothing before 5 µs's bucket, everything at +Inf.
        assert!(
            out.contains("t_bucket{stage=\"x\",le=\"0.00001\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("t_bucket{stage=\"x\",le=\"0.005\"} 2"),
            "{out}"
        );
        assert!(out.contains("t_bucket{stage=\"x\",le=\"10\"} 2"), "{out}");
        assert!(out.contains("t_bucket{stage=\"x\",le=\"+Inf\"} 3"), "{out}");
        assert!(out.contains("t_count{stage=\"x\"} 3"), "{out}");
    }

    #[test]
    fn exact_bucket_boundary_is_inclusive() {
        // Prometheus `le` is *inclusive*: an observation exactly equal
        // to a bound belongs in that bound's bucket. Every bound here
        // is an exact multiple of 1 ns, so `Duration::from_secs_f64`
        // round-trips it bit-exactly through `as_secs_f64`.
        for bound in BUCKET_BOUNDS_SECS {
            let h = Histogram::new();
            let d = Duration::from_secs_f64(bound);
            assert_eq!(d.as_secs_f64(), bound, "bound {bound} round-trips");
            h.observe(d);
            let mut out = String::new();
            h.render_series(&mut out, "edge", "stage", "x");
            assert!(
                out.contains(&format!("edge_bucket{{stage=\"x\",le=\"{bound}\"}} 1")),
                "exactly-{bound}s lands in the le={bound} bucket:\n{out}"
            );
        }
    }

    #[test]
    fn registry_shares_series_and_renders_families() {
        let reg = Registry::new();
        let a = reg.histogram("scpg_test_seconds", "Test family.", "stage", "parse");
        let b = reg.histogram("scpg_test_seconds", "Test family.", "stage", "parse");
        assert!(Arc::ptr_eq(&a, &b), "same (name, label) shares a series");
        a.observe(Duration::from_millis(1));
        let _other = reg.histogram("scpg_test_seconds", "Test family.", "stage", "execute");

        let text = reg.render();
        assert!(
            text.contains("# HELP scpg_test_seconds Test family."),
            "{text}"
        );
        assert!(
            text.contains("# TYPE scpg_test_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("scpg_test_seconds_count{stage=\"parse\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("scpg_test_seconds_count{stage=\"execute\"} 0"),
            "{text}"
        );
        // Every bucket line is cumulative and ends at +Inf == count.
        assert!(
            text.contains("scpg_test_seconds_bucket{stage=\"parse\",le=\"+Inf\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn spans_record_on_drop_and_on_finish() {
        let reg = Registry::new();
        let h = reg.histogram("scpg_span_seconds", "Span test.", "stage", "s");
        {
            let _span = Span::on(Arc::clone(&h));
        }
        assert_eq!(h.count(), 1, "drop records");
        let span = Span::on(Arc::clone(&h));
        assert!(span.elapsed() < Duration::from_secs(5));
        let d = span.finish();
        assert_eq!(h.count(), 2, "finish records exactly once");
        assert!(h.sum_seconds() >= d.as_secs_f64() * 0.5);
    }

    #[test]
    fn global_engine_stages_accumulate() {
        let h = engine_stage("trace_unit_test_stage");
        let before = h.count();
        {
            let _span = Span::start("trace_unit_test_stage");
        }
        assert_eq!(h.count(), before + 1);
        assert!(global()
            .render()
            .contains("scpg_engine_stage_duration_seconds_bucket{stage=\"trace_unit_test_stage\""));
    }
}
