//! `scpg-serve`: a zero-external-dependency HTTP/1.1 JSON analysis
//! service over the SCPG engine.
//!
//! An energy-harvesting design team's questions — "sweep this design's
//! power curve", "what does a 30 µW budget buy", "how variation-sensitive
//! is the sub-threshold alternative" — are exactly the library calls
//! `scpg::analysis`, `scpg::budget` and `scpg_power::variation` already
//! answer. This crate puts those behind a shared service:
//!
//! * `POST /v1/sweep` / `/v1/table` / `/v1/headline` / `/v1/variation` —
//!   JSON queries (see [`api`] for the wire format);
//! * `POST /v1/compare` — a bake-off of registered low-power techniques
//!   (`baseline`, `scpg`, `ctsg`, `lector`, see [`scpg_technique`]):
//!   per-technique power/area/delay across a frequency sweep, with the
//!   `scpg` row bit-identical to `/v1/sweep` for the same design;
//! * `POST /v1/netlists` — upload a structural-Verilog design; it is
//!   validated, compiled and stored content-addressed, after which any
//!   query can name it via `{"design": {"kind": "netlist", "id": ...}}`;
//! * `POST /v1/jobs` + `GET`/`DELETE /v1/jobs/{id}` — checkpointed
//!   asynchronous batch jobs over the same queries (see [`scpg_jobs`]);
//! * `GET /v1/designs` — design kinds, server limits, uploaded netlists;
//! * `GET /v1/traces` + `GET /v1/traces/{id}` — recent request/job
//!   traces from the bounded in-memory trace store: every request gets a
//!   trace id (client-supplied via `x-scpg-trace-id` or generated,
//!   echoed on the response) under which its per-stage spans are filed;
//! * `GET /healthz` — liveness;
//! * `GET /metrics` — Prometheus text ([`metrics`]).
//!
//! The serving model, back to front:
//!
//! 1. **Canonicalized result cache** ([`cache`]): the request JSON is
//!    canonicalized (sorted keys, shortest-round-trip numbers, transport
//!    fields stripped) into a cache key; a hit returns the original
//!    response body byte-identically without touching the engine.
//! 2. **Compiled-artifact sharing** ([`designs`]): misses for the same
//!    design share one lazily built [`scpg::ScpgAnalysis`] — the
//!    serving-layer continuation of PR 1's compile-once/simulate-many
//!    split.
//! 3. **Bounded queue with backpressure** ([`queue`]): admitted jobs run
//!    on a worker pool; a full queue answers `429` immediately, an
//!    expired per-request deadline answers `504`.
//! 4. **Event-driven connection handling**: one event-loop thread owns
//!    every socket (epoll on Linux, `poll` elsewhere — zero idle CPU at
//!    10k+ connections), speaking persistent HTTP/1.1 with request
//!    pipelining; I/O never computes and compute never blocks I/O —
//!    workers hand results back through a wake fd.
//! 5. **Graceful shutdown**: stop accepting, answer what is in flight
//!    (late pipelined requests get `503` + `Retry-After`), drain the
//!    queue, then close — no admitted request is dropped.
//! 6. **Two-lane scheduling**: batch-job chunks run on the same worker
//!    pool in a second, lower-priority lane; interactive requests always
//!    pop first and one worker never takes batch work at all, so a pile
//!    of long jobs cannot starve point queries. Chunk checkpoints go to
//!    the (optionally on-disk) [`scpg_jobs::Store`], so a restarted
//!    server resumes unfinished jobs where they left off.
//!
//! ```no_run
//! let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
//!     .expect("bind")
//!     .spawn();
//! println!("serving on http://{}", handle.addr());
//! # handle.shutdown();
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod designs;
mod event_loop;
pub mod http;
pub mod metrics;
mod poller;
pub mod queue;

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use scpg::service::{Query, QueryLimits, QueryOutcome};
use scpg::Mode;
use scpg_jobs::{
    CancelOutcome, ChunkExecutor, ChunkRun, JobLimits, JobManager, JobSpec, LibraryLimits,
    LibraryRegistry, LibraryUploadError, NetlistLimits, NetlistRegistry, Store, SubmitError,
    UploadError,
};
use scpg_json::Json;
use scpg_liberty::Library;
use scpg_power::{VariationConfig, VariationStudy};
use scpg_technique::{TechniqueError, TechniqueRegistry};
use scpg_trace::Introspect;
use scpg_units::Frequency;

use crate::cache::ShardedCache;
use crate::designs::{DesignRegistry, DesignSpec};
use crate::http::Request;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::queue::{Job, JobOutput, JobTiming, Slot, Work, WorkQueue};

/// Server configuration. [`Default`] is a loopback service on an
/// ephemeral port, sized for this machine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads consuming the queue (at least 2 so one slow job
    /// cannot starve the service even on a single-core host).
    pub workers: usize,
    /// Bounded work-queue capacity; pushes beyond it answer `429`.
    pub queue_capacity: usize,
    /// Result-cache shard count.
    pub cache_shards: usize,
    /// Entries per cache shard.
    pub cache_capacity_per_shard: usize,
    /// Deadline applied when a request names none.
    pub default_deadline_ms: u64,
    /// Hard ceiling on any requested deadline.
    pub max_deadline_ms: u64,
    /// Admission limits for queries and design sizes.
    pub limits: QueryLimits,
    /// Where uploaded netlists and job checkpoints persist. `None` (the
    /// default) keeps them in memory: uploads and jobs work, but do not
    /// survive a restart.
    pub store_dir: Option<String>,
    /// Work units (frequencies; one variation study = one unit) a batch
    /// job executes per chunk when the request names no `chunk_units`.
    pub chunk_units: usize,
    /// Batch jobs allowed in flight at once; submissions beyond it
    /// answer `429`.
    pub max_active_jobs: usize,
    /// Test/bench hook: artificial floor (sleep) per computed job (and
    /// per batch chunk), so backpressure, deadline and cancellation
    /// behaviour can be exercised deterministically. Zero (the default)
    /// in production.
    pub debug_job_delay_ms: u64,
    /// Traces retained by the in-memory trace store (`GET /v1/traces`);
    /// the oldest are evicted beyond it. Fixed at bind time — the store
    /// never grows.
    pub trace_capacity: usize,
    /// Settled-simulation engine for `/v1/activity`. [`Auto`] (the
    /// default) takes the bit-parallel fast path whenever the design
    /// levelizes; the binary maps `SCPG_FORCE_ENGINE=event|bitpar` onto
    /// the forced variants so the differential loopback test can pin each
    /// engine and prove the responses byte-identical.
    ///
    /// [`Auto`]: scpg_sim::EngineChoice::Auto
    pub force_engine: scpg_sim::EngineChoice,
    /// How long an idle keep-alive connection (no request in progress,
    /// nothing buffered) is kept open before eviction. A connection with
    /// a *partial* request buffered when this expires is answered
    /// `408 Request Timeout` first.
    pub idle_timeout_ms: u64,
    /// Requests served over one connection before the server closes it
    /// (`connection: close` on the final response) — bounds per-client
    /// resource pinning under keep-alive.
    pub max_requests_per_conn: u32,
    /// Wide events retained by the in-memory event log
    /// (`GET /v1/logs`); the oldest are evicted beyond it. Fixed at
    /// bind time — the log never grows.
    pub event_log_capacity: usize,
    /// Event-loop watchdog sentinel period: the poll wait is capped at
    /// this, so the loop self-times at least this often even when
    /// otherwise idle. The wake itself is a few microseconds of work,
    /// so the zero-idle-CPU property effectively survives.
    pub watchdog_tick_ms: u64,
    /// Event-loop iterations spending longer than this *processing*
    /// (poll return to next poll entry — sleep time excluded) count as
    /// stalls: `scpg_eventloop_stalls_total` increments and a
    /// `watchdog` wide event is recorded.
    pub watchdog_stall_ms: u64,
    /// Test hook: artificial sleep injected into every event-loop
    /// iteration so the watchdog path can be exercised
    /// deterministically. Zero (the default) in production.
    pub debug_loop_stall_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: scpg_exec::num_threads().max(2),
            queue_capacity: 64,
            cache_shards: 8,
            cache_capacity_per_shard: 128,
            default_deadline_ms: 30_000,
            max_deadline_ms: 120_000,
            limits: QueryLimits::default(),
            store_dir: None,
            chunk_units: 4,
            max_active_jobs: 8,
            debug_job_delay_ms: 0,
            trace_capacity: 256,
            force_engine: scpg_sim::EngineChoice::Auto,
            idle_timeout_ms: 10_000,
            max_requests_per_conn: 10_000,
            event_log_capacity: 1024,
            watchdog_tick_ms: 500,
            watchdog_stall_ms: 250,
            debug_loop_stall_ms: 0,
        }
    }
}

struct Shared {
    config: ServeConfig,
    queue: WorkQueue,
    cache: ShardedCache,
    metrics: Metrics,
    /// This server's latency histograms (per-endpoint and per-stage).
    /// Per-instance rather than process-global so several servers in one
    /// test process never pollute each other's counts.
    trace: scpg_trace::Registry,
    registry: Arc<DesignRegistry>,
    /// The registered low-power techniques behind `POST /v1/compare`.
    techniques: Arc<TechniqueRegistry>,
    /// Uploaded-netlist registry (content-addressed, possibly on disk).
    netlists: Arc<NetlistRegistry>,
    /// Uploaded Liberty-library registry (content-addressed, possibly on
    /// disk; parsed libraries held under an LRU bound).
    libraries: Arc<LibraryRegistry>,
    /// Batch-job manager; chunks run on the worker pool's batch lane.
    jobs: Arc<JobManager>,
    /// Per-request span store behind `GET /v1/traces`; bounded, shared
    /// with the job manager so batch-chunk spans land in the same traces.
    traces: Arc<scpg_trace::TraceStore>,
    /// Bounded wide-event log behind `GET /v1/logs` — one canonical
    /// record per request/chunk. Shared with the job manager so
    /// batch-chunk events land in the same ring.
    events: Arc<scpg_trace::EventLog>,
    /// When this server was bound (`scpg_uptime_seconds` baseline).
    started: Instant,
    /// Last observed event-loop iteration processing time, µs (the
    /// watchdog writes, `/v1/status` reads).
    loop_lag_last_us: AtomicU64,
    /// Maximum observed event-loop iteration processing time, µs.
    loop_lag_max_us: AtomicU64,
    /// This server incarnation's id, annotated onto batch-chunk spans so
    /// a trace read after a restart shows which boot ran which chunk.
    boot_id: String,
    shutdown: AtomicBool,
    /// Open connections (serving or idle keep-alive); the event loop
    /// owns the increments/decrements, everything else only reads.
    in_flight_conns: AtomicUsize,
    /// Wakes the event loop out of its poll wait — worker completions
    /// and shutdown both signal through it.
    wake: poller::Waker,
    /// Connection tokens whose queued job has completed; workers push
    /// (via the slot's notify hook) and the event loop drains.
    completions: std::sync::Mutex<Vec<u64>>,
}

impl Shared {
    /// Flags shutdown and wakes the event loop so it notices immediately
    /// (it parks in a poll wait, so a flag alone would only be seen on
    /// the next readiness event).
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already shutting down; the loop was already woken
        }
        self.wake.wake();
    }

    /// Queues a completed-job notification and wakes the event loop.
    fn push_completion(&self, token: u64) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(token);
        self.wake.wake();
    }

    /// Drains pending completion tokens (event-loop side).
    fn take_completions(&self) -> Vec<u64> {
        std::mem::take(&mut *self.completions.lock().expect("completions poisoned"))
    }

    /// Uniform [`scpg_trace::Introspect`] rows over every bounded
    /// in-memory structure, in the fixed order `GET /v1/status` and the
    /// `scpg_store_*` metric families report them.
    fn store_stats(&self) -> Vec<scpg_trace::StoreStats> {
        vec![
            self.cache.stats(),
            self.registry.stats(),
            designs::TechniqueModelStores(Arc::clone(&self.registry)).stats(),
            self.libraries.stats(),
            self.traces.stats(),
            self.queue.stats(),
            self.events.stats(),
        ]
    }
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    poller: poller::Poller,
}

impl Server {
    /// Binds the listener and builds the shared state.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let store = Arc::new(match &config.store_dir {
            None => Store::memory(),
            Some(dir) => Store::open(std::path::Path::new(dir))
                .map_err(|e| std::io::Error::other(format!("store {dir:?}: {e}")))?,
        });
        let netlists = Arc::new(NetlistRegistry::open(
            Arc::clone(&store),
            Library::ninety_nm(),
            NetlistLimits {
                max_source_bytes: config.limits.max_netlist_bytes,
                max_gates: config.limits.max_netlist_gates,
                ..NetlistLimits::default()
            },
        ));
        let libraries = Arc::new(LibraryRegistry::open(
            Arc::clone(&store),
            LibraryLimits::default(),
        ));
        let registry = Arc::new(DesignRegistry::new());
        let techniques = Arc::new(TechniqueRegistry::standard());
        let executor = Arc::new(ServeExecutor {
            registry: Arc::clone(&registry),
            techniques: Arc::clone(&techniques),
            netlists: Arc::clone(&netlists),
            libraries: Arc::clone(&libraries),
            limits: config.limits,
            debug_job_delay_ms: config.debug_job_delay_ms,
        });
        let jobs = Arc::new(JobManager::open(
            store,
            JobLimits {
                max_active_jobs: config.max_active_jobs.max(1),
                default_chunk_units: config.chunk_units.max(1),
                ..JobLimits::default()
            },
            executor,
        ));
        let traces = Arc::new(scpg_trace::TraceStore::new(config.trace_capacity.max(1)));
        let boot_id = format!("boot-{}", &scpg_trace::generate_trace_id()[1..]);
        // Replays checkpointed chunk marks of resumable jobs into the
        // fresh store, so `GET /v1/traces/{id}` after a restart still
        // shows the pre-restart chunks (tagged with their original boot).
        jobs.attach_tracing(Arc::clone(&traces), &boot_id);
        let events = Arc::new(scpg_trace::EventLog::new(config.event_log_capacity.max(1)));
        // Batch-chunk events go through the same ring as request events,
        // so `/v1/logs` is the one place where all work shows up.
        jobs.attach_event_log(Arc::clone(&events));
        let poller = poller::Poller::new()?;
        let wake = poller::Waker::new()?;
        let shared = Arc::new(Shared {
            queue: WorkQueue::new(config.queue_capacity),
            cache: cache::result_cache(config.cache_shards, config.cache_capacity_per_shard),
            metrics: Metrics::default(),
            trace: scpg_trace::Registry::new(),
            registry,
            techniques,
            netlists,
            libraries,
            jobs,
            traces,
            events,
            started: Instant::now(),
            loop_lag_last_us: AtomicU64::new(0),
            loop_lag_max_us: AtomicU64::new(0),
            boot_id,
            shutdown: AtomicBool::new(false),
            in_flight_conns: AtomicUsize::new(0),
            wake,
            completions: std::sync::Mutex::new(Vec::new()),
            config,
        });
        Ok(Self {
            listener,
            addr,
            shared,
            poller,
        })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Starts the worker pool and the event loop, returning the control
    /// handle.
    pub fn spawn(self) -> ServerHandle {
        let workers = self.shared.config.workers.max(2);
        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = Arc::clone(&self.shared);
            // Worker 0 is interactive-only: whatever the batch lane holds,
            // at least one worker is always free for point queries.
            let allow_batch = i != 0;
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("scpg-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, allow_batch))
                    .expect("spawn worker"),
            );
        }
        // Re-dispatch jobs the store says are unfinished: a restarted
        // server picks each one up at its last checkpoint.
        for id in self.shared.jobs.resumable() {
            if let Err(id) = self.shared.queue.push_batch(id) {
                // Lane full at startup (capacity < unfinished jobs): the
                // job stays checkpointed on disk for the next restart.
                eprintln!("scpg-serve: warning: no batch slot to resume job {id}");
            }
        }
        let shared = Arc::clone(&self.shared);
        let listener = self.listener;
        let poller = self.poller;
        let event = std::thread::Builder::new()
            .name("scpg-serve-event".to_string())
            .spawn(move || event_loop::run(listener, poller, &shared))
            .expect("spawn event loop");
        ServerHandle {
            addr: self.addr,
            shared: self.shared,
            event: Some(event),
            workers: worker_handles,
        }
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    event: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the service counters (bench/test convenience; the
    /// full set is on `GET /metrics`).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(&self.shared.cache.stats())
    }

    /// Open connections right now, idle keep-alive included (the
    /// `scpg_connections_in_flight` gauge; tests use it to observe
    /// idle-timeout eviction).
    pub fn open_connections(&self) -> usize {
        self.shared.in_flight_conns.load(Ordering::SeqCst)
    }

    /// Requests shutdown without waiting (signal-handler safe side).
    pub fn trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Graceful shutdown: stop accepting, answer every request already
    /// in flight (their queued jobs complete on the workers; pipelined
    /// requests arriving after the flag get `503`), close the drained
    /// connections, then release the workers and close the listener.
    /// Every admitted request is answered.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        if let Some(event) = self.event.take() {
            // The event-loop thread owns the listener and every
            // connection; joining it is the "all sockets closed" point.
            // Workers are still alive here, completing in-flight jobs
            // the loop is draining.
            let _ = event.join();
        }
        // No connections remain, so nothing can enqueue anymore: release
        // the workers once the queue drains.
        self.shared.queue.shutdown();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// A cloneable shutdown request, detached from the handle so a signal
/// handler (or another thread) can trip it while the main thread blocks
/// in [`ServerHandle::shutdown`]-style joins.
pub struct ShutdownTrigger {
    shared: Arc<Shared>,
}

impl ShutdownTrigger {
    /// Flags the server to begin graceful shutdown (and wakes the
    /// event loop so it notices immediately).
    pub fn trip(&self) {
        self.shared.begin_shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>, allow_batch: bool) {
    while let Some(work) = shared.queue.pop(allow_batch) {
        match work {
            Work::Interactive(job) => run_interactive(shared, job),
            Work::Batch(id) => run_batch_chunk(shared, id),
        }
    }
}

fn run_interactive(shared: &Arc<Shared>, job: Job) {
    if job.slot.is_abandoned() || Instant::now() >= job.deadline {
        // The requester is gone (it already answered 504); skip the
        // stale computation entirely.
        shared
            .metrics
            .results_dropped
            .fetch_add(1, Ordering::Relaxed);
        return;
    }
    let Job {
        enqueued_at,
        slot,
        cache_key,
        trace_id,
        work,
        ..
    } = job;
    let queue_wait = enqueued_at.elapsed();
    let cpu_before = scpg_trace::thread_cpu_time();
    // A panicking job must not kill the worker (silently shrinking
    // the pool) or leave the connection waiting for the deadline: it
    // becomes a 500 like any other failed computation.
    let mut out = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(work)) {
        Ok(out) => out,
        Err(_) => {
            shared
                .metrics
                .handler_panics
                .fetch_add(1, Ordering::Relaxed);
            JobOutput::new(
                500,
                api::error_body("internal error while computing this result"),
            )
        }
    };
    out.timing.queue_wait = Some(queue_wait);
    // CPU actually burned on this thread for this job: distinguishes
    // "slow because computing" from "slow because preempted" in the
    // wide event.
    out.timing.worker_cpu = Some(scpg_trace::thread_cpu_time().saturating_sub(cpu_before));
    shared
        .metrics
        .jobs_completed
        .fetch_add(1, Ordering::Relaxed);
    if out.status == 200 {
        // Cache on the worker side so even a result whose client
        // stopped waiting still warms the cache.
        shared.cache.insert(cache_key, Arc::new(out.body.clone()));
    }
    let executed = out.timing.execute.unwrap_or_default();
    let annotations = out.annotations.clone();
    if !slot.fulfill(out) {
        shared
            .metrics
            .results_dropped
            .fetch_add(1, Ordering::Relaxed);
        // The client stopped waiting (its side of the trace ends at the
        // 504), but the computation still happened — file it under the
        // same trace id so the trace explains where the worker time went.
        let mut annotations = annotations;
        annotations.push(("orphaned".to_string(), "true".to_string()));
        shared.traces.record_now(
            &trace_id,
            "request",
            "execute_orphaned",
            executed,
            annotations,
        );
    }
}

fn run_batch_chunk(shared: &Arc<Shared>, id: String) {
    let jobs = Arc::clone(&shared.jobs);
    // A panicking executor must not kill the worker; the job itself is
    // marked failed so pollers see a terminal state instead of a stall.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| jobs.run_chunk(&id)));
    match outcome {
        Ok(ChunkRun::More) => {
            shared
                .metrics
                .job_chunks_completed
                .fetch_add(1, Ordering::Relaxed);
            // Back of the batch lane: chunks of concurrent jobs
            // round-robin instead of one job hogging the lane. If the
            // push loses a race with shutdown the token is dropped, but
            // the chunk just checkpointed — a restart resumes from it.
            let _ = shared.queue.push_batch(id);
        }
        Ok(ChunkRun::Finished) => {
            shared
                .metrics
                .job_chunks_completed
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(ChunkRun::Gone) => {}
        Err(_) => {
            shared
                .metrics
                .handler_panics
                .fetch_add(1, Ordering::Relaxed);
            shared
                .jobs
                .fail(&id, "internal error: chunk execution panicked");
        }
    }
}

/// Where one request's time went: filled in as the request flows through
/// parse → cache lookup → queue wait → compile → execute → serialize,
/// recorded into the server's histograms just before the response is
/// written (so a client that has seen its response is guaranteed to be
/// counted). `None` stages did not run (cache hit, early refusal, 504).
#[derive(Default)]
struct RequestTrace {
    endpoint: Option<&'static str>,
    /// The request's trace id: the validated `x-scpg-trace-id` header
    /// value, or a generated one. Echoed on the response and used as the
    /// key for the spans this request files into the trace store.
    trace_id: String,
    /// The `Allow` header value when the reply is a 405.
    allow: Option<&'static str>,
    parse: Option<Duration>,
    cache_lookup: Option<Duration>,
    wait: Option<Duration>,
    /// Event-loop thread CPU time spent routing this request (parse
    /// excluded) — the loop-side half of the wide event's CPU columns.
    loop_cpu: Option<Duration>,
    job: JobTiming,
    /// `key=value` annotations for the trace's request span (cache
    /// disposition, design key, engine work deltas).
    annotations: Vec<(String, String)>,
}

impl RequestTrace {
    /// The stages that ran, in pipeline order, for the stage histograms
    /// and the trace-store spans.
    fn stages(&self) -> Vec<(&'static str, Duration)> {
        [
            ("parse", self.parse),
            ("cache_lookup", self.cache_lookup),
            ("queue_wait", self.job.queue_wait),
            ("compile", self.job.compile),
            ("execute", self.job.execute),
            ("serialize", self.job.serialize),
            ("wait", self.wait),
        ]
        .into_iter()
        .filter_map(|(name, d)| d.map(|d| (name, d)))
        .collect()
    }
}

/// Finalises one request: counts the response, records latency
/// histograms, the trace-store spans and the wide event (which the event
/// log mirrors to stderr when slow), then
/// encodes the response bytes (trace id echoed, `Allow` on 405,
/// `Retry-After` on 429/503, `connection:` per `keep_alive`).
///
/// Everything is recorded *before* the bytes are handed to the socket:
/// once the client has seen its response, the request is visible in
/// `/metrics` (tests rely on this ordering).
fn finish_reply(
    shared: &Arc<Shared>,
    trace: &mut RequestTrace,
    total: Duration,
    reply: &Reply,
    keep_alive: bool,
) -> Vec<u8> {
    let (status, content_type, ref body) = *reply;
    if trace.trace_id.is_empty() {
        // The request never parsed (4xx); give the reply a fresh id
        // anyway so the client can quote it when reporting the error.
        trace.trace_id = scpg_trace::generate_trace_id();
    }
    shared.metrics.inc_response(status);
    let endpoint = trace.endpoint.unwrap_or("other");
    metrics::request_histogram(&shared.trace, endpoint).observe(total);
    let stages = trace.stages();
    for (stage, d) in &stages {
        metrics::stage_histogram(&shared.trace, stage).observe(*d);
    }
    record_request_spans(shared, trace, endpoint, status, total, &stages);
    record_wide_event(shared, trace, endpoint, status, total);
    let mut extra: Vec<(&str, &str)> = vec![("x-scpg-trace-id", trace.trace_id.as_str())];
    match status {
        // RFC 7231 §6.5.5: 405 must name the methods that *would* work.
        405 => {
            if let Some(allow) = trace.allow {
                extra.push(("allow", allow));
            }
        }
        // Backpressure statuses carry a retry hint so well-behaved
        // clients back off instead of hammering.
        429 | 503 => extra.push(("retry-after", "1")),
        _ => {}
    }
    http::encode_response(status, content_type, &extra, body, keep_alive)
}

/// Emits one request's canonical wide event into the event log: the
/// single row per request carrying everything an operator filters on
/// (endpoint, status, timing breakdown, CPU columns, worker
/// annotations). `/v1/logs` and `/v1/status` are exempt — a dashboard
/// polling the introspection plane must not evict the very events being
/// read.
fn record_wide_event(
    shared: &Arc<Shared>,
    trace: &RequestTrace,
    endpoint: &str,
    status: u16,
    total: Duration,
) {
    if matches!(endpoint, "logs" | "status") {
        return;
    }
    let mut ev = scpg_trace::WideEvent::new("request", endpoint, status);
    ev.trace_id = trace.trace_id.clone();
    ev.total_us = scpg_trace::duration_us(total);
    ev.queue_wait_us = trace.job.queue_wait.map_or(0, scpg_trace::duration_us);
    ev.compile_us = trace.job.compile.map_or(0, scpg_trace::duration_us);
    ev.execute_us = trace.job.execute.map_or(0, scpg_trace::duration_us);
    ev.loop_cpu_us = trace.loop_cpu.map_or(0, scpg_trace::duration_us);
    ev.worker_cpu_us = trace.job.worker_cpu.map_or(0, scpg_trace::duration_us);
    ev.fields = trace.annotations.clone();
    shared.events.record(ev);
}

/// The `Allow` header value for a 405 on a known path.
fn allow_for(path: &str) -> Option<&'static str> {
    match path {
        "/healthz" | "/metrics" | "/v1/designs" | "/v1/logs" | "/v1/status" => Some("GET"),
        "/v1/sweep" | "/v1/table" | "/v1/headline" | "/v1/variation" | "/v1/activity"
        | "/v1/compare" | "/v1/netlists" | "/v1/libraries" => Some("POST"),
        "/v1/jobs" => Some("POST, GET"),
        _ if path.starts_with("/v1/traces") => Some("GET"),
        _ if path.starts_with("/v1/jobs/") => {
            if path.ends_with("/result") {
                Some("GET")
            } else {
                Some("GET, DELETE")
            }
        }
        _ => None,
    }
}

/// Files one request's spans into the trace store: each stage that ran,
/// laid out back-to-back from the request start, then a `request`
/// umbrella span covering the whole wall time with the endpoint, status
/// and worker-side annotations attached.
///
/// Trace-introspection endpoints do not record themselves — reading
/// `/v1/traces` in a polling loop would otherwise evict the very traces
/// being read.
fn record_request_spans(
    shared: &Arc<Shared>,
    trace: &RequestTrace,
    endpoint: &str,
    status: u16,
    total: Duration,
    stages: &[(&'static str, Duration)],
) {
    if matches!(
        endpoint,
        "traces" | "metrics" | "healthz" | "logs" | "status"
    ) {
        return;
    }
    // Stage offsets are cumulative in pipeline order — an approximation
    // (the `wait` stage overlaps the worker-side stages), but one that
    // reads correctly as "where the time went".
    let mut offset = Duration::ZERO;
    for (stage, d) in stages {
        shared.traces.record_at(
            &trace.trace_id,
            "request",
            stage,
            scpg_trace::duration_us(offset),
            scpg_trace::duration_us(*d),
            Vec::new(),
        );
        offset += *d;
    }
    let mut annotations = vec![
        ("endpoint".to_string(), endpoint.to_string()),
        ("status".to_string(), status.to_string()),
    ];
    annotations.extend(trace.annotations.iter().cloned());
    shared.traces.record_at(
        &trace.trace_id,
        "request",
        "request",
        0,
        scpg_trace::duration_us(total),
        annotations,
    );
}

type Reply = (u16, &'static str, Vec<u8>);

/// What routing a request produced: either a reply computed inline
/// (cache hits, admission refusals, introspection endpoints) or a job
/// admitted to the worker queue whose [`Slot`] the event loop must watch
/// until `deadline` (then answer `504`).
enum Outcome {
    Ready(Reply),
    Queued { slot: Arc<Slot>, deadline: Instant },
}

impl From<Reply> for Outcome {
    fn from(reply: Reply) -> Self {
        Outcome::Ready(reply)
    }
}

/// Splits `path?query` into the routable path and the raw query string
/// (empty when absent). Exact-match routes ignore the query entirely.
fn split_query(path: &str) -> (&str, &str) {
    match path.split_once('?') {
        Some((p, q)) => (p, q),
        None => (path, ""),
    }
}

/// The raw value of `key` in an `a=1&b=2` query string. No percent
/// decoding: every value these endpoints accept is URL-safe already.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .filter_map(|pair| pair.split_once('='))
        .find(|(k, _)| *k == key)
        .map(|(_, v)| v)
}

fn respond(shared: &Arc<Shared>, req: &Request, trace: &mut RequestTrace) -> Outcome {
    let (path, _query) = split_query(&req.path);
    match (req.method.as_str(), path) {
        ("POST", "/v1/sweep") => handle_api(shared, "sweep", &req.body, trace),
        ("POST", "/v1/table") => handle_api(shared, "table", &req.body, trace),
        ("POST", "/v1/headline") => handle_api(shared, "headline", &req.body, trace),
        ("POST", "/v1/variation") => handle_api(shared, "variation", &req.body, trace),
        ("POST", "/v1/activity") => handle_api(shared, "activity", &req.body, trace),
        ("POST", "/v1/compare") => handle_api(shared, "compare", &req.body, trace),
        _ => respond_inline(shared, req, trace).into(),
    }
}

/// Routes everything that always answers inline (no worker queue).
fn respond_inline(shared: &Arc<Shared>, req: &Request, trace: &mut RequestTrace) -> Reply {
    let (path, query) = split_query(&req.path);
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => {
            shared.metrics.inc_request("healthz");
            trace.endpoint = Some("healthz");
            (200, "application/json", br#"{"status":"ok"}"#.to_vec())
        }
        ("GET", "/metrics") => {
            shared.metrics.inc_request("metrics");
            trace.endpoint = Some("metrics");
            // One read of every store, so the cache counters and its
            // `scpg_store_*` row agree within one exposition.
            let stores = shared.store_stats();
            let mut text = shared.metrics.render(
                shared.queue.depth(),
                shared.queue.capacity(),
                shared.in_flight_conns.load(Ordering::SeqCst),
                &stores[0],
                shared.config.workers.max(2),
                shared.queue.batch_depth(),
            );
            // Trace-store occupancy, owned by this module (the store
            // lives here, not in `metrics`).
            text.push_str(&format!(
                "# HELP scpg_trace_store_entries Traces currently held by the trace store.\n\
                 # TYPE scpg_trace_store_entries gauge\n\
                 scpg_trace_store_entries {}\n",
                shared.traces.len()
            ));
            text.push_str(&format!(
                "# HELP scpg_trace_store_evicted_total Traces evicted to stay within capacity.\n\
                 # TYPE scpg_trace_store_evicted_total counter\n\
                 scpg_trace_store_evicted_total {}\n",
                shared.traces.evicted()
            ));
            // Build identity + uptime, then the uniform per-store gauge
            // families (one `store=` label per bounded structure).
            text.push_str(&metrics::render_build_info(
                shared.started.elapsed().as_secs_f64(),
            ));
            text.push_str(&metrics::render_stores(&stores));
            // This server's latency histograms, then the process-wide
            // engine-stage histograms (distinct family names, so the
            // concatenation stays valid exposition text).
            text.push_str(&shared.trace.render());
            text.push_str(&scpg_trace::global().render());
            (200, "text/plain; version=0.0.4", text.into_bytes())
        }
        ("POST", "/v1/netlists") => handle_netlist_upload(shared, req, trace),
        ("POST", "/v1/libraries") => handle_library_upload(shared, req, trace),
        ("GET", "/v1/designs") => {
            shared.metrics.inc_request("designs");
            trace.endpoint = Some("designs");
            let doc = api::designs_response(
                &shared.config.limits,
                shared.netlists.summaries(),
                shared.libraries.summaries(),
                shared.libraries.limits(),
                api::technique_summaries(&shared.techniques),
            );
            (200, "application/json", doc.write().into_bytes())
        }
        (method, path) if path == "/v1/jobs" || path.starts_with("/v1/jobs/") => {
            handle_jobs(shared, method, path, &req.body, trace)
        }
        (method, path) if path == "/v1/traces" || path.starts_with("/v1/traces/") => {
            handle_traces(shared, method, path, query, trace)
        }
        ("GET", "/v1/logs") => handle_logs(shared, query, trace),
        ("GET", "/v1/status") => handle_status(shared, trace),
        (_, "/healthz" | "/metrics" | "/v1/designs" | "/v1/logs" | "/v1/status") => {
            trace.allow = allow_for(path);
            (
                405,
                "application/json",
                api::error_body("use GET for this endpoint"),
            )
        }
        (
            _,
            "/v1/sweep" | "/v1/table" | "/v1/headline" | "/v1/variation" | "/v1/activity"
            | "/v1/compare" | "/v1/netlists" | "/v1/libraries",
        ) => {
            trace.allow = allow_for(path);
            (
                405,
                "application/json",
                api::error_body("use POST for this endpoint"),
            )
        }
        _ => (404, "application/json", api::error_body("no such endpoint")),
    }
}

fn handle_netlist_upload(shared: &Arc<Shared>, req: &Request, trace: &mut RequestTrace) -> Reply {
    shared.metrics.inc_request("netlists");
    trace.endpoint = Some("netlists");
    let source = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            return (
                400,
                "application/json",
                api::error_body("netlist source must be UTF-8 Verilog text"),
            )
        }
    };
    let clock = req.header("x-scpg-clock").unwrap_or("clk");
    match shared.netlists.upload(source, clock) {
        Ok((entry, created)) => {
            if created {
                shared
                    .metrics
                    .netlists_uploaded
                    .fetch_add(1, Ordering::Relaxed);
            }
            let status = if created { 201 } else { 200 };
            (
                status,
                "application/json",
                entry.summary().write().into_bytes(),
            )
        }
        Err(err) => {
            let status = match &err {
                UploadError::TooLarge { .. } => 413,
                UploadError::Parse { .. } | UploadError::Invalid(_) => 422,
                UploadError::Full { .. } => 429,
                UploadError::Store(_) => 500,
            };
            (status, "application/json", api::upload_error_body(&err))
        }
    }
}

fn handle_library_upload(shared: &Arc<Shared>, req: &Request, trace: &mut RequestTrace) -> Reply {
    shared.metrics.inc_request("libraries");
    trace.endpoint = Some("libraries");
    let source = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => {
            return (
                400,
                "application/json",
                api::error_body("library source must be UTF-8 Liberty text"),
            )
        }
    };
    match shared.libraries.upload(source) {
        Ok((entry, created)) => {
            if created {
                shared
                    .metrics
                    .libraries_uploaded
                    .fetch_add(1, Ordering::Relaxed);
            }
            let status = if created { 201 } else { 200 };
            (
                status,
                "application/json",
                entry.summary().write().into_bytes(),
            )
        }
        Err(err) => {
            let status = match &err {
                LibraryUploadError::TooLarge { .. } => 413,
                LibraryUploadError::Parse { .. } | LibraryUploadError::Invalid(_) => 422,
                LibraryUploadError::Full { .. } => 429,
                LibraryUploadError::Store(_) => 500,
            };
            (status, "application/json", api::library_error_body(&err))
        }
    }
}

fn handle_jobs(
    shared: &Arc<Shared>,
    method: &str,
    path: &str,
    raw_body: &[u8],
    trace: &mut RequestTrace,
) -> Reply {
    shared.metrics.inc_request("jobs");
    trace.endpoint = Some("jobs");
    match (method, path) {
        ("POST", "/v1/jobs") => handle_job_submit(shared, raw_body, &trace.trace_id),
        ("GET", "/v1/jobs") => {
            let doc = Json::object([("jobs", Json::Arr(shared.jobs.summaries()))]);
            (200, "application/json", doc.write().into_bytes())
        }
        (_, "/v1/jobs") => {
            trace.allow = allow_for("/v1/jobs");
            (
                405,
                "application/json",
                api::error_body("use POST (submit) or GET (list) on /v1/jobs"),
            )
        }
        _ => {
            let rest = &path["/v1/jobs/".len()..];
            let (id, tail) = match rest.split_once('/') {
                None => (rest, None),
                Some((id, tail)) => (id, Some(tail)),
            };
            match (method, tail) {
                ("GET", None) => match shared.jobs.status(id) {
                    Some(doc) => (200, "application/json", doc.write().into_bytes()),
                    None => (404, "application/json", api::error_body("no such job")),
                },
                ("GET", Some("result")) => match shared.jobs.result(id) {
                    None => (404, "application/json", api::error_body("no such job")),
                    Some((_, Some(body))) => (200, "application/json", body.as_ref().clone()),
                    Some((state, None)) => (
                        409,
                        "application/json",
                        api::error_body(&format!("job is {}; no result to fetch", state.key())),
                    ),
                },
                ("DELETE", None) => match shared.jobs.cancel(id) {
                    CancelOutcome::Cancelled => (
                        200,
                        "application/json",
                        Json::object([("id", Json::from(id)), ("state", Json::from("cancelled"))])
                            .write()
                            .into_bytes(),
                    ),
                    CancelOutcome::AlreadyTerminal(state) => (
                        409,
                        "application/json",
                        api::error_body(&format!("job already {}", state.key())),
                    ),
                    CancelOutcome::Gone => {
                        (404, "application/json", api::error_body("no such job"))
                    }
                },
                _ => {
                    trace.allow = allow_for(path);
                    (
                        405,
                        "application/json",
                        api::error_body("use GET /v1/jobs/{id}[/result] or DELETE /v1/jobs/{id}"),
                    )
                }
            }
        }
    }
}

/// `GET /v1/traces` (recent-first summaries, paginated by `limit=` and
/// `before=<seq>`) and `GET /v1/traces/{id}` (the full span list in
/// canonical JSON).
fn handle_traces(
    shared: &Arc<Shared>,
    method: &str,
    path: &str,
    query: &str,
    trace: &mut RequestTrace,
) -> Reply {
    shared.metrics.inc_request("traces");
    trace.endpoint = Some("traces");
    if method != "GET" {
        trace.allow = allow_for(path);
        return (
            405,
            "application/json",
            api::error_body("use GET on /v1/traces[/{id}]"),
        );
    }
    if path == "/v1/traces" {
        let limit = match query_param(query, "limit").map(str::parse::<usize>) {
            None => None,
            Some(Ok(n)) => Some(n),
            Some(Err(_)) => {
                return (
                    422,
                    "application/json",
                    api::error_body("limit must be a non-negative integer"),
                )
            }
        };
        let before = match query_param(query, "before").map(str::parse::<u64>) {
            None => None,
            Some(Ok(n)) => Some(n),
            Some(Err(_)) => {
                return (
                    422,
                    "application/json",
                    api::error_body("before must be a trace sequence number"),
                )
            }
        };
        let mut summaries = shared.traces.summaries();
        if let Some(before) = before {
            summaries.retain(|s| s.seq < before);
        }
        if let Some(limit) = limit {
            summaries.truncate(limit);
        }
        // `seq` is the pagination cursor: pass the last row's value as
        // `before=` to fetch the next page.
        let traces: Vec<Json> = summaries
            .into_iter()
            .map(|s| {
                Json::object([
                    ("id", Json::from(s.id)),
                    ("seq", Json::from(s.seq)),
                    ("kind", Json::from(s.kind)),
                    ("started_unix_ms", Json::from(s.started_unix_ms)),
                    ("spans", Json::from(s.spans)),
                    ("total_us", Json::from(s.total_us)),
                ])
            })
            .collect();
        let doc = Json::object([
            ("boot", Json::from(shared.boot_id.as_str())),
            ("capacity", Json::from(shared.traces.capacity())),
            ("evicted", Json::from(shared.traces.evicted())),
            ("traces", Json::Arr(traces)),
        ]);
        return (200, "application/json", doc.write().into_bytes());
    }
    let id = &path["/v1/traces/".len()..];
    match shared.traces.detail(id) {
        None => (
            404,
            "application/json",
            api::error_body("no such trace (it may have been evicted)"),
        ),
        Some(d) => {
            let spans: Vec<Json> = d
                .spans
                .iter()
                .map(|s| {
                    Json::object([
                        ("stage", Json::from(s.stage.as_str())),
                        ("start_us", Json::from(s.start_us)),
                        ("duration_us", Json::from(s.duration_us)),
                        (
                            "annotations",
                            Json::Obj(
                                s.annotations
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::from(v.as_str())))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            let doc = Json::object([
                ("id", Json::from(d.id)),
                ("kind", Json::from(d.kind)),
                ("started_unix_ms", Json::from(d.started_unix_ms)),
                ("dropped_spans", Json::from(d.dropped_spans)),
                ("spans", Json::Arr(spans)),
            ]);
            (200, "application/json", doc.write().into_bytes())
        }
    }
}

/// One wide event in wire form (used by `GET /v1/logs`).
fn event_json(e: scpg_trace::WideEvent) -> Json {
    Json::object([
        ("seq", Json::from(e.seq)),
        ("unix_ms", Json::from(e.unix_ms)),
        ("trace_id", Json::from(e.trace_id)),
        ("kind", Json::from(e.kind)),
        ("endpoint", Json::from(e.endpoint)),
        ("status", Json::from(u64::from(e.status))),
        ("total_us", Json::from(e.total_us)),
        ("queue_wait_us", Json::from(e.queue_wait_us)),
        ("compile_us", Json::from(e.compile_us)),
        ("execute_us", Json::from(e.execute_us)),
        ("loop_cpu_us", Json::from(e.loop_cpu_us)),
        ("worker_cpu_us", Json::from(e.worker_cpu_us)),
        (
            "fields",
            Json::Obj(
                e.fields
                    .into_iter()
                    .map(|(k, v)| (k, Json::from(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Events returned by `GET /v1/logs` when the request names no
/// `limit=`. The ring holds more; an explicit `limit=` raises it.
const DEFAULT_LOG_LIMIT: usize = 100;

/// `GET /v1/logs`: recent-first wide events, filterable by
/// `endpoint=`, `status=`, `min_duration_us=`, `since=` (Unix ms) and
/// `limit=`.
fn handle_logs(shared: &Arc<Shared>, query: &str, trace: &mut RequestTrace) -> Reply {
    shared.metrics.inc_request("logs");
    trace.endpoint = Some("logs");
    let mut filter = scpg_trace::EventFilter {
        endpoint: query_param(query, "endpoint").map(str::to_string),
        ..Default::default()
    };
    // Numeric filters 422 on garbage rather than silently matching
    // everything — a typo in a triage query must not look like "no
    // slow requests".
    macro_rules! numeric {
        ($key:literal, $ty:ty, $slot:expr) => {
            if let Some(raw) = query_param(query, $key) {
                match raw.parse::<$ty>() {
                    Ok(v) => $slot = Some(v),
                    Err(_) => {
                        return (
                            422,
                            "application/json",
                            api::error_body(concat!($key, " must be a non-negative integer")),
                        )
                    }
                }
            }
        };
    }
    numeric!("status", u16, filter.status);
    numeric!("min_duration_us", u64, filter.min_duration_us);
    numeric!("since", u64, filter.since_unix_ms);
    numeric!("limit", usize, filter.limit);
    if filter.limit.is_none() {
        filter.limit = Some(DEFAULT_LOG_LIMIT);
    }
    let events: Vec<Json> = shared
        .events
        .query(&filter)
        .into_iter()
        .map(event_json)
        .collect();
    let doc = Json::object([
        ("capacity", Json::from(shared.events.capacity())),
        ("recorded", Json::from(shared.events.recorded())),
        ("evicted", Json::from(shared.events.evicted())),
        ("events", Json::Arr(events)),
    ]);
    (200, "application/json", doc.write().into_bytes())
}

/// `GET /v1/status`: one operational snapshot — build identity, uptime,
/// queue depths, event-loop lag, and the uniform [`scpg_trace::Introspect`]
/// row for every bounded structure.
fn handle_status(shared: &Arc<Shared>, trace: &mut RequestTrace) -> Reply {
    shared.metrics.inc_request("status");
    trace.endpoint = Some("status");
    let stores: Vec<Json> = shared
        .store_stats()
        .into_iter()
        .map(|s| {
            Json::object([
                ("name", Json::from(s.name)),
                ("entries", Json::from(s.entries)),
                ("capacity", Json::from(s.capacity)),
                ("bytes_estimate", Json::from(s.bytes_estimate)),
                ("hits", Json::from(s.hits)),
                ("misses", Json::from(s.misses)),
                ("evictions", Json::from(s.evictions)),
            ])
        })
        .collect();
    let doc = Json::object([
        ("boot", Json::from(shared.boot_id.as_str())),
        ("version", Json::from(metrics::BUILD_VERSION)),
        ("git", Json::from(metrics::BUILD_GIT)),
        (
            "uptime_seconds",
            Json::from(shared.started.elapsed().as_secs_f64()),
        ),
        (
            "connections_in_flight",
            Json::from(shared.in_flight_conns.load(Ordering::SeqCst)),
        ),
        ("workers", Json::from(shared.config.workers.max(2))),
        (
            "queue",
            Json::object([
                ("depth", Json::from(shared.queue.depth())),
                ("batch_depth", Json::from(shared.queue.batch_depth())),
                ("capacity", Json::from(shared.queue.capacity())),
            ]),
        ),
        (
            "event_loop",
            Json::object([
                (
                    "lag_last_us",
                    Json::from(shared.loop_lag_last_us.load(Ordering::Relaxed)),
                ),
                (
                    "lag_max_us",
                    Json::from(shared.loop_lag_max_us.load(Ordering::Relaxed)),
                ),
                (
                    "stalls_total",
                    Json::from(shared.metrics.eventloop_stalls.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        ("stores", Json::Arr(stores)),
    ]);
    (200, "application/json", doc.write().into_bytes())
}

fn handle_job_submit(shared: &Arc<Shared>, raw_body: &[u8], trace_id: &str) -> Reply {
    let text = match std::str::from_utf8(raw_body) {
        Ok(t) => t,
        Err(_) => {
            return (
                400,
                "application/json",
                api::error_body("body is not UTF-8"),
            )
        }
    };
    let body = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, "application/json", api::error_body(&e.to_string())),
    };
    let Some(kind) = body.get("kind").and_then(Json::as_str) else {
        return (
            422,
            "application/json",
            api::error_body("kind must be \"sweep\", \"table\", \"variation\" or \"compare\""),
        );
    };
    let request = body
        .get("request")
        .cloned()
        .unwrap_or_else(|| Json::Obj(Vec::new()));
    let chunk_units = match body.get("chunk_units") {
        None => None,
        Some(v) => match v.as_u64() {
            Some(n) if n >= 1 => Some(n as usize),
            _ => {
                return (
                    422,
                    "application/json",
                    api::error_body("chunk_units must be a positive integer"),
                )
            }
        },
    };
    // The request's trace id becomes the job's: chunk spans executed
    // minutes later (or after a restart) file under the id the submitter
    // already holds.
    match shared
        .jobs
        .submit(kind, request, chunk_units, Some(trace_id))
    {
        Ok((id, total_units)) => {
            shared
                .metrics
                .jobs_submitted
                .fetch_add(1, Ordering::Relaxed);
            if let Err(id) = shared.queue.push_batch(id.clone()) {
                // No batch slot (lane full or shutting down): never leave
                // an accepted job stalled with no token to drive it.
                shared.jobs.fail(&id, "no batch capacity to run this job");
                return (
                    429,
                    "application/json",
                    api::error_body("batch lane is full; retry with backoff"),
                );
            }
            (
                202,
                "application/json",
                Json::object([
                    ("id", Json::from(id)),
                    ("total_units", Json::from(total_units)),
                    ("trace_id", Json::from(trace_id)),
                ])
                .write()
                .into_bytes(),
            )
        }
        Err(SubmitError::Refused(e)) => (422, "application/json", api::error_body(&e)),
        Err(err @ SubmitError::Busy { .. }) => {
            (429, "application/json", api::error_body(&err.to_string()))
        }
    }
}

/// The cache key: endpoint + canonical body with transport-only fields
/// (the deadline) stripped, so retries with different deadlines still
/// hit.
fn cache_key(endpoint: &str, body: &Json) -> String {
    let mut keyed = body.clone();
    if let Json::Obj(ref mut pairs) = keyed {
        pairs.retain(|(k, _)| k != "deadline_ms");
    }
    format!("{endpoint} {}", keyed.canonical())
}

fn handle_api(
    shared: &Arc<Shared>,
    endpoint: &'static str,
    raw_body: &[u8],
    trace: &mut RequestTrace,
) -> Outcome {
    shared.metrics.inc_request(endpoint);
    trace.endpoint = Some(endpoint);

    let text = match std::str::from_utf8(raw_body) {
        Ok(t) => t,
        Err(_) => {
            return (
                400,
                "application/json",
                api::error_body("body is not UTF-8"),
            )
                .into()
        }
    };
    let body = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return (400, "application/json", api::error_body(&e.to_string())).into(),
    };

    // Validate the deadline before the cache lookup: a present but
    // non-integral value is a 422 like every other bad field, never
    // silently replaced by the default (or masked by a cache hit, since
    // the cache key strips `deadline_ms`).
    let requested_ms = match body.get("deadline_ms") {
        None => shared.config.default_deadline_ms,
        Some(v) => match v.as_u64() {
            Some(ms) => ms,
            None => {
                return (
                    422,
                    "application/json",
                    api::error_body(
                        "deadline_ms must be a non-negative integral number of milliseconds",
                    ),
                )
                    .into()
            }
        },
    }
    .clamp(1, shared.config.max_deadline_ms);

    let key = cache_key(endpoint, &body);
    let lookup_started = Instant::now();
    let hit = shared.cache.get(&key);
    trace.cache_lookup = Some(lookup_started.elapsed());
    if let Some(hit) = hit {
        trace
            .annotations
            .push(("cache".to_string(), "hit".to_string()));
        return (200, "application/json", hit.as_ref().clone()).into();
    }
    trace
        .annotations
        .push(("cache".to_string(), "miss".to_string()));

    // Admission-check and fully parse the request *before* it costs a
    // queue slot; refusals answer 422 without touching the engine.
    let limits = shared.config.limits;
    let work: Box<dyn FnOnce() -> JobOutput + Send> = {
        let registry = Arc::clone(&shared.registry);
        let netlists = Arc::clone(&shared.netlists);
        let libraries = Arc::clone(&shared.libraries);
        let delay = shared.config.debug_job_delay_ms;
        match endpoint {
            "sweep" | "table" | "headline" => {
                let parsed = match endpoint {
                    "sweep" => api::parse_sweep(&body, &limits),
                    "table" => api::parse_table(&body, &limits),
                    _ => api::parse_headline(&body, &limits),
                };
                let (spec, query) = match parsed {
                    Ok(p) => p,
                    Err(e) => return (422, "application/json", api::error_body(&e)).into(),
                };
                Box::new(move || run_query(&registry, &netlists, &libraries, spec, &query, delay))
            }
            "variation" => {
                let (spec, cfg) = match api::parse_variation(&body, &limits) {
                    Ok(p) => p,
                    Err(e) => return (422, "application/json", api::error_body(&e)).into(),
                };
                Box::new(move || run_variation(&registry, &netlists, &libraries, spec, &cfg, delay))
            }
            "activity" => {
                let (spec, req) = match api::parse_activity(&body, &limits) {
                    Ok(p) => p,
                    Err(e) => return (422, "application/json", api::error_body(&e)).into(),
                };
                let choice = shared.config.force_engine;
                Box::new(move || {
                    run_activity(&registry, &netlists, &libraries, spec, req, choice, delay)
                })
            }
            "compare" => {
                let parsed = api::parse_compare(&body, &limits, &shared.techniques);
                let (spec, frequencies, techs) = match parsed {
                    Ok(p) => p,
                    Err(e) => return (422, "application/json", api::error_body(&e)).into(),
                };
                // The worker needs the technique registry, metrics and
                // trace store, so it captures the whole shared state.
                let shared = Arc::clone(shared);
                let trace_id = trace.trace_id.clone();
                Box::new(move || run_compare(&shared, spec, &frequencies, &techs, &trace_id, delay))
            }
            _ => unreachable!("handle_api is only routed for v1 endpoints"),
        }
    };

    let deadline = Instant::now() + Duration::from_millis(requested_ms);

    let slot = Slot::new();
    let job = Job {
        enqueued_at: Instant::now(),
        deadline,
        slot: Arc::clone(&slot),
        cache_key: key,
        trace_id: trace.trace_id.clone(),
        work,
    };
    if shared.queue.try_push(job).is_err() {
        shared
            .metrics
            .queue_rejections
            .fetch_add(1, Ordering::Relaxed);
        return (
            429,
            "application/json",
            api::error_body("work queue is full; retry with backoff"),
        )
            .into();
    }

    // Admitted: the event loop parks the connection on this slot (its
    // notify hook wakes the loop when a worker fulfills it) and answers
    // `504` if `deadline` passes first. The connection's `wait` stage is
    // measured there.
    Outcome::Queued { slot, deadline }
}

fn debug_delay(delay_ms: u64) {
    if delay_ms > 0 {
        std::thread::sleep(Duration::from_millis(delay_ms));
    }
}

/// The worker-side trace annotations: which design ran and how much
/// engine work the window saw. The counters are process-wide, so under
/// concurrent load a delta attributes all engine work in the window —
/// exact on a quiet server, an upper bound otherwise (see
/// [`scpg::service::EngineWork`]).
fn work_annotations(
    spec: &designs::DesignSpec,
    before: scpg::service::EngineWork,
) -> Vec<(String, String)> {
    let delta = scpg::service::EngineWork::snapshot().delta_since(before);
    vec![
        ("design".to_string(), spec.key()),
        ("sim_events".to_string(), delta.sim.events.to_string()),
        (
            "sim_gate_evals".to_string(),
            delta.sim.gate_evals.to_string(),
        ),
        (
            "bitpar_words".to_string(),
            delta.bitpar.words_evaluated.to_string(),
        ),
        (
            "bitpar_cone_skips".to_string(),
            delta.bitpar.cone_skips.to_string(),
        ),
        ("exec_tasks".to_string(), delta.exec_tasks.to_string()),
    ]
}

fn run_query(
    registry: &DesignRegistry,
    netlists: &NetlistRegistry,
    libraries: &LibraryRegistry,
    spec: designs::DesignSpec,
    query: &Query,
    delay_ms: u64,
) -> JobOutput {
    debug_delay(delay_ms);
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();

    let compile_started = Instant::now();
    let analysis = registry
        .get(&spec, Some(netlists), Some(libraries))
        .and_then(|artifact| artifact.analysis());
    timing.compile = Some(compile_started.elapsed());
    let analysis = match analysis {
        Ok(a) => a,
        Err(e) => {
            let mut out = JobOutput::new(422, api::error_body(&e));
            out.timing = timing;
            return out;
        }
    };

    let execute_started = Instant::now();
    let outcome = query.run(&analysis);
    timing.execute = Some(execute_started.elapsed());

    let serialize_started = Instant::now();
    let doc = match outcome {
        QueryOutcome::Points(points) => {
            let mode = match query {
                Query::Sweep { mode, .. } => *mode,
                _ => unreachable!("points only come from sweeps"),
            };
            api::sweep_response(&spec, mode, &points)
        }
        QueryOutcome::Rows(rows) => api::table_response(&spec, &rows),
        QueryOutcome::Headline(h) => api::headline_response(&spec, h.as_ref()),
    };
    let body = doc.write().into_bytes();
    timing.serialize = Some(serialize_started.elapsed());

    let mut out = JobOutput::new(200, body);
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out
}

fn run_variation(
    registry: &DesignRegistry,
    netlists: &NetlistRegistry,
    libraries: &LibraryRegistry,
    spec: designs::DesignSpec,
    cfg: &scpg_power::VariationConfig,
    delay_ms: u64,
) -> JobOutput {
    debug_delay(delay_ms);
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();

    let compile_started = Instant::now();
    let artifact = registry.get(&spec, Some(netlists), Some(libraries));
    timing.compile = Some(compile_started.elapsed());
    let artifact = match artifact {
        Ok(a) => a,
        Err(e) => {
            let mut out = JobOutput::new(422, api::error_body(&e));
            out.timing = timing;
            return out;
        }
    };

    let execute_started = Instant::now();
    let study = VariationStudy::run(&artifact.baseline, &artifact.lib, artifact.spec.e_dyn, cfg);
    timing.execute = Some(execute_started.elapsed());

    let mut out = match study {
        Ok(study) => {
            let serialize_started = Instant::now();
            let body = api::variation_response(&spec, &study).write().into_bytes();
            timing.serialize = Some(serialize_started.elapsed());
            JobOutput::new(200, body)
        }
        Err(e) => JobOutput::new(
            422,
            api::error_body(&format!("variation study failed: {e}")),
        ),
    };
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out
}

fn run_activity(
    registry: &DesignRegistry,
    netlists: &NetlistRegistry,
    libraries: &LibraryRegistry,
    spec: designs::DesignSpec,
    req: api::ActivityRequest,
    choice: scpg_sim::EngineChoice,
    delay_ms: u64,
) -> JobOutput {
    debug_delay(delay_ms);
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();

    let compile_started = Instant::now();
    let compiled = registry
        .get(&spec, Some(netlists), Some(libraries))
        .and_then(|artifact| artifact.compiled().map(|c| (c, artifact.clock.clone())));
    timing.compile = Some(compile_started.elapsed());
    let (compiled, clock) = match compiled {
        Ok(c) => c,
        Err(e) => {
            let mut out = JobOutput::new(422, api::error_body(&e));
            out.timing = timing;
            return out;
        }
    };

    let execute_started = Instant::now();
    let report = scpg::extract_activity(&compiled, &clock, req.cycles, req.lanes, req.seed, choice);
    timing.execute = Some(execute_started.elapsed());

    let mut out = match report {
        Ok(report) => {
            let serialize_started = Instant::now();
            let body = api::activity_response(&spec, &report).write().into_bytes();
            timing.serialize = Some(serialize_started.elapsed());
            let mut out = JobOutput::new(200, body);
            // The engine that ran is trace-only: the response body stays
            // byte-identical across engines by construction.
            out.annotations
                .push(("engine".to_string(), report.engine.key().to_string()));
            out
        }
        Err(e) => JobOutput::new(
            422,
            api::error_body(&format!("activity extraction failed: {e}")),
        ),
    };
    out.timing = timing;
    out.annotations.extend(work_annotations(&spec, work_before));
    out
}

/// The `/v1/compare` worker: prepares each requested technique's model
/// against the shared design artifact (cached per (technique, params) in
/// the artifact's LRU, so repeated compares never recompile), evaluates
/// the frequency sweep, and assembles the rows through the same builders
/// the batch-job path uses. Each technique files a span under the
/// request's trace id.
fn run_compare(
    shared: &Arc<Shared>,
    spec: designs::DesignSpec,
    frequencies: &[Frequency],
    techniques: &[api::CompareTechnique],
    trace_id: &str,
    delay_ms: u64,
) -> JobOutput {
    debug_delay(delay_ms);
    let mut timing = JobTiming::default();
    let work_before = scpg::service::EngineWork::snapshot();

    let compile_started = Instant::now();
    let artifact = shared
        .registry
        .get(&spec, Some(&shared.netlists), Some(&shared.libraries));
    timing.compile = Some(compile_started.elapsed());
    let artifact = match artifact {
        Ok(a) => a,
        Err(e) => {
            let mut out = JobOutput::new(422, api::error_body(&e));
            out.timing = timing;
            return out;
        }
    };

    let execute_started = Instant::now();
    let mut rows = Vec::with_capacity(techniques.len());
    for t in techniques {
        let tech = shared
            .techniques
            .get(&t.name)
            .expect("parse_compare resolved every technique name");
        let tech_started = Instant::now();
        let model = match artifact.technique_model(tech, &t.params) {
            Ok(m) => m,
            Err(err) => {
                // AlreadyTransformed / Unsupported / BadParams are the
                // request's fault (422, structured for double-gating);
                // engine failures are ours (500).
                let status = match &err {
                    TechniqueError::Engine(_) => 500,
                    _ => 422,
                };
                let mut out = JobOutput::new(status, api::technique_error_body(&err));
                out.timing = timing;
                return out;
            }
        };
        let points: Vec<Json> = frequencies
            .iter()
            .map(|&f| api::technique_point_json(&model.evaluate(f)))
            .collect();
        shared.traces.record_now(
            trace_id,
            "request",
            &format!("technique:{}", t.name),
            tech_started.elapsed(),
            vec![("params".to_string(), t.params.canonical())],
        );
        shared
            .metrics
            .compare_techniques
            .fetch_add(1, Ordering::Relaxed);
        shared
            .metrics
            .compare_points
            .fetch_add(frequencies.len() as u64, Ordering::Relaxed);
        rows.push(api::compare_row_with_points(
            &t.name,
            &t.params,
            &model.area(),
            &model.delay(),
            points,
        ));
    }
    timing.execute = Some(execute_started.elapsed());

    let serialize_started = Instant::now();
    let body = api::compare_response_with_rows(&spec, rows)
        .write()
        .into_bytes();
    timing.serialize = Some(serialize_started.elapsed());

    let mut out = JobOutput::new(200, body);
    out.timing = timing;
    out.annotations = work_annotations(&spec, work_before);
    out.annotations.push((
        "techniques".to_string(),
        techniques
            .iter()
            .map(|t| t.name.as_str())
            .collect::<Vec<_>>()
            .join(","),
    ));
    out
}

/// A batch job's request, parsed back into the serving layer's own
/// domain types. Batch jobs reuse the interactive path's parsers and
/// response builders end to end, which is what makes an assembled job
/// result byte-identical to the interactive response for the same body.
enum PlannedJob {
    Sweep {
        spec: DesignSpec,
        frequencies: Vec<Frequency>,
        mode: Mode,
    },
    Table {
        spec: DesignSpec,
        frequencies: Vec<Frequency>,
    },
    Variation {
        spec: DesignSpec,
        cfg: VariationConfig,
    },
    Compare {
        spec: DesignSpec,
        frequencies: Vec<Frequency>,
        techs: Vec<api::CompareTechnique>,
    },
}

/// [`ChunkExecutor`] over the serving layer: one work unit is one
/// frequency (sweeps/tables) or one whole study (variation).
struct ServeExecutor {
    registry: Arc<DesignRegistry>,
    techniques: Arc<TechniqueRegistry>,
    netlists: Arc<NetlistRegistry>,
    libraries: Arc<LibraryRegistry>,
    limits: QueryLimits,
    debug_job_delay_ms: u64,
}

impl ServeExecutor {
    fn parse(&self, spec: &JobSpec) -> Result<PlannedJob, String> {
        match spec.kind.as_str() {
            "sweep" => {
                let (dspec, query) = api::parse_sweep(&spec.request, &self.limits)?;
                match query {
                    Query::Sweep { frequencies, mode } => Ok(PlannedJob::Sweep {
                        spec: dspec,
                        frequencies,
                        mode,
                    }),
                    _ => unreachable!("parse_sweep yields sweeps"),
                }
            }
            "table" => {
                let (dspec, query) = api::parse_table(&spec.request, &self.limits)?;
                match query {
                    Query::Table { frequencies } => Ok(PlannedJob::Table {
                        spec: dspec,
                        frequencies,
                    }),
                    _ => unreachable!("parse_table yields tables"),
                }
            }
            "variation" => {
                let (dspec, cfg) = api::parse_variation(&spec.request, &self.limits)?;
                Ok(PlannedJob::Variation { spec: dspec, cfg })
            }
            "compare" => {
                let (dspec, frequencies, techs) =
                    api::parse_compare(&spec.request, &self.limits, &self.techniques)?;
                Ok(PlannedJob::Compare {
                    spec: dspec,
                    frequencies,
                    techs,
                })
            }
            other => Err(format!(
                "unknown job kind {other:?} (sweep | table | variation | compare)"
            )),
        }
    }
}

impl ChunkExecutor for ServeExecutor {
    fn plan(&self, spec: &JobSpec) -> Result<usize, String> {
        let planned = self.parse(spec)?;
        let (dspec, units) = match &planned {
            PlannedJob::Sweep {
                spec, frequencies, ..
            } => (spec, frequencies.len()),
            PlannedJob::Table { spec, frequencies } => (spec, frequencies.len()),
            PlannedJob::Variation { spec, .. } => (spec, 1),
            PlannedJob::Compare {
                spec,
                frequencies,
                techs,
            } => (spec, frequencies.len() * techs.len()),
        };
        // Resolve the design now so an unknown netlist id refuses the
        // submission outright instead of failing the job's first chunk.
        self.registry
            .get(dspec, Some(&self.netlists), Some(&self.libraries))?;
        Ok(units)
    }

    fn execute(&self, spec: &JobSpec, start: usize, count: usize) -> Result<Vec<Json>, String> {
        debug_delay(self.debug_job_delay_ms);
        match self.parse(spec)? {
            PlannedJob::Sweep {
                spec: dspec,
                frequencies,
                mode,
            } => {
                let artifact =
                    self.registry
                        .get(&dspec, Some(&self.netlists), Some(&self.libraries))?;
                let analysis = artifact.analysis()?;
                // Operating points are per-frequency independent, so a
                // sub-slice sweep equals the same slice of a full sweep.
                let slice = &frequencies[start..start + count];
                Ok(analysis
                    .sweep(slice, mode)
                    .iter()
                    .map(api::point_json)
                    .collect())
            }
            PlannedJob::Table {
                spec: dspec,
                frequencies,
            } => {
                let artifact =
                    self.registry
                        .get(&dspec, Some(&self.netlists), Some(&self.libraries))?;
                let analysis = artifact.analysis()?;
                let slice = &frequencies[start..start + count];
                Ok(analysis.table(slice).iter().map(api::row_json).collect())
            }
            PlannedJob::Variation { spec: dspec, cfg } => {
                let artifact =
                    self.registry
                        .get(&dspec, Some(&self.netlists), Some(&self.libraries))?;
                let study = VariationStudy::run(
                    &artifact.baseline,
                    &artifact.lib,
                    artifact.spec.e_dyn,
                    &cfg,
                )
                .map_err(|e| format!("variation study failed: {e}"))?;
                Ok(vec![api::variation_response(&dspec, &study)])
            }
            PlannedJob::Compare {
                spec: dspec,
                frequencies,
                techs,
            } => {
                let artifact =
                    self.registry
                        .get(&dspec, Some(&self.netlists), Some(&self.libraries))?;
                // Units are technique-major: unit u is technique u/nf at
                // frequency u%nf, so one chunk slices cleanly out of the
                // full (technique × frequency) grid.
                let nf = frequencies.len();
                let mut frags = Vec::with_capacity(count);
                for unit in start..start + count {
                    let t = &techs[unit / nf];
                    let tech = self
                        .techniques
                        .get(&t.name)
                        .ok_or_else(|| format!("unknown technique {:?}", t.name))?;
                    let model = artifact
                        .technique_model(tech, &t.params)
                        .map_err(|e| e.to_string())?;
                    frags.push(api::technique_point_json(
                        &model.evaluate(frequencies[unit % nf]),
                    ));
                }
                Ok(frags)
            }
        }
    }

    fn assemble(&self, spec: &JobSpec, fragments: &[Json]) -> Result<Vec<u8>, String> {
        match self.parse(spec)? {
            PlannedJob::Sweep {
                spec: dspec, mode, ..
            } => Ok(
                api::sweep_response_with_points(&dspec, mode, fragments.to_vec())
                    .write()
                    .into_bytes(),
            ),
            PlannedJob::Table { spec: dspec, .. } => {
                Ok(api::table_response_with_rows(&dspec, fragments.to_vec())
                    .write()
                    .into_bytes())
            }
            PlannedJob::Variation { .. } => {
                let doc = fragments
                    .first()
                    .ok_or("variation job produced no fragment")?;
                Ok(doc.write().into_bytes())
            }
            PlannedJob::Compare {
                spec: dspec,
                frequencies,
                techs,
            } => {
                let nf = frequencies.len();
                if fragments.len() != nf * techs.len() {
                    return Err(format!(
                        "compare job assembled {} fragments, expected {}",
                        fragments.len(),
                        nf * techs.len()
                    ));
                }
                // Area/delay rollups come from the prepared models — hot
                // in the artifact's technique LRU after the chunks ran.
                let artifact =
                    self.registry
                        .get(&dspec, Some(&self.netlists), Some(&self.libraries))?;
                let mut rows = Vec::with_capacity(techs.len());
                for (i, t) in techs.iter().enumerate() {
                    let tech = self
                        .techniques
                        .get(&t.name)
                        .ok_or_else(|| format!("unknown technique {:?}", t.name))?;
                    let model = artifact
                        .technique_model(tech, &t.params)
                        .map_err(|e| e.to_string())?;
                    rows.push(api::compare_row_with_points(
                        &t.name,
                        &t.params,
                        &model.area(),
                        &model.delay(),
                        fragments[i * nf..(i + 1) * nf].to_vec(),
                    ));
                }
                Ok(api::compare_response_with_rows(&dspec, rows)
                    .write()
                    .into_bytes())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let handle = Server::bind(tiny_config()).unwrap().spawn();
        let addr = handle.addr();
        let ok = client::get(addr, "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        assert!(ok.text().contains("ok"));
        let missing = client::get(addr, "/nope").unwrap();
        assert_eq!(missing.status, 404);
        let wrong_method = client::post(addr, "/healthz", "{}").unwrap();
        assert_eq!(wrong_method.status, 405);
        let wrong_method = client::get(addr, "/v1/sweep").unwrap();
        assert_eq!(wrong_method.status, 405);
        handle.shutdown();
    }

    #[test]
    fn cache_key_ignores_key_order_and_deadline() {
        let a =
            Json::parse(r#"{"frequencies_hz": [1e6], "mode": "scpg", "deadline_ms": 5}"#).unwrap();
        let b = Json::parse(r#"{"mode": "scpg", "deadline_ms": 900, "frequencies_hz": [1000000]}"#)
            .unwrap();
        assert_eq!(cache_key("sweep", &a), cache_key("sweep", &b));
        let c = Json::parse(r#"{"frequencies_hz": [2e6], "mode": "scpg"}"#).unwrap();
        assert_ne!(cache_key("sweep", &a), cache_key("sweep", &c));
        assert_ne!(cache_key("sweep", &a), cache_key("table", &a));
    }

    #[test]
    fn panicking_job_answers_500_and_keeps_workers_alive() {
        let server = Server::bind(tiny_config()).unwrap();
        let shared = Arc::clone(&server.shared);
        let handle = server.spawn();
        let slot = Slot::new();
        assert!(shared
            .queue
            .try_push(Job {
                enqueued_at: Instant::now(),
                deadline: Instant::now() + Duration::from_secs(5),
                slot: Arc::clone(&slot),
                cache_key: "test panic".to_string(),
                trace_id: "t-test-panic".to_string(),
                work: Box::new(|| panic!("deliberate test panic")),
            })
            .is_ok());
        let out = slot
            .wait_until(Instant::now() + Duration::from_secs(5))
            .expect("panic must still answer the waiter");
        assert_eq!(out.status, 500);
        assert_eq!(handle.metrics().handler_panics, 1);
        // The worker survived the unwind: the service still answers.
        let ok = client::get(handle.addr(), "/healthz").unwrap();
        assert_eq!(ok.status, 200);
        handle.shutdown();
    }

    #[test]
    fn unprocessable_requests_answer_422_without_queueing() {
        let handle = Server::bind(tiny_config()).unwrap().spawn();
        let addr = handle.addr();
        let resp = client::post(addr, "/v1/sweep", r#"{"frequencies_hz": []}"#).unwrap();
        assert_eq!(resp.status, 422);
        assert!(resp.text().contains("non-empty"), "{}", resp.text());
        let before = handle.metrics();
        assert_eq!(before.jobs_completed, 0, "nothing reached the workers");
        handle.shutdown();
    }
}
