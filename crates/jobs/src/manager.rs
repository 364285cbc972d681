//! Checkpointed asynchronous job manager.
//!
//! A job is a long-running analysis request (sweep / table / variation)
//! split into bounded **chunks** so batch work shares a worker pool with
//! interactive requests without starving them.  The manager itself is
//! execution-agnostic: the embedding layer supplies a [`ChunkExecutor`]
//! that knows how to plan a request into work units, evaluate a window of
//! units into JSON fragments, and assemble the fragments into the final
//! response body.  That inversion keeps this crate free of any dependency
//! on the HTTP layer while letting the HTTP layer guarantee that an
//! assembled job result is byte-identical to the equivalent interactive
//! response.
//!
//! After every chunk the job record (spec, progress, fragments) is
//! checkpointed through the [`Store`]; a restarted process calls
//! [`JobManager::resumable`] and re-dispatches unfinished jobs, which
//! continue from their last completed chunk.  Cancellation is
//! cooperative: it flips the state between chunks, and a chunk already
//! executing discards its output when it lands on a cancelled job.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use scpg_json::Json;
use scpg_trace::TraceStore;

use crate::store::Store;

/// Namespace job records persist under.
pub const NS_JOBS: &str = "jobs";

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for its next chunk to be scheduled.
    Queued,
    /// A chunk is currently executing.
    Running,
    /// Cancelled by the client; no further chunks will run.
    Cancelled,
    /// A chunk or assembly failed; `error` holds the reason.
    Failed,
    /// All chunks completed and the result is assembled.
    Done,
}

impl JobState {
    /// Stable wire/persistence name.
    pub fn key(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
            JobState::Done => "done",
        }
    }

    fn from_key(key: &str) -> Option<Self> {
        Some(match key {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "cancelled" => JobState::Cancelled,
            "failed" => JobState::Failed,
            "done" => JobState::Done,
            _ => return None,
        })
    }

    /// True for states that will never change again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Cancelled | JobState::Failed | JobState::Done
        )
    }
}

/// What a job is asked to do: an endpoint kind plus its canonicalized
/// request object (exactly what the interactive endpoint would receive).
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Endpoint kind: `"sweep"`, `"table"` or `"variation"`.
    pub kind: String,
    /// The request body, canonicalized.
    pub request: Json,
}

/// Supplied by the embedding layer; pure with respect to the manager.
pub trait ChunkExecutor: Send + Sync {
    /// Validates `spec` and returns the total number of work units
    /// (e.g. sweep points or table rows). Must be ≥ 1 on success.
    fn plan(&self, spec: &JobSpec) -> Result<usize, String>;

    /// Evaluates units `[start, start + count)` into one JSON fragment
    /// per unit. Deterministic: the same window always yields the same
    /// fragments, which is what makes resume-from-checkpoint exact.
    fn execute(&self, spec: &JobSpec, start: usize, count: usize) -> Result<Vec<Json>, String>;

    /// Assembles the full ordered fragment list into the final response
    /// body (must be byte-identical to the interactive endpoint's body
    /// for the same request).
    fn assemble(&self, spec: &JobSpec, fragments: &[Json]) -> Result<Vec<u8>, String>;
}

/// Admission and chunking limits.
#[derive(Debug, Clone, Copy)]
pub struct JobLimits {
    /// Maximum jobs in a non-terminal state at once.
    pub max_active_jobs: usize,
    /// Maximum job records retained (terminal jobs are evicted
    /// oldest-first past this).
    pub max_stored_jobs: usize,
    /// Work units per chunk when the client does not choose.
    pub default_chunk_units: usize,
    /// Upper bound on client-chosen chunk size.
    pub max_chunk_units: usize,
}

impl Default for JobLimits {
    fn default() -> Self {
        JobLimits {
            max_active_jobs: 8,
            max_stored_jobs: 256,
            default_chunk_units: 4,
            max_chunk_units: 64,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The executor rejected the spec (bad request).
    Refused(String),
    /// Too many active jobs.
    Busy {
        /// Jobs currently active.
        active: usize,
        /// Configured ceiling.
        limit: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Refused(msg) => write!(f, "job refused: {msg}"),
            SubmitError::Busy { active, limit } => {
                write!(f, "too many active jobs ({active}/{limit})")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Outcome of running one chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRun {
    /// More chunks remain; re-dispatch the job.
    More,
    /// The job reached a terminal state (done, failed or cancelled).
    Finished,
    /// No such job (evicted or never existed).
    Gone,
}

/// Outcome of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was active and is now cancelled.
    Cancelled,
    /// The job had already reached this terminal state.
    AlreadyTerminal(JobState),
    /// No such job.
    Gone,
}

/// Timing record of one completed chunk, persisted with the job so a
/// restarted server can replay the prior incarnation's spans into its
/// trace store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkMark {
    /// Zero-based chunk index (`done-units-before / chunk_units`).
    pub index: u64,
    /// Work units the chunk evaluated.
    pub units: u64,
    /// Microseconds from this job's (incarnation-local) start to the
    /// chunk's start.
    pub offset_us: u64,
    /// Chunk execution time in microseconds.
    pub duration_us: u64,
    /// Boot id of the server incarnation that ran the chunk.
    pub boot: String,
}

impl ChunkMark {
    fn record(&self) -> Json {
        Json::object([
            ("index", Json::from(self.index)),
            ("units", Json::from(self.units)),
            ("offset_us", Json::from(self.offset_us)),
            ("duration_us", Json::from(self.duration_us)),
            ("boot", Json::from(self.boot.as_str())),
        ])
    }

    fn from_record(record: &Json) -> Option<ChunkMark> {
        Some(ChunkMark {
            index: record.get("index")?.as_u64()?,
            units: record.get("units")?.as_u64()?,
            offset_us: record.get("offset_us")?.as_u64()?,
            duration_us: record.get("duration_us")?.as_u64()?,
            boot: record.get("boot")?.as_str()?.to_string(),
        })
    }
}

struct JobEntry {
    spec: JobSpec,
    chunk_units: usize,
    total_units: usize,
    done_units: usize,
    fragments: Vec<Json>,
    state: JobState,
    error: Option<String>,
    result: Option<Arc<Vec<u8>>>,
    /// Monotone admission order, used for oldest-first eviction.
    admitted: u64,
    /// The request's trace id; survives checkpoints and restarts.
    trace_id: String,
    /// Per-chunk timing, in completion order.
    chunks: Vec<ChunkMark>,
    /// When this incarnation first saw the job (admission or reload);
    /// anchors chunk offsets. Not persisted.
    started: Instant,
}

impl JobEntry {
    fn record(&self, id: &str) -> Json {
        let mut fields = vec![
            ("id".to_string(), Json::from(id)),
            ("kind".to_string(), Json::from(self.spec.kind.as_str())),
            ("request".to_string(), self.spec.request.clone()),
            ("chunk_units".to_string(), Json::from(self.chunk_units)),
            ("total_units".to_string(), Json::from(self.total_units)),
            ("done_units".to_string(), Json::from(self.done_units)),
            // `Running` is an in-memory condition; on disk an unfinished
            // job is always `queued` so a restart re-dispatches it.
            (
                "state".to_string(),
                Json::from(if self.state == JobState::Running {
                    JobState::Queued.key()
                } else {
                    self.state.key()
                }),
            ),
            ("fragments".to_string(), Json::Arr(self.fragments.clone())),
            ("trace_id".to_string(), Json::from(self.trace_id.as_str())),
            (
                "chunks".to_string(),
                Json::Arr(self.chunks.iter().map(ChunkMark::record).collect()),
            ),
        ];
        if let Some(err) = &self.error {
            fields.push(("error".to_string(), Json::from(err.as_str())));
        }
        if let Some(result) = &self.result {
            // Result bodies are UTF-8 JSON text; persisting them as a
            // string keeps the record a single self-contained document.
            fields.push((
                "result".to_string(),
                Json::from(String::from_utf8_lossy(result).into_owned()),
            ));
        }
        Json::Obj(fields)
    }

    fn from_record(record: &Json, admitted: u64) -> Option<JobEntry> {
        let kind = record.get("kind")?.as_str()?.to_string();
        let request = record.get("request")?.clone();
        let chunk_units = record.get("chunk_units")?.as_u64()? as usize;
        let total_units = record.get("total_units")?.as_u64()? as usize;
        let done_units = record.get("done_units")?.as_u64()? as usize;
        let state = JobState::from_key(record.get("state")?.as_str()?)?;
        let fragments = record.get("fragments")?.as_array()?.to_vec();
        if done_units != fragments.len() && state != JobState::Done {
            return None;
        }
        let error = record
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        let result = record
            .get("result")
            .and_then(Json::as_str)
            .map(|s| Arc::new(s.as_bytes().to_vec()));
        if state == JobState::Done && result.is_none() {
            return None;
        }
        // Records written before tracing existed lack these fields; a
        // fresh id keeps the job addressable without invalidating it.
        let trace_id = record
            .get("trace_id")
            .and_then(Json::as_str)
            .map(str::to_string)
            .unwrap_or_else(scpg_trace::generate_trace_id);
        let chunks = record
            .get("chunks")
            .and_then(Json::as_array)
            .map(|arr| arr.iter().filter_map(ChunkMark::from_record).collect())
            .unwrap_or_default();
        Some(JobEntry {
            spec: JobSpec { kind, request },
            chunk_units: chunk_units.max(1),
            total_units,
            done_units,
            fragments,
            state,
            error,
            result,
            admitted,
            trace_id,
            chunks,
            started: Instant::now(),
        })
    }

    /// Total chunk count for this job's chunk size.
    fn chunks_total(&self) -> u64 {
        (self.total_units as u64).div_ceil(self.chunk_units as u64)
    }
}

/// The `key=value` annotations attached to a chunk's trace span.
fn chunk_annotations(job_id: &str, mark: &ChunkMark, chunks_total: u64) -> Vec<(String, String)> {
    vec![
        ("job".to_string(), job_id.to_string()),
        (
            "chunk".to_string(),
            format!("{}/{chunks_total}", mark.index),
        ),
        ("units".to_string(), mark.units.to_string()),
        ("boot".to_string(), mark.boot.clone()),
    ]
}

/// Owns job state, scheduling bookkeeping and checkpoint persistence.
pub struct JobManager {
    store: Arc<Store>,
    limits: JobLimits,
    executor: Arc<dyn ChunkExecutor>,
    jobs: Mutex<HashMap<String, JobEntry>>,
    seq: AtomicU64,
    admissions: AtomicU64,
    /// Optional trace sink: `(store, boot id)`. Set once by the
    /// embedding layer; chunk completions then emit trace spans.
    tracing: OnceLock<(Arc<TraceStore>, String)>,
    /// Optional wide-event sink. Set once by the embedding layer; each
    /// completed chunk then emits one event alongside its trace span.
    events: OnceLock<Arc<scpg_trace::EventLog>>,
}

impl JobManager {
    /// Opens the manager, reloading every persisted job record.
    /// Records that fail to decode are skipped with a warning.
    pub fn open(store: Arc<Store>, limits: JobLimits, executor: Arc<dyn ChunkExecutor>) -> Self {
        let mut jobs = HashMap::new();
        let mut max_seq = 0u64;
        let mut admitted = 0u64;
        for id in store.list(NS_JOBS).unwrap_or_default() {
            let record = match store.get_record(NS_JOBS, &id) {
                Ok(Some(r)) => r,
                Ok(None) => continue,
                Err(e) => {
                    eprintln!("scpg-jobs: skipping persisted job {id}: {e}");
                    continue;
                }
            };
            let Some(entry) = JobEntry::from_record(&record, admitted) else {
                eprintln!("scpg-jobs: skipping malformed job record {id}");
                continue;
            };
            if let Some(n) = id.strip_prefix('j').and_then(|s| s.parse::<u64>().ok()) {
                max_seq = max_seq.max(n);
            }
            admitted += 1;
            jobs.insert(id, entry);
        }
        JobManager {
            store,
            limits,
            executor,
            jobs: Mutex::new(jobs),
            seq: AtomicU64::new(max_seq + 1),
            admissions: AtomicU64::new(admitted),
            tracing: OnceLock::new(),
            events: OnceLock::new(),
        }
    }

    /// Attaches a trace store and this server incarnation's boot id.
    /// Chunk completions from now on emit `chunk` spans under the job's
    /// trace id, and every already-loaded job's persisted chunk marks
    /// are replayed into the store — so after a restart,
    /// `GET /v1/traces/{id}` shows the prior incarnation's chunks (their
    /// original `boot` annotation intact) alongside the new ones.
    /// Subsequent calls are ignored.
    pub fn attach_tracing(&self, traces: Arc<TraceStore>, boot_id: &str) {
        if self
            .tracing
            .set((Arc::clone(&traces), boot_id.to_string()))
            .is_err()
        {
            return;
        }
        let jobs = self.jobs.lock().unwrap();
        let mut ids: Vec<_> = jobs.keys().collect();
        ids.sort();
        for id in ids {
            let entry = &jobs[id];
            for mark in &entry.chunks {
                traces.record_at(
                    &entry.trace_id,
                    "job",
                    "chunk",
                    mark.offset_us,
                    mark.duration_us,
                    chunk_annotations(id, mark, entry.chunks_total()),
                );
            }
        }
    }

    /// Attaches a wide-event log. Chunk completions from now on emit
    /// one [`scpg_trace::WideEvent`] each (kind `"chunk"`, endpoint
    /// `"job"`) under the job's trace id, so batch work shows up in
    /// `GET /v1/logs` next to interactive requests. Unlike
    /// [`JobManager::attach_tracing`], persisted chunks are *not*
    /// replayed: the event log is an operational stream of work done by
    /// this process incarnation, not a historical record. Subsequent
    /// calls are ignored.
    pub fn attach_event_log(&self, events: Arc<scpg_trace::EventLog>) {
        let _ = self.events.set(events);
    }

    /// Emits one chunk wide event if an event log is attached.
    #[allow(clippy::too_many_arguments)]
    fn log_chunk_event(
        &self,
        id: &str,
        trace_id: &str,
        status: u16,
        index: u64,
        chunks_total: u64,
        units: u64,
        duration_us: u64,
        worker_cpu_us: u64,
    ) {
        let Some(events) = self.events.get() else {
            return;
        };
        let mut event = scpg_trace::WideEvent::new("chunk", "job", status);
        event.trace_id = trace_id.to_string();
        event.total_us = duration_us;
        event.execute_us = duration_us;
        event.worker_cpu_us = worker_cpu_us;
        event.fields = vec![
            ("job".to_string(), id.to_string()),
            ("chunk".to_string(), format!("{index}/{chunks_total}")),
            ("units".to_string(), units.to_string()),
            (
                "boot".to_string(),
                self.tracing
                    .get()
                    .map(|(_, boot)| boot.clone())
                    .unwrap_or_default(),
            ),
        ];
        events.record(event);
    }

    /// Emits one chunk span if a trace sink is attached.
    fn trace_chunk(&self, id: &str, trace_id: &str, mark: &ChunkMark, chunks_total: u64) {
        if let Some((traces, _)) = self.tracing.get() {
            traces.record_at(
                trace_id,
                "job",
                "chunk",
                mark.offset_us,
                mark.duration_us,
                chunk_annotations(id, mark, chunks_total),
            );
        }
    }

    /// The limits this manager enforces.
    pub fn limits(&self) -> JobLimits {
        self.limits
    }

    fn persist(&self, id: &str, entry: &JobEntry) {
        if let Err(e) = self.store.put_record(NS_JOBS, id, &entry.record(id)) {
            // The in-memory job is still correct; only crash recovery is
            // degraded. Serving must not fail because a disk write did.
            eprintln!("scpg-jobs: checkpoint write failed for {id}: {e}");
        }
    }

    /// Validates and admits a job. Returns `(job id, total units)`.
    /// `trace_id` is the submitting request's trace context (persisted
    /// with the job, so chunk spans land under it across restarts); pass
    /// `None` to generate a fresh id.
    pub fn submit(
        &self,
        kind: &str,
        request: Json,
        chunk_units: Option<usize>,
        trace_id: Option<&str>,
    ) -> Result<(String, usize), SubmitError> {
        let spec = JobSpec {
            kind: kind.to_string(),
            request,
        };
        let total_units = self.executor.plan(&spec).map_err(SubmitError::Refused)?;
        let chunk_units = chunk_units
            .unwrap_or(self.limits.default_chunk_units)
            .clamp(1, self.limits.max_chunk_units);
        let mut jobs = self.jobs.lock().unwrap();
        let active = jobs.values().filter(|j| !j.state.is_terminal()).count();
        if active >= self.limits.max_active_jobs {
            return Err(SubmitError::Busy {
                active,
                limit: self.limits.max_active_jobs,
            });
        }
        // Keep the record table bounded: evict the oldest terminal jobs.
        while jobs.len() >= self.limits.max_stored_jobs {
            let oldest = jobs
                .iter()
                .filter(|(_, j)| j.state.is_terminal())
                .min_by_key(|(_, j)| j.admitted)
                .map(|(id, _)| id.clone());
            match oldest {
                Some(id) => {
                    jobs.remove(&id);
                }
                None => {
                    // Everything stored is active — refuse rather than
                    // dropping live work (can only happen when
                    // max_stored_jobs < max_active_jobs).
                    return Err(SubmitError::Busy {
                        active,
                        limit: self.limits.max_active_jobs,
                    });
                }
            }
        }
        let id = format!("j{:08}", self.seq.fetch_add(1, Ordering::Relaxed));
        let entry = JobEntry {
            spec,
            chunk_units,
            total_units,
            done_units: 0,
            fragments: Vec::new(),
            state: JobState::Queued,
            error: None,
            result: None,
            admitted: self.admissions.fetch_add(1, Ordering::Relaxed),
            trace_id: trace_id
                .map(str::to_string)
                .unwrap_or_else(scpg_trace::generate_trace_id),
            chunks: Vec::new(),
            started: Instant::now(),
        };
        self.persist(&id, &entry);
        jobs.insert(id.clone(), entry);
        Ok((id, total_units))
    }

    /// Runs the next chunk of `id` on the calling thread and checkpoints
    /// the outcome. The caller re-dispatches the job while this returns
    /// [`ChunkRun::More`]. Only one caller may run a given job at a time
    /// (the embedding layer's single batch token per job guarantees it).
    pub fn run_chunk(&self, id: &str) -> ChunkRun {
        let (spec, start, count) = {
            let mut jobs = self.jobs.lock().unwrap();
            let Some(entry) = jobs.get_mut(id) else {
                return ChunkRun::Gone;
            };
            if entry.state.is_terminal() {
                return ChunkRun::Finished;
            }
            entry.state = JobState::Running;
            let start = entry.done_units;
            let count = entry.chunk_units.min(entry.total_units - start);
            (entry.spec.clone(), start, count)
        };

        // Execute outside the lock: chunks are CPU-heavy and status
        // queries must never block behind them.
        let span = scpg_trace::Span::on(scpg_trace::job_stage("chunk"));
        let cpu_before = scpg_trace::thread_cpu_time();
        let outcome = self.executor.execute(&spec, start, count);
        let chunk_cpu_us =
            scpg_trace::duration_us(scpg_trace::thread_cpu_time().saturating_sub(cpu_before));
        let chunk_duration = span.finish();

        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(id) else {
            return ChunkRun::Gone;
        };
        if entry.state == JobState::Cancelled {
            // Cancel raced the chunk: drop the output, keep the
            // cancelled checkpoint authoritative.
            self.persist(id, entry);
            return ChunkRun::Finished;
        }
        match outcome {
            Err(msg) => {
                entry.state = JobState::Failed;
                entry.error = Some(msg);
                self.log_chunk_event(
                    id,
                    &entry.trace_id,
                    500,
                    (start / entry.chunk_units) as u64,
                    entry.chunks_total(),
                    count as u64,
                    scpg_trace::duration_us(chunk_duration),
                    chunk_cpu_us,
                );
                self.persist(id, entry);
                ChunkRun::Finished
            }
            Ok(fragments) => {
                entry.fragments.extend(fragments);
                entry.done_units = (start + count).min(entry.total_units);
                let dur_us = scpg_trace::duration_us(chunk_duration);
                let mark = ChunkMark {
                    index: (start / entry.chunk_units) as u64,
                    units: count as u64,
                    offset_us: scpg_trace::duration_us(entry.started.elapsed())
                        .saturating_sub(dur_us),
                    duration_us: dur_us,
                    boot: self
                        .tracing
                        .get()
                        .map(|(_, boot)| boot.clone())
                        .unwrap_or_default(),
                };
                self.trace_chunk(id, &entry.trace_id, &mark, entry.chunks_total());
                self.log_chunk_event(
                    id,
                    &entry.trace_id,
                    200,
                    mark.index,
                    entry.chunks_total(),
                    mark.units,
                    mark.duration_us,
                    chunk_cpu_us,
                );
                entry.chunks.push(mark);
                if entry.done_units < entry.total_units {
                    entry.state = JobState::Queued;
                    let _span = scpg_trace::Span::on(scpg_trace::job_stage("checkpoint"));
                    self.persist(id, entry);
                    ChunkRun::More
                } else {
                    let assembled = {
                        let _span = scpg_trace::Span::on(scpg_trace::job_stage("assemble"));
                        self.executor.assemble(&entry.spec, &entry.fragments)
                    };
                    match assembled {
                        Ok(body) => {
                            entry.state = JobState::Done;
                            entry.result = Some(Arc::new(body));
                        }
                        Err(msg) => {
                            entry.state = JobState::Failed;
                            entry.error = Some(msg);
                        }
                    }
                    self.persist(id, entry);
                    ChunkRun::Finished
                }
            }
        }
    }

    /// Cooperatively cancels `id`.
    pub fn cancel(&self, id: &str) -> CancelOutcome {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(id) else {
            return CancelOutcome::Gone;
        };
        if entry.state.is_terminal() {
            return CancelOutcome::AlreadyTerminal(entry.state);
        }
        entry.state = JobState::Cancelled;
        self.persist(id, entry);
        CancelOutcome::Cancelled
    }

    /// Force a non-terminal job into the `Failed` state. Used by callers
    /// whose chunk execution died outside [`run_chunk`](Self::run_chunk) — e.g. a worker
    /// thread that caught a panic unwinding through the executor.
    pub fn fail(&self, id: &str, message: &str) {
        let mut jobs = self.jobs.lock().unwrap();
        let Some(entry) = jobs.get_mut(id) else {
            return;
        };
        if entry.state.is_terminal() {
            return;
        }
        entry.state = JobState::Failed;
        entry.error = Some(message.to_string());
        self.persist(id, entry);
    }

    /// Status document for `GET /v1/jobs/{id}`: state, progress, trace
    /// id, per-chunk timing, a rate-based ETA and (for unfinished jobs)
    /// the partial fragments computed so far.
    pub fn status(&self, id: &str) -> Option<Json> {
        let jobs = self.jobs.lock().unwrap();
        let entry = jobs.get(id)?;
        let percent = if entry.total_units == 0 {
            100.0
        } else {
            (entry.done_units as f64 / entry.total_units as f64) * 100.0
        };
        let chunks_total = entry.chunks_total();
        let mut fields = vec![
            ("id".to_string(), Json::from(id)),
            ("kind".to_string(), Json::from(entry.spec.kind.as_str())),
            ("state".to_string(), Json::from(entry.state.key())),
            ("total_units".to_string(), Json::from(entry.total_units)),
            ("done_units".to_string(), Json::from(entry.done_units)),
            ("percent".to_string(), Json::from(percent)),
            (
                "result_ready".to_string(),
                Json::from(entry.state == JobState::Done),
            ),
            ("trace_id".to_string(), Json::from(entry.trace_id.as_str())),
            ("chunks_total".to_string(), Json::from(chunks_total)),
            (
                "chunks_completed".to_string(),
                Json::from(entry.chunks.len()),
            ),
            (
                "chunks".to_string(),
                Json::Arr(
                    entry
                        .chunks
                        .iter()
                        .map(|m| {
                            Json::object([
                                ("index", Json::from(m.index)),
                                ("units", Json::from(m.units)),
                                ("duration_us", Json::from(m.duration_us)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ];
        // Rate-based ETA: mean observed chunk time × chunks remaining.
        // Only meaningful while the job is live and has a rate sample.
        if !entry.state.is_terminal() && !entry.chunks.is_empty() {
            let mean_us =
                entry.chunks.iter().map(|m| m.duration_us).sum::<u64>() / entry.chunks.len() as u64;
            let remaining = chunks_total.saturating_sub(entry.chunks.len() as u64);
            fields.push((
                "eta_ms".to_string(),
                Json::from((mean_us * remaining) as f64 / 1e3),
            ));
        }
        if let Some(err) = &entry.error {
            fields.push(("error".to_string(), Json::from(err.as_str())));
        }
        if !entry.state.is_terminal() && !entry.fragments.is_empty() {
            fields.push(("partial".to_string(), Json::Arr(entry.fragments.clone())));
        }
        Some(Json::Obj(fields))
    }

    /// Terminal result body for `GET /v1/jobs/{id}/result`.
    /// `Some((state, body))` — body is present only when `Done`.
    pub fn result(&self, id: &str) -> Option<(JobState, Option<Arc<Vec<u8>>>)> {
        let jobs = self.jobs.lock().unwrap();
        let entry = jobs.get(id)?;
        Some((entry.state, entry.result.clone()))
    }

    /// Summary list for `GET /v1/jobs`.
    pub fn summaries(&self) -> Vec<Json> {
        let jobs = self.jobs.lock().unwrap();
        let mut ids: Vec<_> = jobs.keys().cloned().collect();
        ids.sort();
        ids.iter()
            .map(|id| {
                let entry = &jobs[id];
                Json::object([
                    ("id", Json::from(id.as_str())),
                    ("kind", Json::from(entry.spec.kind.as_str())),
                    ("state", Json::from(entry.state.key())),
                    ("done_units", Json::from(entry.done_units)),
                    ("total_units", Json::from(entry.total_units)),
                ])
            })
            .collect()
    }

    /// Ids of jobs that need (re-)dispatching: every non-terminal job.
    /// Called once after [`JobManager::open`] to resume interrupted work.
    pub fn resumable(&self) -> Vec<String> {
        let jobs = self.jobs.lock().unwrap();
        let mut ids: Vec<_> = jobs
            .iter()
            .filter(|(_, j)| !j.state.is_terminal())
            .map(|(id, _)| id.clone())
            .collect();
        ids.sort();
        ids
    }

    /// Jobs in a non-terminal state right now.
    pub fn active_count(&self) -> usize {
        self.jobs
            .lock()
            .unwrap()
            .values()
            .filter(|j| !j.state.is_terminal())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy executor: units are the integers 0..n from the request; each
    /// fragment is `i * 10`; assembly is the JSON array of fragments.
    struct Doubler;

    impl ChunkExecutor for Doubler {
        fn plan(&self, spec: &JobSpec) -> Result<usize, String> {
            let n = spec
                .request
                .get("n")
                .and_then(Json::as_u64)
                .ok_or("missing n")?;
            if n == 0 {
                return Err("n must be positive".to_string());
            }
            Ok(n as usize)
        }

        fn execute(
            &self,
            _spec: &JobSpec,
            start: usize,
            count: usize,
        ) -> Result<Vec<Json>, String> {
            Ok((start..start + count)
                .map(|i| Json::from(i as u64 * 10))
                .collect())
        }

        fn assemble(&self, _spec: &JobSpec, fragments: &[Json]) -> Result<Vec<u8>, String> {
            Ok(Json::Arr(fragments.to_vec()).write().into_bytes())
        }
    }

    fn manager_with(store: Arc<Store>, limits: JobLimits) -> JobManager {
        JobManager::open(store, limits, Arc::new(Doubler))
    }

    fn request(n: u64) -> Json {
        Json::object([("n", Json::from(n))])
    }

    #[test]
    fn job_runs_in_chunks_to_completion() {
        let mgr = manager_with(Arc::new(Store::memory()), JobLimits::default());
        let (id, total) = mgr.submit("sweep", request(10), Some(4), None).unwrap();
        assert_eq!(total, 10);
        // 10 units at 4/chunk: More, More, Finished.
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        let status = mgr.status(&id).unwrap();
        assert_eq!(status.get("done_units").and_then(Json::as_u64), Some(4));
        assert_eq!(status.get("percent").and_then(Json::as_f64), Some(40.0));
        assert_eq!(
            status
                .get("partial")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(4)
        );
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        let (state, body) = mgr.result(&id).unwrap();
        assert_eq!(state, JobState::Done);
        let body = String::from_utf8(body.unwrap().to_vec()).unwrap();
        assert_eq!(body, "[0,10,20,30,40,50,60,70,80,90]");
    }

    #[test]
    fn bad_and_excess_submissions_are_refused() {
        let mgr = manager_with(
            Arc::new(Store::memory()),
            JobLimits {
                max_active_jobs: 1,
                ..JobLimits::default()
            },
        );
        assert!(matches!(
            mgr.submit("sweep", request(0), None, None),
            Err(SubmitError::Refused(_))
        ));
        mgr.submit("sweep", request(5), None, None).unwrap();
        assert!(matches!(
            mgr.submit("sweep", request(5), None, None),
            Err(SubmitError::Busy {
                active: 1,
                limit: 1
            })
        ));
    }

    #[test]
    fn cancellation_sticks_even_when_racing_a_chunk() {
        let mgr = manager_with(Arc::new(Store::memory()), JobLimits::default());
        let (id, _) = mgr.submit("sweep", request(10), Some(2), None).unwrap();
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        assert_eq!(mgr.cancel(&id), CancelOutcome::Cancelled);
        // The in-flight/next chunk lands on a cancelled job: Finished,
        // no further progress recorded.
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        let status = mgr.status(&id).unwrap();
        assert_eq!(
            status.get("state").and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(status.get("done_units").and_then(Json::as_u64), Some(2));
        assert_eq!(
            mgr.cancel(&id),
            CancelOutcome::AlreadyTerminal(JobState::Cancelled)
        );
        assert_eq!(mgr.cancel("j99999999"), CancelOutcome::Gone);
    }

    #[test]
    fn interrupted_job_resumes_from_checkpoint_after_reopen() {
        let dir = std::env::temp_dir().join(format!("scpg-jobmgr-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(Arc::clone(&store), JobLimits::default());
        let (id, _) = mgr.submit("sweep", request(9), Some(4), None).unwrap();
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More); // 4/9 done, checkpointed
        drop(mgr);

        // "Restart": fresh manager over the same directory.
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(store, JobLimits::default());
        assert_eq!(mgr.resumable(), vec![id.clone()]);
        let status = mgr.status(&id).unwrap();
        assert_eq!(status.get("done_units").and_then(Json::as_u64), Some(4));
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        let (state, body) = mgr.result(&id).unwrap();
        assert_eq!(state, JobState::Done);
        let body = String::from_utf8(body.unwrap().to_vec()).unwrap();
        // Byte-identical to an uninterrupted run.
        assert_eq!(body, "[0,10,20,30,40,50,60,70,80]");
        // New submissions continue the id sequence rather than reusing it.
        let (next_id, _) = mgr.submit("sweep", request(2), None, None).unwrap();
        assert!(next_id > id);
    }

    #[test]
    fn trace_id_and_chunk_marks_persist_and_replay_across_reopen() {
        let dir = std::env::temp_dir().join(format!("scpg-jobmgr-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(Arc::clone(&store), JobLimits::default());
        let traces1 = Arc::new(TraceStore::new(16));
        mgr.attach_tracing(Arc::clone(&traces1), "boot-1");
        let (id, _) = mgr
            .submit("sweep", request(6), Some(2), Some("t-client"))
            .unwrap();
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        // The live chunk span landed under the client's trace id.
        let detail = traces1.detail("t-client").expect("trace recorded");
        assert_eq!(detail.spans.len(), 1);
        let ann = &detail.spans[0].annotations;
        assert!(
            ann.contains(&("chunk".to_string(), "0/3".to_string())),
            "{ann:?}"
        );
        assert!(
            ann.contains(&("boot".to_string(), "boot-1".to_string())),
            "{ann:?}"
        );
        let status = mgr.status(&id).unwrap();
        assert_eq!(
            status.get("trace_id").and_then(Json::as_str),
            Some("t-client")
        );
        assert_eq!(
            status.get("chunks_completed").and_then(Json::as_u64),
            Some(1)
        );
        assert_eq!(status.get("chunks_total").and_then(Json::as_u64), Some(3));
        assert!(status.get("eta_ms").and_then(Json::as_f64).is_some());
        drop(mgr);

        // "Restart": a fresh manager + a fresh (empty) trace store. The
        // persisted chunk mark replays with its original boot id.
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(store, JobLimits::default());
        let traces2 = Arc::new(TraceStore::new(16));
        mgr.attach_tracing(Arc::clone(&traces2), "boot-2");
        let replayed = traces2.detail("t-client").expect("replayed on attach");
        assert_eq!(replayed.spans.len(), 1);
        assert!(replayed.spans[0]
            .annotations
            .contains(&("boot".to_string(), "boot-1".to_string())));

        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        let spans = traces2.detail("t-client").unwrap().spans;
        let chunk_tags: Vec<String> = spans
            .iter()
            .flat_map(|s| s.annotations.iter())
            .filter(|(k, _)| k == "chunk")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(chunk_tags, vec!["0/3", "1/3", "2/3"], "no gaps, no dups");
        let boots: Vec<String> = spans
            .iter()
            .flat_map(|s| s.annotations.iter())
            .filter(|(k, _)| k == "boot")
            .map(|(_, v)| v.clone())
            .collect();
        assert_eq!(boots, vec!["boot-1", "boot-2", "boot-2"]);
        let status = mgr.status(&id).unwrap();
        assert_eq!(
            status.get("chunks_completed").and_then(Json::as_u64),
            Some(3)
        );
        assert!(status.get("eta_ms").is_none(), "terminal jobs have no ETA");
    }

    #[test]
    fn done_jobs_survive_reopen_and_old_terminals_are_evicted() {
        let dir = std::env::temp_dir().join(format!("scpg-jobmgr-evict-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(Arc::clone(&store), JobLimits::default());
        let (id, _) = mgr.submit("sweep", request(3), Some(8), None).unwrap();
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        drop(mgr);
        let store = Arc::new(Store::open(&dir).unwrap());
        let mgr = manager_with(
            store,
            JobLimits {
                max_stored_jobs: 1,
                ..JobLimits::default()
            },
        );
        let (state, body) = mgr.result(&id).unwrap();
        assert_eq!(state, JobState::Done);
        assert_eq!(body.unwrap().as_slice(), b"[0,10,20]");
        assert!(mgr.resumable().is_empty());
        // Submitting past max_stored_jobs evicts the old Done record.
        let (id2, _) = mgr.submit("sweep", request(2), None, None).unwrap();
        assert!(mgr.result(&id).is_none());
        assert!(mgr.result(&id2).is_some());
    }

    #[test]
    fn failed_chunk_marks_job_failed() {
        struct FailSecond;
        impl ChunkExecutor for FailSecond {
            fn plan(&self, _spec: &JobSpec) -> Result<usize, String> {
                Ok(4)
            }
            fn execute(
                &self,
                _spec: &JobSpec,
                start: usize,
                count: usize,
            ) -> Result<Vec<Json>, String> {
                if start > 0 {
                    return Err("solver diverged".to_string());
                }
                Ok(vec![Json::Null; count])
            }
            fn assemble(&self, _spec: &JobSpec, _fragments: &[Json]) -> Result<Vec<u8>, String> {
                Ok(Vec::new())
            }
        }
        let mgr = JobManager::open(
            Arc::new(Store::memory()),
            JobLimits::default(),
            Arc::new(FailSecond),
        );
        let (id, _) = mgr
            .submit("sweep", Json::Obj(Vec::new()), Some(2), None)
            .unwrap();
        assert_eq!(mgr.run_chunk(&id), ChunkRun::More);
        assert_eq!(mgr.run_chunk(&id), ChunkRun::Finished);
        let status = mgr.status(&id).unwrap();
        assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
        assert_eq!(
            status.get("error").and_then(Json::as_str),
            Some("solver diverged")
        );
    }
}
