//! Bounded work queue with explicit backpressure, per-job deadlines and
//! drain-on-shutdown semantics.
//!
//! Connection threads [`WorkQueue::try_push`] jobs; when the queue is at
//! capacity the push fails immediately and the caller answers `429` —
//! admission control happens at the door, not by letting latencies grow
//! without bound. Worker threads block on [`WorkQueue::pop`], which only
//! returns `None` once shutdown has been requested **and** the queue has
//! drained, so every admitted job is completed before the workers exit.
//!
//! Each job carries a [`Slot`] the connection thread waits on with its
//! deadline; if the deadline passes first the connection answers `504`
//! and abandons the slot, and a worker that later reaches the job skips
//! the (now pointless) computation.
//!
//! # Lanes
//!
//! The queue has two lanes. The **interactive** lane holds request jobs
//! ([`Job`]) and keeps its strict drain-on-shutdown guarantee. The
//! **batch** lane holds tokens (job ids) for the async-job subsystem:
//! a token entitles its job to run *one* chunk, after which the worker
//! re-enqueues it at the back of the lane — so N concurrent batch jobs
//! round-robin fairly and a single giant job cannot monopolise a worker
//! between scheduling points. Interactive work always pops first, and a
//! designated worker (index 0) never takes batch work at all, so
//! interactive latency is bounded by one chunk even under full batch
//! load. On shutdown the batch lane is discarded rather than drained:
//! every completed chunk is already checkpointed on disk, and a restart
//! resumes the job from exactly there.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use scpg_trace::{Introspect, StoreCounters, StoreStats};

/// Per-stage durations measured on the worker side of a job, carried
/// back through the [`Slot`] so the connection thread (which owns the
/// request's trace) can record them into the server's histograms.
/// `None` means the stage did not run for this job (e.g. an admission
/// failure before compile).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobTiming {
    /// Time between enqueue and a worker picking the job up.
    pub queue_wait: Option<Duration>,
    /// Building (or fetching) the compiled design artifact.
    pub compile: Option<Duration>,
    /// Running the analysis/study itself.
    pub execute: Option<Duration>,
    /// Serializing the result document to JSON bytes.
    pub serialize: Option<Duration>,
    /// CPU time the worker thread spent on the whole job
    /// (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)` delta around the work
    /// closure) — compared against the wall-clock stages it separates
    /// "slow because computing" from "slow because preempted".
    pub worker_cpu: Option<Duration>,
}

/// What a worker hands back through a [`Slot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// HTTP status for the response.
    pub status: u16,
    /// Response body (JSON).
    pub body: Vec<u8>,
    /// Where the worker-side time went.
    pub timing: JobTiming,
    /// `key=value` trace annotations from the worker side (engine work
    /// deltas, the design key), merged into the request's trace span by
    /// the connection thread.
    pub annotations: Vec<(String, String)>,
}

impl JobOutput {
    /// An output with empty timing (filled in by the stages that ran).
    pub fn new(status: u16, body: Vec<u8>) -> Self {
        Self {
            status,
            body,
            timing: JobTiming::default(),
            annotations: Vec::new(),
        }
    }
}

enum SlotState {
    Pending,
    Done(JobOutput),
    /// The connection stopped waiting (deadline expired, client gone).
    Abandoned,
}

/// One job's rendezvous point between connection and worker.
pub struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
    /// Optional completion callback for event-loop waiters. Where a
    /// blocking waiter parks on the condvar, the event loop instead
    /// registers a closure (push the connection token, wake the poller)
    /// and goes back to its `epoll_wait`.
    notify: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
}

impl Slot {
    /// A fresh, pending slot.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
            notify: Mutex::new(None),
        })
    }

    /// Registers the completion callback invoked (once) after a worker
    /// fulfills the slot. Must be set before the job can complete —
    /// i.e. before the job is pushed onto the queue.
    pub fn set_notify(&self, f: impl Fn() + Send + Sync + 'static) {
        *self.notify.lock().expect("slot poisoned") = Some(Box::new(f));
    }

    /// Worker side: publish the result (no-op if the connection already
    /// abandoned the slot). Returns `false` when the result was dropped
    /// because nobody is waiting anymore.
    pub fn fulfill(&self, out: JobOutput) -> bool {
        let stored = {
            let mut state = self.state.lock().expect("slot poisoned");
            match *state {
                SlotState::Abandoned => false,
                _ => {
                    *state = SlotState::Done(out);
                    self.cv.notify_all();
                    true
                }
            }
        };
        if stored {
            // Outside the state lock: the callback takes the event
            // loop's completion lock and writes to its wake fd; neither
            // should nest under the slot state lock.
            if let Some(f) = self.notify.lock().expect("slot poisoned").as_ref() {
                f();
            }
        }
        stored
    }

    /// Non-blocking probe: the result if the job has completed, `None`
    /// while it is still pending. Does not abandon the slot.
    pub fn try_take(&self) -> Option<JobOutput> {
        match *self.state.lock().expect("slot poisoned") {
            SlotState::Done(ref out) => Some(out.clone()),
            _ => None,
        }
    }

    /// Deadline-expiry resolution for event-loop waiters: takes the
    /// result if the job finished in time, otherwise marks the slot
    /// abandoned (so a worker reaching the job later skips it) and
    /// returns `None`. The check-and-abandon is atomic under the state
    /// lock, so a result can never be both taken and dropped.
    pub fn abandon_or_take(&self) -> Option<JobOutput> {
        let mut state = self.state.lock().expect("slot poisoned");
        match *state {
            SlotState::Done(ref out) => Some(out.clone()),
            _ => {
                *state = SlotState::Abandoned;
                None
            }
        }
    }

    /// Connection side: wait until the job completes or `deadline`
    /// passes. On expiry the slot is marked abandoned so the worker can
    /// skip stale work, and `None` is returned.
    pub fn wait_until(&self, deadline: Instant) -> Option<JobOutput> {
        let mut state = self.state.lock().expect("slot poisoned");
        loop {
            if let SlotState::Done(ref out) = *state {
                return Some(out.clone());
            }
            let now = Instant::now();
            if now >= deadline {
                *state = SlotState::Abandoned;
                return None;
            }
            let (next, timeout) = self
                .cv
                .wait_timeout(state, deadline - now)
                .expect("slot poisoned");
            state = next;
            if timeout.timed_out() {
                if let SlotState::Done(ref out) = *state {
                    return Some(out.clone());
                }
                *state = SlotState::Abandoned;
                return None;
            }
        }
    }

    /// `true` once the waiter has walked away.
    pub fn is_abandoned(&self) -> bool {
        matches!(
            *self.state.lock().expect("slot poisoned"),
            SlotState::Abandoned
        )
    }
}

/// A queued unit of work.
pub struct Job {
    /// When the job entered the queue (workers subtract this from their
    /// pickup time to measure queue wait).
    pub enqueued_at: Instant,
    /// When the requesting connection stops waiting.
    pub deadline: Instant,
    /// Rendezvous with the connection thread.
    pub slot: Arc<Slot>,
    /// The canonical cache key; successful results are inserted under it
    /// by the worker (so even abandoned jobs warm the cache).
    pub cache_key: String,
    /// The request's trace id (client-supplied or generated), carried
    /// through the queue so worker-side spans join the same trace.
    pub trace_id: String,
    /// The computation (runs on a worker thread).
    pub work: Box<dyn FnOnce() -> JobOutput + Send + 'static>,
}

/// What [`WorkQueue::pop`] hands a worker.
pub enum Work {
    /// An interactive request job.
    Interactive(Job),
    /// One chunk's worth of the named batch job.
    Batch(String),
}

struct QueueState {
    jobs: VecDeque<Job>,
    batch: VecDeque<String>,
    shutdown: bool,
}

/// The bounded queue.
pub struct WorkQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    capacity: usize,
    /// Admission accounting across both lanes: hits are accepted
    /// pushes, misses are capacity/shutdown rejections.
    counters: StoreCounters,
}

impl WorkQueue {
    /// A queue admitting at most `capacity` pending jobs (clamped to 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                batch: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity: capacity.max(1),
            counters: StoreCounters::new(),
        }
    }

    /// Admits a job, or returns it when the queue is full or shutting
    /// down — the caller turns that into `429`/`503` immediately.
    ///
    /// # Errors
    ///
    /// The rejected job is handed back untouched.
    pub fn try_push(&self, job: Job) -> Result<(), Job> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.shutdown || state.jobs.len() >= self.capacity {
            self.counters.miss();
            return Err(job);
        }
        state.jobs.push_back(job);
        self.counters.hit();
        self.cv.notify_one();
        Ok(())
    }

    /// Enqueues one chunk's worth of a batch job at the back of the
    /// batch lane. The lane is bounded by the same capacity as the
    /// interactive lane; at most one token per job is outstanding (the
    /// worker that pops it re-enqueues after the chunk), so the bound is
    /// really a cap on concurrently active batch jobs.
    ///
    /// # Errors
    ///
    /// The token is handed back when the lane is full or the queue is
    /// shutting down — in the shutdown case the job simply stays
    /// checkpointed on disk for the next start to resume.
    pub fn push_batch(&self, job_id: String) -> Result<(), String> {
        let mut state = self.state.lock().expect("queue poisoned");
        if state.shutdown || state.batch.len() >= self.capacity {
            self.counters.miss();
            return Err(job_id);
        }
        state.batch.push_back(job_id);
        self.counters.hit();
        // notify_all, not notify_one: a single wake could land on the
        // interactive-only worker, which would ignore it and leave the
        // token stranded until the next unrelated wake.
        self.cv.notify_all();
        Ok(())
    }

    /// Blocks for the next piece of work. Interactive jobs always win;
    /// batch tokens are only handed to workers with `allow_batch`.
    /// Returns `None` only when shutdown has been requested and every
    /// admitted interactive job has been handed out — the drain
    /// guarantee. Batch tokens remaining at that point are discarded
    /// (their jobs are checkpointed on disk).
    pub fn pop(&self, allow_batch: bool) -> Option<Work> {
        let mut state = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(Work::Interactive(job));
            }
            if state.shutdown {
                return None;
            }
            if allow_batch {
                if let Some(id) = state.batch.pop_front() {
                    return Some(Work::Batch(id));
                }
            }
            state = self.cv.wait(state).expect("queue poisoned");
        }
    }

    /// Pending interactive jobs right now (the `/metrics` depth gauge).
    pub fn depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").jobs.len()
    }

    /// Outstanding batch tokens right now.
    pub fn batch_depth(&self) -> usize {
        self.state.lock().expect("queue poisoned").batch.len()
    }

    /// The admission capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stops admission and wakes every worker so they can drain and
    /// exit.
    pub fn shutdown(&self) {
        let mut state = self.state.lock().expect("queue poisoned");
        state.shutdown = true;
        self.cv.notify_all();
    }
}

impl Introspect for WorkQueue {
    /// Entries are pending work across both lanes, which share the
    /// admission capacity (so the combined ceiling is twice it). Queue
    /// entries are closures plus small strings; only the strings are
    /// measurable, so the byte estimate counts keys and ids (a floor, not
    /// a ceiling — honest enough for a structure bounded at tens of
    /// entries). Hits are accepted pushes (both lanes), misses rejected
    /// ones (full or shutting down: the 429 path), and a queue never
    /// displaces admitted work.
    fn stats(&self) -> StoreStats {
        let state = self.state.lock().expect("queue poisoned");
        StoreStats {
            name: "work_queue",
            entries: state.jobs.len() + state.batch.len(),
            capacity: self.capacity * 2,
            bytes_estimate: state
                .jobs
                .iter()
                .map(|j| j.cache_key.len() + j.trace_id.len() + std::mem::size_of::<Job>())
                .sum::<usize>()
                + state.batch.iter().map(String::len).sum::<usize>(),
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            evictions: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn job(tag: u16) -> Job {
        Job {
            enqueued_at: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(5),
            slot: Slot::new(),
            cache_key: format!("test {tag}"),
            trace_id: format!("t-test-{tag}"),
            work: Box::new(move || JobOutput::new(tag, vec![])),
        }
    }

    #[test]
    fn full_queue_rejects_instead_of_blocking() {
        let q = WorkQueue::new(2);
        assert!(q.try_push(job(1)).is_ok());
        assert!(q.try_push(job(2)).is_ok());
        let rejected = q.try_push(job(3));
        assert!(rejected.is_err(), "third push must bounce");
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn pop_drains_then_observes_shutdown() {
        let q = WorkQueue::new(4);
        q.try_push(job(1)).ok();
        q.try_push(job(2)).ok();
        q.shutdown();
        assert!(q.try_push(job(3)).is_err(), "no admission after shutdown");
        assert!(q.pop(true).is_some(), "admitted jobs drain first");
        assert!(q.pop(true).is_some());
        assert!(q.pop(true).is_none(), "then workers are released");
    }

    #[test]
    fn interactive_lane_preempts_batch_and_batch_respects_allow() {
        let q = WorkQueue::new(4);
        q.push_batch("j00000001".to_string()).unwrap();
        q.try_push(job(1)).ok();
        // Interactive wins even though the batch token was queued first.
        assert!(matches!(q.pop(true), Some(Work::Interactive(_))));
        // The interactive-only worker never sees batch work; with an
        // empty interactive lane it would block, so probe via depths.
        assert_eq!(q.depth(), 0);
        assert_eq!(q.batch_depth(), 1);
        match q.pop(true) {
            Some(Work::Batch(id)) => assert_eq!(id, "j00000001"),
            _ => panic!("expected the batch token"),
        }
    }

    #[test]
    fn batch_lane_is_bounded_and_discarded_on_shutdown() {
        let q = WorkQueue::new(2);
        q.push_batch("a".to_string()).unwrap();
        q.push_batch("b".to_string()).unwrap();
        assert_eq!(
            q.push_batch("c".to_string()).expect_err("lane is full"),
            "c"
        );
        q.shutdown();
        assert!(
            q.push_batch("d".to_string()).is_err(),
            "no admission after shutdown"
        );
        // Shutdown with an empty interactive lane releases workers
        // immediately; the two batch tokens are dropped, not drained.
        assert!(q.pop(true).is_none());
        assert_eq!(q.batch_depth(), 2, "tokens were abandoned in place");
    }

    #[test]
    fn slot_round_trips_a_result() {
        let slot = Slot::new();
        let s2 = Arc::clone(&slot);
        let t = std::thread::spawn(move || s2.fulfill(JobOutput::new(200, b"ok".to_vec())));
        let out = slot.wait_until(Instant::now() + Duration::from_secs(5));
        assert!(t.join().unwrap());
        assert_eq!(out.unwrap().status, 200);
    }

    #[test]
    fn slot_notify_fires_on_fulfill_and_try_take_sees_the_result() {
        let slot = Slot::new();
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        slot.set_notify(move || {
            f2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(slot.try_take().is_none(), "pending slot has no result");
        assert!(slot.fulfill(JobOutput::new(200, b"ok".to_vec())));
        assert_eq!(fired.load(std::sync::atomic::Ordering::SeqCst), 1);
        assert_eq!(slot.try_take().unwrap().status, 200);
        // abandon_or_take on a done slot takes rather than abandons.
        assert_eq!(slot.abandon_or_take().unwrap().status, 200);
    }

    #[test]
    fn slot_abandon_or_take_on_pending_abandons_and_mutes_notify() {
        let slot = Slot::new();
        let fired = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let f2 = Arc::clone(&fired);
        slot.set_notify(move || {
            f2.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert!(slot.abandon_or_take().is_none());
        assert!(slot.is_abandoned());
        assert!(!slot.fulfill(JobOutput::new(200, vec![])));
        assert_eq!(
            fired.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "dropped results must not wake the event loop"
        );
    }

    #[test]
    fn slot_deadline_expiry_abandons() {
        let slot = Slot::new();
        let out = slot.wait_until(Instant::now() + Duration::from_millis(20));
        assert!(out.is_none());
        assert!(slot.is_abandoned());
        assert!(
            !slot.fulfill(JobOutput::new(200, vec![])),
            "late results are dropped"
        );
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(WorkQueue::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            q2.pop(true).map(|w| match w {
                Work::Interactive(j) => (j.work)().status,
                Work::Batch(_) => 0,
            })
        });
        std::thread::sleep(Duration::from_millis(30));
        q.try_push(job(7)).ok();
        assert_eq!(t.join().unwrap(), Some(7));
    }

    #[test]
    fn blocked_batch_pop_wakes_on_push_batch() {
        let q = Arc::new(WorkQueue::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || {
            q2.pop(true).map(|w| match w {
                Work::Interactive(_) => String::new(),
                Work::Batch(id) => id,
            })
        });
        std::thread::sleep(Duration::from_millis(30));
        q.push_batch("j00000042".to_string()).unwrap();
        assert_eq!(t.join().unwrap().as_deref(), Some("j00000042"));
    }
}
