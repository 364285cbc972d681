//! Deterministic parallel execution for embarrassingly-parallel sweeps.
//!
//! Every experiment in this reproduction — frequency sweeps, Monte-Carlo
//! variation studies, header sizing, VDD sweeps, Dhrystone vector-group
//! simulation — evaluates many independent points. This crate runs those
//! points on one process-wide pool of parked helper threads built purely
//! on std `Mutex` + `Condvar` (the workspace has no external
//! dependencies, so no `crossbeam`): the caller posts its fan-out, wakes
//! helpers and claims items itself from the same atomic counter (work
//! stealing in its simplest form — an idle participant takes the next
//! undone item, so load imbalance never leaves a core idle), and results
//! are written back by item index, making the output order — and
//! therefore every downstream reduction — **bit-identical to the serial
//! path** regardless of worker count or scheduling.
//!
//! Thread count comes from the `SCPG_THREADS` environment variable when
//! set, else from [`std::thread::available_parallelism`], read once at the
//! first fan-out. The pool serves one fan-out at a time: a nested call (a
//! parallel sweep whose items themselves call [`par_map`]) or a fan-out
//! that finds the pool busy runs inline on its caller instead of
//! oversubscribing the machine.
//!
//! ```
//! let squares = scpg_exec::par_map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![warn(missing_docs)]

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

thread_local! {
    /// Set on pool helpers, and on a caller while it runs its own items,
    /// so nested parallel calls run inline instead of waiting on a pool
    /// their own fan-out holds.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Items evaluated through the pool entry points since process start
/// (serial fallback included). See [`tasks_executed`].
static TASKS_EXECUTED: AtomicU64 = AtomicU64::new(0);
/// Fan-outs in which a helper ran at least one item. See
/// [`parallel_jobs`].
static PARALLEL_JOBS: AtomicU64 = AtomicU64::new(0);

/// Cached handle to the process-wide `exec_task` latency histogram
/// (per-item time through the pool). The `OnceLock` keeps the hot loop
/// free of registry lookups — observing is two relaxed atomic adds.
fn task_histogram() -> &'static Arc<scpg_trace::Histogram> {
    static HIST: OnceLock<Arc<scpg_trace::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| scpg_trace::engine_stage("exec_task"))
}

/// Cached handle to the process-wide `exec_fanout` latency histogram
/// (whole fan-out wall-clock, serial fallback included).
fn fanout_histogram() -> &'static Arc<scpg_trace::Histogram> {
    static HIST: OnceLock<Arc<scpg_trace::Histogram>> = OnceLock::new();
    HIST.get_or_init(|| scpg_trace::engine_stage("exec_fanout"))
}

/// Total work items evaluated by [`par_map`] and friends since process
/// start, including the inline serial fallback. Exposed so the serving
/// layer's `/metrics` endpoint can report pool throughput.
pub fn tasks_executed() -> u64 {
    TASKS_EXECUTED.load(Ordering::Relaxed)
}

/// Number of fan-outs in which a pool helper ran at least one item, so
/// more than one thread did the work (single-item, single-thread, nested
/// and busy-pool calls run inline and are not counted, nor is a fan-out
/// its caller finished before any helper woke). Exposed for `/metrics`.
pub fn parallel_jobs() -> u64 {
    PARALLEL_JOBS.load(Ordering::Relaxed)
}

/// Resolves a raw `SCPG_THREADS` value against a fallback: the parsed
/// count when it is a positive integer, else the fallback plus a warning
/// message naming the rejected value. Pure so the policy is testable
/// without touching the process environment.
fn resolve_threads(raw: Option<&str>, fallback: usize) -> (usize, Option<String>) {
    match raw {
        None => (fallback, None),
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n > 0 => (n, None),
            _ => (
                fallback,
                Some(format!(
                    "SCPG_THREADS={v:?} is not a positive integer; \
                     falling back to {fallback} worker thread(s)"
                )),
            ),
        },
    }
}

/// The worker count used by [`par_map`] and friends: `SCPG_THREADS` when
/// set to a positive integer, else the machine's available parallelism.
///
/// Resolved once per process, at the first call: later changes to the
/// environment or the CPU quota are not seen. An unparsable or zero
/// `SCPG_THREADS` does **not** degrade silently: a warning naming the
/// rejected value and the fallback count goes to stderr, then the
/// fallback applies.
pub fn num_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let raw = std::env::var("SCPG_THREADS").ok();
        let (n, warning) = resolve_threads(raw.as_deref(), fallback);
        if let Some(msg) = warning {
            eprintln!("[scpg-exec] warning: {msg}");
        }
        n
    })
}

/// `true` when called from inside a fan-out's item: on a pool helper, on
/// the caller running its own share, or on a caller running a fan-out
/// inline because the pool was busy.
pub fn in_worker() -> bool {
    IN_POOL.with(|f| f.get())
}

/// Marks the current thread as a pool participant until dropped, then
/// restores the previous mark — on unwind too.
struct InWorker(bool);

impl InWorker {
    fn enter() -> Self {
        Self(IN_POOL.with(|f| f.replace(true)))
    }
}

impl Drop for InWorker {
    fn drop(&mut self) {
        IN_POOL.with(|f| f.set(self.0));
    }
}

/// Runs item `i`, timing it into the `exec_task` histogram.
fn timed<T>(f: &impl Fn(usize) -> T, i: usize) -> T {
    let started = Instant::now();
    let v = f(i);
    task_histogram().observe(started.elapsed());
    v
}

/// One fan-out, living on its caller's stack while helpers work on it.
struct Job<'f, T, F> {
    f: &'f F,
    n: usize,
    /// The next unclaimed index; any value `>= n` means none is left.
    next: AtomicUsize,
    /// What the helpers produced, as `(index, value)` pairs.
    done: Mutex<Vec<(usize, T)>>,
    /// The first panic a helper caught, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Send, F: Fn(usize) -> T + Sync> Job<'_, T, F> {
    /// Claims and runs items until none is left.
    fn claim(&self) -> Vec<(usize, T)> {
        let mut local = Vec::new();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return local;
            }
            local.push((i, timed(self.f, i)));
        }
    }

    /// A helper's share: claims items and hands the results, or the
    /// panic, back to the caller. Returns whether it ran any item.
    fn help(&self) -> bool {
        match catch_unwind(AssertUnwindSafe(|| self.claim())) {
            Ok(local) => {
                let ran = !local.is_empty();
                lock(&self.done).extend(local);
                ran
            }
            Err(payload) => {
                // Stop the others early: the fan-out's result is lost.
                self.next.store(self.n, Ordering::Relaxed);
                lock(&self.panic).get_or_insert(payload);
                true
            }
        }
    }

    /// [`Job::help`] behind an erased pointer, for [`JobRef`].
    ///
    /// # Safety
    ///
    /// `data` must point to a live `Job<T, F>`.
    unsafe fn help_erased(data: *const ()) -> bool {
        // SAFETY: the caller guarantees `data` is a live `Job<T, F>`.
        unsafe { (*data.cast::<Self>()).help() }
    }
}

/// A posted fan-out with its type and lifetime erased, as helpers see it.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    help: unsafe fn(*const ()) -> bool,
}

// SAFETY: `data` points to a `Job<T, F>` with `T: Send` and `F: Sync`, so
// the `&Job` a helper makes of it is safe to share: `f` is `&F`, `next` an
// atomic, and `done` and `panic` are mutexes over `Send` values. The job
// outlives every use because its frame drops `Posted` — which waits for
// every helper that took this `JobRef` to leave — before the job.
unsafe impl Send for JobRef {}

/// The pool's shared state, guarded by [`Pool::state`].
struct State {
    /// The posted fan-out; `Some` means the pool is busy.
    job: Option<JobRef>,
    /// How many more helpers may join the posted fan-out.
    seats: usize,
    /// Helpers currently inside the posted fan-out.
    inside: usize,
    /// Whether a helper ran an item of the posted fan-out.
    helped: bool,
    /// Helper threads spawned so far.
    helpers: usize,
}

/// The process-wide helper pool. Helpers are spawned on demand, up to
/// the largest `threads − 1` any fan-out asked for, and then live for the
/// whole process, parked on [`Pool::work`] between fan-outs. They are
/// never joined: an item's panic is caught and handed to its fan-out, so
/// a helper's own loop cannot fail.
struct Pool {
    state: Mutex<State>,
    /// Helpers wait here for a fan-out to join.
    work: Condvar,
    /// A caller waits here for the helpers inside its fan-out to leave.
    left: Condvar,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        job: None,
        seats: 0,
        inside: 0,
        helped: false,
        helpers: 0,
    }),
    work: Condvar::new(),
    left: Condvar::new(),
};

/// Locks `m`, ignoring poisoning: every critical section on the pool's
/// mutexes is a handful of plain field updates that cannot leave the data
/// half-written, and [`Posted`]'s `Drop` must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// Posts `job` for up to `seats` helpers, spawning any missing ones,
    /// or returns `None` when another fan-out holds the pool.
    fn post<'a, T: Send, F: Fn(usize) -> T + Sync>(
        &'static self,
        job: &'a Job<'_, T, F>,
        seats: usize,
    ) -> Option<Posted<'a>> {
        let mut st = lock(&self.state);
        if st.job.is_some() {
            return None;
        }
        st.job = Some(JobRef {
            data: (job as *const Job<'_, T, F>).cast(),
            help: Job::<T, F>::help_erased,
        });
        st.seats = seats;
        st.helped = false;
        let missing = seats.saturating_sub(st.helpers);
        st.helpers += missing;
        drop(st);
        for _ in 0..missing {
            let spawned = std::thread::Builder::new()
                .name("scpg-exec".into())
                .spawn(move || self.serve());
            if spawned.is_err() {
                // Run with the helpers there are; the caller does the rest.
                lock(&self.state).helpers -= 1;
            }
        }
        for _ in 0..seats {
            self.work.notify_one();
        }
        Some(Posted {
            pool: self,
            next: &job.next,
            n: job.n,
        })
    }

    /// A helper's life: join each posted fan-out that has a free seat,
    /// park in between.
    fn serve(&self) {
        IN_POOL.with(|f| f.set(true));
        let mut st = lock(&self.state);
        loop {
            match st.job {
                Some(job) if st.seats > 0 => {
                    st.seats -= 1;
                    st.inside += 1;
                    drop(st);
                    // SAFETY: the job stays alive until `inside` is back
                    // to zero: `Posted::drop` waits for that.
                    let ran = unsafe { (job.help)(job.data) };
                    st = lock(&self.state);
                    st.helped |= ran;
                    st.inside -= 1;
                    if st.inside == 0 {
                        self.left.notify_one();
                    }
                }
                _ => st = self.work.wait(st).unwrap_or_else(PoisonError::into_inner),
            }
        }
    }
}

/// A fan-out posted on the pool. Dropping it — on return or unwind —
/// stops further claims and joins, waits until every helper that joined
/// has left, then retires the job, so nothing touches the job after its
/// frame is gone.
struct Posted<'a> {
    pool: &'static Pool,
    next: &'a AtomicUsize,
    n: usize,
}

impl Drop for Posted<'_> {
    fn drop(&mut self) {
        // A no-op after a normal finish; on unwind it stops the helpers
        // after their current item.
        self.next.store(self.n, Ordering::Relaxed);
        let mut st = lock(&self.pool.state);
        st.seats = 0;
        while st.inside > 0 {
            st = self
                .pool
                .left
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        // Only now may another fan-out post: until here this one's
        // helpers could still touch it, and only its caller waits on
        // `left`.
        st.job = None;
        if st.helped {
            PARALLEL_JOBS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Maps `f` over `0..n` on `threads` workers, returning results in index
/// order. The core primitive behind [`par_map`] / [`par_sweep`].
///
/// The caller is one of the workers: it posts the fan-out on the process
/// pool, wakes up to `threads − 1` helpers and claims items alongside
/// them. When the pool is busy with another fan-out, or this call is
/// nested inside one, every item runs inline on the caller.
///
/// `f` runs exactly once per index; which worker runs it is unspecified,
/// but the returned `Vec` is always `[f(0), f(1), …, f(n-1)]`.
///
/// # Panics
///
/// Propagates a panic raised by `f` in this fan-out, after every helper
/// has left it.
pub fn par_map_indices_with_threads<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    TASKS_EXECUTED.fetch_add(n as u64, Ordering::Relaxed);
    let _fanout_span = scpg_trace::Span::on(Arc::clone(fanout_histogram()));
    if threads <= 1 || n <= 1 {
        return (0..n).map(|i| timed(&f, i)).collect();
    }
    let nested = in_worker();
    let _worker = InWorker::enter();
    let job = Job {
        f: &f,
        n,
        next: AtomicUsize::new(0),
        done: Mutex::new(Vec::new()),
        panic: Mutex::new(None),
    };
    let posted = if nested {
        None
    } else {
        POOL.post(&job, threads - 1)
    };
    let Some(posted) = posted else {
        return (0..n).map(|i| timed(&f, i)).collect();
    };
    let mine = job.claim();
    drop(posted);
    if let Some(payload) = lock(&job.panic).take() {
        resume_unwind(payload);
    }

    let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let theirs = std::mem::take(&mut *lock(&job.done));
    for (i, v) in mine.into_iter().chain(theirs) {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every index produced exactly once"))
        .collect()
}

/// [`par_map_indices_with_threads`] at the default worker count.
pub fn par_map_indices<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_map_indices_with_threads(n, num_threads(), f)
}

/// Maps `f(index, item)` over a slice in parallel, preserving order.
pub fn par_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    par_map_indices(items.len(), |i| f(i, &items[i]))
}

/// Parallel sweep over parameter points: like [`par_map`] but the closure
/// only sees the point — the common shape of frequency/voltage sweeps.
pub fn par_sweep<I, T, F>(points: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    par_map(points, |_, p| f(p))
}

/// Fallible parallel map: evaluates every item, then returns the first
/// error in **index order** (not completion order), so failures are as
/// deterministic as successes.
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing item.
pub fn par_try_map<I, T, E, F>(items: &[I], f: F) -> Result<Vec<T>, E>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<T, E> + Sync,
{
    let results = par_map(items, |i, item| f(i, item));
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

/// Fallible indexed map, mirroring [`par_map_indices`].
///
/// # Errors
///
/// Returns the error of the lowest-indexed failing item.
pub fn par_try_map_indices<T, E, F>(n: usize, f: F) -> Result<Vec<T>, E>
where
    T: Send,
    E: Send,
    F: Fn(usize) -> Result<T, E> + Sync,
{
    let results = par_map_indices(n, f);
    let mut out = Vec::with_capacity(results.len());
    for r in results {
        out.push(r?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = par_map_indices_with_threads(100, threads, |i| i * i);
            let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
            assert_eq!(out, expect, "threads = {threads}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indices_with_threads(257, 4, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out.len(), 257);
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = par_map_indices_with_threads(0, 4, |i| i as u32);
        assert!(empty.is_empty());
        let one = par_map_indices_with_threads(1, 4, |i| i + 10);
        assert_eq!(one, vec![10]);
    }

    #[test]
    fn slice_and_sweep_wrappers_agree_with_serial() {
        let items: Vec<u64> = (0..64).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        assert_eq!(par_map(&items, |_, &x| x * 3 + 1), serial);
        assert_eq!(par_sweep(&items, |&x| x * 3 + 1), serial);
    }

    #[test]
    fn try_map_returns_lowest_index_error() {
        let items: Vec<u32> = (0..32).collect();
        let r: Result<Vec<u32>, u32> =
            par_try_map(&items, |_, &x| if x % 10 == 7 { Err(x) } else { Ok(x) });
        assert_eq!(r, Err(7), "index order, not completion order");
    }

    #[test]
    fn nested_calls_degrade_to_serial() {
        let out = par_map_indices_with_threads(8, 4, |i| {
            assert!(in_worker());
            // The inner call must run inline on this item's thread,
            // whichever participant that is: no deadlock, no new tier.
            let here = std::thread::current().id();
            let inner = par_map_indices_with_threads(4, 4, |j| {
                assert!(in_worker());
                assert_eq!(
                    std::thread::current().id(),
                    here,
                    "nested item moved thread"
                );
                j + i
            });
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8).map(|i| 4 * i + 6).collect();
        assert_eq!(out, expect);
        assert!(!in_worker());
    }

    #[test]
    fn resolve_threads_accepts_positive_integers() {
        assert_eq!(resolve_threads(Some("8"), 4), (8, None));
        assert_eq!(resolve_threads(Some(" 2 "), 4), (2, None));
        assert_eq!(resolve_threads(None, 4), (4, None));
    }

    #[test]
    fn resolve_threads_warns_on_bad_values() {
        for bad in ["", "abc", "0", "-3", "1.5", "4x"] {
            let (n, warning) = resolve_threads(Some(bad), 3);
            assert_eq!(n, 3, "fallback applies for {bad:?}");
            let msg = warning.expect("bad value must produce a warning");
            assert!(msg.contains(&format!("{bad:?}")), "names the value: {msg}");
            assert!(msg.contains("3 worker thread"), "names the fallback: {msg}");
        }
    }

    #[test]
    fn per_task_timing_reaches_the_engine_histograms() {
        let tasks = task_histogram();
        let fanouts = fanout_histogram();
        let t0 = tasks.count();
        let f0 = fanouts.count();
        let _ = par_map_indices_with_threads(12, 3, |i| i);
        assert!(tasks.count() >= t0 + 12, "every item is timed");
        assert!(fanouts.count() > f0, "the fan-out itself is timed");
        let text = scpg_trace::global().render();
        assert!(
            text.contains("scpg_engine_stage_duration_seconds_count{stage=\"exec_task\"}"),
            "{text}"
        );
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = par_map_indices_with_threads(16, 4, |i| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
