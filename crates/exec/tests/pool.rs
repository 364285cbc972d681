//! The process-wide helper pool behind `par_map_indices_with_threads`:
//! no thread growth, panic isolation between fan-outs, concurrent
//! callers, the `in_worker` mark on every path and the introspection
//! counters.
//!
//! This lives in its own test binary, and every test holds
//! [`SERIAL`], so the pool is idle when a test starts and the thread
//! count read from `/proc/self/task` moves only with the pool. No test
//! here asks for more than three threads, so the pool never holds more
//! than two helpers.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Barrier, Condvar, Mutex, MutexGuard};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use scpg_exec::{in_worker, par_map_indices_with_threads, parallel_jobs, tasks_executed};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Lets the items of one fan-out wait, with a timeout, until a second
/// thread has started an item, so a helper gets to join.
#[derive(Default)]
struct Rendezvous {
    seen: Mutex<Vec<ThreadId>>,
    arrived: Condvar,
}

impl Rendezvous {
    /// Records the current thread, then waits up to 500 ms for another.
    fn arrive(&self) {
        let me = thread::current().id();
        let mut seen = self.seen.lock().unwrap();
        seen.push(me);
        self.arrived.notify_all();
        let _ = self
            .arrived
            .wait_timeout_while(seen, Duration::from_millis(500), |seen| {
                seen.iter().all(|&t| t == me)
            })
            .unwrap();
    }

    fn threads(&self) -> usize {
        self.seen
            .lock()
            .unwrap()
            .iter()
            .collect::<HashSet<_>>()
            .len()
    }
}

/// Runs `fan_out` until a helper took part in it, i.e. until more than
/// one thread arrived at its [`Rendezvous`], and returns that run's
/// result. A fan-out can miss its helpers only when they wake late.
fn with_a_helper<R>(fan_out: impl Fn(&Rendezvous) -> R) -> R {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let meet = Rendezvous::default();
        let out = fan_out(&meet);
        if meet.threads() > 1 {
            return out;
        }
        assert!(Instant::now() < deadline, "no helper joined within 30 s");
    }
}

fn task_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

#[test]
fn thread_count_stays_flat_across_fan_outs() {
    let _serial = serial();
    let ids = Mutex::new(HashSet::new());
    let run = || {
        par_map_indices_with_threads(16, 3, |i| {
            ids.lock().unwrap().insert(thread::current().id());
            i * 2
        })
    };
    assert_eq!(run(), (0..16).map(|i| i * 2).collect::<Vec<_>>());
    let before = task_count();
    for _ in 0..1_000 {
        assert_eq!(run().len(), 16);
    }
    let after = task_count();
    assert!(after <= before, "threads grew from {before} to {after}");
    // The caller plus at most two helpers ran every item: the pool
    // reuses its threads instead of spawning per fan-out.
    let ids = ids.into_inner().unwrap();
    assert!(ids.len() <= 3, "{} distinct threads ran items", ids.len());
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

#[test]
fn a_panic_surfaces_from_its_own_fan_out_only() {
    let _serial = serial();
    let check_next = || {
        let out = par_map_indices_with_threads(64, 2, |i| i * 3);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    };
    for (side, on_caller) in [("helper", false), ("caller", true)] {
        let caller = thread::current().id();
        let result = with_a_helper(|meet| {
            catch_unwind(AssertUnwindSafe(|| {
                par_map_indices_with_threads(8, 2, |i| {
                    if i < 2 {
                        meet.arrive();
                    }
                    if (thread::current().id() == caller) == on_caller {
                        panic!("{side} boom");
                    }
                    // Keep the surviving side busy while the other
                    // unwinds, so the drain really waits for it.
                    thread::sleep(Duration::from_millis(5));
                    i
                })
            }))
        });
        let payload = result.expect_err("the panic must surface from its own fan-out");
        assert_eq!(panic_message(payload), format!("{side} boom"));
        check_next();
        assert!(!in_worker());
    }
}

#[test]
fn concurrent_callers_get_index_ordered_results() {
    let _serial = serial();
    let start = Barrier::new(8);
    thread::scope(|s| {
        for t in 0..8usize {
            let start = &start;
            s.spawn(move || {
                start.wait();
                for round in 0..200usize {
                    let n = 1 + (t * 7 + round) % 40;
                    let out = par_map_indices_with_threads(n, 3, |i| (t, round, i));
                    let expect: Vec<_> = (0..n).map(|i| (t, round, i)).collect();
                    assert_eq!(out, expect, "caller {t} round {round}");
                }
            });
        }
    });
}

#[test]
fn in_worker_marks_every_path() {
    let _serial = serial();
    let caller = thread::current().id();

    // Helper and caller paths: both threads of one fan-out.
    let marks = with_a_helper(|meet| {
        par_map_indices_with_threads(2, 2, |_| {
            meet.arrive();
            (in_worker(), thread::current().id() == caller)
        })
    });
    assert!(marks.iter().all(|&(marked, _)| marked), "{marks:?}");
    assert!(marks.iter().any(|&(_, on_caller)| on_caller), "{marks:?}");
    assert!(marks.iter().any(|&(_, on_caller)| !on_caller), "{marks:?}");
    assert!(!in_worker());

    // Busy path: while this thread's fan-out holds the pool, another
    // caller's fan-out runs inline on that caller.
    let (started, holding) = mpsc::channel();
    let (finished, release) = mpsc::channel();
    let release = Mutex::new(release);
    thread::scope(|s| {
        s.spawn(move || {
            holding.recv().expect("holder started");
            let me = thread::current().id();
            let marks =
                par_map_indices_with_threads(4, 2, |_| (in_worker(), thread::current().id() == me));
            assert_eq!(marks, vec![(true, true); 4]);
            assert!(!in_worker());
            finished.send(()).expect("holder waiting");
        });
        // The fan-out holds the pool until item 0 returns, which waits
        // for the other caller to finish.
        par_map_indices_with_threads(2, 2, |i| {
            assert!(in_worker());
            if i == 0 {
                started.send(()).expect("other caller waiting");
                let release = release.lock().unwrap();
                release
                    .recv_timeout(Duration::from_secs(30))
                    .expect("other caller finished");
            }
        });
    });
    assert!(!in_worker());
}

#[test]
fn introspection_counters_move() {
    let _serial = serial();
    let tasks0 = tasks_executed();
    let _ = par_map_indices_with_threads(10, 2, |i| i);
    assert_eq!(tasks_executed(), tasks0 + 10);
    // Only the attempt a helper took part in counts as parallel.
    let jobs0 = parallel_jobs();
    with_a_helper(|meet| par_map_indices_with_threads(2, 2, |_| meet.arrive()));
    assert_eq!(parallel_jobs(), jobs0 + 1);
    // Serial fallback still counts tasks, not jobs.
    let tasks1 = tasks_executed();
    let _ = par_map_indices_with_threads(5, 1, |i| i);
    assert_eq!(tasks_executed(), tasks1 + 5);
    assert_eq!(parallel_jobs(), jobs0 + 1);
}
