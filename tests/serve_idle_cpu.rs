//! Regression tests for idle-CPU burn in the connection core.
//!
//! The original accept loop polled a nonblocking listener at 1 ms
//! (~1k wakeups/s, ~10 ms+ CPU over a 3-second window); the event loop
//! must burn effectively nothing while idle — including with ten
//! thousand parked keep-alive connections, where any per-connection
//! tick or level-triggered interest bug multiplies into solid CPU.
//!
//! This lives in its own test binary so the process is otherwise idle
//! while we measure. The 10k-connection test holds the client ends in a
//! child process (re-exec of this binary) because the per-process fd
//! limit here cannot fit both sides of 10k sockets.

use std::io::{BufRead, BufReader, Write};
use std::sync::Mutex;
use std::time::Duration;

// `CLOCK_PROCESS_CPUTIME_ID`: `/proc/self/stat` only ticks at 10 ms
// granularity, far too coarse for the few-millisecond budget this test
// enforces.
use scpg_trace::process_cpu_time;

/// Serializes the CPU-measuring tests — the measurement is
/// process-wide, so they must not overlap.
static MEASURE_LOCK: Mutex<()> = Mutex::new(());

#[test]
fn idle_server_burns_no_measurable_cpu() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig {
        workers: 2,
        ..scpg_serve::ServeConfig::default()
    })
    .expect("bind")
    .spawn();

    // Requests up front so every lazy path (thread spawn, first accept)
    // has already run before the measurement window. The uncached table
    // fans its rows out, so the `scpg-exec` helpers exist and sit parked
    // through the window: they must block, not spin.
    let warm = scpg_serve::client::get(handle.addr(), "/healthz").expect("healthz");
    assert_eq!(warm.status, 200);
    let table = scpg_serve::client::post(
        handle.addr(),
        "/v1/table",
        r#"{"design": {"kind": "multiplier", "bits": 4}, "frequencies_hz": [1e4, 1e5, 1e6, 1e7]}"#,
    )
    .expect("table");
    assert_eq!(table.status, 200, "{}", table.text());

    let idle_window = Duration::from_secs(3);
    let before = process_cpu_time();
    std::thread::sleep(idle_window);
    let burned = process_cpu_time() - before;

    handle.shutdown();

    // A failing clock reads zero and would pass the bound below without
    // measuring anything; starting the server has already burned CPU.
    assert!(before > Duration::ZERO, "process CPU clock reads zero");
    // The old 1 ms poll loop spent ~10-45 ms of CPU over this window on
    // this host; an event loop parked in a poll wait plus idle workers
    // spends microseconds. 5 ms leaves generous headroom for
    // allocator/scheduler noise while still failing a busy-poll
    // implementation by 2x or more.
    assert!(
        burned < Duration::from_millis(5),
        "idle server burned {burned:?} CPU over {idle_window:?} — accept loop is polling"
    );
}

/// How many parked keep-alive connections the 10k test opens.
const IDLE_CONNS: usize = 10_000;

/// Not a real test: the client half of
/// [`ten_thousand_idle_connections_burn_no_measurable_cpu`], run as a
/// child process so the 10k client sockets live in a separate fd table.
/// Without the env var set it does nothing.
#[test]
fn idle_client_helper() {
    let Ok(addr) = std::env::var("SCPG_IDLE_HELPER_ADDR") else {
        return;
    };
    let addr: std::net::SocketAddr = addr.parse().expect("helper addr");
    let conns: usize = std::env::var("SCPG_IDLE_HELPER_CONNS")
        .expect("helper conn count")
        .parse()
        .expect("helper conn count");
    let mut held = Vec::with_capacity(conns);
    for _ in 0..conns {
        // Brief retries ride out listen-backlog pressure while the
        // single-threaded event loop accepts the flood.
        let mut attempt = 0;
        let stream = loop {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) if attempt < 50 => {
                    attempt += 1;
                    let _ = e;
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => panic!("helper connect failed: {e}"),
            }
        };
        held.push(stream);
    }
    // Handshake: tell the parent everything is connected, then hold the
    // sockets open until it says stop (or closes our stdin).
    println!("HELPER-READY");
    std::io::stdout().flush().expect("flush READY");
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    drop(held);
}

#[test]
fn ten_thousand_idle_connections_burn_no_measurable_cpu() {
    let _serial = MEASURE_LOCK.lock().unwrap();
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig {
        workers: 2,
        // Far beyond the test's lifetime: none of the 10k connections
        // may hit the idle reaper inside the measurement window.
        idle_timeout_ms: 300_000,
        ..scpg_serve::ServeConfig::default()
    })
    .expect("bind")
    .spawn();
    let warm = scpg_serve::client::get(handle.addr(), "/healthz").expect("healthz");
    assert_eq!(warm.status, 200);

    let exe = std::env::current_exe().expect("current_exe");
    let mut child = std::process::Command::new(exe)
        .args(["--exact", "idle_client_helper", "--nocapture"])
        .env("SCPG_IDLE_HELPER_ADDR", handle.addr().to_string())
        .env("SCPG_IDLE_HELPER_CONNS", IDLE_CONNS.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn idle_client_helper child");
    let mut child_out = BufReader::new(child.stdout.take().expect("child stdout"));
    let mut line = String::new();
    loop {
        line.clear();
        let n = child_out.read_line(&mut line).expect("child stdout read");
        assert_ne!(n, 0, "helper exited before HELPER-READY");
        // `contains`, not equality: the libtest harness prints its
        // `test idle_client_helper ... ` prefix on the same line.
        if line.contains("HELPER-READY") {
            break;
        }
    }

    // All client sockets exist; wait until the server has accepted and
    // registered every one of them.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while handle.open_connections() < IDLE_CONNS {
        assert!(
            std::time::Instant::now() < deadline,
            "server accepted only {} of {IDLE_CONNS} connections",
            handle.open_connections()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    // Settle: let the accept burst's final wakeups drain.
    std::thread::sleep(Duration::from_millis(300));

    let idle_window = Duration::from_secs(3);
    let before = process_cpu_time();
    std::thread::sleep(idle_window);
    let burned = process_cpu_time() - before;

    // Release the child before asserting so a failure doesn't leak it.
    child
        .stdin
        .take()
        .expect("child stdin")
        .write_all(b"done\n")
        .ok();
    let _ = child.wait();
    handle.shutdown();

    assert!(before > Duration::ZERO, "process CPU clock reads zero");
    // Parked connections must be free: no per-connection tick, no
    // level-triggered interest leak. Same 5 ms budget as the bare idle
    // test — 10k connections must cost the same as zero.
    assert!(
        burned < Duration::from_millis(5),
        "10k idle connections burned {burned:?} CPU over {idle_window:?}"
    );
}
