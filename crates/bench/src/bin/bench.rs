//! Performance harness for the simulation substrate: emits
//! `BENCH_sim.json` with engine time (new CSR+time-wheel engine vs the
//! reference heap engine), netlist-compile amortisation,
//! analysis sweep wall-clock, serial-vs-parallel speedups for the
//! Monte-Carlo variation study and the vector-group workload replay, the
//! settled activity-extraction comparison (per-lane event engine vs the
//! word-wide bit-parallel engine on the same packed stimulus), and the
//! serve path (cold request vs compiled-artifact reuse vs cache hit).
//!
//! All numbers are measured on this machine as-is; on a single-core
//! container the parallel speedups honestly report ≈1×, while the
//! engine-vs-reference speedup is core-count independent.

use std::fmt::Write as _;
use std::time::Instant;

use scpg_json::Json;

use scpg_circuits::{generate_cpu, generate_multiplier, CpuHarness};
use scpg_isa::dhrystone;
use scpg_liberty::{parse_liberty, write_liberty, EvalBackend, Library, Logic};
use scpg_netlist::{NetId, Netlist};
use scpg_power::{VariationConfig, VariationStudy};
use scpg_sim::{
    CompiledNetlist, EngineChoice, ReferenceSimulator, SettledEngine, SimConfig, Simulator,
};
use scpg_synth::Word;
use scpg_units::Frequency;
use scpg_waveform::Activity;

const PERIOD_PS: u64 = 1_000_000;
const WORKLOAD_CYCLES: usize = 200;

/// The pre-tracing serve-path p50 this box recorded (PR 3 baseline),
/// kept so the emitted report shows what per-request span recording
/// costs relative to the untraced server.
const SERVE_P50_BASELINE_MS: f64 = 0.0856;

/// The pre-observability serve numbers this box recorded (PR 8, Liberty
/// ingestion), kept so the report shows what wide-event recording and
/// the watchdog cost per request.
const SERVE_P50_BASELINE_PR8_MS: f64 = 0.0451;
const KEEPALIVE_P50_BASELINE_PR8_MS: f64 = 0.0132;

fn drive_word(stim: &mut Vec<(NetId, Logic)>, w: &Word, value: u64) {
    for (i, &bit) in w.bits().iter().enumerate() {
        stim.push((bit, Logic::from_bool((value >> i) & 1 == 1)));
    }
}

/// The multiplier workload as a per-cycle stimulus list (cycle 0..2 are
/// reset; operands are the same pseudo-random stream both engines see).
fn workload(ports: &scpg_circuits::MultiplierPorts) -> Vec<Vec<(NetId, Logic)>> {
    let mut rng = scpg_rng::StdRng::seed_from_u64(0xBEEF);
    let mut cycles = Vec::with_capacity(WORKLOAD_CYCLES);
    for i in 0..WORKLOAD_CYCLES {
        let mut stim = Vec::new();
        if i == 0 {
            stim.push((ports.rst_n, Logic::Zero));
        }
        if i == 2 {
            stim.push((ports.rst_n, Logic::One));
        }
        if i >= 2 {
            drive_word(&mut stim, &ports.a, rng.below(65_536));
            drive_word(&mut stim, &ports.b, rng.below(65_536));
        }
        cycles.push(stim);
    }
    cycles
}

/// Drives one full clock cycle on the new engine, mirroring
/// `ClockedTestbench::cycle` exactly so both engines see identical input
/// waveforms.
macro_rules! drive_cycles {
    ($sim:expr, $clk:expr, $cycles:expr) => {{
        let mut events: u64 = 0;
        $sim.set_input($clk, Logic::Zero);
        for (i, stim) in $cycles.iter().enumerate() {
            let t0 = i as u64 * PERIOD_PS;
            $sim.run_until(t0);
            $sim.set_input($clk, Logic::One);
            events += $sim.run_until(t0 + PERIOD_PS / 100);
            for &(net, v) in stim.iter() {
                $sim.set_input(net, v);
            }
            events += $sim.run_until(t0 + PERIOD_PS / 2);
            $sim.set_input($clk, Logic::Zero);
            events += $sim.run_until(t0 + PERIOD_PS);
        }
        events
    }};
}

struct EngineNumbers {
    events_new: u64,
    events_ref: u64,
    new_secs: f64,
    ref_secs: f64,
}

fn bench_engine(
    nl: &Netlist,
    lib: &Library,
    ports: &scpg_circuits::MultiplierPorts,
) -> EngineNumbers {
    let cycles = workload(ports);

    // Warm-up + correctness guard: both engines must record the same
    // activity. Their event counts differ by design: the new engine
    // never queues an event to the value a quiet net already holds.
    let mut sim = Simulator::new(nl, lib, SimConfig::default()).unwrap();
    let events_new = drive_cycles!(sim, ports.clk, cycles);
    let mut rsim = ReferenceSimulator::new(nl, lib, SimConfig::default()).unwrap();
    let events_ref = drive_cycles!(rsim, ports.clk, cycles);
    assert_eq!(
        sim.finish().activity,
        rsim.finish().activity,
        "new and reference engines must record identical activity"
    );

    let mut new_secs = f64::INFINITY;
    let mut ref_secs = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut sim = Simulator::new(nl, lib, SimConfig::default()).unwrap();
        let _ = drive_cycles!(sim, ports.clk, cycles);
        new_secs = new_secs.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut rsim = ReferenceSimulator::new(nl, lib, SimConfig::default()).unwrap();
        let _ = drive_cycles!(rsim, ports.clk, cycles);
        ref_secs = ref_secs.min(t0.elapsed().as_secs_f64());
    }
    EngineNumbers {
        events_new,
        events_ref,
        new_secs,
        ref_secs,
    }
}

struct CompileNumbers {
    builds: usize,
    fresh_secs: f64,
    shared_secs: f64,
}

fn bench_compile(nl: &Netlist, lib: &Library) -> CompileNumbers {
    const BUILDS: usize = 40;
    let cfg = SimConfig::default();

    let t0 = Instant::now();
    for _ in 0..BUILDS {
        let _ = Simulator::new(nl, lib, cfg.clone()).unwrap();
    }
    let fresh_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let compiled = CompiledNetlist::compile(nl, lib, cfg.corner).unwrap();
    for _ in 0..BUILDS {
        let _ = Simulator::with_compiled(&compiled, cfg.clone());
    }
    let shared_secs = t0.elapsed().as_secs_f64();

    CompileNumbers {
        builds: BUILDS,
        fresh_secs,
        shared_secs,
    }
}

fn bench_sweep(study: &scpg_bench::CaseStudy) -> (usize, f64) {
    const POINTS: usize = 64;
    let freqs: Vec<Frequency> = scpg_units::linspace(0.01, 14.3, POINTS)
        .into_iter()
        .map(Frequency::from_mhz)
        .collect();
    let t0 = Instant::now();
    let rows = study.analysis.table(&freqs);
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(rows.len(), POINTS);
    (POINTS, secs)
}

struct SpeedupNumbers {
    serial_secs: f64,
    parallel_secs: f64,
    bit_identical: bool,
}

fn bench_variation(
    nl: &Netlist,
    lib: &Library,
    e_dyn: scpg_units::Energy,
) -> (usize, SpeedupNumbers) {
    let cfg = VariationConfig {
        samples: 12,
        ..VariationConfig::default()
    };

    let t0 = Instant::now();
    let serial = VariationStudy::run_serial(nl, lib, e_dyn, &cfg).unwrap();
    let serial_secs = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let parallel = VariationStudy::run(nl, lib, e_dyn, &cfg).unwrap();
    let parallel_secs = t0.elapsed().as_secs_f64();

    (
        cfg.samples,
        SpeedupNumbers {
            serial_secs,
            parallel_secs,
            bit_identical: serial == parallel,
        },
    )
}

struct BitparNumbers {
    lanes: usize,
    event_secs: f64,
    bitpar_secs: f64,
    bit_identical: bool,
}

fn bench_groups() -> (usize, SpeedupNumbers, (u64, u64), BitparNumbers) {
    let lib = Library::ninety_nm();
    let (nl, ports) = generate_cpu(&lib);
    let cfg = SimConfig::default();
    let mut sim = Simulator::new(&nl, &lib, cfg.clone()).unwrap();
    let words = dhrystone::assemble(1).unwrap();
    let mut h = CpuHarness::new(words, dhrystone::memory_image());
    h.reset(&mut sim, &ports, PERIOD_PS, 3);
    assert!(h.run_to_halt(&mut sim, &ports, PERIOD_PS, 50_000));

    let compiled = CompiledNetlist::compile(&nl, &lib, cfg.corner).unwrap();
    let trace = h.trace();
    const GROUP: usize = 10;

    // The process-wide work counters must attribute the same event count
    // to the serial replay and the parallel one — the per-thread tallies
    // merge associatively, so scheduling cannot change the total.
    let ev0 = scpg_sim::totals().events;
    let t0 = Instant::now();
    let serial =
        CpuHarness::replay_groups_serial(&compiled, &cfg, trace, &ports, PERIOD_PS, 0.5, GROUP);
    let serial_secs = t0.elapsed().as_secs_f64();
    let events_serial = scpg_sim::totals().events - ev0;

    let ev1 = scpg_sim::totals().events;
    let t0 = Instant::now();
    let parallel = CpuHarness::replay_groups(&compiled, &cfg, trace, &ports, PERIOD_PS, 0.5, GROUP);
    let parallel_secs = t0.elapsed().as_secs_f64();
    let events_parallel = scpg_sim::totals().events - ev1;

    let identical = serial == parallel
        && Activity::merge_all(&serial).map(|a| a.duration_ps())
            == Activity::merge_all(&parallel).map(|a| a.duration_ps());

    let bp = bench_bitparallel(&nl, &lib, &compiled, &ports);

    (
        trace.len().div_ceil(GROUP),
        SpeedupNumbers {
            serial_secs,
            parallel_secs,
            bit_identical: identical,
        },
        (events_serial, events_parallel),
        bp,
    )
}

/// The settled activity-extraction comparison: the same packed stimulus
/// replayed through the per-lane event engine and the word-wide
/// bit-parallel engine, which must agree bit-for-bit. A longer Dhrystone
/// run (more iterations) than the glitch-replay benchmark gives each
/// lane enough cycles that the engines' fixed per-run costs (activity
/// buffers scale with nets × lanes) do not swamp the per-cycle work
/// being compared; the group size packs the 64-lane word as full as the
/// trace allows. Levelization is warmed first — it is cached per
/// compiled artifact, so callers pay it once per design.
fn bench_bitparallel(
    nl: &Netlist,
    lib: &Library,
    compiled: &CompiledNetlist,
    ports: &scpg_circuits::CpuPorts,
) -> BitparNumbers {
    const ITERATIONS: u32 = 10;
    let mut sim = Simulator::new(nl, lib, SimConfig::default()).unwrap();
    let words = dhrystone::assemble(ITERATIONS).unwrap();
    let mut h = CpuHarness::new(words, dhrystone::memory_image());
    h.reset(&mut sim, ports, PERIOD_PS, 3);
    assert!(h.run_to_halt(&mut sim, ports, PERIOD_PS, 50_000));
    let trace = h.trace();

    compiled.levelized().expect("baseline core must levelize");
    let group = trace.len().div_ceil(64);
    let lanes = trace.len().div_ceil(group);
    let settled = |choice| {
        CpuHarness::replay_groups_settled(compiled, trace, ports, PERIOD_PS, 0.5, group, choice)
    };
    let mut event_secs = f64::INFINITY;
    let mut bitpar_secs = f64::INFINITY;
    let mut event = settled(EngineChoice::Event).expect("event-engine settled replay");
    let mut bitpar = settled(EngineChoice::BitParallel).expect("bit-parallel settled replay");
    for _ in 0..3 {
        let t0 = Instant::now();
        event = settled(EngineChoice::Event).expect("event-engine settled replay");
        event_secs = event_secs.min(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        bitpar = settled(EngineChoice::BitParallel).expect("bit-parallel settled replay");
        bitpar_secs = bitpar_secs.min(t0.elapsed().as_secs_f64());
    }
    assert_eq!(event.engine, SettledEngine::Event);
    assert_eq!(bitpar.engine, SettledEngine::BitParallel);

    BitparNumbers {
        lanes,
        event_secs,
        bitpar_secs,
        bit_identical: event.activities == bitpar.activities,
    }
}

struct TracingNumbers {
    record_ns: f64,
    summaries_us: f64,
    detail_us: f64,
}

/// Measures the trace-store hot path in isolation: the per-span cost a
/// request pays to record its stage timings, and the cost of the two
/// introspection reads (`/v1/traces` summaries, single-trace detail) at
/// a full store — the price of polling a dashboard against a busy
/// server.
fn bench_tracing() -> TracingNumbers {
    const OPS: usize = 100_000;
    const TRACES: usize = 64;
    let store = scpg_trace::TraceStore::new(256);
    let ids: Vec<String> = (0..TRACES).map(|i| format!("bench-trace-{i}")).collect();

    let t0 = Instant::now();
    for i in 0..OPS {
        store.record_at(&ids[i % TRACES], "bench", "span", i as u64, 17, Vec::new());
    }
    let record_ns = t0.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    let t0 = Instant::now();
    let summaries = store.summaries();
    let summaries_us = t0.elapsed().as_secs_f64() * 1e6;
    assert_eq!(summaries.len(), TRACES, "all benchmark traces retained");

    let t0 = Instant::now();
    let detail = store.detail(&ids[0]).expect("benchmark trace present");
    let detail_us = t0.elapsed().as_secs_f64() * 1e6;
    assert!(!detail.spans.is_empty());

    TracingNumbers {
        record_ns,
        summaries_us,
        detail_us,
    }
}

struct ObservabilityNumbers {
    /// Cost of recording one wide event into the lock-sharded ring.
    event_record_ns: f64,
    /// `GET /v1/status` round-trip (best of N over keep-alive).
    status_us: f64,
    /// `GET /v1/logs` round-trip (best of N over keep-alive).
    logs_us: f64,
    /// Event-loop iteration-time p99 with only the watchdog sentinel
    /// ticking (upper bucket bound, from the exported histogram).
    lag_p99_idle_ms: f64,
    /// Event-loop iteration-time p99 while serving cache-hit load.
    lag_p99_loaded_ms: f64,
}

/// p99 of the exported `scpg_eventloop_lag_seconds` histogram: the
/// smallest bucket bound whose cumulative count covers 99% of samples
/// (an upper bound, as for any histogram-derived percentile).
fn lag_p99_ms_from_metrics(text: &str) -> f64 {
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("scpg_eventloop_lag_seconds_bucket{") else {
            continue;
        };
        let le = rest.split("le=\"").nth(1).and_then(|s| s.split('"').next());
        let count = rest.rsplit(' ').next().and_then(|c| c.parse::<u64>().ok());
        if let (Some(le), Some(count)) = (le, count) {
            let bound = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().unwrap_or(f64::INFINITY)
            };
            buckets.push((bound, count));
        }
    }
    let Some(&(_, total)) = buckets.last() else {
        return f64::NAN;
    };
    let target = ((total as f64) * 0.99).ceil() as u64;
    for (bound, cumulative) in buckets {
        if cumulative >= target {
            return bound * 1e3;
        }
    }
    f64::NAN
}

/// Measures the introspection plane itself: the per-request cost of the
/// wide-event record, the latency of the two read endpoints, and the
/// event-loop lag distribution idle vs under cache-hit load.
fn bench_observability() -> ObservabilityNumbers {
    // Ring hot path, off-server: a representative event with a few
    // annotation columns, recorded OPS times into a production-sized
    // ring (so eviction cost is included once the ring fills).
    const OPS: usize = 100_000;
    let log = scpg_trace::EventLog::new(1024);
    let t0 = Instant::now();
    for i in 0..OPS {
        let mut ev = scpg_trace::WideEvent::new("request", "sweep", 200);
        ev.trace_id = "t0123456789abcdef".to_string();
        ev.total_us = i as u64;
        ev.worker_cpu_us = i as u64 / 2;
        ev.fields.push(("cache".to_string(), "miss".to_string()));
        ev.fields
            .push(("design".to_string(), "multiplier:16".to_string()));
        log.record(ev);
    }
    let event_record_ns = t0.elapsed().as_secs_f64() * 1e9 / OPS as f64;

    // A short watchdog tick so the idle phase actually samples the loop.
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig {
        watchdog_tick_ms: 25,
        ..scpg_serve::ServeConfig::default()
    })
    .expect("bind loopback server")
    .spawn();
    let addr = handle.addr();

    // Idle: nothing but sentinel ticks for ~400 ms.
    std::thread::sleep(std::time::Duration::from_millis(400));
    let idle_text = scpg_serve::client::get(addr, "/metrics")
        .expect("metrics")
        .text()
        .to_string();
    let lag_p99_idle_ms = lag_p99_ms_from_metrics(&idle_text);

    // Loaded: cache-hit requests back to back over one keep-alive
    // connection — every request is a loop iteration.
    let sweep = r#"{"frequencies_hz": [1e6, 2e6, 5e6], "mode": "scpg"}"#;
    let warm = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("warm the cache");
    assert_eq!(warm.status, 200, "{}", warm.text());
    let mut conn = scpg_serve::client::ClientConn::connect(addr).expect("connect");
    for _ in 0..400 {
        let resp = conn.post("/v1/sweep", sweep).expect("cache hit");
        assert_eq!(resp.status, 200);
    }
    let loaded_text = conn.get("/metrics").expect("metrics").text().to_string();
    let lag_p99_loaded_ms = lag_p99_ms_from_metrics(&loaded_text);

    // Read-endpoint latency, best of 20 on the same warm connection.
    let mut status_us = f64::INFINITY;
    let mut logs_us = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        let resp = conn.get("/v1/status").expect("status");
        status_us = status_us.min(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(resp.status, 200);
        let t0 = Instant::now();
        let resp = conn.get("/v1/logs?limit=50").expect("logs");
        logs_us = logs_us.min(t0.elapsed().as_secs_f64() * 1e6);
        assert_eq!(resp.status, 200);
    }
    drop(conn);
    handle.shutdown();

    ObservabilityNumbers {
        event_record_ns,
        status_us,
        logs_us,
        lag_p99_idle_ms,
        lag_p99_loaded_ms,
    }
}

struct ServeNumbers {
    cold_ms: f64,
    compiled_ms: f64,
    warm_ms: f64,
    p50_ms: f64,
    p90_ms: f64,
    p99_ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    byte_identical: bool,
}

/// Nearest-rank percentile over an ascending-sorted sample set.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measures the HTTP serving path against the same multiplier design:
/// the cold request pays the design build + analysis, the second request
/// for the same design reuses the compiled artifact, and the repeated
/// request is answered from the result cache without touching the
/// engine.
fn bench_serve() -> ServeNumbers {
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
        .expect("bind loopback server")
        .spawn();
    let addr = handle.addr();
    let sweep = r#"{"frequencies_hz": [1e6, 2e6, 5e6, 1e7, 1.43e7], "mode": "scpg"}"#;

    let t0 = Instant::now();
    let cold = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("cold request");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.status, 200, "{}", cold.text());

    // Different query, same design: the compiled artifact is shared, only
    // the sweep itself is recomputed.
    let other = r#"{"frequencies_hz": [3e6, 4e6, 6e6, 8e6, 1.2e7], "mode": "scpg"}"#;
    let t0 = Instant::now();
    let compiled = scpg_serve::client::post(addr, "/v1/sweep", other).expect("compiled request");
    let compiled_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(compiled.status, 200, "{}", compiled.text());

    // Identical query: served from the result cache, byte-identically.
    // Best-of-5 so per-connection thread-spawn jitter on a loaded box
    // does not swamp the (microsecond) cache-hit path.
    let mut warm_ms = f64::INFINITY;
    let mut warm = cold.clone();
    for _ in 0..5 {
        let t0 = Instant::now();
        warm = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("warm request");
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(warm.status, 200, "{}", warm.text());
    }

    // Steady-state latency distribution: 40 cache-hit requests, the
    // shape a dashboard would alert on. (Cold compiles are one-off and
    // reported separately above.)
    let mut samples = Vec::with_capacity(40);
    for _ in 0..40 {
        let t0 = Instant::now();
        let resp = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("sampled request");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    samples.sort_by(f64::total_cmp);
    let p50_ms = percentile(&samples, 0.50);
    let p90_ms = percentile(&samples, 0.90);
    let p99_ms = percentile(&samples, 0.99);

    let m = handle.metrics();
    handle.shutdown();
    ServeNumbers {
        cold_ms,
        compiled_ms,
        warm_ms,
        p50_ms,
        p90_ms,
        p99_ms,
        cache_hits: m.cache_hits,
        cache_misses: m.cache_misses,
        byte_identical: warm.body == cold.body,
    }
}

struct ServeConcurrencyNumbers {
    requests: usize,
    /// One fresh connection per request — the old close-per-request
    /// protocol, kept as the comparison floor.
    close_rps: f64,
    /// One persistent connection, strict request/response alternation.
    keepalive_rps: f64,
    /// One persistent connection, every request written before the
    /// first response is read.
    pipelined_rps: f64,
    keepalive_p50_ms: f64,
    keepalive_p99_ms: f64,
    idle_conns: usize,
    idle_window_ms: f64,
    /// Process CPU consumed across the idle window while `idle_conns`
    /// parked keep-alive connections were open.
    idle_cpu_ms: f64,
}

/// Measures the event-loop connection core: cache-hit throughput under
/// the three connection disciplines (close-per-request, keep-alive,
/// pipelined keep-alive) and the CPU cost of a crowd of parked idle
/// connections.
fn bench_serve_concurrency() -> ServeConcurrencyNumbers {
    const REQUESTS: usize = 200;
    const IDLE_CONNS: usize = 500;
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
        .expect("bind loopback server")
        .spawn();
    let addr = handle.addr();
    let sweep = r#"{"frequencies_hz": [1e6, 2e6, 5e6, 1e7, 1.43e7], "mode": "scpg"}"#;

    // Warm the result cache: everything below measures the serving
    // machinery, not the engine.
    let warm = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("warm request");
    assert_eq!(warm.status, 200, "{}", warm.text());

    // Close-per-request: connect, ask, tear down — per request.
    let t0 = Instant::now();
    for _ in 0..REQUESTS {
        let resp = scpg_serve::client::post(addr, "/v1/sweep", sweep).expect("close request");
        assert_eq!(resp.status, 200);
    }
    let close_rps = REQUESTS as f64 / t0.elapsed().as_secs_f64();

    // Keep-alive: one connection, strict alternation; per-request
    // latencies give the steady-state percentiles.
    let mut conn = scpg_serve::client::ClientConn::connect(addr).expect("keep-alive connect");
    let mut samples = Vec::with_capacity(REQUESTS);
    let t0 = Instant::now();
    for _ in 0..REQUESTS {
        let r0 = Instant::now();
        let resp = conn.post("/v1/sweep", sweep).expect("keep-alive request");
        samples.push(r0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(resp.status, 200);
    }
    let keepalive_rps = REQUESTS as f64 / t0.elapsed().as_secs_f64();
    samples.sort_by(f64::total_cmp);
    let keepalive_p50_ms = percentile(&samples, 0.50);
    let keepalive_p99_ms = percentile(&samples, 0.99);
    drop(conn);

    // Pipelined: the whole batch written up front, responses streamed
    // back in order off one socket.
    let mut conn = scpg_serve::client::ClientConn::connect(addr).expect("pipeline connect");
    let t0 = Instant::now();
    for _ in 0..REQUESTS {
        conn.send_post("/v1/sweep", sweep).expect("pipeline write");
    }
    for _ in 0..REQUESTS {
        let resp = conn.read_response().expect("pipeline response");
        assert_eq!(resp.status, 200);
    }
    let pipelined_rps = REQUESTS as f64 / t0.elapsed().as_secs_f64();
    drop(conn);

    // A crowd of parked connections must cost (near) zero CPU: no
    // per-connection tick, no level-triggered interest leak. The 10k
    // version lives in tests/serve_idle_cpu.rs; 500 here keeps the
    // bench inside any fd budget while still exposing a busy loop.
    let parked: Vec<_> = (0..IDLE_CONNS)
        .map(|_| scpg_serve::client::ClientConn::connect(addr).expect("idle connect"))
        .collect();
    std::thread::sleep(std::time::Duration::from_millis(300)); // settle
    let idle_window = std::time::Duration::from_millis(1000);
    let before = scpg_trace::process_cpu_time();
    std::thread::sleep(idle_window);
    let idle_cpu_ms = (scpg_trace::process_cpu_time() - before).as_secs_f64() * 1e3;
    drop(parked);

    handle.shutdown();
    ServeConcurrencyNumbers {
        requests: REQUESTS,
        close_rps,
        keepalive_rps,
        pipelined_rps,
        keepalive_p50_ms,
        keepalive_p99_ms,
        idle_conns: IDLE_CONNS,
        idle_window_ms: idle_window.as_secs_f64() * 1e3,
        idle_cpu_ms,
    }
}

struct JobsNumbers {
    total_units: usize,
    chunks: u64,
    chunks_per_sec: f64,
    run_ms: f64,
    reload_ms: f64,
    byte_identical: bool,
}

/// Measures the async batch-job path: a 64-frequency sweep executed in
/// 8-unit chunks with per-chunk disk checkpoints, polled to completion;
/// then the cost of a restarted server reloading that store (the fixed
/// overhead a crash-recovery pays before resuming).
fn bench_jobs() -> JobsNumbers {
    let dir = std::env::temp_dir().join(format!("scpg-bench-jobs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || scpg_serve::ServeConfig {
        chunk_units: 8,
        store_dir: Some(dir.to_string_lossy().into_owned()),
        ..scpg_serve::ServeConfig::default()
    };
    let handle = scpg_serve::Server::bind(config())
        .expect("bind loopback server")
        .spawn();
    let addr = handle.addr();

    const UNITS: usize = 64;
    let freqs: Vec<String> = scpg_units::linspace(0.1e6, 14.3e6, UNITS)
        .into_iter()
        .map(|f| format!("{f}"))
        .collect();
    let request = format!(
        r#"{{"design": {{"kind": "multiplier", "bits": 8}}, "frequencies_hz": [{}], "mode": "scpg"}}"#,
        freqs.join(", ")
    );
    let interactive = scpg_serve::client::post(addr, "/v1/sweep", &request).expect("sweep");
    assert_eq!(interactive.status, 200, "{}", interactive.text());

    let t0 = Instant::now();
    let submit = scpg_serve::client::submit_job(
        addr,
        &format!(r#"{{"kind": "sweep", "request": {request}}}"#),
    )
    .expect("submit");
    assert_eq!(submit.status, 202, "{}", submit.text());
    let job_id = Json::parse(submit.text())
        .expect("submit doc")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("job id");
    let done = scpg_serve::client::poll_job(addr, &job_id, std::time::Duration::from_secs(300))
        .expect("poll");
    let run_secs = t0.elapsed().as_secs_f64();
    assert!(done.text().contains("\"done\""), "{}", done.text());
    let result = scpg_serve::client::job_result(addr, &job_id).expect("result");
    let chunks = handle.metrics().job_chunks_completed;
    handle.shutdown();

    // Restart on the same store: bind + reload until the finished job's
    // result is servable again — the recovery path's fixed cost.
    let t0 = Instant::now();
    let second = scpg_serve::Server::bind(config())
        .expect("rebind loopback server")
        .spawn();
    let reloaded = scpg_serve::client::job_result(second.addr(), &job_id).expect("reloaded result");
    let reload_secs = t0.elapsed().as_secs_f64();
    assert_eq!(reloaded.status, 200, "{}", reloaded.text());
    second.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    JobsNumbers {
        total_units: UNITS,
        chunks,
        chunks_per_sec: chunks as f64 / run_secs.max(1e-9),
        run_ms: run_secs * 1e3,
        reload_ms: reload_secs * 1e3,
        byte_identical: result.body == interactive.body && reloaded.body == interactive.body,
    }
}

struct CompareNumbers {
    techniques: usize,
    frequencies: usize,
    cold_ms: f64,
    models_hot_ms: f64,
    cache_hit_p50_ms: f64,
    per_technique_ms: Vec<(String, f64)>,
    scpg_identical: bool,
}

/// Measures the technique bake-off path: a cold `/v1/compare` that
/// compiles the design and prepares every registered technique model
/// (per-technique prepare cost read back from the request's own trace
/// spans), a second request on fresh frequencies with the model LRU hot,
/// and the cache-hit p50; plus the bit-identity of the scpg row against
/// `/v1/sweep`.
fn bench_compare() -> CompareNumbers {
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
        .expect("bind loopback server")
        .spawn();
    let addr = handle.addr();
    const FREQS: &str = "[1e6, 2e6, 5e6, 1e7, 1.43e7]";
    let request =
        format!(r#"{{"design": {{"kind": "multiplier", "bits": 8}}, "frequencies_hz": {FREQS}}}"#);

    let t0 = Instant::now();
    let cold = scpg_serve::client::post_traced(addr, "/v1/compare", &request, "bench-compare")
        .expect("cold compare");
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(cold.status, 200, "{}", cold.text());
    let rows = Json::parse(cold.text())
        .expect("compare doc")
        .get("techniques")
        .and_then(|t| t.as_array().map(<[Json]>::to_vec))
        .expect("technique rows");

    // Per-technique prepare+evaluate cost, from the request's own spans.
    let trace = scpg_serve::client::get(addr, "/v1/traces/bench-compare").expect("trace");
    let mut per_technique_ms = Vec::new();
    if let Some(spans) = Json::parse(trace.text()).ok().and_then(|d| {
        d.get("spans")
            .and_then(|s| s.as_array().map(<[Json]>::to_vec))
    }) {
        for span in &spans {
            let stage = span.get("stage").and_then(Json::as_str).unwrap_or_default();
            if let Some(name) = stage.strip_prefix("technique:") {
                let us = span
                    .get("duration_us")
                    .and_then(Json::as_f64)
                    .unwrap_or_default();
                per_technique_ms.push((name.to_string(), us / 1e3));
            }
        }
    }

    // Fresh frequencies, same design + techniques: the artifact and every
    // technique model come out of their caches; only evaluation runs.
    let other = r#"{"design": {"kind": "multiplier", "bits": 8}, "frequencies_hz": [3e6, 4e6, 6e6, 8e6, 1.2e7]}"#;
    let t0 = Instant::now();
    let hot = scpg_serve::client::post(addr, "/v1/compare", other).expect("hot compare");
    let models_hot_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(hot.status, 200, "{}", hot.text());

    // Identical request: result-cache hits, the dashboard steady state.
    let mut samples = Vec::with_capacity(20);
    for _ in 0..20 {
        let t0 = Instant::now();
        let resp = scpg_serve::client::post(addr, "/v1/compare", &request).expect("cached compare");
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(resp.status, 200, "{}", resp.text());
        assert_eq!(resp.body, cold.body, "cache hit must be byte-identical");
    }
    samples.sort_by(f64::total_cmp);
    let cache_hit_p50_ms = percentile(&samples, 0.50);

    // The scpg row is the paper reproduction: bit-identical to /v1/sweep.
    let sweep = scpg_serve::client::post(
        addr,
        "/v1/sweep",
        &format!(
            r#"{{"design": {{"kind": "multiplier", "bits": 8}}, "frequencies_hz": {FREQS}, "mode": "scpg"}}"#
        ),
    )
    .expect("sweep");
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    let scpg_points = rows
        .iter()
        .find(|r| r.get("technique").and_then(Json::as_str) == Some("scpg"))
        .and_then(|r| r.get("points"))
        .expect("scpg row")
        .write();
    let sweep_points = Json::parse(sweep.text())
        .expect("sweep doc")
        .get("points")
        .expect("sweep points")
        .write();

    handle.shutdown();
    CompareNumbers {
        techniques: rows.len(),
        frequencies: 5,
        cold_ms,
        models_hot_ms,
        cache_hit_p50_ms,
        per_technique_ms,
        scpg_identical: scpg_points == sweep_points,
    }
}

struct LibertyNumbers {
    cells: usize,
    source_kib: f64,
    parse_ms: f64,
    table_eval_ns: f64,
    analytical_eval_ns: f64,
    upload_sweep_ms: f64,
}

/// Inflates the kit's own Liberty serialization to `target` cells by
/// re-emitting every cell block under bumped drive suffixes ("INV_X1" →
/// "INV_X101", …): same grammar and same table shapes, but a library of
/// realistic upload size for the parser measurement.
fn inflate_liberty(src: &str, target: usize) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut blocks = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        if lines[i].starts_with("  cell (") {
            let start = i;
            let mut depth = 0isize;
            loop {
                depth += lines[i].matches('{').count() as isize;
                depth -= lines[i].matches('}').count() as isize;
                i += 1;
                if depth == 0 {
                    break;
                }
            }
            blocks.push((start, i));
        } else {
            i += 1;
        }
    }
    assert!(!blocks.is_empty(), "kit serialization has cell blocks");
    let close = src.rfind('}').expect("library group closes");
    let mut out = src[..close].to_string();
    let mut cells = blocks.len();
    let mut copy = 1usize;
    while cells < target {
        for &(s, e) in &blocks {
            if cells >= target {
                break;
            }
            for line in &lines[s..e] {
                if let Some(rest) = line.strip_prefix("  cell (") {
                    let name = rest.split(')').next().expect("cell name");
                    let digits_at = name
                        .rfind(|c: char| !c.is_ascii_digit())
                        .map_or(0, |p| p + 1);
                    let (stem, digits) = name.split_at(digits_at);
                    let n: usize = digits.parse().expect("drive suffix");
                    let _ = writeln!(out, "  cell ({stem}{}) {{", n + 100 * copy);
                } else {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            cells += 1;
        }
        copy += 1;
    }
    out.push_str("}\n");
    out
}

/// Measures the Liberty ingestion path: parsing a ~100-cell NLDM library,
/// the per-arc delay-evaluation cost through the table backend vs the
/// closed-form analytical backend on the same cell, and the end-to-end
/// upload→table-backed-sweep wall clock against a fresh server.
fn bench_liberty() -> LibertyNumbers {
    let kit_src = write_liberty(&Library::ninety_nm());
    let big_src = inflate_liberty(&kit_src, 100);
    let parsed = parse_liberty(&big_src).expect("inflated kit parses");
    let cells = parsed.library.cells().count();
    assert!(cells >= 100, "inflated library holds >= 100 cells");

    let mut parse_ms = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let again = parse_liberty(&big_src).expect("reparse");
        parse_ms = parse_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(again.library.cells().count(), cells);
    }

    // The same delay arc through both evaluation routes, the load swept
    // across the table's index range so every call pays a real bilinear
    // interpolation rather than a clamped corner.
    const EVALS: usize = 200_000;
    let v = parsed.library.char_voltage();
    let loads: Vec<scpg_units::Capacitance> = (0..16)
        .map(|i| scpg_units::Capacitance::from_ff(1.0 + i as f64))
        .collect();
    let measure = |lib: &Library| {
        let cell = lib.cell("INV_X1").expect("kit INV_X1 present");
        let t0 = Instant::now();
        let mut acc_ps = 0.0;
        for i in 0..EVALS {
            acc_ps += cell.delay(v, loads[i % loads.len()]).as_ps();
        }
        let ns = t0.elapsed().as_secs_f64() * 1e9 / EVALS as f64;
        assert!(acc_ps.is_finite() && acc_ps > 0.0);
        (ns, acc_ps)
    };
    let (table_eval_ns, table_acc) = measure(&parsed.library.with_backend(EvalBackend::Table));
    let (analytical_eval_ns, analytical_acc) =
        measure(&parsed.library.with_backend(EvalBackend::Analytical));
    // The kit's tables are sampled from its own closed form: in aggregate
    // the two routes must agree to interpolation error, or the seam is
    // broken and the timings above compare different physics.
    let rel = (table_acc - analytical_acc).abs() / analytical_acc.abs().max(1e-30);
    assert!(
        rel < 0.05,
        "table ({table_acc} ps) and analytical ({analytical_acc} ps) delay sums diverged (rel {rel})"
    );

    // Admission to first table-backed answer: hash + parse + validate +
    // persist, then a cold sweep resolved through the uploaded library.
    let handle = scpg_serve::Server::bind(scpg_serve::ServeConfig::default())
        .expect("bind loopback server")
        .spawn();
    let addr = handle.addr();
    let t0 = Instant::now();
    let up = scpg_serve::client::upload_library(addr, &kit_src).expect("upload");
    assert_eq!(up.status, 201, "{}", up.text());
    let id = Json::parse(up.text())
        .expect("upload doc")
        .get("id")
        .and_then(|v| v.as_str().map(String::from))
        .expect("library id");
    let body = format!(
        r#"{{"design": {{"kind": "multiplier", "bits": 8, "library": {{"kind": "uploaded", "id": "{id}"}}}}, "frequencies_hz": [1e6, 2e6, 5e6, 1e7, 1.43e7]}}"#
    );
    let sweep = scpg_serve::client::post(addr, "/v1/sweep", &body).expect("table sweep");
    let upload_sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sweep.status, 200, "{}", sweep.text());
    handle.shutdown();

    LibertyNumbers {
        cells,
        source_kib: big_src.len() as f64 / 1024.0,
        parse_ms,
        table_eval_ns,
        analytical_eval_ns,
        upload_sweep_ms,
    }
}

/// Keeps the emitted JSON readable: fixed decimals instead of the full
/// shortest-round-trip expansion of a timing measurement.
fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

fn main() {
    let threads = scpg_exec::num_threads();
    println!("[bench] worker threads: {threads}");

    let lib = Library::ninety_nm();
    let (nl, ports) = generate_multiplier(&lib, 16);

    println!("[bench] engine time (16x16 multiplier, {WORKLOAD_CYCLES} cycles)...");
    let eng = bench_engine(&nl, &lib, &ports);
    println!(
        "  new engine {:.1} ms ({} events), reference {:.1} ms ({} events) ({:.2}x)",
        eng.new_secs * 1e3,
        eng.events_new,
        eng.ref_secs * 1e3,
        eng.events_ref,
        eng.ref_secs / eng.new_secs
    );

    println!("[bench] netlist-compile amortisation...");
    let comp = bench_compile(&nl, &lib);
    println!(
        "  {} fresh builds {:.1} ms vs shared-compile builds {:.1} ms ({:.1}x)",
        comp.builds,
        comp.fresh_secs * 1e3,
        comp.shared_secs * 1e3,
        comp.fresh_secs / comp.shared_secs.max(1e-12)
    );

    println!("[bench] analysis sweep...");
    let study = scpg_bench::CaseStudy::multiplier();
    let (sweep_points, sweep_secs) = bench_sweep(&study);
    println!("  {sweep_points}-point table in {:.1} ms", sweep_secs * 1e3);

    println!("[bench] Monte-Carlo variation, serial vs parallel...");
    let (mc_samples, mc) = bench_variation(&study.baseline, &study.lib, study.e_dyn);
    println!(
        "  {} dies: serial {:.2} s, parallel {:.2} s ({:.2}x), bit-identical: {}",
        mc_samples,
        mc.serial_secs,
        mc.parallel_secs,
        mc.serial_secs / mc.parallel_secs.max(1e-12),
        mc.bit_identical
    );
    assert!(
        mc.bit_identical,
        "parallel variation study must be bit-identical"
    );

    println!("[bench] Dhrystone vector-group replay, serial vs parallel...");
    let (n_groups, grp, (events_serial, events_parallel), bp) = bench_groups();
    println!(
        "  {} groups: serial {:.2} s, parallel {:.2} s ({:.2}x), bit-identical: {}",
        n_groups,
        grp.serial_secs,
        grp.parallel_secs,
        grp.serial_secs / grp.parallel_secs.max(1e-12),
        grp.bit_identical
    );
    assert!(
        grp.bit_identical,
        "parallel group replay must be bit-identical"
    );
    println!("  sim events: serial {events_serial}, parallel {events_parallel}");
    assert_eq!(
        events_serial, events_parallel,
        "engine work counters must be schedule-independent"
    );

    println!("[bench] settled activity extraction, event vs bit-parallel...");
    println!(
        "  {} lanes: event {:.2} s, bit-parallel {:.3} s ({:.1}x), bit-identical: {}",
        bp.lanes,
        bp.event_secs,
        bp.bitpar_secs,
        bp.event_secs / bp.bitpar_secs.max(1e-12),
        bp.bit_identical
    );
    assert!(
        bp.bit_identical,
        "bit-parallel settled replay must be bit-identical to the event engine"
    );

    println!("[bench] serve path: cold vs compiled-artifact vs cache hit...");
    let srv = bench_serve();
    println!(
        "  cold {:.1} ms, compiled {:.1} ms, warm {:.2} ms ({:.0}x), {} hit / {} miss, byte-identical: {}",
        srv.cold_ms,
        srv.compiled_ms,
        srv.warm_ms,
        srv.cold_ms / srv.warm_ms.max(1e-9),
        srv.cache_hits,
        srv.cache_misses,
        srv.byte_identical
    );
    println!(
        "  steady-state latency p50 {:.2} ms, p90 {:.2} ms, p99 {:.2} ms",
        srv.p50_ms, srv.p90_ms, srv.p99_ms
    );
    assert!(
        srv.byte_identical,
        "cache hit must replay the original body byte-identically"
    );

    println!("[bench] serve concurrency: close vs keep-alive vs pipelined, idle CPU...");
    let conc = bench_serve_concurrency();
    println!(
        "  {} cache-hit requests: close {:.0} req/s, keep-alive {:.0} req/s, pipelined {:.0} req/s ({:.2}x over close)",
        conc.requests,
        conc.close_rps,
        conc.keepalive_rps,
        conc.pipelined_rps,
        conc.pipelined_rps / conc.close_rps.max(1e-9)
    );
    println!(
        "  keep-alive latency p50 {:.3} ms, p99 {:.3} ms (PR-3 close-protocol baseline p50 {SERVE_P50_BASELINE_MS} ms)",
        conc.keepalive_p50_ms, conc.keepalive_p99_ms
    );
    println!(
        "  {} parked connections: {:.2} ms CPU over a {:.0} ms idle window",
        conc.idle_conns, conc.idle_cpu_ms, conc.idle_window_ms
    );
    assert!(
        conc.pipelined_rps >= conc.close_rps,
        "pipelined keep-alive must not be slower than close-per-request"
    );

    println!("[bench] trace store: record hot path + introspection reads...");
    let trc = bench_tracing();
    println!(
        "  record {:.0} ns/span, summaries {:.1} us, detail {:.1} us, serve p50 {:.4} ms vs {SERVE_P50_BASELINE_MS} ms baseline ({:+.1}%)",
        trc.record_ns,
        trc.summaries_us,
        trc.detail_us,
        srv.p50_ms,
        (srv.p50_ms / SERVE_P50_BASELINE_MS - 1.0) * 1e2
    );

    println!("[bench] observability plane: wide-event record, status/logs reads, loop lag...");
    let obs = bench_observability();
    println!(
        "  event record {:.0} ns, /v1/status {:.1} us, /v1/logs {:.1} us",
        obs.event_record_ns, obs.status_us, obs.logs_us
    );
    println!(
        "  loop-lag p99 idle {:.3} ms vs loaded {:.3} ms; serve p50 {:.4} ms vs PR-8 {SERVE_P50_BASELINE_PR8_MS} ms ({:+.1}%)",
        obs.lag_p99_idle_ms,
        obs.lag_p99_loaded_ms,
        srv.p50_ms,
        (srv.p50_ms / SERVE_P50_BASELINE_PR8_MS - 1.0) * 1e2
    );

    println!("[bench] async jobs: chunked sweep + restart reload...");
    let jobs = bench_jobs();
    println!(
        "  {} units in {} chunks: {:.1} chunks/s ({:.1} ms), store reload {:.1} ms, byte-identical: {}",
        jobs.total_units,
        jobs.chunks,
        jobs.chunks_per_sec,
        jobs.run_ms,
        jobs.reload_ms,
        jobs.byte_identical
    );
    assert!(
        jobs.byte_identical,
        "chunked job result must be byte-identical to the interactive sweep"
    );

    println!("[bench] technique bake-off: cold vs model-cache-hot vs cache hit...");
    let cmp = bench_compare();
    println!(
        "  {} techniques x {} freqs: cold {:.1} ms, models hot {:.1} ms, cache-hit p50 {:.3} ms, scpg row identical to sweep: {}",
        cmp.techniques,
        cmp.frequencies,
        cmp.cold_ms,
        cmp.models_hot_ms,
        cmp.cache_hit_p50_ms,
        cmp.scpg_identical
    );
    for (name, ms) in &cmp.per_technique_ms {
        println!("    {name}: {ms:.2} ms prepare+evaluate");
    }
    assert!(
        cmp.scpg_identical,
        "the scpg compare row must be bit-identical to /v1/sweep"
    );

    println!("[bench] Liberty ingestion: parse, table vs analytical eval, upload->sweep...");
    let lty = bench_liberty();
    println!(
        "  {} cells ({:.0} KiB) parsed in {:.2} ms; eval table {:.1} ns/arc vs analytical {:.1} ns/arc ({:.2}x); upload->sweep {:.1} ms",
        lty.cells,
        lty.source_kib,
        lty.parse_ms,
        lty.table_eval_ns,
        lty.analytical_eval_ns,
        lty.table_eval_ns / lty.analytical_eval_ns.max(1e-9),
        lty.upload_sweep_ms
    );

    let doc = Json::object([
        ("threads", Json::from(threads)),
        (
            "engine",
            Json::object([
                ("workload_cycles", Json::from(WORKLOAD_CYCLES)),
                ("events_new", Json::from(eng.events_new)),
                ("events_reference", Json::from(eng.events_ref)),
                ("new_ms", Json::from(round3(eng.new_secs * 1e3))),
                ("reference_ms", Json::from(round3(eng.ref_secs * 1e3))),
                (
                    "speedup_vs_reference",
                    Json::from(round3(eng.ref_secs / eng.new_secs)),
                ),
            ]),
        ),
        (
            "compile_reuse",
            Json::object([
                ("builds", Json::from(comp.builds)),
                ("fresh_ms", Json::from(round3(comp.fresh_secs * 1e3))),
                ("shared_ms", Json::from(round3(comp.shared_secs * 1e3))),
                (
                    "speedup",
                    Json::from(round3(comp.fresh_secs / comp.shared_secs.max(1e-12))),
                ),
            ]),
        ),
        (
            "sweep",
            Json::object([
                ("points", Json::from(sweep_points)),
                ("wall_ms", Json::from(round3(sweep_secs * 1e3))),
            ]),
        ),
        (
            "variation",
            Json::object([
                ("samples", Json::from(mc_samples)),
                ("serial_s", Json::from(round4(mc.serial_secs))),
                ("parallel_s", Json::from(round4(mc.parallel_secs))),
                (
                    "speedup",
                    Json::from(round3(mc.serial_secs / mc.parallel_secs.max(1e-12))),
                ),
                ("bit_identical", Json::from(mc.bit_identical)),
                ("threads", Json::from(threads)),
            ]),
        ),
        (
            "group_replay",
            Json::object([
                ("groups", Json::from(n_groups)),
                ("serial_s", Json::from(round4(grp.serial_secs))),
                ("parallel_s", Json::from(round4(grp.parallel_secs))),
                (
                    "speedup",
                    Json::from(round3(grp.serial_secs / grp.parallel_secs.max(1e-12))),
                ),
                ("bit_identical", Json::from(grp.bit_identical)),
                ("threads", Json::from(threads)),
            ]),
        ),
        (
            "bitparallel",
            Json::object([
                ("lanes", Json::from(bp.lanes)),
                ("event_s", Json::from(round4(bp.event_secs))),
                ("bitpar_s", Json::from(round4(bp.bitpar_secs))),
                (
                    "speedup",
                    Json::from(round3(bp.event_secs / bp.bitpar_secs.max(1e-12))),
                ),
                ("bit_identical", Json::from(bp.bit_identical)),
                // Both settled runs are single-threaded: the speedup is
                // pure word-level parallelism, not thread parallelism.
                ("threads", Json::from(1usize)),
            ]),
        ),
        (
            "serve",
            Json::object([
                ("cold_ms", Json::from(round3(srv.cold_ms))),
                ("compiled_ms", Json::from(round3(srv.compiled_ms))),
                ("warm_ms", Json::from(round4(srv.warm_ms))),
                (
                    "cold_over_warm",
                    Json::from(round3(srv.cold_ms / srv.warm_ms.max(1e-9))),
                ),
                ("p50_ms", Json::from(round4(srv.p50_ms))),
                ("p90_ms", Json::from(round4(srv.p90_ms))),
                ("p99_ms", Json::from(round4(srv.p99_ms))),
                ("cache_hits", Json::from(srv.cache_hits)),
                ("cache_misses", Json::from(srv.cache_misses)),
                ("byte_identical", Json::from(srv.byte_identical)),
            ]),
        ),
        (
            "serve_concurrency",
            Json::object([
                ("requests", Json::from(conc.requests)),
                ("close_rps", Json::from(round3(conc.close_rps))),
                ("keepalive_rps", Json::from(round3(conc.keepalive_rps))),
                ("pipelined_rps", Json::from(round3(conc.pipelined_rps))),
                (
                    "pipelined_over_close",
                    Json::from(round3(conc.pipelined_rps / conc.close_rps.max(1e-9))),
                ),
                (
                    "keepalive_p50_ms",
                    Json::from(round4(conc.keepalive_p50_ms)),
                ),
                (
                    "keepalive_p99_ms",
                    Json::from(round4(conc.keepalive_p99_ms)),
                ),
                ("p50_baseline_pr3_ms", Json::from(SERVE_P50_BASELINE_MS)),
                (
                    "keepalive_p50_vs_pr3_baseline",
                    Json::from(round3(conc.keepalive_p50_ms / SERVE_P50_BASELINE_MS)),
                ),
                ("idle_conns", Json::from(conc.idle_conns)),
                ("idle_window_ms", Json::from(round3(conc.idle_window_ms))),
                ("idle_cpu_ms", Json::from(round3(conc.idle_cpu_ms))),
            ]),
        ),
        (
            "tracing",
            Json::object([
                ("record_ns", Json::from(round3(trc.record_ns))),
                ("summaries_us", Json::from(round3(trc.summaries_us))),
                ("detail_us", Json::from(round3(trc.detail_us))),
                ("serve_p50_baseline_ms", Json::from(SERVE_P50_BASELINE_MS)),
                ("serve_p50_ms", Json::from(round4(srv.p50_ms))),
                (
                    "serve_p50_vs_baseline",
                    Json::from(round3(srv.p50_ms / SERVE_P50_BASELINE_MS)),
                ),
                ("sim_events_serial", Json::from(events_serial)),
                ("sim_events_parallel", Json::from(events_parallel)),
                (
                    "sim_events_consistent",
                    Json::from(events_serial == events_parallel),
                ),
            ]),
        ),
        (
            "observability",
            Json::object([
                ("event_record_ns", Json::from(round3(obs.event_record_ns))),
                ("status_us", Json::from(round3(obs.status_us))),
                ("logs_us", Json::from(round3(obs.logs_us))),
                (
                    "loop_lag_p99_idle_ms",
                    Json::from(round4(obs.lag_p99_idle_ms)),
                ),
                (
                    "loop_lag_p99_loaded_ms",
                    Json::from(round4(obs.lag_p99_loaded_ms)),
                ),
                (
                    "serve_p50_baseline_pr8_ms",
                    Json::from(SERVE_P50_BASELINE_PR8_MS),
                ),
                ("serve_p50_ms", Json::from(round4(srv.p50_ms))),
                (
                    "serve_p50_vs_pr8",
                    Json::from(round3(srv.p50_ms / SERVE_P50_BASELINE_PR8_MS)),
                ),
                (
                    "keepalive_p50_baseline_pr8_ms",
                    Json::from(KEEPALIVE_P50_BASELINE_PR8_MS),
                ),
                (
                    "keepalive_p50_ms",
                    Json::from(round4(conc.keepalive_p50_ms)),
                ),
                (
                    "keepalive_p50_vs_pr8",
                    Json::from(round3(
                        conc.keepalive_p50_ms / KEEPALIVE_P50_BASELINE_PR8_MS,
                    )),
                ),
            ]),
        ),
        (
            "jobs",
            Json::object([
                ("total_units", Json::from(jobs.total_units)),
                ("chunks", Json::from(jobs.chunks)),
                ("chunks_per_sec", Json::from(round3(jobs.chunks_per_sec))),
                ("run_ms", Json::from(round3(jobs.run_ms))),
                ("store_reload_ms", Json::from(round3(jobs.reload_ms))),
                ("byte_identical", Json::from(jobs.byte_identical)),
            ]),
        ),
        (
            "compare",
            Json::object([
                ("techniques", Json::from(cmp.techniques)),
                ("frequencies", Json::from(cmp.frequencies)),
                ("cold_ms", Json::from(round3(cmp.cold_ms))),
                ("models_hot_ms", Json::from(round3(cmp.models_hot_ms))),
                ("cache_hit_p50_ms", Json::from(round4(cmp.cache_hit_p50_ms))),
                (
                    "per_technique_ms",
                    Json::object(
                        cmp.per_technique_ms
                            .iter()
                            .map(|(name, ms)| (name.as_str(), Json::from(round3(*ms))))
                            .collect::<Vec<_>>(),
                    ),
                ),
                ("scpg_identical_to_sweep", Json::from(cmp.scpg_identical)),
            ]),
        ),
        (
            "liberty",
            Json::object([
                ("cells", Json::from(lty.cells)),
                ("source_kib", Json::from(round3(lty.source_kib))),
                ("parse_ms", Json::from(round3(lty.parse_ms))),
                (
                    "table_eval_ns_per_arc",
                    Json::from(round3(lty.table_eval_ns)),
                ),
                (
                    "analytical_eval_ns_per_arc",
                    Json::from(round3(lty.analytical_eval_ns)),
                ),
                (
                    "table_over_analytical",
                    Json::from(round3(lty.table_eval_ns / lty.analytical_eval_ns.max(1e-9))),
                ),
                (
                    "upload_sweep_e2e_ms",
                    Json::from(round3(lty.upload_sweep_ms)),
                ),
            ]),
        ),
    ]);
    std::fs::write("BENCH_sim.json", doc.pretty()).expect("write BENCH_sim.json");
    println!("[bench] wrote BENCH_sim.json");
}
