//! Differential test of the production simulator (CSR layout plus an
//! indexed time-wheel queue) against the retained reference engine
//! (Vec-of-cells plus a binary heap): on randomly built registered
//! circuits under random stimulus and on a Dhrystone replay of the CPU,
//! both engines must agree on every net value at every cycle boundary and
//! on the final activity record, windows included. This is the
//! integration-level guarantee that the hot-path rewrite changed
//! performance only, never semantics. Event counts are not compared: the
//! production engine skips events the reference engine queues and then
//! applies as no-ops.

use scpg::transform::{ScpgOptions, ScpgTransform};
use scpg_circuits::{generate_cpu, CpuHarness};
use scpg_isa::dhrystone;
use scpg_liberty::{CellKind, Library, Logic, PvtCorner};
use scpg_netlist::{NetId, Netlist};
use scpg_rng::StdRng;
use scpg_sim::{
    run_settled, CompiledNetlist, EngineChoice, NetChange, PackedStimulus, Phase,
    ReferenceSimulator, SettledEngine, SimConfig, Simulator,
};
use scpg_synth::{LogicBuilder, Word};

const PERIOD: u64 = 1_000_000;

/// Every logic-gate kind in the kit (the combinational kinds other than
/// ties, isolation clamps and their control), so the random circuits
/// reach every gate function, both outputs of the adders included.
const GATE_KINDS: [CellKind; 18] = [
    CellKind::Inv,
    CellKind::Buf,
    CellKind::Nand2,
    CellKind::Nand3,
    CellKind::Nand4,
    CellKind::Nor2,
    CellKind::Nor3,
    CellKind::And2,
    CellKind::And3,
    CellKind::Or2,
    CellKind::Or3,
    CellKind::Xor2,
    CellKind::Xnor2,
    CellKind::Aoi21,
    CellKind::Oai21,
    CellKind::Mux2,
    CellKind::HalfAdder,
    CellKind::FullAdder,
];

/// Builds a random registered circuit over 4 data inputs: a cloud of
/// random gates and one registered output.
fn build_random(rng: &mut StdRng, lib: &Library) -> (Netlist, Vec<NetId>, NetId) {
    let mut b = LogicBuilder::new("rand", lib);
    let clk = b.input("clk");
    let rn = b.input("rst_n");
    let inputs: Vec<NetId> = (0..4).map(|i| b.input(&format!("in{i}"))).collect();
    let mut pool = inputs.clone();
    let n_gates = 5 + rng.index(35);
    for g in 0..n_gates {
        let kind = GATE_KINDS[rng.index(GATE_KINDS.len())];
        let ins: Vec<NetId> = (0..kind.num_inputs())
            .map(|_| pool[rng.index(pool.len())])
            .collect();
        match kind {
            CellKind::Inv => pool.push(b.not(ins[0])),
            CellKind::And2 => pool.push(b.and(ins[0], ins[1])),
            CellKind::Or2 => pool.push(b.or(ins[0], ins[1])),
            CellKind::Xor2 => pool.push(b.xor(ins[0], ins[1])),
            // Pins (D0, D1, S).
            CellKind::Mux2 => pool.push(b.mux(ins[2], ins[0], ins[1])),
            CellKind::HalfAdder => pool.extend(<[NetId; 2]>::from(b.half_add(ins[0], ins[1]))),
            CellKind::FullAdder => {
                pool.extend(<[NetId; 2]>::from(b.full_add(ins[0], ins[1], ins[2])))
            }
            // No builder helper: instantiate the kit cell directly.
            _ => {
                let nl = b.netlist_mut();
                let y = nl.add_fresh_net();
                let cell = lib.cell_of_kind(kind).expect("kit cell").name();
                nl.add_instance(format!("raw_{g}"), cell, &[&ins[..], &[y]].concat())
                    .unwrap();
                pool.push(y);
            }
        }
    }
    let last = *pool.last().unwrap();
    let q = b.dff_r(last, clk, rn);
    b.output("q", q);
    (b.finish(), inputs, clk)
}

/// One cycle's stimulus: random values on the data inputs.
fn random_stimulus(rng: &mut StdRng, inputs: &[NetId]) -> Vec<(NetId, Logic)> {
    inputs
        .iter()
        .map(|&n| (n, Logic::from_bool(rng.below(2) == 1)))
        .collect()
}

#[test]
fn production_engine_matches_reference_on_random_circuits() {
    let lib = Library::ninety_nm();
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut drawn = Vec::new();
    for case in 0..12 {
        let (nl, inputs, clk) = build_random(&mut rng, &lib);
        drawn.extend(
            nl.instances()
                .iter()
                .map(|i| lib.expect_cell(i.cell()).kind()),
        );
        let stimuli: Vec<Vec<(NetId, Logic)>> = (0..30)
            .map(|_| random_stimulus(&mut rng, &inputs))
            .collect();

        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut rsim = ReferenceSimulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input_by_name("rst_n", Logic::One);
        rsim.set_input_by_name("rst_n", Logic::One);
        sim.set_input(clk, Logic::Zero);
        rsim.set_input(clk, Logic::Zero);

        let mut events_new = 0u64;
        let mut events_ref = 0u64;
        for (i, stim) in stimuli.iter().enumerate() {
            let t0 = i as u64 * PERIOD;
            events_new += sim.run_until(t0);
            events_ref += rsim.run_until(t0);
            sim.set_input(clk, Logic::One);
            rsim.set_input(clk, Logic::One);
            for &(net, v) in stim {
                sim.set_input(net, v);
                rsim.set_input(net, v);
            }
            events_new += sim.run_until(t0 + PERIOD / 2);
            events_ref += rsim.run_until(t0 + PERIOD / 2);
            sim.set_input(clk, Logic::Zero);
            rsim.set_input(clk, Logic::Zero);
            events_new += sim.run_until(t0 + PERIOD);
            events_ref += rsim.run_until(t0 + PERIOD);

            for net in 0..nl.nets().len() {
                let id = NetId::from_index(net);
                assert_eq!(
                    sim.value(id),
                    rsim.value(id),
                    "case {case}, cycle {i}: net {net} diverged"
                );
            }
        }
        // The production engine never queues an event to the value a
        // quiet net already holds, so it applies at most as many.
        assert!(
            events_new <= events_ref,
            "case {case}: {events_new} events vs {events_ref}"
        );

        let res_new = sim.finish();
        let res_ref = rsim.finish();
        assert_eq!(res_new.end_ps, res_ref.end_ps, "case {case}");
        assert_eq!(
            res_new.activity, res_ref.activity,
            "case {case}: activity records diverged"
        );
    }
    for kind in GATE_KINDS {
        assert!(drawn.contains(&kind), "no random circuit drew {kind:?}");
    }
}

/// The `reproduce` CPU workload at Dhrystone scale: a one-iteration run
/// recorded on the production engine, then replayed through both engines
/// with 10 µs activity windows, on the plain core and on its SCPG
/// transform with gating active (so the rail collapse and restore paths
/// run every cycle). The reference replay is `CpuHarness::replay` written
/// out for `ReferenceSimulator`.
#[test]
fn production_engine_matches_reference_on_dhrystone() {
    const RESET_CYCLES: u64 = 3;
    let lib = Library::ninety_nm();
    let (nl, ports) = generate_cpu(&lib);
    let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
    let mut harness = CpuHarness::new(dhrystone::assemble(1).unwrap(), dhrystone::memory_image());
    harness.reset(&mut sim, &ports, PERIOD, RESET_CYCLES);
    assert!(harness.run_to_halt(&mut sim, &ports, PERIOD, 5_000));
    let trace = harness.trace();
    // The transform only appends, so the baseline's port handles stay
    // valid on the gated netlist.
    let scpg = ScpgTransform::new(&lib)
        .apply(&nl, "clk", &ScpgOptions::default())
        .unwrap();

    let cfg = SimConfig {
        window_ps: Some(10 * PERIOD),
        ..SimConfig::default()
    };
    let drive = |rsim: &mut ReferenceSimulator<'_>, w: &Word, value: u64| {
        for (i, &bit) in w.bits().iter().enumerate() {
            rsim.set_input(bit, Logic::from_bool((value >> i) & 1 == 1));
        }
    };
    let high = (PERIOD as f64 * 0.5).round() as u64;
    for (design, gating) in [(&nl, None), (&scpg.netlist, Some(scpg.override_n))] {
        let mut sim = Simulator::new(design, &lib, cfg.clone()).unwrap();
        let mut rsim = ReferenceSimulator::new(design, &lib, cfg.clone()).unwrap();
        if let Some(override_n) = gating {
            sim.set_input(override_n, Logic::One);
            rsim.set_input(override_n, Logic::One);
        }
        CpuHarness::replay(trace, &mut sim, &ports, PERIOD, 0.5, RESET_CYCLES);

        rsim.set_input(ports.rst_n, Logic::Zero);
        drive(&mut rsim, &ports.imem_data, 0);
        drive(&mut rsim, &ports.dmem_rdata, 0);
        for (i, t) in trace.iter().enumerate() {
            let t0 = i as u64 * PERIOD;
            rsim.run_until(t0);
            if i as u64 == RESET_CYCLES {
                rsim.set_input(ports.rst_n, Logic::One);
            }
            rsim.set_input(ports.clk, Logic::One);
            rsim.run_until(t0 + PERIOD / 20);
            drive(&mut rsim, &ports.imem_data, t.imem_data as u64);
            drive(&mut rsim, &ports.dmem_rdata, t.dmem_rdata as u64);
            rsim.run_until(t0 + high);
            rsim.set_input(ports.clk, Logic::Zero);
            rsim.run_until(t0 + PERIOD);
        }

        let what = if gating.is_some() { "gated" } else { "plain" };
        let (new, reference) = (sim.finish(), rsim.finish());
        assert_eq!(new.end_ps, reference.end_ps, "{what}");
        assert!(new.activity.window_toggles().len() > 1, "{what}");
        assert_eq!(
            new.activity.window_toggles(),
            reference.activity.window_toggles(),
            "{what}: window toggles diverged"
        );
        assert_eq!(
            new.activity, reference.activity,
            "{what}: activity records diverged"
        );
    }
}

/// Packs `lanes` independent random stimulus sequences into one settled
/// program mirroring the drive protocol above: at each cycle boundary
/// the clock rises and fresh data applies (in that order, matching
/// event scheduling order); the clock falls mid-cycle; settled state is
/// observed at every boundary.
fn packed_random_program(
    rng: &mut StdRng,
    inputs: &[NetId],
    clk: NetId,
    rst_n: NetId,
    lanes: usize,
    cycles: usize,
) -> PackedStimulus {
    let all: u64 = (1u64 << lanes) - 1;
    let data = |rng: &mut StdRng| -> Vec<NetChange> {
        inputs
            .iter()
            .map(|&n| {
                let mut plane = 0u64;
                for lane in 0..lanes {
                    if rng.below(2) == 1 {
                        plane |= 1 << lane;
                    }
                }
                NetChange::word(n, all, plane)
            })
            .collect()
    };
    let mut phases = Vec::new();
    for i in 0..cycles {
        let t0 = i as u64 * PERIOD;
        let mut changes = Vec::new();
        if i == 0 {
            changes.push(NetChange::level(rst_n, all, true));
            changes.push(NetChange::level(clk, all, false));
        }
        changes.push(NetChange::level(clk, all, true));
        changes.extend(data(rng));
        phases.push(Phase {
            t: t0,
            observe: i > 0,
            changes,
        });
        phases.push(Phase {
            t: t0 + PERIOD / 2,
            observe: false,
            changes: vec![NetChange::level(clk, all, false)],
        });
    }
    phases.push(Phase {
        t: cycles as u64 * PERIOD,
        observe: true,
        changes: Vec::new(),
    });
    PackedStimulus {
        phases,
        lane_ends: vec![cycles as u64 * PERIOD; lanes],
    }
}

/// The bit-parallel engine must match per-lane event-engine runs exactly
/// — per-net toggle counts, unknown transitions and residency — on
/// seeded random registered circuits under the settled observation
/// protocol.
#[test]
fn bitparallel_matches_event_engine_on_random_circuits() {
    let lib = Library::ninety_nm();
    let mut rng = StdRng::seed_from_u64(0xB17);
    for case in 0..12 {
        let (nl, inputs, clk) = build_random(&mut rng, &lib);
        let rst_n = nl.net_by_name("rst_n").expect("reset net exists");
        let compiled = CompiledNetlist::compile(&nl, &lib, PvtCorner::default()).unwrap();
        let lanes = 1 + rng.index(33);
        let program = packed_random_program(&mut rng, &inputs, clk, rst_n, lanes, 30);

        let fast = run_settled(&compiled, &program, None, EngineChoice::BitParallel)
            .expect("random registered circuits levelize");
        assert_eq!(fast.engine, SettledEngine::BitParallel);
        let slow = run_settled(&compiled, &program, None, EngineChoice::Event).unwrap();
        assert_eq!(slow.engine, SettledEngine::Event);
        assert_eq!(fast.activities.len(), lanes);
        for lane in 0..lanes {
            assert_eq!(
                fast.activities[lane], slow.activities[lane],
                "case {case}, lane {lane}: settled activity diverged"
            );
        }
        // Auto picks the fast path for these designs.
        let auto = run_settled(&compiled, &program, None, EngineChoice::Auto).unwrap();
        assert_eq!(auto.engine, SettledEngine::BitParallel);
        assert_eq!(auto.activities, fast.activities);
    }
}

/// Designs the oblivious engine cannot represent fall back to the event
/// engine: a logic-driven (gated) flop clock must fail levelization, and
/// `Auto` must still serve the request.
#[test]
fn gated_clock_falls_back_to_event_engine() {
    let lib = Library::ninety_nm();
    let mut nl = Netlist::new("gated");
    let clk = nl.add_input("clk");
    let d = nl.add_input("d");
    let gclk = nl.add_fresh_net();
    let q = nl.add_output("q");
    nl.add_instance("g0", "INV_X1", &[clk, gclk]).unwrap();
    nl.add_instance("r0", "DFF_X1", &[d, gclk, q]).unwrap();
    let compiled = CompiledNetlist::compile(&nl, &lib, PvtCorner::default()).unwrap();

    let err = compiled.levelized().expect_err("gated clock must refuse");
    assert!(err.contains("gated clock"), "{err}");
    // The refusal is cached, not recomputed.
    assert_eq!(compiled.levelized().expect_err("still cached"), err);

    let program = PackedStimulus {
        phases: vec![
            Phase {
                t: 0,
                observe: false,
                changes: vec![
                    NetChange::level(clk, 1, false),
                    NetChange::level(d, 1, true),
                ],
            },
            Phase {
                t: PERIOD,
                observe: true,
                changes: Vec::new(),
            },
        ],
        lane_ends: vec![PERIOD],
    };
    assert!(run_settled(&compiled, &program, None, EngineChoice::BitParallel).is_err());
    let auto = run_settled(&compiled, &program, None, EngineChoice::Auto).unwrap();
    assert_eq!(auto.engine, SettledEngine::Event, "auto must fall back");
    assert_eq!(auto.activities.len(), 1);
}
