//! Behavioural memories and a cycle driver for the gate-level core.
//!
//! The paper's power scope is the CPU core: memories sit outside the
//! power domains and are modelled behaviourally (the Modelsim testbench
//! role). Per clock cycle the harness:
//!
//! 1. raises the clock (the core's flops sample);
//! 2. shortly after the edge, reads the registered `imem_addr` and drives
//!    `imem_data` with the fetched word;
//! 3. late in the cycle — after the ALU has settled — samples
//!    `dmem_addr`, drives `dmem_rdata` for loads, and latches any store
//!    for commit at the next edge;
//! 4. completes the low phase.
//!
//! [`CpuHarness::cycle`] records the per-cycle input trace (`imem_data`,
//! `dmem_rdata`) and [`CpuHarness::trace`] returns it, so SCPG power runs
//! can *replay* identical stimulus through a sub-clock-gated netlist
//! without re-deriving memory behaviour (the same trick the paper uses by
//! extracting VCD activity once and reusing it).

use scpg_liberty::Logic;
use scpg_sim::{
    run_settled, EngineChoice, NetChange, PackedStimulus, Phase, SettledRun, SimConfig, Simulator,
};
use scpg_synth::Word;
use scpg_waveform::Activity;

use crate::cpu::CpuPorts;

/// One cycle of recorded memory stimulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleTrace {
    /// Instruction word driven during this cycle.
    pub imem_data: u16,
    /// Load data driven late in this cycle.
    pub dmem_rdata: u32,
}

/// Drives a [`crate::cpu::generate_cpu`] netlist with program and data
/// memories.
#[derive(Debug)]
pub struct CpuHarness {
    program: Vec<u16>,
    mem: Vec<u32>,
    trace: Vec<CycleTrace>,
    pending_store: Option<(usize, u32)>,
    cycles: u64,
}

impl CpuHarness {
    /// Creates a harness with the given program and data image.
    pub fn new(program: Vec<u16>, mem: Vec<u32>) -> Self {
        Self {
            program,
            mem,
            trace: Vec::new(),
            pending_store: None,
            cycles: 0,
        }
    }

    /// Data memory contents (inspect after a run).
    pub fn mem(&self, addr: usize) -> u32 {
        self.mem.get(addr).copied().unwrap_or(0)
    }

    /// Completed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The recorded per-cycle stimulus.
    pub fn trace(&self) -> &[CycleTrace] {
        &self.trace
    }

    fn read_word(sim: &Simulator<'_>, w: &Word) -> u64 {
        let mut v = 0u64;
        for (i, &bit) in w.bits().iter().enumerate() {
            if sim.value(bit) == Logic::One {
                v |= 1 << i;
            }
        }
        v
    }

    fn drive_word(sim: &mut Simulator<'_>, w: &Word, value: u64) {
        for (i, &bit) in w.bits().iter().enumerate() {
            sim.set_input(bit, Logic::from_bool((value >> i) & 1 == 1));
        }
    }

    /// Holds reset for `n` cycles with the clock running.
    ///
    /// Instruction fetch is serviced normally during reset: the PC is
    /// held at 0, so `prog[0]` sits on `imem_data` when the first active
    /// edge simultaneously advances the PC and latches the fetch into
    /// IF/DE — without this, instruction 0 would be skipped.
    pub fn reset(&mut self, sim: &mut Simulator<'_>, ports: &CpuPorts, period_ps: u64, n: u64) {
        sim.set_input(ports.rst_n, Logic::Zero);
        Self::drive_word(sim, &ports.imem_data, 0);
        Self::drive_word(sim, &ports.dmem_rdata, 0);
        for _ in 0..n {
            self.cycle(sim, ports, period_ps, 0.5);
        }
        sim.set_input(ports.rst_n, Logic::One);
    }

    /// Runs one clock cycle with memory servicing. `duty` is the clock's
    /// high fraction; memory responses are placed relative to the period
    /// as described in the module docs.
    pub fn cycle(&mut self, sim: &mut Simulator<'_>, ports: &CpuPorts, period_ps: u64, duty: f64) {
        // Commit the previous cycle's store at this clock edge.
        if let Some((addr, data)) = self.pending_store.take() {
            if let Some(slot) = self.mem.get_mut(addr) {
                *slot = data;
            }
        }
        let t0 = self.cycles * period_ps;
        sim.run_until(t0);
        sim.set_input(ports.clk, Logic::One);

        // Early: fetch. PC is registered, so it is stable just after the
        // edge.
        sim.run_until(t0 + period_ps / 20);
        let pc = Self::read_word(sim, &ports.imem_addr) as usize;
        let inst = self.program.get(pc).copied().unwrap_or(0x8000); // HALT
        Self::drive_word(sim, &ports.imem_data, inst as u64);

        // Falling edge at the duty point.
        let high = (period_ps as f64 * duty).round() as u64;
        sim.run_until(t0 + high);
        sim.set_input(ports.clk, Logic::Zero);

        // Late: data memory. Sample after the ALU settles (90 % of the
        // cycle), drive load data, note stores for commit at the next
        // edge.
        sim.run_until(t0 + period_ps * 9 / 10);
        let addr = Self::read_word(sim, &ports.dmem_addr) as usize;
        let rdata = self.mem.get(addr).copied().unwrap_or(0);
        Self::drive_word(sim, &ports.dmem_rdata, rdata as u64);
        if sim.value(ports.dmem_we) == Logic::One {
            let wdata = Self::read_word(sim, &ports.dmem_wdata) as u32;
            self.pending_store = Some((addr, wdata));
        }

        sim.run_until(t0 + period_ps);
        self.trace.push(CycleTrace {
            imem_data: inst,
            dmem_rdata: rdata,
        });
        self.cycles += 1;
    }

    /// Runs until the core raises `halted` or `max_cycles` elapse.
    /// Returns `true` if the core halted.
    pub fn run_to_halt(
        &mut self,
        sim: &mut Simulator<'_>,
        ports: &CpuPorts,
        period_ps: u64,
        max_cycles: u64,
    ) -> bool {
        for _ in 0..max_cycles {
            self.cycle(sim, ports, period_ps, 0.5);
            if sim.value(ports.halted) == Logic::One {
                return true;
            }
        }
        false
    }

    /// Reads an architectural register from the gate-level core.
    pub fn reg(&self, sim: &Simulator<'_>, ports: &CpuPorts, k: usize) -> u32 {
        Self::read_word(sim, &ports.regs[k]) as u32
    }

    /// Replays a recorded trace on a fresh simulator bound to a shared
    /// pre-compiled netlist. See [`CpuHarness::replay`]; returns the
    /// finished run's per-net activity.
    pub fn replay_compiled(
        compiled: &scpg_sim::CompiledNetlist,
        config: &SimConfig,
        trace: &[CycleTrace],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        reset_cycles: u64,
    ) -> Activity {
        let mut sim = Simulator::with_compiled(compiled, config.clone());
        Self::replay(trace, &mut sim, ports, period_ps, duty, reset_cycles);
        sim.finish().activity
    }

    /// Splits a recorded trace into `group_size`-cycle **vector groups**
    /// (the paper's Fig. 7 groups of 10 vectors) and replays each group
    /// on its own simulator, fanned out across the [`scpg_exec`] pool.
    /// All groups share one [`scpg_sim::CompiledNetlist`], so the netlist
    /// is compiled once instead of once per group.
    ///
    /// Each group starts from an all-`X` state — activity within a group
    /// reflects only that group's vectors, which is exactly the per-group
    /// switching-probability measurement the paper makes. The returned
    /// activities are in group order; fold them with
    /// [`Activity::merge_all`] for whole-workload counters. Results are
    /// bit-identical to [`CpuHarness::replay_groups_serial`] for any
    /// worker count.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn replay_groups(
        compiled: &scpg_sim::CompiledNetlist,
        config: &SimConfig,
        trace: &[CycleTrace],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        group_size: usize,
    ) -> Vec<Activity> {
        Self::replay_groups_with_threads(
            compiled,
            config,
            trace,
            ports,
            period_ps,
            duty,
            group_size,
            scpg_exec::num_threads(),
        )
    }

    /// [`CpuHarness::replay_groups`] pinned to one worker — the baseline
    /// for determinism and speedup comparisons.
    pub fn replay_groups_serial(
        compiled: &scpg_sim::CompiledNetlist,
        config: &SimConfig,
        trace: &[CycleTrace],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        group_size: usize,
    ) -> Vec<Activity> {
        Self::replay_groups_with_threads(
            compiled, config, trace, ports, period_ps, duty, group_size, 1,
        )
    }

    /// [`CpuHarness::replay_groups`] at an explicit worker count.
    #[allow(clippy::too_many_arguments)]
    pub fn replay_groups_with_threads(
        compiled: &scpg_sim::CompiledNetlist,
        config: &SimConfig,
        trace: &[CycleTrace],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        group_size: usize,
        threads: usize,
    ) -> Vec<Activity> {
        assert!(group_size > 0, "vector groups must be non-empty");
        let groups: Vec<&[CycleTrace]> = trace.chunks(group_size).collect();
        scpg_exec::par_map_indices_with_threads(groups.len(), threads, |g| {
            Self::replay_compiled(compiled, config, groups[g], ports, period_ps, duty, 0)
        })
    }

    /// Settled activity extraction over vector groups: the
    /// repeated-stimulus fast path. Groups become stimulus *lanes* of one
    /// [`PackedStimulus`] (batches of up to 64), observed at cycle
    /// boundaries only, and run through [`scpg_sim::run_settled`] — the
    /// bit-parallel engine when the netlist levelizes (the baseline core
    /// does), the per-lane event engine otherwise (an SCPG-transformed
    /// core always falls back: header wake/sleep edges are sub-clock
    /// timing detail).
    ///
    /// Unlike [`CpuHarness::replay_groups`] — which stays on the event
    /// engine because its glitch-inclusive intra-cycle counts feed the
    /// dynamic-power calibration — this records cycle-boundary (settled)
    /// toggles, which is what pure activity extraction needs. Per-lane
    /// results are bit-identical between the two engines under this
    /// observation protocol.
    ///
    /// # Errors
    ///
    /// Only when `choice` forces the bit-parallel engine on a netlist
    /// that does not levelize.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is zero.
    pub fn replay_groups_settled(
        compiled: &scpg_sim::CompiledNetlist,
        trace: &[CycleTrace],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        group_size: usize,
        choice: EngineChoice,
    ) -> Result<SettledRun, String> {
        assert!(group_size > 0, "vector groups must be non-empty");
        let groups: Vec<&[CycleTrace]> = trace.chunks(group_size).collect();
        let mut activities = Vec::with_capacity(groups.len());
        let mut engine = None;
        for batch in groups.chunks(64) {
            let program = Self::settled_program(batch, ports, period_ps, duty);
            let run = run_settled(compiled, &program, None, choice)?;
            debug_assert!(engine.is_none_or(|e| e == run.engine));
            engine = Some(run.engine);
            activities.extend(run.activities);
        }
        let engine = match engine {
            Some(e) => e,
            // Empty trace: report what Auto would have picked.
            None => match choice {
                EngineChoice::Event => scpg_sim::SettledEngine::Event,
                EngineChoice::BitParallel => {
                    compiled.levelized()?;
                    scpg_sim::SettledEngine::BitParallel
                }
                EngineChoice::Auto => {
                    if compiled.levelized().is_ok() {
                        scpg_sim::SettledEngine::BitParallel
                    } else {
                        scpg_sim::SettledEngine::Event
                    }
                }
            },
        };
        Ok(SettledRun { activities, engine })
    }

    /// Builds the packed replay stimulus for up to 64 vector groups: the
    /// exact phase/change sequence [`CpuHarness::replay`] (with
    /// `reset_cycles = 0`) applies, with each group on its own lane and
    /// observation at every cycle boundary.
    fn settled_program(
        groups: &[&[CycleTrace]],
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
    ) -> PackedStimulus {
        assert!(groups.len() <= 64, "at most 64 lanes per program");
        let all: u64 = if groups.len() == 64 {
            !0
        } else {
            (1u64 << groups.len()) - 1
        };
        let alive = |cycle: usize| -> u64 {
            groups
                .iter()
                .enumerate()
                .filter(|(_, g)| g.len() > cycle)
                .fold(0u64, |m, (lane, _)| m | (1u64 << lane))
        };
        let word_changes = |w: &Word, mask: u64, value_of: &dyn Fn(usize) -> u64| {
            w.bits()
                .iter()
                .enumerate()
                .map(|(bit, &net)| {
                    let mut plane = 0u64;
                    for lane in 0..groups.len() {
                        if mask & (1 << lane) != 0 && (value_of(lane) >> bit) & 1 == 1 {
                            plane |= 1 << lane;
                        }
                    }
                    NetChange::word(net, mask, plane)
                })
                .collect::<Vec<_>>()
        };

        let maxlen = groups.iter().map(|g| g.len()).max().unwrap_or(0);
        let high = (period_ps as f64 * duty).round() as u64;
        let mut phases = Vec::with_capacity(3 * maxlen + 2);

        // t = 0 merges replay()'s pre-loop batch with cycle 0's edge: no
        // combinational event can fire between them (all delays ≥ 1 ps),
        // so same-timestamp list order is all that matters.
        let mut init = vec![NetChange::level(ports.rst_n, all, false)];
        init.extend(word_changes(&ports.imem_data, all, &|_| 0));
        init.extend(word_changes(&ports.dmem_rdata, all, &|_| 0));
        init.push(NetChange::level(ports.rst_n, all, true));
        init.push(NetChange::level(ports.clk, all, true));
        phases.push(Phase {
            t: 0,
            observe: false,
            changes: init,
        });

        // `i` indexes the *inner* per-lane vectors (`groups[lane][i]`)
        // from several closures, not `groups` itself.
        #[allow(clippy::needless_range_loop)]
        for i in 0..maxlen {
            let t0 = i as u64 * period_ps;
            let mask = alive(i);
            if i > 0 {
                phases.push(Phase {
                    t: t0,
                    observe: true,
                    changes: vec![NetChange::level(ports.clk, mask, true)],
                });
            }
            let mut data = word_changes(&ports.imem_data, mask, &|lane| {
                groups[lane][i].imem_data as u64
            });
            data.extend(word_changes(&ports.dmem_rdata, mask, &|lane| {
                groups[lane][i].dmem_rdata as u64
            }));
            phases.push(Phase {
                t: t0 + period_ps / 20,
                observe: false,
                changes: data,
            });
            phases.push(Phase {
                t: t0 + high,
                observe: false,
                changes: vec![NetChange::level(ports.clk, mask, false)],
            });
        }
        phases.push(Phase {
            t: maxlen as u64 * period_ps,
            observe: true,
            changes: Vec::new(),
        });

        PackedStimulus {
            phases,
            lane_ends: groups.iter().map(|g| g.len() as u64 * period_ps).collect(),
        }
    }

    /// Replays a recorded trace through another simulator of the same
    /// core (e.g. the SCPG-transformed netlist): inputs are applied just
    /// after each rising edge, with the clock at the given duty cycle.
    /// Memory is not modelled — the trace already contains its responses.
    pub fn replay(
        trace: &[CycleTrace],
        sim: &mut Simulator<'_>,
        ports: &CpuPorts,
        period_ps: u64,
        duty: f64,
        reset_cycles: u64,
    ) {
        sim.set_input(ports.rst_n, Logic::Zero);
        Self::drive_word(sim, &ports.imem_data, 0);
        Self::drive_word(sim, &ports.dmem_rdata, 0);
        for (i, t) in trace.iter().enumerate() {
            let t0 = i as u64 * period_ps;
            sim.run_until(t0);
            if i as u64 == reset_cycles {
                sim.set_input(ports.rst_n, Logic::One);
            }
            sim.set_input(ports.clk, Logic::One);
            sim.run_until(t0 + period_ps / 20);
            Self::drive_word(sim, &ports.imem_data, t.imem_data as u64);
            Self::drive_word(sim, &ports.dmem_rdata, t.dmem_rdata as u64);
            let high = (period_ps as f64 * duty).round() as u64;
            sim.run_until(t0 + high);
            sim.set_input(ports.clk, Logic::Zero);
            sim.run_until(t0 + period_ps);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::generate_cpu;
    use scpg_isa::{dhrystone, Assembler, Iss};
    use scpg_liberty::Library;
    use scpg_sim::SimConfig;

    const PERIOD: u64 = 1_000_000; // 1 µs: generous at 0.6 V

    fn run_program(src: &str, mem: Vec<u32>, max_cycles: u64) -> (CpuHarness, Vec<u32>) {
        let lib = Library::ninety_nm();
        let (nl, ports) = generate_cpu(&lib);
        let words = Assembler::assemble(src).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut h = CpuHarness::new(words, mem);
        h.reset(&mut sim, &ports, PERIOD, 3);
        let halted = h.run_to_halt(&mut sim, &ports, PERIOD, max_cycles);
        assert!(halted, "core must halt");
        let regs = (0..8).map(|k| h.reg(&sim, &ports, k)).collect();
        (h, regs)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (_h, regs) = run_program(
            "MOVI r0, 7
             MOVI r1, 5
             ADD  r0, r1
             SUB  r1, r0
             HALT",
            vec![0; 64],
            50,
        );
        assert_eq!(regs[0], 12);
        assert_eq!(regs[1], 5u32.wrapping_sub(12));
    }

    #[test]
    fn raw_hazard_bypass_works() {
        // Back-to-back dependent instructions stress the EX→DE bypass.
        let (_h, regs) = run_program(
            "MOVI r0, 1
             ADD  r0, r0    ; 2
             ADD  r0, r0    ; 4
             ADD  r0, r0    ; 8
             ADD  r0, r0    ; 16
             HALT",
            vec![0; 64],
            50,
        );
        assert_eq!(regs[0], 16);
    }

    #[test]
    fn branch_flush_discards_wrong_path() {
        let (_h, regs) = run_program(
            "        MOVI r0, 1
                    MOVI r1, 1
                    BEQ  r0, r1, skip
                    MOVI r2, 99     ; wrong path
                    MOVI r3, 99     ; wrong path
            skip:   MOVI r4, 42
                    HALT",
            vec![0; 64],
            50,
        );
        assert_eq!(regs[2], 0, "wrong-path instruction must be flushed");
        assert_eq!(regs[3], 0);
        assert_eq!(regs[4], 42);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut mem = vec![0u32; 64];
        mem[5] = 1234;
        let (h, regs) = run_program(
            "MOVI r0, 5
             LD   r1, [r0]      ; 1234
             ADDI r1, 1         ; 1235
             ST   r1, [r0 + 1]  ; mem[6] = 1235
             LD   r2, [r0 + 1]
             HALT",
            mem,
            60,
        );
        assert_eq!(regs[1], 1235);
        assert_eq!(regs[2], 1235, "load sees the committed store");
        assert_eq!(h.mem(6), 1235);
    }

    #[test]
    fn loop_matches_iss() {
        let src = "        MOVI r0, 6
                          MOVI r1, 0
                  loop:   ADD  r1, r0
                          ADDI r0, -1
                          BNE  r0, r7, loop
                          HALT";
        let (_h, regs) = run_program(src, vec![0; 64], 200);
        let words = Assembler::assemble(src).unwrap();
        let mut iss = Iss::new(&words);
        iss.run(10_000);
        for (k, &r) in regs.iter().enumerate().take(8) {
            assert_eq!(r, iss.reg(k), "r{k} mismatch vs ISS");
        }
    }

    #[test]
    fn mul_instruction_computes_in_hardware() {
        let (_h, regs) = run_program(
            "MOVI r0, 123
             MOVI r1, 456
             MUL  r0, r1        ; 56 088
             MOVI r2, 0x1ff
             SHL  r2, r2        ; junk in high bits
             MUL  r2, r2        ; (r2 & 0xffff)² — exercises masking
             HALT",
            vec![0; 64],
            60,
        );
        assert_eq!(regs[0], 123 * 456);
        let r2 = 0x1ffu32.wrapping_shl(0x1ff & 31) & 0xffff;
        assert_eq!(regs[2], r2.wrapping_mul(r2));
    }

    #[test]
    fn load_use_hazard_bypasses_correctly() {
        let mut mem = vec![0u32; 64];
        mem[3] = 777;
        let (_h, regs) = run_program(
            "MOVI r0, 3
             LD   r1, [r0]      ; load…
             ADD  r1, r1        ; …used immediately (distance-1 bypass)
             ADDI r1, 1
             HALT",
            mem,
            60,
        );
        assert_eq!(regs[1], 777 * 2 + 1);
    }

    #[test]
    fn backward_jmp_loops() {
        let (_h, regs) = run_program(
            "        MOVI r0, 4
                    MOVI r1, 0
            top:    ADDI r1, 10
                    ADDI r0, -1
                    BEQ  r0, r7, out
                    JMP  top        ; backward jump through the pipeline
            out:    HALT",
            vec![0; 64],
            200,
        );
        assert_eq!(regs[1], 40);
        assert_eq!(regs[0], 0);
    }

    #[test]
    fn store_then_immediate_reload_sees_old_value_until_commit() {
        // Stores commit at the next clock edge (memory is behavioural);
        // a load in the very next instruction still sees the committed
        // value because the harness commits before servicing.
        let (h, regs) = run_program(
            "MOVI r0, 9
             MOVI r1, 42
             ST   r1, [r0]
             LD   r2, [r0]
             HALT",
            vec![0; 64],
            60,
        );
        assert_eq!(regs[2], 42);
        assert_eq!(h.mem(9), 42);
    }

    #[test]
    fn parallel_group_replay_is_bit_identical_to_serial() {
        let lib = Library::ninety_nm();
        let (nl, ports) = generate_cpu(&lib);
        let src = "        MOVI r0, 6
                          MOVI r1, 0
                  loop:   ADD  r1, r0
                          ADDI r0, -1
                          BNE  r0, r7, loop
                          HALT";
        let words = Assembler::assemble(src).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut h = CpuHarness::new(words, vec![0; 64]);
        h.reset(&mut sim, &ports, PERIOD, 3);
        assert!(h.run_to_halt(&mut sim, &ports, PERIOD, 200));

        let cfg = SimConfig::default();
        let compiled = scpg_sim::CompiledNetlist::compile(&nl, &lib, cfg.corner).unwrap();
        let serial =
            CpuHarness::replay_groups_serial(&compiled, &cfg, h.trace(), &ports, PERIOD, 0.5, 10);
        assert_eq!(serial.len(), h.trace().len().div_ceil(10));
        for threads in [2, 5] {
            let par = CpuHarness::replay_groups_with_threads(
                &compiled,
                &cfg,
                h.trace(),
                &ports,
                PERIOD,
                0.5,
                10,
                threads,
            );
            assert_eq!(serial, par, "threads = {threads}");
        }
        // The merged record covers the whole replayed workload.
        let merged = Activity::merge_all(&serial).unwrap();
        assert_eq!(merged.duration_ps(), h.trace().len() as u64 * PERIOD);
        assert!(merged.total_toggles() > 0);
    }

    #[test]
    fn settled_group_replay_is_bit_identical_across_engines() {
        let lib = Library::ninety_nm();
        let (nl, ports) = generate_cpu(&lib);
        let src = "        MOVI r0, 6
                          MOVI r1, 0
                  loop:   ADD  r1, r0
                          ADDI r0, -1
                          BNE  r0, r7, loop
                          HALT";
        let words = Assembler::assemble(src).unwrap();
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut h = CpuHarness::new(words, vec![0; 64]);
        h.reset(&mut sim, &ports, PERIOD, 3);
        assert!(h.run_to_halt(&mut sim, &ports, PERIOD, 200));

        let cfg = SimConfig::default();
        let compiled = scpg_sim::CompiledNetlist::compile(&nl, &lib, cfg.corner).unwrap();
        let fast = CpuHarness::replay_groups_settled(
            &compiled,
            h.trace(),
            &ports,
            PERIOD,
            0.5,
            10,
            EngineChoice::Auto,
        )
        .unwrap();
        assert_eq!(
            fast.engine,
            scpg_sim::SettledEngine::BitParallel,
            "the baseline core must take the fast path"
        );
        let slow = CpuHarness::replay_groups_settled(
            &compiled,
            h.trace(),
            &ports,
            PERIOD,
            0.5,
            10,
            EngineChoice::Event,
        )
        .unwrap();
        assert_eq!(slow.engine, scpg_sim::SettledEngine::Event);
        assert_eq!(fast.activities.len(), h.trace().len().div_ceil(10));
        assert_eq!(
            fast.activities, slow.activities,
            "per-group settled activity must be bit-identical across engines"
        );

        // Settled (cycle-boundary) toggles are a subset of the
        // glitch-inclusive event replay's.
        let raw =
            CpuHarness::replay_groups_serial(&compiled, &cfg, h.trace(), &ports, PERIOD, 0.5, 10);
        let settled_total: u64 = fast.activities.iter().map(Activity::total_toggles).sum();
        let raw_total: u64 = raw.iter().map(Activity::total_toggles).sum();
        assert!(settled_total > 0);
        assert!(
            settled_total <= raw_total,
            "settled {settled_total} vs glitch-inclusive {raw_total}"
        );
    }

    #[test]
    fn dhrystone_matches_iss_checksum() {
        // 2 iterations keeps the gate-level runtime reasonable in a unit
        // test; the bench harness runs the full-length workload.
        let iters = 2;
        let words = dhrystone::assemble(iters).unwrap();
        let lib = Library::ninety_nm();
        let (nl, ports) = generate_cpu(&lib);
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        let mut h = CpuHarness::new(words, dhrystone::memory_image());
        h.reset(&mut sim, &ports, PERIOD, 3);
        let halted = h.run_to_halt(&mut sim, &ports, PERIOD, 5_000);
        assert!(halted, "dhrystone must halt");
        assert_eq!(
            h.mem(dhrystone::CHECKSUM_ADDR),
            dhrystone::expected_checksum(iters),
            "gate-level checksum vs native model"
        );
    }
}
