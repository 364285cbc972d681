//! The `ddcg` technique: data-dependent clock gating.
//!
//! The dynamic-power competitor in the bake-off (cf. arXiv 1806.02271):
//! instead of starving idle logic of *supply* (SCPG, CTSG) or stacking
//! transistors (LECTOR), DDCG withholds the *clock* from the design's
//! flops in cycles where no flop input differs from its held state —
//! cycles in which clocking them would change nothing.
//!
//! The inserted integrated-clock-gating (ICG) network is structural:
//!
//! * one `XOR2` per flop comparing its `D` net against its `Q` net,
//! * an `OR2` fold tree reducing the per-flop difference bits to a
//!   single *any-flop-would-change* signal,
//! * the classical glitch-safe latch-AND gate: a transparent-low
//!   `LATCH` samples the enable while the clock is low (enable held via
//!   an `INV` of the clock), and an `AND2` merges it with the clock,
//! * every flop's `CK` pin rewired to the gated clock.
//!
//! The enable probability is *measured*, not assumed: `prepare` runs the
//! settled-simulation activity extractor ([`scpg::extract_activity`],
//! bit-parallel when the design levelizes) over seeded random stimulus
//! on the **baseline** netlist and derives the per-cycle probability
//! that at least one of `n` flops toggles from the observed per-net
//! switching probability. Unlike the power-gating techniques DDCG saves
//! clock-pin dynamic energy rather than leakage, so its [`TechniquePoint`]s
//! report `gated: false` — at harvester frequencies leakage dominates
//! and DDCG deliberately loses to SCPG, which is the comparison the
//! bake-off exists to make.

use std::sync::Arc;

use scpg_liberty::CellKind;
use scpg_netlist::{InstId, NetId, Netlist};
use scpg_power::{LeakageReport, PowerAnalyzer};
use scpg_sta::TimingReport;
use scpg_units::{Energy, Frequency};

use crate::{
    ensure_untransformed, AreaReport, DelayReport, ParamKind, ParamSpec, PrepareContext,
    ResolvedParams, Technique, TechniqueError, TechniqueModel, TechniquePoint,
};

/// The `ddcg` technique: data-dependent clock gating.
pub struct DdcgTechnique;

/// Fixed stimulus seed: the measured enable probability must be a pure
/// function of the design, not of when `prepare` ran.
const ACTIVITY_SEED: u64 = 0x5cb9_dd0c_90aa_11e7;

/// Stimulus lanes per activity run (64-bit words leave headroom).
const ACTIVITY_LANES: usize = 16;

const PARAMS: &[ParamSpec] = &[ParamSpec {
    name: "cycles",
    doc: "settled-simulation cycles per stimulus lane used to measure \
          the data-dependent enable probability",
    kind: ParamKind::Int {
        min: 16,
        max: 4096,
        default: 256,
    },
}];

pub(crate) struct DdcgModel {
    netlist: Netlist,
    leak: LeakageReport,
    timing: TimingReport,
    e_dyn: Energy,
    e_icg: Energy,
    e_save: Energy,
    p_en: f64,
    cells: usize,
    area: scpg_units::Area,
    overhead_frac: f64,
}

impl Technique for DdcgTechnique {
    fn name(&self) -> &'static str {
        "ddcg"
    }

    fn summary(&self) -> &'static str {
        "data-dependent clock gating: withhold the clock from flops in \
         cycles where no flop input differs from its held state"
    }

    fn params(&self) -> &'static [ParamSpec] {
        PARAMS
    }

    fn prepare(
        &self,
        ctx: &PrepareContext<'_>,
        params: &ResolvedParams,
    ) -> Result<Arc<dyn TechniqueModel>, TechniqueError> {
        let _span = scpg_trace::Span::start("technique_prepare");
        ensure_untransformed(self.name(), ctx.baseline)?;
        let lib = ctx.lib;
        ctx.baseline
            .validate(lib)
            .map_err(|e| TechniqueError::Engine(format!("netlist validation failed: {e}")))?;

        // Flops to gate: (id, D net, Q net). Both kit flops put `CK` at
        // input pin 1 (`Dff`: [D, CK], `DffR`: [D, CK, RN]).
        let mut flops: Vec<(InstId, NetId, NetId)> = Vec::new();
        for (id, inst) in ctx.baseline.iter_instances() {
            let Some(cell) = lib.cell(inst.cell()) else {
                continue;
            };
            if matches!(cell.kind(), CellKind::Dff | CellKind::DffR) {
                let conns = inst.connections();
                flops.push((id, conns[0], conns[cell.kind().num_inputs()]));
            }
        }
        if flops.is_empty() {
            return Err(TechniqueError::Unsupported(
                "design has no flops to clock-gate".to_string(),
            ));
        }

        // Measure switching activity on the untouched baseline: the
        // enable rate is a property of the data, not of the ICG network.
        let cycles = params.int("cycles") as usize;
        let compiled = scpg_sim::CompiledNetlist::compile(ctx.baseline, lib, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("activity compile failed: {e}")))?;
        let activity = scpg::extract_activity(
            &compiled,
            ctx.clock,
            cycles,
            ACTIVITY_LANES,
            ACTIVITY_SEED,
            scpg_sim::EngineChoice::Auto,
        )
        .map_err(|e| TechniqueError::Engine(format!("activity extraction failed: {e}")))?;
        let p_q = activity.switching_probability.clamp(0.0, 1.0);

        let mut out = ctx.baseline.clone();
        let clk = out
            .net_by_name(ctx.clock)
            .ok_or_else(|| TechniqueError::Unsupported(format!("no net named `{}`", ctx.clock)))?;
        let cell_of = |kind: CellKind| -> Result<String, TechniqueError> {
            lib.cell_of_kind(kind)
                .map(|c| c.name().to_string())
                .ok_or_else(|| TechniqueError::Engine(format!("library lacks a {kind:?} cell")))
        };
        let xor2 = cell_of(CellKind::Xor2)?;
        let or2 = cell_of(CellKind::Or2)?;
        let inv = cell_of(CellKind::Inv)?;
        let latch = cell_of(CellKind::Latch)?;
        let and2 = cell_of(CellKind::And2)?;
        let badnl = |e: scpg_netlist::NetlistError| TechniqueError::Engine(format!("{e}"));

        // Per-flop difference bits, then an OR fold to one wire.
        let mut level: Vec<NetId> = Vec::with_capacity(flops.len());
        for (i, &(_, d, q)) in flops.iter().enumerate() {
            let x = out.add_net(format!("ddcg_x_{i}"));
            out.add_instance(format!("ddcg_xor_{i}"), xor2.clone(), &[d, q, x])
                .map_err(badnl)?;
            level.push(x);
        }
        let mut or_count = 0usize;
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                if let [a, b] = *pair {
                    let y = out.add_net(format!("ddcg_or_{or_count}"));
                    out.add_instance(format!("ddcg_org_{or_count}"), or2.clone(), &[a, b, y])
                        .map_err(badnl)?;
                    or_count += 1;
                    next.push(y);
                } else {
                    next.push(pair[0]);
                }
            }
            level = next;
        }
        // Glitch-safe gate: latch transparent while the clock is low.
        let clkn = out.add_net("ddcg_clkn");
        out.add_instance("ddcg_clkinv", inv.clone(), &[clk, clkn])
            .map_err(badnl)?;
        let en = out.add_net("ddcg_en");
        out.add_instance("ddcg_latch", latch.clone(), &[level[0], clkn, en])
            .map_err(badnl)?;
        let gclk = out.add_net("ddcg_gclk");
        out.add_instance("ddcg_and", and2.clone(), &[clk, en, gclk])
            .map_err(badnl)?;
        for &(id, _, _) in &flops {
            out.rewire_pin(id, 1, gclk);
        }
        out.validate(lib)
            .map_err(|e| TechniqueError::Engine(format!("transformed netlist invalid: {e}")))?;

        let e_dyn = crate::baseline::scale_e_dyn(lib, ctx);
        let timing = scpg_sta::analyze(&out, lib, ctx.corner.voltage)
            .map_err(|e| TechniqueError::Engine(format!("timing analysis failed: {e}")))?;
        let leak = PowerAnalyzer::new(&out, lib, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("power analysis failed: {e}")))?
            .leakage(None);

        // Energy bookkeeping, all per cycle at the corner voltage.
        let v = ctx.corner.voltage;
        let n = flops.len() as f64;
        // P(at least one flop would change) from the measured per-net
        // toggle probability, flop inputs approximated as independent.
        let p_en = 1.0 - (1.0 - p_q).powf(n);
        // Clock-pin energy: one rise + one fall of CV² per flop per
        // clocked cycle; gating recovers it in the (1 - p_en) quiet ones.
        let e_clk: f64 = flops
            .iter()
            .map(|&(id, _, _)| {
                let cap = lib.expect_cell(out.instance(id).cell()).input_cap();
                cap.value() * v.as_v() * v.as_v()
            })
            .sum();
        let e_save = Energy::new(e_clk * (1.0 - p_en));
        // What the ICG network itself burns: XORs follow the data, the
        // OR tree and the AND follow the enable, the inverter pays every
        // cycle and the latch only moves when the enable does.
        let wc = lib.wire_cap();
        let e_icg = Energy::new(
            lib.expect_cell(&xor2).switching_energy(v, wc).value() * p_q * n
                + lib.expect_cell(&or2).switching_energy(v, wc).value() * p_en * or_count as f64
                + lib.expect_cell(&inv).switching_energy(v, wc).value()
                + lib.expect_cell(&latch).switching_energy(v, wc).value() * p_en
                + lib.expect_cell(&and2).switching_energy(v, wc).value() * p_en,
        );

        let stats = out.stats(lib);
        let overhead_frac = stats.area_overhead_vs(&ctx.baseline.stats(lib));
        Ok(Arc::new(DdcgModel {
            netlist: out,
            leak,
            timing,
            e_dyn,
            e_icg,
            e_save,
            p_en,
            cells: stats.total(),
            area: stats.area,
            overhead_frac,
        }))
    }
}

impl TechniqueModel for DdcgModel {
    fn evaluate(&self, f: Frequency) -> TechniquePoint {
        let period = f.period();
        // Leakage runs the whole period — DDCG never collapses a rail —
        // and the saving is confined to the dynamic term, floored at
        // zero: gating cannot make switching energy negative.
        let dynamic = (self.e_dyn.value() + self.e_icg.value() - self.e_save.value()).max(0.0);
        let e_cycle = self.leak.total * period + Energy::new(dynamic);
        TechniquePoint {
            frequency: f,
            mode: "ddcg".to_string(),
            duty: self.p_en,
            power: e_cycle * f,
            energy_per_op: e_cycle,
            gated: false,
        }
    }

    fn area(&self) -> AreaReport {
        AreaReport {
            cells: self.cells,
            area: self.area,
            overhead_frac: self.overhead_frac,
        }
    }

    fn delay(&self) -> DelayReport {
        DelayReport {
            min_period: self.timing.min_period,
            f_max: self.timing.f_max(),
        }
    }

    fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_circuits::generate_multiplier;
    use scpg_liberty::{Library, PvtCorner};

    fn prepare(nl: &Netlist, lib: &Library) -> Arc<dyn TechniqueModel> {
        let ctx = PrepareContext {
            lib,
            baseline: nl,
            clock: "clk",
            e_dyn: Energy::from_pj(2.3),
            corner: PvtCorner::default(),
        };
        let params = crate::resolve_params(DdcgTechnique.params(), None).unwrap();
        DdcgTechnique.prepare(&ctx, &params).unwrap()
    }

    #[test]
    fn every_flop_is_rewired_to_the_gated_clock() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let model = prepare(&nl, &lib);
        let out = model.netlist();
        let gclk = out.net_by_name("ddcg_gclk").unwrap();
        let mut flops = 0;
        for (_, inst) in out.iter_instances() {
            let kind = lib.expect_cell(inst.cell()).kind();
            if matches!(
                kind,
                scpg_liberty::CellKind::Dff | scpg_liberty::CellKind::DffR
            ) {
                assert_eq!(inst.connections()[1], gclk, "flop `{}` CK", inst.name());
                flops += 1;
            }
        }
        assert!(flops > 0, "multiplier has flops");
        // One XOR per flop, one latch-AND gate, marker instances present.
        assert!(out.instance_by_name("ddcg_and").is_some());
        assert!(out.instance_by_name("ddcg_latch").is_some());
        assert!(out
            .instance_by_name(&format!("ddcg_xor_{}", flops - 1))
            .is_some());
        assert!(model.area().overhead_frac > 0.0, "ICG network costs area");
    }

    #[test]
    fn enable_rate_is_measured_and_savings_stay_physical() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let model = prepare(&nl, &lib);
        let f = Frequency::from_mhz(10.0);
        let p = model.evaluate(f);
        assert_eq!(p.mode, "ddcg");
        assert!(!p.gated, "ddcg saves clock energy, not leakage");
        assert!(
            (0.0..=1.0).contains(&p.duty),
            "duty = P(enable) = {}",
            p.duty
        );
        assert!(p.power.value() > 0.0 && p.energy_per_op.value() > 0.0);
        // Energy per op can never drop below the leakage floor.
        let floor = model.evaluate(f).energy_per_op.value();
        assert!(floor >= 0.0);
        // Determinism: a second prepare measures the same enable rate.
        let again = prepare(&nl, &lib).evaluate(f);
        assert_eq!(again.duty, p.duty);
        assert_eq!(again.power, p.power);
    }
}
