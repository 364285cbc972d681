//! The `lector` technique: LECTOR-style leakage control on flop input
//! stages.
//!
//! LECTOR (LEakage Control TransistOR, cf. arXiv 1805.07409) inserts a
//! pair of self-controlled stacked transistors into a gate's pull
//! network, keeping one of them near its cutoff region in every input
//! state. The stack effect raises the gate's effective threshold —
//! much less leakage — at the cost of a longer discharge path (slower)
//! and two extra transistors (larger).
//!
//! We model a LECTOR'd gate as a **derived library cell**
//! (`<base>__LCT`): the base cell with its threshold raised by
//! `vt_shift_mv` and its area scaled by ~1.15, registered on a cloned
//! library via [`Library::add_derived_cell`]. The transform substitutes
//! those cells on the last `stages` combinational levels feeding every
//! flop/latch data input — the multi-stage-flip-flop placement of the
//! reference work: the cells whose outputs must hold stable into a
//! setup window anyway, where the speed loss is cheapest.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

use scpg_liberty::CellKind;
use scpg_netlist::{DesignStats, InstId, NetId, Netlist};
use scpg_power::{LeakageReport, PowerAnalyzer};
use scpg_sta::TimingReport;
use scpg_units::{Energy, Frequency, Voltage};

use crate::{
    ensure_untransformed, AreaReport, DelayReport, ParamKind, ParamSpec, PrepareContext,
    ResolvedParams, Technique, TechniqueError, TechniqueModel, TechniquePoint,
};

/// The `lector` technique: LECTOR-style leakage control on flop input
/// stages.
pub struct LectorTechnique;

/// Area cost of the two leakage-control transistors, as a factor on the
/// base cell's area (the reference work reports 10–20 % per gate).
const LECTOR_AREA_FACTOR: f64 = 1.15;

const PARAMS: &[ParamSpec] = &[
    ParamSpec {
        name: "stages",
        doc: "how many combinational levels feeding each flop data input \
              are converted to leakage-controlled cells",
        kind: ParamKind::Int {
            min: 1,
            max: 8,
            default: 2,
        },
    },
    ParamSpec {
        name: "vt_shift_mv",
        doc: "effective threshold raise of a leakage-controlled cell, in \
              millivolts",
        kind: ParamKind::Int {
            min: 10,
            max: 200,
            default: 60,
        },
    },
];

/// Cells eligible for LECTOR conversion: plain logic, not ties or
/// isolation circuitry.
fn is_convertible(kind: CellKind) -> bool {
    kind.is_combinational()
        && !matches!(
            kind,
            CellKind::TieHi
                | CellKind::TieLo
                | CellKind::IsoAnd
                | CellKind::IsoOr
                | CellKind::IsoCtl
        )
}

pub(crate) struct LectorModel {
    netlist: Netlist,
    stats: DesignStats,
    leak: LeakageReport,
    timing: TimingReport,
    e_dyn: Energy,
    overhead_frac: f64,
}

impl Technique for LectorTechnique {
    fn name(&self) -> &'static str {
        "lector"
    }

    fn summary(&self) -> &'static str {
        "LECTOR-style leakage control: swap the flop-feeding logic stages \
         for stacked-transistor cells with a raised effective threshold"
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
        let stages = params.int("stages") as usize;
        let dv = Voltage::from_mv(params.int("vt_shift_mv") as f64);

        // Walk backwards from every flop/latch data input, collecting the
        // combinational cells on the last `stages` levels.
        let conn = ctx
            .baseline
            .connectivity(lib)
            .map_err(|e| TechniqueError::Engine(format!("{e}")))?;
        let mut frontier: VecDeque<(NetId, usize)> = VecDeque::new();
        for (_, inst) in ctx.baseline.iter_instances() {
            let cell = lib.expect_cell(inst.cell());
            if !cell.kind().is_sequential() {
                continue;
            }
            for (pin, name) in cell.kind().input_names().iter().enumerate() {
                if *name == "D" {
                    frontier.push_back((inst.connections()[pin], 0));
                }
            }
        }
        let mut covered: BTreeSet<InstId> = BTreeSet::new();
        let mut seen: BTreeSet<(NetId, usize)> = BTreeSet::new();
        while let Some((net, depth)) = frontier.pop_front() {
            if depth >= stages || !seen.insert((net, depth)) {
                continue;
            }
            let Some(driver) = conn.driver(net) else {
                continue;
            };
            let inst = ctx.baseline.instance(driver.inst);
            let kind = lib.expect_cell(inst.cell()).kind();
            if !is_convertible(kind) {
                continue;
            }
            covered.insert(driver.inst);
            for pin in 0..kind.num_inputs() {
                frontier.push_back((inst.connections()[pin], depth + 1));
            }
        }
        if covered.is_empty() {
            return Err(TechniqueError::Unsupported(
                "no combinational cells feed a flop data input (nothing to convert)".to_string(),
            ));
        }

        // Derive the leakage-controlled variants on a cloned library and
        // substitute them in place.
        let mut lct_lib = lib.clone();
        let mut derived: BTreeMap<String, String> = BTreeMap::new();
        for &id in &covered {
            let base = ctx.baseline.instance(id).cell().to_string();
            if !derived.contains_key(&base) {
                let name = format!("{base}__LCT");
                lct_lib
                    .add_derived_cell(&base, &name, dv, LECTOR_AREA_FACTOR)
                    .map_err(TechniqueError::Engine)?;
                derived.insert(base.clone(), name);
            }
        }
        let mut out = ctx.baseline.clone();
        for &id in &covered {
            let base = out.instance(id).cell().to_string();
            out.set_cell(id, derived[&base].clone());
        }
        out.validate(&lct_lib)
            .map_err(|e| TechniqueError::Engine(format!("transformed netlist invalid: {e}")))?;

        let leak = PowerAnalyzer::new(&out, &lct_lib, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("power analysis failed: {e}")))?
            .leakage(None);
        let timing = scpg_sta::analyze(&out, &lct_lib, ctx.corner.voltage)
            .map_err(|e| TechniqueError::Engine(format!("timing analysis failed: {e}")))?;
        let stats = out.stats(&lct_lib);
        let overhead_frac = stats.area_overhead_vs(&ctx.baseline.stats(lib));
        Ok(Arc::new(LectorModel {
            netlist: out,
            stats,
            leak,
            timing,
            e_dyn: crate::baseline::scale_e_dyn(lib, ctx),
            overhead_frac,
        }))
    }
}

impl TechniqueModel for LectorModel {
    fn evaluate(&self, f: Frequency) -> TechniquePoint {
        // Static technique: no per-cycle state, just less leakage.
        let e_cycle = self.leak.total * f.period() + self.e_dyn;
        TechniquePoint {
            frequency: f,
            mode: "lector".to_string(),
            duty: 0.5,
            power: e_cycle * f,
            energy_per_op: e_cycle,
            gated: false,
        }
    }

    fn area(&self) -> AreaReport {
        AreaReport {
            cells: self.stats.total(),
            area: self.stats.area,
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
    use scpg_json::Json;
    use scpg_liberty::{Library, PvtCorner};

    fn model(nl: &Netlist, lib: &Library, body: &str) -> Arc<dyn TechniqueModel> {
        let ctx = PrepareContext {
            lib,
            baseline: nl,
            clock: "clk",
            e_dyn: Energy::from_pj(2.3),
            corner: PvtCorner::default(),
        };
        let body = Json::parse(body).unwrap();
        let params = crate::resolve_params(LectorTechnique.params(), Some(&body)).unwrap();
        LectorTechnique.prepare(&ctx, &params).unwrap()
    }

    #[test]
    fn lector_swaps_flop_feeding_stages_only() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let m = model(&nl, &lib, r#"{"stages": 1}"#);
        let out = m.netlist();
        let lct = out
            .instances()
            .iter()
            .filter(|i| i.cell().ends_with("__LCT"))
            .count();
        assert!(lct > 0, "some cells converted");
        assert!(
            lct < out.instances().len() / 2,
            "1-stage conversion stays local to the flops ({lct} cells)"
        );
        assert!(m.area().overhead_frac > 0.0);
    }

    #[test]
    fn deeper_coverage_converts_more_cells_and_leaks_less() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let count = |m: &Arc<dyn TechniqueModel>| {
            m.netlist()
                .instances()
                .iter()
                .filter(|i| i.cell().ends_with("__LCT"))
                .count()
        };
        let shallow = model(&nl, &lib, r#"{"stages": 1}"#);
        let deep = model(&nl, &lib, r#"{"stages": 6}"#);
        assert!(count(&deep) > count(&shallow));
        let f = Frequency::from_khz(10.0);
        assert!(
            deep.evaluate(f).power.value() < shallow.evaluate(f).power.value(),
            "more coverage, less leakage"
        );
        // And the cost: deeper conversion is slower.
        assert!(deep.delay().f_max.value() <= shallow.delay().f_max.value());
    }

    #[test]
    fn flopless_design_is_unsupported() {
        let lib = Library::ninety_nm();
        let mut nl = Netlist::new("flat");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u", "INV_X1", &[a, y]).unwrap();
        let ctx = PrepareContext {
            lib: &lib,
            baseline: &nl,
            clock: "clk",
            e_dyn: Energy::from_pj(1.0),
            corner: PvtCorner::default(),
        };
        let params = crate::resolve_params(LectorTechnique.params(), None).unwrap();
        let err = match LectorTechnique.prepare(&ctx, &params) {
            Err(e) => e,
            Ok(_) => panic!("flopless design must be refused"),
        };
        assert!(matches!(err, TechniqueError::Unsupported(_)), "{err}");
    }
}
