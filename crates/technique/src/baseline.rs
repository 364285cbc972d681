//! The `baseline` technique: the design exactly as handed in.
//!
//! No gating, no surgery — the reference every competitor is judged
//! against (the paper's "No Power Gating" column). Its per-cycle energy
//! is the whole design's leakage over the period plus the workload's
//! dynamic energy.

use std::sync::Arc;

use scpg_liberty::Library;
use scpg_netlist::{DesignStats, Netlist};
use scpg_power::{LeakageReport, PowerAnalyzer};
use scpg_sta::TimingReport;
use scpg_units::{Energy, Frequency};

use crate::{
    ensure_untransformed, AreaReport, DelayReport, ParamSpec, PrepareContext, ResolvedParams,
    Technique, TechniqueError, TechniqueModel, TechniquePoint,
};

/// The `baseline` technique: the design exactly as handed in.
pub struct BaselineTechnique;

/// Scales a workload energy measured at the characterisation supply down
/// to the corner supply (`∝ V²`), matching `ScpgAnalysis::new`.
pub(crate) fn scale_e_dyn(lib: &Library, ctx: &PrepareContext<'_>) -> Energy {
    let vr = ctx.corner.voltage.as_v() / lib.char_voltage().as_v();
    Energy::new(ctx.e_dyn.value() * vr * vr)
}

pub(crate) struct BaselineModel {
    netlist: Netlist,
    stats: DesignStats,
    leak: LeakageReport,
    timing: TimingReport,
    e_dyn: Energy,
}

impl Technique for BaselineTechnique {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn summary(&self) -> &'static str {
        "no gating: the always-on design as handed in (the reference column)"
    }

    fn params(&self) -> &'static [ParamSpec] {
        &[]
    }

    fn prepare(
        &self,
        ctx: &PrepareContext<'_>,
        _params: &ResolvedParams,
    ) -> Result<Arc<dyn TechniqueModel>, TechniqueError> {
        let _span = scpg_trace::Span::start("technique_prepare");
        ensure_untransformed(self.name(), ctx.baseline)?;
        ctx.baseline
            .validate(ctx.lib)
            .map_err(|e| TechniqueError::Engine(format!("netlist validation failed: {e}")))?;
        let leak = PowerAnalyzer::new(ctx.baseline, ctx.lib, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("power analysis failed: {e}")))?
            .leakage(None);
        let timing = scpg_sta::analyze(ctx.baseline, ctx.lib, ctx.corner.voltage)
            .map_err(|e| TechniqueError::Engine(format!("timing analysis failed: {e}")))?;
        Ok(Arc::new(BaselineModel {
            netlist: ctx.baseline.clone(),
            stats: ctx.baseline.stats(ctx.lib),
            leak,
            timing,
            e_dyn: scale_e_dyn(ctx.lib, ctx),
        }))
    }
}

impl TechniqueModel for BaselineModel {
    fn evaluate(&self, f: Frequency) -> TechniquePoint {
        let e_cycle = self.leak.total * f.period() + self.e_dyn;
        TechniquePoint {
            frequency: f,
            mode: "no_pg".to_string(),
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
            overhead_frac: 0.0,
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
    use scpg_liberty::PvtCorner;

    #[test]
    fn baseline_power_is_leakage_plus_dynamic() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let ctx = PrepareContext {
            lib: &lib,
            baseline: &nl,
            clock: "clk",
            e_dyn: Energy::from_pj(1.0),
            corner: PvtCorner::default(),
        };
        let params = crate::resolve_params(BaselineTechnique.params(), None).unwrap();
        let model = BaselineTechnique.prepare(&ctx, &params).unwrap();
        let f = Frequency::from_khz(100.0);
        let p = model.evaluate(f);
        assert_eq!(p.mode, "no_pg");
        assert!(!p.gated);
        // Power must exceed pure leakage (the dynamic term adds).
        let leak = PowerAnalyzer::new(&nl, &lib, PvtCorner::default())
            .unwrap()
            .leakage(None);
        assert!(p.power.value() > leak.total.value());
        assert_eq!(model.area().overhead_frac, 0.0);
    }
}
