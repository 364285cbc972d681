//! The `scpg` technique: the paper's sub-clock power-gating pipeline.
//!
//! A thin adapter over [`scpg::ScpgTransform`] + [`scpg::ScpgAnalysis`]:
//! the transform and the analysis engine are built exactly as
//! `scpg::service::netlist_analysis` builds them, so a compare row
//! evaluated here is bit-identical to the `/v1/sweep` numbers for the
//! same design and frequencies.

use std::sync::Arc;

use scpg::transform::{ScpgOptions, ScpgTransform};
use scpg::{Mode, ScpgAnalysis, ScpgError};
use scpg_netlist::Netlist;
use scpg_units::Frequency;

use crate::{
    ensure_untransformed, AreaReport, DelayReport, ParamKind, ParamSpec, PrepareContext,
    ResolvedParams, Technique, TechniqueError, TechniqueModel, TechniquePoint,
};

/// The `scpg` technique: the paper's sub-clock power-gating pipeline.
pub struct ScpgTechnique;

const PARAMS: &[ParamSpec] = &[ParamSpec {
    name: "mode",
    doc: "duty-cycle policy: the stock 50 % clock (scpg) or the raised \
          maximum-duty clock (scpg_max)",
    kind: ParamKind::Choice {
        allowed: &["scpg", "scpg_max"],
        default: "scpg",
    },
}];

struct ScpgModel {
    analysis: ScpgAnalysis,
    mode: Mode,
    netlist: Netlist,
    cells: usize,
    area: scpg_units::Area,
    overhead_frac: f64,
}

impl Technique for ScpgTechnique {
    fn name(&self) -> &'static str {
        "scpg"
    }

    fn summary(&self) -> &'static str {
        "the paper's sub-clock power gating: header-gate the combinational \
         cloud inside every clock cycle"
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
        let mode = match params.choice("mode") {
            "scpg_max" => Mode::ScpgMax,
            _ => Mode::Scpg,
        };
        // Identical construction to `scpg::service::netlist_analysis`, so
        // the numbers are bit-identical to the sweep endpoint's.
        let design = ScpgTransform::new(ctx.lib)
            .apply(ctx.baseline, ctx.clock, &ScpgOptions::default())
            .map_err(|e| match e {
                ScpgError::NothingToGate | ScpgError::NoSuchClock { .. } => {
                    TechniqueError::Unsupported(format!("SCPG transform failed: {e}"))
                }
                other => TechniqueError::Engine(format!("SCPG transform failed: {other}")),
            })?;
        let stats = design.netlist.stats(ctx.lib);
        let overhead_frac = design.area_overhead(ctx.baseline, ctx.lib);
        let analysis = ScpgAnalysis::new(ctx.lib, ctx.baseline, &design, ctx.e_dyn, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("analysis build failed: {e}")))?;
        Ok(Arc::new(ScpgModel {
            analysis,
            mode,
            netlist: design.netlist,
            cells: stats.total(),
            area: stats.area,
            overhead_frac,
        }))
    }
}

impl TechniqueModel for ScpgModel {
    fn evaluate(&self, f: Frequency) -> TechniquePoint {
        let op = self.analysis.operating_point(f, self.mode);
        TechniquePoint {
            frequency: op.frequency,
            mode: op.mode.key().to_string(),
            duty: op.duty,
            power: op.power,
            energy_per_op: op.energy_per_op,
            gated: op.gated,
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
        let timing = self.analysis.timing();
        DelayReport {
            min_period: timing.min_period,
            f_max: timing.f_max(),
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
    use scpg_units::Energy;

    /// The load-bearing guarantee of the whole compare feature: the
    /// technique's numbers ARE the library pipeline's numbers, bit for
    /// bit, in both duty modes.
    #[test]
    fn scpg_technique_is_bit_identical_to_direct_pipeline() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let corner = PvtCorner::default();
        let e_dyn = Energy::from_pj(1.0);
        let direct =
            scpg::service::netlist_analysis(&lib, &nl, "clk", e_dyn, corner).expect("gates");
        let ctx = PrepareContext {
            lib: &lib,
            baseline: &nl,
            clock: "clk",
            e_dyn,
            corner,
        };
        let freqs = [
            Frequency::from_khz(10.0),
            Frequency::from_mhz(1.0),
            Frequency::from_mhz(40.0),
        ];
        for (key, mode) in [("scpg", Mode::Scpg), ("scpg_max", Mode::ScpgMax)] {
            let body = scpg_json::Json::parse(&format!(r#"{{"mode": "{key}"}}"#)).unwrap();
            let params = crate::resolve_params(ScpgTechnique.params(), Some(&body)).unwrap();
            let model = ScpgTechnique.prepare(&ctx, &params).unwrap();
            for &f in &freqs {
                let got = model.evaluate(f);
                let want = direct.operating_point(f, mode);
                assert_eq!(got.power, want.power, "{key} @ {f}");
                assert_eq!(got.energy_per_op, want.energy_per_op);
                assert_eq!(got.duty, want.duty);
                assert_eq!(got.gated, want.gated);
                assert_eq!(got.mode, want.mode.key());
            }
        }
    }

    #[test]
    fn flopless_design_is_unsupported_not_engine_error() {
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
        let params = crate::resolve_params(ScpgTechnique.params(), None).unwrap();
        let err = match ScpgTechnique.prepare(&ctx, &params) {
            Err(e) => e,
            Ok(_) => panic!("flopless design must be refused"),
        };
        assert!(matches!(err, TechniqueError::Unsupported(_)), "{err}");
    }
}
