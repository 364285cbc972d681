//! The `ctsg` technique: cluster-based tunable sleep-transistor gating.
//!
//! The classical coarse-grained competitor to SCPG (cf. arXiv
//! 1310.3203): the combinational cloud is partitioned into clusters,
//! each powered through its **own** sleep header sized to that cluster's
//! electrical profile — smaller clusters draw smaller in-rush spikes and
//! tolerate smaller (cheaper, less leaky) headers, at the cost of one
//! header's gate-switching energy per cluster per cycle.
//!
//! The control scheme mirrors SCPG so the comparison isolates the
//! *clustering* decision: one shared `clock AND override_n` sleep
//! signal, per-cluster headers and virtual rails, the Fig. 3 adaptive
//! isolation controller sensing rail 0, and an AND-clamp on every
//! gated→always-on crossing. Per-cluster sizing reuses the
//! `scpg-analog` rail solver ([`recommend_header`]).

use std::sync::Arc;

use scpg::duty::DutyPlanner;
use scpg::transform::insert_isolation;
use scpg_analog::{recommend_header, DomainProfile, GatingCycle, RailModel, SizingConstraints};
use scpg_liberty::{CellKind, HeaderCell, HeaderSize};
use scpg_netlist::{Domain, InstId, Netlist};
use scpg_power::{LeakageReport, PowerAnalyzer};
use scpg_sta::TimingReport;
use scpg_units::{Capacitance, Current, Energy, Frequency, Time, Voltage};

use crate::{
    ensure_untransformed, AreaReport, DelayReport, ParamKind, ParamSpec, PrepareContext,
    ResolvedParams, Technique, TechniqueError, TechniqueModel, TechniquePoint,
};

/// The `ctsg` technique: cluster-based tunable sleep-transistor gating.
pub struct CtsgTechnique;

const PARAMS: &[ParamSpec] = &[
    ParamSpec {
        name: "clusters",
        doc: "number of independently-headered clusters the combinational \
              cloud is partitioned into",
        kind: ParamKind::Int {
            min: 1,
            max: 8,
            default: 4,
        },
    },
    ParamSpec {
        name: "header",
        doc: "per-cluster header size: auto picks the smallest acceptable \
              size per cluster via the rail solver",
        kind: ParamKind::Choice {
            allowed: &["auto", "x1", "x2", "x4", "x8"],
            default: "auto",
        },
    },
];

/// Same predicate as the SCPG transform: pure-logic cells, excluding
/// ties and isolation circuitry.
fn is_gateable(kind: CellKind) -> bool {
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

struct Cluster {
    rail: RailModel,
}

pub(crate) struct CtsgModel {
    netlist: Netlist,
    leak: LeakageReport,
    timing: TimingReport,
    planner: DutyPlanner,
    clusters: Vec<Cluster>,
    e_dyn: Energy,
    e_iso: Energy,
    cells: usize,
    area: scpg_units::Area,
    overhead_frac: f64,
}

impl Technique for CtsgTechnique {
    fn name(&self) -> &'static str {
        "ctsg"
    }

    fn summary(&self) -> &'static str {
        "cluster-based tunable sleep-transistor gating: per-cluster headers \
         sized to each cluster's rail profile"
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

        let mut out = ctx.baseline.clone();
        let clk = out
            .net_by_name(ctx.clock)
            .ok_or_else(|| TechniqueError::Unsupported(format!("no net named `{}`", ctx.clock)))?;

        // Partition the gateable cloud into contiguous clusters. InstId
        // order is deterministic, so the partition (and everything
        // downstream) is too.
        let gateable: Vec<InstId> = out
            .iter_instances()
            .filter(|(_, inst)| lib.cell(inst.cell()).is_some_and(|c| is_gateable(c.kind())))
            .map(|(id, _)| id)
            .collect();
        if gateable.is_empty() {
            return Err(TechniqueError::Unsupported(
                "design has no gateable combinational cells".to_string(),
            ));
        }
        let n_clusters = (params.int("clusters") as usize).min(gateable.len());
        let chunk = gateable.len().div_ceil(n_clusters);
        let members: Vec<Vec<InstId>> = gateable.chunks(chunk).map(|c| c.to_vec()).collect();
        for id in &gateable {
            out.set_domain(*id, Domain::Gated);
        }

        // Control network: shared sleep AND, one header + rail per
        // cluster, the Fig. 3 controller sensing rail 0.
        let cell_of = |kind: CellKind| -> Result<String, TechniqueError> {
            lib.cell_of_kind(kind)
                .map(|c| c.name().to_string())
                .ok_or_else(|| TechniqueError::Engine(format!("library lacks a {kind:?} cell")))
        };
        let and2 = cell_of(CellKind::And2)?;
        let isoctl = cell_of(CellKind::IsoCtl)?;
        let iso_cell = cell_of(CellKind::IsoAnd)?;
        let badnl = |e: scpg_netlist::NetlistError| TechniqueError::Engine(format!("{e}"));

        let override_n = out.add_input("ctsg_override_n");
        let sleep = out.add_net("ctsg_sleep");
        out.add_instance("ctsg_sleep_and", and2, &[clk, override_n, sleep])
            .map_err(badnl)?;
        // Provisional X2 headers; sizes are tuned after profiling (all
        // kit headers share the (SLEEP) -> VVDD pin interface).
        let mut rails = Vec::with_capacity(members.len());
        for k in 0..members.len() {
            let vddv = out.add_net(format!("ctsg_vddv_{k}"));
            out.add_instance(
                format!("ctsg_header_{k}"),
                HeaderSize::X2.cell_name(),
                &[sleep, vddv],
            )
            .map_err(badnl)?;
            rails.push(vddv);
        }
        let iso = out.add_net("ctsg_iso");
        out.add_instance("ctsg_isoctl", isoctl, &[clk, rails[0], iso])
            .map_err(badnl)?;

        // Isolation on every gated→always-on crossing, exactly as the
        // SCPG transform inserts it.
        let iso_count =
            insert_isolation(&mut out, lib, &iso_cell, iso, "ctsg_iso_").map_err(badnl)?;
        out.validate(lib)
            .map_err(|e| TechniqueError::Engine(format!("transformed netlist invalid: {e}")))?;

        // Profile each cluster and tune its header.
        let e_dyn = crate::baseline::scale_e_dyn(lib, ctx);
        let timing = scpg_sta::analyze(&out, lib, ctx.corner.voltage)
            .map_err(|e| TechniqueError::Engine(format!("timing analysis failed: {e}")))?;
        let v = ctx.corner.voltage;
        let total_area: f64 = members
            .iter()
            .flatten()
            .map(|&id| lib.expect_cell(out.instance(id).cell()).area().as_um2())
            .sum();
        let fixed_size = match params.choice("header") {
            "x1" => Some(HeaderSize::X1),
            "x2" => Some(HeaderSize::X2),
            "x4" => Some(HeaderSize::X4),
            "x8" => Some(HeaderSize::X8),
            _ => None,
        };
        let constraints = SizingConstraints::default();
        let mut clusters = Vec::with_capacity(members.len());
        for (k, ids) in members.iter().enumerate() {
            let area_um2: f64 = ids
                .iter()
                .map(|&id| lib.expect_cell(out.instance(id).cell()).area().as_um2())
                .sum();
            let frac = area_um2 / total_area;
            let i_leak: f64 = ids
                .iter()
                .map(|&id| {
                    lib.expect_cell(out.instance(id).cell())
                        .leakage_current(v, ctx.corner.temperature)
                        .value()
                })
                .sum();
            let e_share = Energy::new(e_dyn.value() * frac);
            let i_eval_avg = if timing.t_eval.value() > 0.0 {
                Current::new(e_share.value() / (v.as_v() * timing.t_eval.value()))
            } else {
                Current::ZERO
            };
            let profile = DomainProfile {
                n_gates: ids.len(),
                c_vddv: Capacitance::new(lib.rail_cap_density().value() * area_um2),
                i_leak_full: Current::new(i_leak),
                i_eval_avg,
                i_eval_peak: i_eval_avg * 2.5,
            };
            let size = fixed_size.unwrap_or_else(|| {
                let (reports, pick) = recommend_header(&profile, v, &constraints);
                // No acceptable size: take the strongest — a too-weak
                // header would starve the cluster outright.
                pick.map_or(HeaderSize::X8, |i| reports[i].size)
            });
            let hid = out
                .instance_by_name(&format!("ctsg_header_{k}"))
                .expect("header inserted above");
            out.set_cell(hid, size.cell_name());
            clusters.push(Cluster {
                rail: RailModel::new(profile, HeaderCell::ninety_nm(size), v),
            });
        }
        out.validate(lib)
            .map_err(|e| TechniqueError::Engine(format!("header retune invalid: {e}")))?;

        let leak = PowerAnalyzer::new(&out, lib, ctx.corner)
            .map_err(|e| TechniqueError::Engine(format!("power analysis failed: {e}")))?
            .leakage(None);
        let iso_lib_cell = lib
            .cell_of_kind(CellKind::IsoAnd)
            .expect("kit has isolation cells");
        let e_iso = iso_lib_cell.switching_energy(v, lib.wire_cap()) * iso_count as f64;
        let t_restore = clusters
            .iter()
            .map(|c| c.rail.restore_time(Voltage::ZERO))
            .fold(
                Time::new(0.0),
                |a, b| if b.value() > a.value() { b } else { a },
            );
        let planner = DutyPlanner::new(&timing, t_restore);
        let stats = out.stats(lib);
        let overhead_frac = stats.area_overhead_vs(&ctx.baseline.stats(lib));
        Ok(Arc::new(CtsgModel {
            netlist: out,
            leak,
            timing,
            planner,
            clusters,
            e_dyn,
            e_iso,
            cells: stats.total(),
            area: stats.area,
            overhead_frac,
        }))
    }
}

impl TechniqueModel for CtsgModel {
    fn evaluate(&self, f: Frequency) -> TechniquePoint {
        let period = f.period();
        match self.planner.plan_scpg(f) {
            Ok(plan) => {
                let aon_leak = self.leak.total - self.leak.gated_domain;
                let mut e_cycle = aon_leak * period
                    + self.leak.gated_domain * plan.t_on
                    + self.e_dyn
                    + self.e_iso;
                // Each cluster's rail collapses and recharges on its own
                // header, so the per-cycle overheads add.
                for cluster in &self.clusters {
                    e_cycle += GatingCycle::new(&cluster.rail)
                        .analyze(plan.t_off)
                        .overhead();
                }
                TechniquePoint {
                    frequency: f,
                    mode: "ctsg".to_string(),
                    duty: plan.duty,
                    power: e_cycle * f,
                    energy_per_op: e_cycle,
                    gated: true,
                }
            }
            Err(_) => {
                // Timing leaves no gating room: always-on fallback paying
                // the technique's static overheads.
                let e_cycle = self.leak.total * period + self.e_dyn;
                TechniquePoint {
                    frequency: f,
                    mode: "ctsg".to_string(),
                    duty: 0.5,
                    power: e_cycle * f,
                    energy_per_op: e_cycle,
                    gated: false,
                }
            }
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
    use scpg_json::Json;
    use scpg_liberty::{Library, PvtCorner};

    fn prepare(nl: &Netlist, lib: &Library, body: &str) -> Arc<dyn TechniqueModel> {
        let ctx = PrepareContext {
            lib,
            baseline: nl,
            clock: "clk",
            e_dyn: Energy::from_pj(2.3),
            corner: PvtCorner::default(),
        };
        let body = Json::parse(body).unwrap();
        let params = crate::resolve_params(CtsgTechnique.params(), Some(&body)).unwrap();
        CtsgTechnique.prepare(&ctx, &params).unwrap()
    }

    #[test]
    fn ctsg_inserts_one_header_per_cluster_and_isolates_crossings() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let model = prepare(&nl, &lib, r#"{"clusters": 3}"#);
        let out = model.netlist();
        for k in 0..3 {
            assert!(
                out.instance_by_name(&format!("ctsg_header_{k}")).is_some(),
                "header {k}"
            );
        }
        assert!(out.instance_by_name("ctsg_header_3").is_none());
        // Every gated→always-on crossing is clamped (validated netlist +
        // the same planning loop as the SCPG transform's own test).
        let conn = out.connectivity(&lib).unwrap();
        for (idx, _) in out.nets().iter().enumerate() {
            let net = scpg_netlist::NetId::from_index(idx);
            let Some(driver) = conn.driver(net) else {
                continue;
            };
            if out.instance(driver.inst).domain() != Domain::Gated {
                continue;
            }
            for pin in conn.loads(net) {
                let sink = out.instance(pin.inst);
                if sink.domain() == Domain::AlwaysOn {
                    let kind = lib.expect_cell(sink.cell()).kind();
                    assert!(
                        matches!(kind, CellKind::IsoAnd | CellKind::IsoOr),
                        "gated net reaches `{}` ({kind:?}) unclamped",
                        sink.name()
                    );
                }
            }
        }
        assert!(model.area().overhead_frac > 0.0, "headers+clamps cost area");
    }

    #[test]
    fn fixed_header_param_overrides_auto_sizing() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 4);
        let model = prepare(&nl, &lib, r#"{"clusters": 2, "header": "x8"}"#);
        let out = model.netlist();
        for k in 0..2 {
            let id = out.instance_by_name(&format!("ctsg_header_{k}")).unwrap();
            assert_eq!(out.instance(id).cell(), "HDR_X8");
        }
    }

    #[test]
    fn more_clusters_means_more_headers_but_gating_still_wins_at_low_f() {
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let f = Frequency::from_khz(10.0);
        let p1 = prepare(&nl, &lib, r#"{"clusters": 1}"#).evaluate(f);
        let p8 = prepare(&nl, &lib, r#"{"clusters": 8}"#).evaluate(f);
        assert!(p1.gated && p8.gated);
        assert!(p8.power.value() > 0.0 && p1.power.value() > 0.0);
        // Both must beat an ungated cycle (total leakage over the whole
        // period) at 10 kHz — the whole point of gating down there.
        let lib2 = Library::ninety_nm();
        let leak = scpg_power::PowerAnalyzer::new(&nl, &lib2, PvtCorner::default())
            .unwrap()
            .leakage(None);
        for p in [&p1, &p8] {
            assert!(
                p.power.value() < leak.total.value(),
                "gated power {} must beat baseline leakage {}",
                p.power,
                leak.total
            );
        }
    }

    #[test]
    fn single_cluster_ctsg_brackets_scpg_class_savings() {
        // One cluster with the same control story should land in the
        // same savings class as SCPG at harvester frequencies.
        let lib = Library::ninety_nm();
        let (nl, _) = generate_multiplier(&lib, 8);
        let f = Frequency::from_khz(10.0);
        let ctsg = prepare(&nl, &lib, r#"{"clusters": 1}"#).evaluate(f);
        let ctx = PrepareContext {
            lib: &lib,
            baseline: &nl,
            clock: "clk",
            e_dyn: Energy::from_pj(2.3),
            corner: PvtCorner::default(),
        };
        let params = crate::resolve_params(crate::BaselineTechnique.params(), None).unwrap();
        let base = crate::BaselineTechnique
            .prepare(&ctx, &params)
            .unwrap()
            .evaluate(f);
        let saving = 1.0 - ctsg.power.value() / base.power.value();
        assert!(
            (0.05..0.95).contains(&saving),
            "ctsg saving {saving:.3} out of plausible band"
        );
    }
}
