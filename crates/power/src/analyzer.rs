//! Activity-based dynamic power and state-based leakage rollups.

use scpg_liberty::{Cell, Library, PvtCorner};
use scpg_netlist::{Connectivity, Domain, NetId, Netlist, NetlistError};
use scpg_units::{Current, Energy, Power, Time};
use scpg_waveform::Activity;

/// Dynamic-power results over one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynamicReport {
    /// Total switching energy over the run.
    pub energy: Energy,
    /// The run's wall-clock (simulated) duration.
    pub duration: Time,
    /// Average dynamic power (`energy / duration`).
    pub power: Power,
}

impl DynamicReport {
    /// Energy per clock cycle at the given period.
    pub fn energy_per_cycle(&self, period: Time) -> Energy {
        if self.duration.value() == 0.0 {
            return Energy::ZERO;
        }
        Energy::new(self.energy.value() * period.value() / self.duration.value())
    }
}

/// Leakage-power results, split the way SCPG reasons about the design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeakageReport {
    /// Whole-design leakage power.
    pub total: Power,
    /// Leakage of combinational cells.
    pub combinational: Power,
    /// Leakage of sequential cells.
    pub sequential: Power,
    /// Leakage of isolation/tie/control cells.
    pub special: Power,
    /// Leakage of the [`Domain::Gated`] instances (what SCPG can switch
    /// off).
    pub gated_domain: Power,
    /// Leakage of the [`Domain::AlwaysOn`] instances.
    pub always_on: Power,
    /// Supply current drawn by the gated domain at full rail.
    pub gated_domain_current: Current,
}

/// Per-design power engine.
#[derive(Debug)]
pub struct PowerAnalyzer<'a> {
    nl: &'a Netlist,
    lib: &'a Library,
    corner: PvtCorner,
    conn: Connectivity,
    /// The library cell of each instance.
    cells: Vec<&'a Cell>,
}

impl<'a> PowerAnalyzer<'a> {
    /// Binds the engine to a netlist/library at an operating corner.
    ///
    /// # Errors
    ///
    /// Returns a [`NetlistError`] if the netlist does not resolve against
    /// the library.
    pub fn new(nl: &'a Netlist, lib: &'a Library, corner: PvtCorner) -> Result<Self, NetlistError> {
        let conn = nl.connectivity(lib)?;
        let cells = nl
            .iter_instances()
            .map(|(_, inst)| lib.expect_cell(inst.cell()))
            .collect();
        Ok(Self {
            nl,
            lib,
            corner,
            conn,
            cells,
        })
    }

    /// The operating corner in use.
    pub fn corner(&self) -> PvtCorner {
        self.corner
    }

    /// Dynamic power of a simulated run: per net,
    /// `toggles × E_switch(driver, V, C_load)`.
    pub fn dynamic(&self, activity: &Activity) -> DynamicReport {
        let v = self.corner.voltage;
        let mut energy = Energy::ZERO;
        for (i, net_act) in activity.nets().iter().enumerate() {
            if net_act.toggles == 0 {
                continue;
            }
            let net = NetId::from_index(i);
            let Some(driver) = self.conn.driver(net) else {
                // Primary inputs are charged by the outside world; their
                // pin loads still cost energy, billed via the wire+pin
                // capacitance at half CV² per toggle.
                let load = self.net_load(net);
                let e = 0.5 * load.value() * v.as_v() * v.as_v();
                energy += Energy::new(e * net_act.toggles as f64);
                continue;
            };
            let e = self.cells[driver.inst.index()].switching_energy(v, self.net_load(net));
            energy += e * net_act.toggles as f64;
        }
        let duration = Time::from_ps(activity.duration_ps() as f64);
        let power = if duration.value() > 0.0 {
            energy / duration
        } else {
            Power::ZERO
        };
        DynamicReport {
            energy,
            duration,
            power,
        }
    }

    fn net_load(&self, net: NetId) -> scpg_units::Capacitance {
        let mut load = self.lib.wire_cap();
        for pin in self.conn.loads(net) {
            load += self.cells[pin.inst.index()].input_cap();
        }
        load
    }

    /// Leakage power rollup.
    ///
    /// With `activity` provided, each cell's stack-effect factor is
    /// evaluated from the average observed input state; without it, the
    /// library's average-state leakage is used.
    pub fn leakage(&self, activity: Option<&Activity>) -> LeakageReport {
        self.leakage_at(self.corner, activity)
    }

    /// [`PowerAnalyzer::leakage`] at another corner, so one analyzer can
    /// serve a whole supply sweep.
    pub fn leakage_at(&self, corner: PvtCorner, activity: Option<&Activity>) -> LeakageReport {
        let v = corner.voltage;
        let t = corner.temperature;
        let mut report = LeakageReport {
            total: Power::ZERO,
            combinational: Power::ZERO,
            sequential: Power::ZERO,
            special: Power::ZERO,
            gated_domain: Power::ZERO,
            always_on: Power::ZERO,
            gated_domain_current: Current::ZERO,
        };
        for ((_, inst), cell) in self.nl.iter_instances().zip(&self.cells) {
            let kind = cell.kind();
            let mut current = cell.leakage_current(v, t);
            if let Some(act) = activity {
                let n_in = kind.num_inputs();
                if n_in > 0 {
                    let mean_high: f64 = inst.connections()[..n_in]
                        .iter()
                        .map(|n| act.net(n.index()).high_fraction())
                        .sum::<f64>()
                        / n_in as f64;
                    // Same shape as CellKind::state_leak_factor, driven by
                    // time-averaged input state.
                    let factor = 0.6 + 0.8 * mean_high;
                    current = Current::new(current.value() * factor);
                }
            }
            let p = v * current;
            report.total += p;
            if kind.is_sequential() {
                report.sequential += p;
            } else if kind.is_combinational()
                && !matches!(
                    kind,
                    scpg_liberty::CellKind::IsoAnd
                        | scpg_liberty::CellKind::IsoOr
                        | scpg_liberty::CellKind::TieHi
                        | scpg_liberty::CellKind::TieLo
                        | scpg_liberty::CellKind::IsoCtl
                )
            {
                report.combinational += p;
            } else {
                report.special += p;
            }
            match inst.domain() {
                Domain::Gated => {
                    report.gated_domain += p;
                    report.gated_domain_current += current;
                }
                Domain::AlwaysOn => report.always_on += p,
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::{Library, Logic};
    use scpg_sim::{SimConfig, Simulator};
    use scpg_units::Voltage;

    fn lib() -> Library {
        Library::ninety_nm()
    }

    fn inv_chain(n: usize) -> Netlist {
        let mut nl = Netlist::new("chain");
        let mut cur = nl.add_input("a");
        for i in 0..n {
            let next = if i + 1 == n {
                nl.add_output("y")
            } else {
                nl.add_fresh_net()
            };
            nl.add_instance(format!("u{i}"), "INV_X1", &[cur, next])
                .unwrap();
            cur = next;
        }
        nl
    }

    #[test]
    fn leakage_scales_with_gate_count() {
        let lib = lib();
        let corner = PvtCorner::default();
        let small = inv_chain(10);
        let big = inv_chain(100);
        let l_small = PowerAnalyzer::new(&small, &lib, corner)
            .unwrap()
            .leakage(None);
        let l_big = PowerAnalyzer::new(&big, &lib, corner)
            .unwrap()
            .leakage(None);
        let ratio = l_big.total / l_small.total;
        assert!((ratio - 10.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn leakage_splits_by_domain() {
        let lib = lib();
        let mut nl = inv_chain(4);
        let u0 = nl.instance_by_name("u0").unwrap();
        let u1 = nl.instance_by_name("u1").unwrap();
        nl.set_domain(u0, Domain::Gated);
        nl.set_domain(u1, Domain::Gated);
        let rep = PowerAnalyzer::new(&nl, &lib, PvtCorner::default())
            .unwrap()
            .leakage(None);
        let frac = rep.gated_domain / rep.total;
        assert!((frac - 0.5).abs() < 1e-9, "half the invs are gated: {frac}");
        assert!(rep.gated_domain_current.as_na() > 0.0);
    }

    #[test]
    fn dynamic_power_tracks_activity() {
        let lib = lib();
        let nl = inv_chain(8);
        let a = nl.net_by_name("a").unwrap();
        let corner = PvtCorner::default();

        // Toggle the input 10 times over 10 µs.
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(1_000_000);
        for i in 0..10u64 {
            sim.set_input(a, if i % 2 == 0 { Logic::One } else { Logic::Zero });
            sim.run_until_quiet(1_000_000 * (i + 2));
        }
        let res = sim.finish();
        let rep = PowerAnalyzer::new(&nl, &lib, corner)
            .unwrap()
            .dynamic(&res.activity);
        assert!(rep.energy.as_fj() > 0.0);
        // 10 toggles × 9 nets × ~10 fJ ≈ 1 pJ, within a factor of a few.
        assert!(
            (0.1..10.0).contains(&rep.energy.as_pj()),
            "energy {} out of expected band",
            rep.energy
        );
        assert!(rep.power.as_nw() > 0.0);
        let per_cycle = rep.energy_per_cycle(Time::from_us(2.0));
        assert!(per_cycle.value() > 0.0);
    }

    #[test]
    fn dynamic_energy_drops_quadratically_with_vdd() {
        let lib = lib();
        let nl = inv_chain(4);
        let a = nl.net_by_name("a").unwrap();
        let run = |v_mv: f64| {
            let cfg = SimConfig {
                corner: PvtCorner::at_voltage(Voltage::from_mv(v_mv)),
                ..SimConfig::default()
            };
            let mut sim = Simulator::new(&nl, &lib, cfg).unwrap();
            sim.set_input(a, Logic::Zero);
            sim.run_until_quiet(10_000_000);
            sim.set_input(a, Logic::One);
            sim.run_until_quiet(20_000_000);
            let res = sim.finish();
            PowerAnalyzer::new(&nl, &lib, PvtCorner::at_voltage(Voltage::from_mv(v_mv)))
                .unwrap()
                .dynamic(&res.activity)
                .energy
        };
        let e6 = run(600.0);
        let e3 = run(300.0);
        let ratio = e6 / e3;
        assert!((ratio - 4.0).abs() < 0.2, "V² scaling, measured {ratio:.2}");
    }

    #[test]
    fn state_aware_leakage_differs_from_average() {
        let lib = lib();
        let nl = inv_chain(6);
        let a = nl.net_by_name("a").unwrap();
        // Hold the input low forever: alternating net states down the
        // chain, so state-aware leakage ≠ average but same magnitude.
        let mut sim = Simulator::new(&nl, &lib, SimConfig::default()).unwrap();
        sim.set_input(a, Logic::Zero);
        sim.run_until_quiet(1_000_000);
        sim.run_until(100_000_000);
        let res = sim.finish();
        let an = PowerAnalyzer::new(&nl, &lib, PvtCorner::default()).unwrap();
        let avg = an.leakage(None).total;
        let aware = an.leakage(Some(&res.activity)).total;
        let rel = (aware / avg - 1.0).abs();
        assert!(rel < 0.45, "state factor is bounded: {rel}");
        assert!(aware.value() > 0.0);
    }
}
