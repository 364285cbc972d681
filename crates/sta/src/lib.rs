//! Static timing analysis.
//!
//! SCPG's whole premise is the gap between the combinational evaluation
//! time `T_eval` and the clock period `T_clk` (paper Fig. 1): frequency
//! scaling below `F_max` opens up `T_idle = T_clk − T_hold − T_eval −
//! T_setup`, which the technique converts into gated time. This crate
//! computes those quantities from the netlist:
//!
//! * [`analyze`] — longest-path analysis at a supply voltage, returning
//!   [`TimingReport`] with `T_eval`, the critical path, and the minimum
//!   clock period;
//! * [`TimingGraph`] — the same analysis split into a once-per-netlist
//!   build and a per-supply pass, for the supply sweeps of the
//!   sub-threshold study (Figs. 9/10): every cell delay scales with the
//!   shared transistor model, but the netlist's structure does not.
//!
//! Timing arcs: primary inputs and flop/latch `Q` pins launch at the
//! clock-to-Q delay; flop `D` pins and output ports capture; combinational
//! cells contribute `delay(V, load)` per output. Combinational loops are
//! reported as errors.
//!
//! # Example
//!
//! ```
//! use scpg_liberty::Library;
//! use scpg_netlist::Netlist;
//! use scpg_sta::analyze;
//! use scpg_units::Voltage;
//!
//! let lib = Library::ninety_nm();
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let y = nl.add_output("y");
//! nl.add_instance("u", "INV_X1", &[a, y])?;
//! let report = analyze(&nl, &lib, Voltage::from_mv(600.0))?;
//! assert!(report.t_eval.as_ps() > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use scpg_liberty::{Cell, Library};
use scpg_netlist::{Connectivity, InstId, NetId, Netlist, NetlistError, PortDirection};
use scpg_units::{Capacitance, Frequency, Time, Voltage};

/// Errors from timing analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StaError {
    /// The netlist does not resolve against the library.
    Netlist(NetlistError),
    /// A purely combinational cycle was found (no flop breaks the loop).
    CombinationalLoop {
        /// Name of a net on the cycle.
        net: String,
    },
    /// The design exceeds the analysis admission limits
    /// ([`analyze_limited`]).
    TooLarge {
        /// Instances in the design.
        instances: usize,
        /// The admission ceiling.
        limit: usize,
    },
}

impl fmt::Display for StaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StaError::Netlist(e) => write!(f, "netlist error: {e}"),
            StaError::CombinationalLoop { net } => {
                write!(f, "combinational loop through net `{net}`")
            }
            StaError::TooLarge { instances, limit } => {
                write!(
                    f,
                    "design too large for timing analysis: {instances} instances, limit {limit}"
                )
            }
        }
    }
}

impl Error for StaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StaError::Netlist(e) => Some(e),
            StaError::CombinationalLoop { .. } | StaError::TooLarge { .. } => None,
        }
    }
}

impl From<NetlistError> for StaError {
    fn from(e: NetlistError) -> Self {
        StaError::Netlist(e)
    }
}

/// Result of a longest-path analysis at one supply voltage.
#[derive(Debug, Clone, PartialEq)]
pub struct TimingReport {
    /// The supply the analysis ran at.
    pub voltage: Voltage,
    /// Longest combinational evaluation time (launch to capture),
    /// including the launching flop's clock-to-Q delay.
    pub t_eval: Time,
    /// Largest setup requirement among capturing flops.
    pub t_setup: Time,
    /// Largest hold requirement among flops.
    pub t_hold: Time,
    /// Minimum clock period: `t_eval + t_setup`.
    pub min_period: Time,
    /// Instances along the critical path, launch to capture.
    pub critical_path: Vec<InstId>,
}

impl TimingReport {
    /// Maximum clock frequency at this supply.
    pub fn f_max(&self) -> Frequency {
        self.min_period.frequency()
    }

    /// Idle time inside a clock cycle at frequency `f`
    /// (`T_clk − T_eval − T_setup`, clamped at zero) — the raw material
    /// SCPG converts into leakage saving.
    pub fn t_idle(&self, f: Frequency) -> Time {
        let slack = f.period() - self.min_period;
        slack.max(Time::ZERO)
    }
}

/// Admission limits for [`analyze_limited`] — the hook the serving layer
/// uses so an uploaded netlist cannot demand unbounded timing work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaLimits {
    /// Maximum instances admitted to analysis.
    pub max_instances: usize,
}

impl Default for StaLimits {
    fn default() -> Self {
        // Matches the netlist-parse ceiling: comfortably above the
        // paper's 6 747-gate M0.
        Self {
            max_instances: 20_000,
        }
    }
}

/// [`analyze`] behind an explicit size admission check, for untrusted
/// (uploaded) designs.
///
/// # Errors
///
/// [`StaError::TooLarge`] when the design busts `limits`, otherwise as
/// [`analyze`].
pub fn analyze_limited(
    nl: &Netlist,
    lib: &Library,
    v: Voltage,
    limits: &StaLimits,
) -> Result<TimingReport, StaError> {
    if nl.instances().len() > limits.max_instances {
        return Err(StaError::TooLarge {
            instances: nl.instances().len(),
            limit: limits.max_instances,
        });
    }
    analyze(nl, lib, v)
}

/// Runs longest-path timing analysis at supply `v` (nominal temperature).
///
/// # Errors
///
/// Returns [`StaError::Netlist`] if the netlist does not resolve, or
/// [`StaError::CombinationalLoop`] if combinational cells form a cycle.
pub fn analyze(nl: &Netlist, lib: &Library, v: Voltage) -> Result<TimingReport, StaError> {
    TimingGraph::new(nl, lib)?.analyze(v)
}

/// The supply-independent half of [`analyze`], built once per netlist.
///
/// It holds everything the analysis derives from the netlist's structure
/// alone: each instance's library cell, each net's load capacitance, the
/// launch and capture points, and the order Kahn's algorithm visits the
/// combinational cells in (or the loop that stops it).
/// [`TimingGraph::analyze`] then only evaluates delays at one supply, so
/// a supply sweep builds one graph and runs one pass per point, with the
/// same results as calling [`analyze`] per point.
#[derive(Debug)]
pub struct TimingGraph<'a> {
    nl: &'a Netlist,
    conn: Connectivity,
    cells: Vec<&'a Cell>,
    /// Per net: wire capacitance plus the input pins it drives.
    loads: Vec<Capacitance>,
    /// Flops, latches and headers, in instance order.
    launches: Vec<InstId>,
    undriven: Vec<NetId>,
    /// Flop `D` nets in instance order, then output-port nets.
    captures: Vec<NetId>,
    /// Nets with a finite arrival before propagation, when every
    /// clock-to-Q delay is finite.
    sourced: Vec<bool>,
    /// Kahn's order of the combinational cells starting from `sourced`.
    order: Result<Vec<InstId>, StaError>,
    t_setup: Time,
    t_hold: Time,
}

impl<'a> TimingGraph<'a> {
    /// Resolves `nl` against `lib` and orders its combinational cells.
    ///
    /// # Errors
    ///
    /// Returns [`StaError::Netlist`] if the netlist does not resolve. A
    /// combinational loop is reported by [`TimingGraph::analyze`].
    pub fn new(nl: &'a Netlist, lib: &'a Library) -> Result<Self, StaError> {
        let conn = nl.connectivity(lib)?;
        let n_nets = nl.nets().len();
        let cells: Vec<&Cell> = nl
            .iter_instances()
            .map(|(_, inst)| lib.expect_cell(inst.cell()))
            .collect();
        let loads = (0..n_nets)
            .map(|i| {
                let mut load = lib.wire_cap();
                for pin in conn.loads(NetId::from_index(i)) {
                    load += cells[pin.inst.index()].input_cap();
                }
                load
            })
            .collect();

        let mut sourced = vec![false; n_nets];
        for p in nl.ports() {
            if p.direction == PortDirection::Input {
                sourced[p.net.index()] = true;
            }
        }
        let mut launches = Vec::new();
        let mut captures = Vec::new();
        let mut t_setup = Time::ZERO;
        let mut t_hold = Time::ZERO;
        for (id, inst) in nl.iter_instances() {
            let cell = cells[id.index()];
            let kind = cell.kind();
            if kind.is_combinational() {
                continue;
            }
            launches.push(id);
            for &out in &inst.connections()[kind.num_inputs()..] {
                sourced[out.index()] = true;
            }
            if kind.is_sequential() {
                t_setup = t_setup.max(cell.setup_time());
                t_hold = t_hold.max(cell.hold_time());
                // Data input is pin 0 by convention (D).
                captures.push(inst.connections()[0]);
            }
        }
        captures.extend(
            nl.ports()
                .iter()
                .filter(|p| p.direction == PortDirection::Output)
                .map(|p| p.net),
        );
        let undriven: Vec<NetId> = (0..n_nets)
            .map(NetId::from_index)
            .filter(|&n| conn.driver(n).is_none())
            .collect();
        for n in &undriven {
            sourced[n.index()] = true;
        }

        let mut graph = Self {
            nl,
            conn,
            cells,
            loads,
            launches,
            undriven,
            captures,
            sourced,
            order: Ok(Vec::new()),
            t_setup,
            t_hold,
        };
        graph.order = graph.kahn_order(|net| graph.sourced[net]);
        Ok(graph)
    }

    /// Kahn's algorithm over the combinational cells, starting from the
    /// nets `sourced` says carry a finite arrival: the cells in the order
    /// their arrivals are computed.
    fn kahn_order(&self, sourced: impl Fn(usize) -> bool) -> Result<Vec<InstId>, StaError> {
        let nl = self.nl;
        let comb: Vec<bool> = self
            .cells
            .iter()
            .map(|c| c.kind().is_combinational())
            .collect();
        let mut remaining = vec![0usize; self.cells.len()];
        let mut ready: Vec<InstId> = Vec::new();
        for (id, inst) in nl.iter_instances() {
            if !comb[id.index()] {
                continue;
            }
            let n_in = self.cells[id.index()].kind().num_inputs();
            let n_ready = inst.connections()[..n_in]
                .iter()
                .filter(|n| sourced(n.index()))
                .count();
            remaining[id.index()] = n_in - n_ready;
            if remaining[id.index()] == 0 {
                ready.push(id);
            }
        }

        let total_comb = comb.iter().filter(|&&c| c).count();
        let mut order = Vec::with_capacity(total_comb);
        while let Some(id) = ready.pop() {
            order.push(id);
            let n_in = self.cells[id.index()].kind().num_inputs();
            for &out in &nl.instance(id).connections()[n_in..] {
                // Wake readers whose inputs are now all sourced.
                for pin in self.conn.loads(out) {
                    let r = pin.inst.index();
                    if comb[r] && remaining[r] > 0 {
                        remaining[r] -= 1;
                        if remaining[r] == 0 {
                            ready.push(pin.inst);
                        }
                    }
                }
            }
        }
        if order.len() < total_comb {
            // Some combinational cell never became ready: a loop. Identify
            // a net on it for the report.
            let victim = nl
                .iter_instances()
                .find(|(id, _)| comb[id.index()] && remaining[id.index()] > 0)
                .map(|(_, inst)| nl.net(inst.connections()[0]).name().to_string())
                .unwrap_or_default();
            return Err(StaError::CombinationalLoop { net: victim });
        }
        Ok(order)
    }

    /// Runs longest-path timing analysis at supply `v` (nominal
    /// temperature); the same result as [`analyze`].
    ///
    /// # Errors
    ///
    /// Returns [`StaError::CombinationalLoop`] if combinational cells form
    /// a cycle.
    pub fn analyze(&self, v: Voltage) -> Result<TimingReport, StaError> {
        let nl = self.nl;
        let n_nets = self.loads.len();

        // Per-net arrival time (ps) and the instance that set it.
        let mut arrival: Vec<f64> = vec![f64::NEG_INFINITY; n_nets];
        let mut from: Vec<Option<InstId>> = vec![None; n_nets];

        // Sources: primary inputs at t=0; sequential outputs at clock-to-Q;
        // header rails and undriven nets at t=0 (constants).
        for p in nl.ports() {
            if p.direction == PortDirection::Input {
                arrival[p.net.index()] = 0.0;
            }
        }
        for &id in &self.launches {
            let cell = self.cells[id.index()];
            let kind = cell.kind();
            let outs = &nl.instance(id).connections()[kind.num_inputs()..];
            if kind.is_sequential() {
                for &q in outs {
                    let clk_q = cell.delay(v, self.loads[q.index()]);
                    if clk_q.as_ps() > arrival[q.index()] {
                        arrival[q.index()] = clk_q.as_ps();
                        from[q.index()] = Some(id);
                    }
                }
            } else {
                for &out in outs {
                    arrival[out.index()] = arrival[out.index()].max(0.0);
                }
            }
        }
        for n in &self.undriven {
            // Undriven-but-read nets would fail validation; treat as t=0
            // so analysis is robust on partial designs.
            if arrival[n.index()] == f64::NEG_INFINITY {
                arrival[n.index()] = 0.0;
            }
        }

        // A clock-to-Q delay that is not finite (an uploaded table can
        // hold absurd values) leaves its readers unsourced; the order is
        // then rebuilt from the arrivals as they stand.
        let rebuilt;
        let order = if arrival
            .iter()
            .zip(&self.sourced)
            .all(|(a, &s)| a.is_finite() == s)
        {
            self.order.as_ref().map_err(Clone::clone)?
        } else {
            rebuilt = self.kahn_order(|net| arrival[net].is_finite())?;
            &rebuilt
        };
        for &id in order {
            let cell = self.cells[id.index()];
            let conns = nl.instance(id).connections();
            let n_in = cell.kind().num_inputs();
            let in_arr = conns[..n_in]
                .iter()
                .map(|n| arrival[n.index()])
                .fold(0.0_f64, f64::max);
            for &out in &conns[n_in..] {
                let d = cell.delay(v, self.loads[out.index()]);
                let t = in_arr + d.as_ps();
                if t > arrival[out.index()] {
                    arrival[out.index()] = t;
                    from[out.index()] = Some(id);
                }
            }
        }

        let mut worst = 0.0_f64;
        let mut worst_net: Option<NetId> = None;
        for &net in &self.captures {
            if arrival[net.index()].is_finite() && arrival[net.index()] > worst {
                worst = arrival[net.index()];
                worst_net = Some(net);
            }
        }

        // Trace the critical path backwards.
        let mut critical_path = Vec::new();
        let mut cursor = worst_net;
        while let Some(net) = cursor {
            match from[net.index()] {
                Some(inst_id) => {
                    critical_path.push(inst_id);
                    // Predecessor: the input of `inst_id` with max arrival.
                    let kind = self.cells[inst_id.index()].kind();
                    cursor = nl.instance(inst_id).connections()[..kind.num_inputs()]
                        .iter()
                        .copied()
                        .filter(|n| arrival[n.index()].is_finite())
                        .max_by(|a, b| arrival[a.index()].total_cmp(&arrival[b.index()]));
                    // Stop at sequential launch points.
                    if kind.is_sequential() {
                        cursor = None;
                    }
                }
                None => cursor = None,
            }
        }
        critical_path.reverse();

        let t_eval = Time::from_ps(worst);
        Ok(TimingReport {
            voltage: v,
            t_eval,
            t_setup: self.t_setup,
            t_hold: self.t_hold,
            min_period: t_eval + self.t_setup,
            critical_path,
        })
    }
}

/// Maximum operating frequency of `nl` at supply `v`.
///
/// # Errors
///
/// Propagates [`analyze`]'s errors.
pub fn f_max(nl: &Netlist, lib: &Library, v: Voltage) -> Result<Frequency, StaError> {
    Ok(analyze(nl, lib, v)?.f_max())
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;

    fn lib() -> Library {
        Library::ninety_nm()
    }

    /// inv chain of length n between an input and an output port.
    fn chain(n: usize) -> Netlist {
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
    fn analyze_limited_refuses_oversized_designs() {
        let lib = lib();
        let v = Voltage::from_mv(600.0);
        let nl = chain(8);
        let err = analyze_limited(&nl, &lib, v, &StaLimits { max_instances: 4 })
            .expect_err("8 > 4 must refuse");
        assert_eq!(
            err,
            StaError::TooLarge {
                instances: 8,
                limit: 4
            }
        );
        // Within limits the result is the plain analysis, bit-identical.
        let limited = analyze_limited(&nl, &lib, v, &StaLimits::default()).unwrap();
        assert_eq!(limited, analyze(&nl, &lib, v).unwrap());
    }

    #[test]
    fn longer_chains_take_longer() {
        let lib = lib();
        let v = Voltage::from_mv(600.0);
        let t4 = analyze(&chain(4), &lib, v).unwrap().t_eval;
        let t8 = analyze(&chain(8), &lib, v).unwrap().t_eval;
        assert!(t8.as_ps() > 1.9 * t4.as_ps(), "{t4} vs {t8}");
    }

    #[test]
    fn critical_path_is_reported_in_order() {
        let lib = lib();
        let nl = chain(5);
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert_eq!(r.critical_path.len(), 5);
        let names: Vec<&str> = r
            .critical_path
            .iter()
            .map(|&id| nl.instance(id).name())
            .collect();
        assert_eq!(names, ["u0", "u1", "u2", "u3", "u4"]);
    }

    #[test]
    fn flop_to_flop_path_includes_clk_q_and_setup() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q1 = nl.add_fresh_net();
        let n1 = nl.add_fresh_net();
        let q2 = nl.add_output("q2");
        nl.add_instance("ff1", "DFF_X1", &[d, clk, q1]).unwrap();
        nl.add_instance("inv", "INV_X1", &[q1, n1]).unwrap();
        nl.add_instance("ff2", "DFF_X1", &[n1, clk, q2]).unwrap();
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_setup.as_ps() > 0.0, "flop endpoints impose setup");
        assert!(r.t_hold.as_ps() > 0.0);
        // Path = clk→q + inv > inv alone.
        let inv_only = analyze(&chain(1), &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_eval.as_ps() > inv_only.t_eval.as_ps());
        assert!(r.min_period.as_ps() > r.t_eval.as_ps());
    }

    #[test]
    fn lower_supply_means_lower_fmax() {
        let lib = lib();
        let nl = chain(16);
        let f6 = f_max(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        let f3 = f_max(&nl, &lib, Voltage::from_mv(310.0)).unwrap();
        let ratio = f6 / f3;
        assert!(
            (4.0..10.0).contains(&ratio),
            "0.6 V / 0.31 V f_max ratio {ratio:.2} (calibration band)"
        );
    }

    #[test]
    fn combinational_loop_is_detected() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_net("loop1");
        let n2 = nl.add_net("loop2");
        let y = nl.add_output("y");
        nl.add_instance("u1", "NAND2_X1", &[a, n2, n1]).unwrap();
        nl.add_instance("u2", "INV_X1", &[n1, n2]).unwrap();
        nl.add_instance("u3", "INV_X1", &[n1, y]).unwrap();
        assert!(matches!(
            analyze(&nl, &lib, Voltage::from_mv(600.0)),
            Err(StaError::CombinationalLoop { .. })
        ));
    }

    #[test]
    fn infinite_clk_to_q_leaves_readers_unsourced() {
        // A 40 V threshold shift zeroes every on-current, so every delay
        // is infinite: the launching flop's output never gets a finite
        // arrival and the inverter it feeds is never sourced, although
        // the netlist itself is acyclic.
        let lib = lib().vt_shifted(Voltage::from_v(40.0));
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let d = nl.add_input("d");
        let q1 = nl.add_net("q1");
        let n1 = nl.add_fresh_net();
        let q2 = nl.add_output("q2");
        nl.add_instance("ff1", "DFF_X1", &[d, clk, q1]).unwrap();
        nl.add_instance("inv", "INV_X1", &[q1, n1]).unwrap();
        nl.add_instance("ff2", "DFF_X1", &[n1, clk, q2]).unwrap();
        let graph = TimingGraph::new(&nl, &lib).unwrap();
        assert!(graph.order.is_ok());
        assert_eq!(
            graph.analyze(Voltage::from_mv(600.0)),
            Err(StaError::CombinationalLoop {
                net: "q1".to_string()
            })
        );
    }

    #[test]
    fn flops_legally_break_cycles() {
        let lib = lib();
        let mut nl = Netlist::new("t");
        let clk = nl.add_input("clk");
        let q = nl.add_net("q");
        let nq = nl.add_net("nq");
        nl.add_instance("ff", "DFF_X1", &[nq, clk, q]).unwrap();
        nl.add_instance("inv", "INV_X1", &[q, nq]).unwrap();
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        assert!(r.t_eval.as_ps() > 0.0);
    }

    #[test]
    fn t_idle_shrinks_with_frequency() {
        let lib = lib();
        let nl = chain(8);
        let r = analyze(&nl, &lib, Voltage::from_mv(600.0)).unwrap();
        let slow = r.t_idle(Frequency::from_khz(10.0));
        let fast = r.t_idle(r.f_max());
        assert!(slow.as_us() > 99.0, "10 kHz cycle is nearly all idle");
        assert!(fast.as_ps() < 1.0, "no idle at f_max");
    }
}
