//! Event-driven 4-state gate-level simulation.
//!
//! This crate stands in for Mentor Modelsim in the paper's methodology:
//! it simulates a technology-mapped [`scpg_netlist::Netlist`] with
//! per-cell propagation delays, records a VCD and per-net switching
//! activity, and — crucially for SCPG — models **power gating**:
//!
//! * a [`scpg_liberty::CellKind::Header`] instance controls a virtual
//!   rail; when its `SLEEP` input rises the rail collapses after a
//!   configurable delay and every [`Domain::Gated`] cell's outputs are
//!   corrupted to `X`;
//! * when `SLEEP` falls the rail restores and the gated cloud re-evaluates,
//!   reproducing the `T_PGStart` / `T_eval` sequence of the paper's Fig. 4;
//! * isolation cells (always-on) clamp domain outputs during all of this,
//!   so the sequential domain never sees an `X` — exactly the property the
//!   paper's isolation circuit exists to guarantee.
//!
//! Timing is integer picoseconds. Cell delays are computed once per
//! instance from the library at the chosen
//! [`PvtCorner`](scpg_liberty::PvtCorner).
//!
//! [`Domain::Gated`]: scpg_netlist::Domain::Gated
//!
//! # Example
//!
//! ```
//! use scpg_liberty::{Library, Logic};
//! use scpg_netlist::Netlist;
//! use scpg_sim::{SimConfig, Simulator};
//!
//! let lib = Library::ninety_nm();
//! let mut nl = Netlist::new("toy");
//! let a = nl.add_input("a");
//! let y = nl.add_output("y");
//! nl.add_instance("u1", "INV_X1", &[a, y])?;
//!
//! let mut sim = Simulator::new(&nl, &lib, SimConfig::default())?;
//! sim.set_input(a, Logic::One);
//! sim.run_until_quiet(10_000);
//! assert_eq!(sim.value(y), Logic::Zero);
//! # Ok::<(), scpg_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]

mod bitparallel;
mod compile;
mod counters;
mod engine;
mod levelize;
mod reference;
mod settled;
mod testbench;
mod truth;
mod wheel;

pub use bitparallel::BitParallelSimulator;
pub use compile::CompiledNetlist;
pub use counters::{
    bitpar_cone_skips_total, bitpar_lanes_total, bitpar_totals, bitpar_words_evaluated_total,
    events_total, gate_evals_total, totals, wheel_advance_total, wheel_overflow_total,
    BitparCounters, SimCounters,
};
pub use engine::{SimConfig, SimResult, Simulator};
pub use levelize::LevelizedNetlist;
pub use reference::ReferenceSimulator;
pub use settled::{
    run_settled, EngineChoice, NetChange, PackedStimulus, Phase, SettledEngine, SettledRun,
};
pub use testbench::ClockedTestbench;
