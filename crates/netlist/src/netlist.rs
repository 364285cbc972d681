//! The core netlist data structure.

use std::collections::HashMap;
use std::fmt;

use scpg_liberty::Library;

use crate::error::NetlistError;
use crate::graph::Connectivity;
use crate::stats::DesignStats;

/// Index of a net within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a raw index previously obtained via
    /// [`NetId::index`]. Ids are dense positions into
    /// [`Netlist::nets`], so this is the inverse of `index`.
    pub fn from_index(i: usize) -> Self {
        NetId(i as u32)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "net#{}", self.0)
    }
}

/// Index of an instance within its [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub(crate) u32);

impl InstId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "inst#{}", self.0)
    }
}

/// Direction of a top-level port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDirection {
    /// Driven from outside the design.
    Input,
    /// Observed from outside the design.
    Output,
}

/// A top-level port bound to a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name (same as its net's name).
    pub name: String,
    /// Direction.
    pub direction: PortDirection,
    /// The net this port exposes.
    pub net: NetId,
}

/// A named net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    name: String,
}

impl Net {
    /// The net's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// Power-domain membership of an instance.
///
/// SCPG separates the design into an always-on sequential domain and a
/// header-gated combinational domain (paper Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Domain {
    /// Connected directly to the supply rail.
    #[default]
    AlwaysOn,
    /// Connected to the virtual rail behind the sleep header.
    Gated,
}

/// A cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Instance {
    name: String,
    cell: String,
    conns: Vec<NetId>,
    domain: Domain,
}

impl Instance {
    /// The instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library cell name this instance references.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// Pin connections, in the cell's pin order (inputs, then outputs).
    pub fn connections(&self) -> &[NetId] {
        &self.conns
    }

    /// The power domain this instance belongs to.
    pub fn domain(&self) -> Domain {
        self.domain
    }
}

/// A flat gate-level netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    nets: Vec<Net>,
    instances: Vec<Instance>,
    ports: Vec<Port>,
    net_index: HashMap<String, NetId>,
    inst_index: HashMap<String, InstId>,
    fresh: u64,
}

impl Netlist {
    /// Creates an empty netlist with the given module name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            nets: Vec::new(),
            instances: Vec::new(),
            ports: Vec::new(),
            net_index: HashMap::new(),
            inst_index: HashMap::new(),
            fresh: 0,
        }
    }

    /// The module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a net, or returns the existing one with this name.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        if let Some(&id) = self.net_index.get(&name) {
            return id;
        }
        let id = NetId(self.nets.len() as u32);
        self.net_index.insert(name.clone(), id);
        self.nets.push(Net { name });
        id
    }

    /// Adds a fresh, uniquely named internal net (`_n0`, `_n1`, ...).
    pub fn add_fresh_net(&mut self) -> NetId {
        loop {
            let name = format!("_n{}", self.fresh);
            self.fresh += 1;
            if !self.net_index.contains_key(&name) {
                return self.add_net(name);
            }
        }
    }

    /// Adds an input port (creating its net as needed).
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone());
        self.ports.push(Port {
            name,
            direction: PortDirection::Input,
            net,
        });
        net
    }

    /// Adds an output port (creating its net as needed).
    pub fn add_output(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone());
        self.ports.push(Port {
            name,
            direction: PortDirection::Output,
            net,
        });
        net
    }

    /// Adds a cell instance.
    ///
    /// `conns` lists one net per cell pin, inputs first then outputs, in
    /// the order defined by the cell's [`scpg_liberty::CellKind`]. Pin
    /// counts are checked later by [`Netlist::validate`] (the library is
    /// not needed here).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if an instance with this
    /// name already exists.
    pub fn add_instance(
        &mut self,
        name: impl Into<String>,
        cell: impl Into<String>,
        conns: &[NetId],
    ) -> Result<InstId, NetlistError> {
        let name = name.into();
        if self.inst_index.contains_key(&name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let id = InstId(self.instances.len() as u32);
        self.inst_index.insert(name.clone(), id);
        self.instances.push(Instance {
            name,
            cell: cell.into(),
            conns: conns.to_vec(),
            domain: Domain::AlwaysOn,
        });
        Ok(id)
    }

    /// All nets.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// All ports.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// Looks up a net by name.
    pub fn net_by_name(&self, name: &str) -> Option<NetId> {
        self.net_index.get(name).copied()
    }

    /// Looks up an instance by name.
    pub fn instance_by_name(&self, name: &str) -> Option<InstId> {
        self.inst_index.get(name).copied()
    }

    /// The net a given id refers to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// The instance a given id refers to.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.index()]
    }

    /// Sets the power domain of an instance.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn set_domain(&mut self, id: InstId, domain: Domain) {
        self.instances[id.index()].domain = domain;
    }

    /// Swaps the library cell an instance is bound to.
    ///
    /// The new cell must share the old cell's
    /// [`CellKind`](scpg_liberty::CellKind) pin interface (same pin count
    /// and order) — the connection list is kept as-is.
    /// This is the primitive behind in-place cell substitution (e.g. a
    /// technique swapping gates for derived leakage-controlled variants);
    /// callers re-[`validate`](Netlist::validate) afterwards.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist.
    pub fn set_cell(&mut self, id: InstId, cell: impl Into<String>) {
        self.instances[id.index()].cell = cell.into();
    }

    /// Rewires one pin of an instance to a different net.
    ///
    /// This is the primitive behind isolation insertion: the SCPG flow
    /// redirects a domain-crossing sink pin to the output of a freshly
    /// inserted isolation cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not from this netlist or `pin` is out of range.
    pub fn rewire_pin(&mut self, id: InstId, pin: usize, net: NetId) {
        self.instances[id.index()].conns[pin] = net;
    }

    /// Drops every instance for which `keep` returns `false`, rebuilding
    /// the instance table.
    ///
    /// All previously obtained [`InstId`]s are invalidated; nets are left
    /// untouched (a dangling net is harmless and ignored by analyses).
    /// Returns the number of removed instances. Used by the synthesiser's
    /// dead-gate sweep.
    pub fn retain_instances(&mut self, keep: impl Fn(InstId, &Instance) -> bool) -> usize {
        let before = self.instances.len();
        let mut kept = Vec::with_capacity(before);
        for (i, inst) in self.instances.drain(..).enumerate() {
            if keep(InstId(i as u32), &inst) {
                kept.push(inst);
            }
        }
        self.instances = kept;
        self.inst_index = self
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (inst.name.clone(), InstId(i as u32)))
            .collect();
        before - self.instances.len()
    }

    /// Iterator over `(InstId, &Instance)` pairs.
    pub fn iter_instances(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.instances
            .iter()
            .enumerate()
            .map(|(i, inst)| (InstId(i as u32), inst))
    }

    /// Builds the driver/load tables for this netlist.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] or
    /// [`NetlistError::PinCountMismatch`] if an instance does not resolve
    /// against `lib`, and [`NetlistError::MultipleDrivers`] on contention.
    pub fn connectivity(&self, lib: &Library) -> Result<Connectivity, NetlistError> {
        Connectivity::build(self, lib)
    }

    /// Validates the netlist against a library.
    ///
    /// Checks cell resolution, pin counts, single drivers and that every
    /// read net is driven (by an instance output or an input port).
    ///
    /// # Errors
    ///
    /// Returns the first [`NetlistError`] encountered.
    pub fn validate(&self, lib: &Library) -> Result<(), NetlistError> {
        let conn = self.connectivity(lib)?;
        for (net_id, net) in self.nets.iter().enumerate() {
            let id = NetId(net_id as u32);
            let has_driver = conn.driver(id).is_some()
                || self
                    .ports
                    .iter()
                    .any(|p| p.net == id && p.direction == PortDirection::Input);
            let is_read = !conn.loads(id).is_empty()
                || self
                    .ports
                    .iter()
                    .any(|p| p.net == id && p.direction == PortDirection::Output);
            if is_read && !has_driver {
                return Err(NetlistError::UndrivenNet {
                    net: net.name().to_string(),
                });
            }
        }
        Ok(())
    }

    /// Computes size/area statistics against a library.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownCell`] if an instance does not
    /// resolve against `lib`.
    pub fn stats(&self, lib: &Library) -> DesignStats {
        DesignStats::of(self, lib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scpg_liberty::Library;

    fn lib() -> Library {
        Library::ninety_nm()
    }

    #[test]
    fn nets_are_deduplicated_by_name() {
        let mut nl = Netlist::new("t");
        let a = nl.add_net("a");
        let a2 = nl.add_net("a");
        assert_eq!(a, a2);
        assert_eq!(nl.nets().len(), 1);
    }

    #[test]
    fn fresh_nets_never_collide() {
        let mut nl = Netlist::new("t");
        nl.add_net("_n0");
        let f = nl.add_fresh_net();
        assert_ne!(nl.net(f).name(), "_n0");
    }

    #[test]
    fn duplicate_instance_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u1", "INV_X1", &[a, y]).unwrap();
        let err = nl.add_instance("u1", "INV_X1", &[a, y]).unwrap_err();
        assert!(matches!(err, NetlistError::DuplicateName { .. }));
    }

    #[test]
    fn validate_accepts_well_formed_design() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let n1 = nl.add_fresh_net();
        let y = nl.add_output("y");
        nl.add_instance("u1", "NAND2_X1", &[a, b, n1]).unwrap();
        nl.add_instance("u2", "INV_X1", &[n1, y]).unwrap();
        nl.validate(&lib()).unwrap();
    }

    #[test]
    fn validate_rejects_unknown_cell() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u1", "MYSTERY", &[a, y]).unwrap();
        assert!(matches!(
            nl.validate(&lib()),
            Err(NetlistError::UnknownCell { .. })
        ));
    }

    #[test]
    fn validate_rejects_pin_mismatch() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u1", "NAND2_X1", &[a, y]).unwrap();
        assert!(matches!(
            nl.validate(&lib()),
            Err(NetlistError::PinCountMismatch {
                expected: 3,
                found: 2,
                ..
            })
        ));
    }

    #[test]
    fn validate_rejects_contention() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        nl.add_instance("u1", "INV_X1", &[a, y]).unwrap();
        nl.add_instance("u2", "INV_X1", &[a, y]).unwrap();
        assert!(matches!(
            nl.validate(&lib()),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn validate_rejects_floating_reads() {
        let mut nl = Netlist::new("t");
        let ghost = nl.add_net("ghost");
        let y = nl.add_output("y");
        nl.add_instance("u1", "INV_X1", &[ghost, y]).unwrap();
        assert!(matches!(
            nl.validate(&lib()),
            Err(NetlistError::UndrivenNet { .. })
        ));
    }

    #[test]
    fn domains_default_to_always_on_and_can_be_retagged() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.add_output("y");
        let u = nl.add_instance("u1", "INV_X1", &[a, y]).unwrap();
        assert_eq!(nl.instance(u).domain(), Domain::AlwaysOn);
        nl.set_domain(u, Domain::Gated);
        assert_eq!(nl.instance(u).domain(), Domain::Gated);
    }

    #[test]
    fn rewire_pin_redirects_connection() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.add_output("y");
        let u = nl.add_instance("u1", "INV_X1", &[a, y]).unwrap();
        nl.rewire_pin(u, 0, b);
        assert_eq!(nl.instance(u).connections()[0], b);
    }
}
