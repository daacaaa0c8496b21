//! The gate-level netlist graph: instances, nets, ports, hierarchy labels,
//! validation, topological ordering and bit-parallel simulation.

use crate::cell::{CellFunction, CellId, Library};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::Arc;

/// Index of a net inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub(crate) u32);

impl NetId {
    /// Position of the net in the netlist's net table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Index of an instance inside a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub(crate) u32);

impl InstId {
    /// Position of the instance in the netlist's instance table.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an instance id from a raw index.
    ///
    /// Useful for crates that store per-instance side tables (placements,
    /// activities) indexed by position.
    pub fn from_index(i: usize) -> InstId {
        InstId(i as u32)
    }
}

/// What drives a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetDriver {
    /// Driven by the `usize`-th primary input.
    PrimaryInput(usize),
    /// Driven by an instance's output pin.
    Instance(InstId),
}

/// A net: one driver, any number of instance sinks, possibly a primary
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    pub(crate) name: Box<str>,
    pub(crate) driver: Option<NetDriver>,
    /// `(instance, input-pin-position)` pairs fed by this net.
    pub(crate) sinks: Vec<(InstId, u32)>,
}

impl Net {
    /// Net name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The driver, if connected.
    pub fn driver(&self) -> Option<NetDriver> {
        self.driver
    }

    /// Instance input pins fed by this net, as `(instance, pin position)`.
    pub fn sinks(&self) -> &[(InstId, u32)] {
        &self.sinks
    }

    /// Fanout count (instance sinks only; primary outputs are not counted).
    pub fn fanout(&self) -> usize {
        self.sinks.len()
    }
}

/// A cell instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    pub(crate) name: Box<str>,
    pub(crate) cell: CellId,
    /// Input nets in pin order; the arity is fixed when the instance is
    /// created, so there is no spare capacity to carry.
    pub(crate) inputs: Box<[NetId]>,
    pub(crate) output: NetId,
    /// Hierarchy label: which named block this instance belongs to
    /// (`None` = top level). Used by hierarchical placement and the panel's
    /// flat-vs-hierarchical comparison.
    pub(crate) block: Option<u32>,
}

impl Instance {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The library cell this instantiates.
    pub fn cell(&self) -> CellId {
        self.cell
    }

    /// Input nets in pin order.
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }

    /// Hierarchy block index, if assigned.
    pub fn block(&self) -> Option<u32> {
        self.block
    }
}

/// Errors produced by [`Netlist::validate`] and the builder methods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A net has two drivers.
    MultipleDrivers(String),
    /// A net that is read has no driver.
    UndrivenNet(String),
    /// An instance was built with the wrong number of input nets.
    ArityMismatch { instance: String, expected: usize, got: usize },
    /// The combinational core has a cycle through these instance names.
    CombinationalCycle(Vec<String>),
    /// Name lookup failed.
    UnknownName(String),
}

impl std::fmt::Display for NetlistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetlistError::MultipleDrivers(n) => write!(f, "net `{n}` has multiple drivers"),
            NetlistError::UndrivenNet(n) => write!(f, "net `{n}` is read but never driven"),
            NetlistError::ArityMismatch { instance, expected, got } => {
                write!(f, "instance `{instance}` expects {expected} inputs, got {got}")
            }
            NetlistError::CombinationalCycle(path) => {
                write!(f, "combinational cycle through: {}", path.join(" -> "))
            }
            NetlistError::UnknownName(n) => write!(f, "unknown name `{n}`"),
        }
    }
}

impl std::error::Error for NetlistError {}

/// A flat gate-level netlist bound to a [`Library`].
///
/// # Examples
///
/// Build a 1-bit half adder and simulate it:
///
/// ```
/// use eda_netlist::{CellFunction, Library, Netlist};
///
/// # fn main() -> Result<(), eda_netlist::NetlistError> {
/// let mut n = Netlist::new("half_adder");
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let sum = n.add_gate_fn("u_sum", CellFunction::Xor2, &[a, b])?;
/// let carry = n.add_gate_fn("u_cy", CellFunction::And(2), &[a, b])?;
/// n.add_output("sum", sum);
/// n.add_output("carry", carry);
/// n.validate()?;
///
/// let (outs, _state) = n.simulate(&[true, true], &[]);
/// assert_eq!(outs, vec![false, true]); // 1+1 = 10b
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) library: Arc<Library>,
    pub(crate) instances: Vec<Instance>,
    pub(crate) nets: Vec<Net>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<(String, NetId)>,
    pub(crate) blocks: BlockTable,
    pub(crate) net_index: NetIndex,
}

/// Hierarchy block names in creation order — a block's index is its
/// position — with a name → index map beside them, so labelling an instance
/// costs one hash lookup instead of a scan over every block name.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockTable {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl BlockTable {
    /// Adopts a decoded name list as is; a repeated name resolves to its
    /// first position.
    pub(crate) fn from_names(names: Vec<String>) -> BlockTable {
        let mut index = HashMap::with_capacity(names.len());
        for (i, name) in names.iter().enumerate() {
            index.entry(name.clone()).or_insert(i as u32);
        }
        BlockTable { names, index }
    }

    /// Index of `name`, appending it as a new block on first use.
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&idx) = self.index.get(name) {
            return idx;
        }
        let idx = self.names.len() as u32;
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), idx);
        idx
    }
}

/// The net-name index: an insert-only open-addressing table of net ids.
///
/// A lookup compares against the name the [`Net`] itself holds, so each net
/// name is stored once. Slots are a power of two, at most half full, probed
/// linearly from the name's hash; [`EMPTY_SLOT`] marks a free one. The hash
/// is std's randomly keyed one, as in a `HashMap`, because names arrive from
/// parsed text. Nets are never renamed or removed, so there is no deletion.
#[derive(Debug, Clone, Default)]
pub(crate) struct NetIndex {
    slots: Vec<u32>,
    len: usize,
    hasher: RandomState,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl NetIndex {
    /// An empty index with room for `n` names before it grows.
    pub(crate) fn with_capacity(n: usize) -> NetIndex {
        let slots = if n == 0 { Vec::new() } else { vec![EMPTY_SLOT; (2 * n).next_power_of_two()] };
        NetIndex { slots, len: 0, hasher: RandomState::new() }
    }

    fn hash(&self, name: &str) -> usize {
        self.hasher.hash_one(name) as usize
    }

    /// The net named `name`, or the free slot where it would go.
    fn probe(&self, nets: &[Net], name: &str) -> Result<NetId, usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.hash(name) & mask;
        loop {
            match self.slots[i] {
                EMPTY_SLOT => return Err(i),
                id if *nets[id as usize].name == *name => return Ok(NetId(id)),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// The net named `name`, if any.
    pub(crate) fn find(&self, nets: &[Net], name: &str) -> Option<NetId> {
        if self.len == 0 {
            return None;
        }
        self.probe(nets, name).ok()
    }

    /// Indexes net `id` under its name. If another net already holds that
    /// name, nothing is inserted and that net's id comes back as the error.
    pub(crate) fn insert(&mut self, nets: &[Net], id: NetId) -> Result<(), NetId> {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(nets);
        }
        let slot = match self.probe(nets, &nets[id.index()].name) {
            Ok(held) => return Err(held),
            Err(slot) => slot,
        };
        self.slots[slot] = id.0;
        self.len += 1;
        Ok(())
    }

    /// Doubles the slot array and re-places every id; names are distinct,
    /// so each one only needs a free slot.
    fn grow(&mut self, nets: &[Net]) {
        let size = (2 * self.slots.len()).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; size]);
        let mask = size - 1;
        for id in old.into_iter().filter(|&id| id != EMPTY_SLOT) {
            let mut i = self.hash(&nets[id as usize].name) & mask;
            while self.slots[i] != EMPTY_SLOT {
                i = (i + 1) & mask;
            }
            self.slots[i] = id;
        }
    }
}

impl Netlist {
    /// Creates an empty netlist bound to [`Library::generic`].
    pub fn new(name: impl Into<String>) -> Netlist {
        Netlist::with_library(name, Library::generic())
    }

    /// Creates an empty netlist bound to the given library.
    pub fn with_library(name: impl Into<String>, library: Arc<Library>) -> Netlist {
        Netlist {
            name: name.into(),
            library,
            instances: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            blocks: BlockTable::default(),
            net_index: NetIndex::default(),
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The bound library.
    pub fn library(&self) -> &Arc<Library> {
        &self.library
    }

    /// Adds a fresh net. Names are made unique by suffixing if needed.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let mut name = name.into();
        if self.find_net(&name).is_some() {
            let mut i = 1;
            while self.find_net(&format!("{name}_{i}")).is_some() {
                i += 1;
            }
            name = format!("{name}_{i}");
        }
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net { name: name.into_boxed_str(), driver: None, sinks: Vec::new() });
        let fresh = self.net_index.insert(&self.nets, id);
        debug_assert!(fresh.is_ok(), "add_net made a name unique first");
        id
    }

    /// Adds a primary input and its net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.add_net(name);
        let pi_index = self.inputs.len();
        self.nets[id.index()].driver = Some(NetDriver::PrimaryInput(pi_index));
        self.inputs.push(id);
        id
    }

    /// Marks a net as a primary output.
    pub fn add_output(&mut self, name: impl Into<String>, net: NetId) {
        self.outputs.push((name.into(), net));
    }

    /// Adds an instance of `cell` driving a fresh output net, returning the
    /// output net id.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] if `inputs` does not match the
    /// cell's pin count.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let name = name.into();
        let expected = self.library.cell(cell).function.num_inputs();
        if inputs.len() != expected {
            return Err(NetlistError::ArityMismatch { instance: name, expected, got: inputs.len() });
        }
        let out = self.add_net(format!("{name}_out"));
        let inst = InstId(self.instances.len() as u32);
        for (pin, &n) in inputs.iter().enumerate() {
            self.nets[n.index()].sinks.push((inst, pin as u32));
        }
        self.nets[out.index()].driver = Some(NetDriver::Instance(inst));
        self.instances.push(Instance {
            name: name.into_boxed_str(),
            cell,
            inputs: inputs.into(),
            output: out,
            block: None,
        });
        Ok(out)
    }

    /// Adds an instance of `cell` driving an existing, not-yet-driven net.
    ///
    /// Used by parsers and rewriters that create nets before instances.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::ArityMismatch`] on pin-count mismatch or
    /// [`NetlistError::MultipleDrivers`] if `output` already has a driver.
    pub fn add_gate_with_output(
        &mut self,
        name: impl Into<String>,
        cell: CellId,
        inputs: &[NetId],
        output: NetId,
    ) -> Result<InstId, NetlistError> {
        let name = name.into();
        let expected = self.library.cell(cell).function.num_inputs();
        if inputs.len() != expected {
            return Err(NetlistError::ArityMismatch { instance: name, expected, got: inputs.len() });
        }
        if self.nets[output.index()].driver.is_some() {
            return Err(NetlistError::MultipleDrivers(self.nets[output.index()].name.to_string()));
        }
        let inst = InstId(self.instances.len() as u32);
        for (pin, &n) in inputs.iter().enumerate() {
            self.nets[n.index()].sinks.push((inst, pin as u32));
        }
        self.nets[output.index()].driver = Some(NetDriver::Instance(inst));
        self.instances.push(Instance { name: name.into_boxed_str(), cell, inputs: inputs.into(), output, block: None });
        Ok(inst)
    }

    /// Like [`Netlist::add_gate`] but looks the cell up by function in the
    /// bound library.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownName`] if the library has no cell with
    /// this function, or an arity error as in [`Netlist::add_gate`].
    pub fn add_gate_fn(
        &mut self,
        name: impl Into<String>,
        function: CellFunction,
        inputs: &[NetId],
    ) -> Result<NetId, NetlistError> {
        let cell = self
            .library
            .find_function(function)
            .ok_or_else(|| NetlistError::UnknownName(format!("{function:?}")))?;
        self.add_gate(name, cell, inputs)
    }

    /// Reconnects one input pin of an instance to a different net, updating
    /// sink lists on both nets.
    ///
    /// # Panics
    ///
    /// Panics if `pin` is out of range for the instance.
    pub fn replace_input(&mut self, inst: InstId, pin: usize, net: NetId) {
        let old = self.instances[inst.index()].inputs[pin];
        if old == net {
            return;
        }
        let sinks = &mut self.nets[old.index()].sinks;
        if let Some(pos) = sinks.iter().position(|&(s, p)| s == inst && p as usize == pin) {
            sinks.remove(pos);
        }
        self.nets[net.index()].sinks.push((inst, pin as u32));
        self.instances[inst.index()].inputs[pin] = net;
    }

    /// Assigns an instance to a named hierarchy block, creating the block on
    /// first use.
    pub fn assign_block(&mut self, inst: InstId, block_name: &str) {
        self.instances[inst.index()].block = Some(self.blocks.intern(block_name));
    }

    /// Names of all hierarchy blocks.
    pub fn block_names(&self) -> &[String] {
        &self.blocks.names
    }

    /// All instances with ids.
    pub fn instances(&self) -> impl Iterator<Item = (InstId, &Instance)> {
        self.instances.iter().enumerate().map(|(i, inst)| (InstId(i as u32), inst))
    }

    /// All nets with ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i as u32), n))
    }

    /// Looks up one instance.
    pub fn instance(&self, id: InstId) -> &Instance {
        &self.instances[id.index()]
    }

    /// Looks up one net.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Finds a net by name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_index.find(&self.nets, name)
    }

    /// Number of instances.
    pub fn num_instances(&self) -> usize {
        self.instances.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Primary input nets in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(name, net)` pairs.
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Total cell area in µm² at the library's reference node.
    pub fn area_um2(&self) -> f64 {
        self.instances.iter().map(|i| self.library.cell(i.cell).area_um2).sum()
    }

    /// Total leakage in nW at the library's reference node.
    pub fn leakage_nw(&self) -> f64 {
        self.instances.iter().map(|i| self.library.cell(i.cell).leakage_nw).sum()
    }

    /// Instance ids of all sequential cells, in instance order.
    pub fn flops(&self) -> Vec<InstId> {
        self.instances()
            .filter(|(_, i)| self.library.cell(i.cell).function.is_sequential())
            .map(|(id, _)| id)
            .collect()
    }

    /// Checks structural sanity: single drivers, correct arity, no
    /// combinational cycles, outputs driven. The cycle check is
    /// [`Netlist::topo_order`], and a valid netlist returns the order it
    /// computed, so a caller that walks the design need not order it again.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<Vec<InstId>, NetlistError> {
        for inst in &self.instances {
            let expected = self.library.cell(inst.cell).function.num_inputs();
            if inst.inputs.len() != expected {
                return Err(NetlistError::ArityMismatch {
                    instance: inst.name.to_string(),
                    expected,
                    got: inst.inputs.len(),
                });
            }
        }
        for net in &self.nets {
            if net.driver.is_none() && (!net.sinks.is_empty() || self.outputs.iter().any(|(_, o)| self.nets[o.index()].name == net.name)) {
                return Err(NetlistError::UndrivenNet(net.name.to_string()));
            }
        }
        self.topo_order()
    }

    /// Topological order of the combinational instances (flip-flop outputs
    /// are treated as sources; flip-flop/clock-gate inputs as sinks).
    /// Sequential and physical-only instances appear at the end.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the combinational core
    /// is cyclic.
    pub fn topo_order(&self) -> Result<Vec<InstId>, NetlistError> {
        let n = self.instances.len();
        let mut indeg = vec![0usize; n];
        // Combinational edge: driver instance (combinational) -> sink instance
        // (combinational).
        let is_comb = |i: usize| {
            let f = self.library.cell(self.instances[i].cell).function;
            !f.is_sequential() && !f.is_physical_only()
        };
        for (i, inst) in self.instances.iter().enumerate() {
            if !is_comb(i) {
                continue;
            }
            for &input in &inst.inputs {
                if let Some(NetDriver::Instance(d)) = self.nets[input.index()].driver {
                    if is_comb(d.index()) {
                        indeg[i] += 1;
                    }
                }
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| is_comb(i) && indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let i = queue[head];
            head += 1;
            order.push(InstId(i as u32));
            for &(sink, _) in &self.nets[self.instances[i].output.index()].sinks {
                let s = sink.index();
                if is_comb(s) {
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        queue.push(s);
                    }
                }
            }
        }
        let comb_count = (0..n).filter(|&i| is_comb(i)).count();
        if order.len() != comb_count {
            let cyclic: Vec<String> = (0..n)
                .filter(|&i| is_comb(i) && indeg[i] > 0)
                .take(8)
                .map(|i| self.instances[i].name.to_string())
                .collect();
            return Err(NetlistError::CombinationalCycle(cyclic));
        }
        for i in 0..n {
            if !is_comb(i) {
                order.push(InstId(i as u32));
            }
        }
        Ok(order)
    }

    /// Logic depth (number of combinational levels on the longest path).
    pub fn logic_depth(&self) -> usize {
        let order = match self.topo_order() {
            Ok(o) => o,
            Err(_) => return 0,
        };
        let mut level = vec![0usize; self.instances.len()];
        let mut max = 0;
        for id in order {
            let inst = &self.instances[id.index()];
            let f = self.library.cell(inst.cell).function;
            if f.is_sequential() || f.is_physical_only() {
                continue;
            }
            let mut l = 0;
            for &input in &inst.inputs {
                if let Some(NetDriver::Instance(d)) = self.nets[input.index()].driver {
                    let df = self.library.cell(self.instances[d.index()].cell).function;
                    if !df.is_sequential() && !df.is_physical_only() {
                        l = l.max(level[d.index()] + 1);
                    }
                }
            }
            level[id.index()] = l.max(1);
            max = max.max(level[id.index()]);
        }
        max
    }

    /// Single-pattern functional simulation.
    ///
    /// `inputs` must match the primary-input count; `state` must match the
    /// flip-flop count (from [`Netlist::flops`], in that order) or be empty
    /// (all zeros). Returns `(primary outputs, next state)`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` has the wrong length or the netlist is cyclic.
    pub fn simulate(&self, inputs: &[bool], state: &[bool]) -> (Vec<bool>, Vec<bool>) {
        let ins: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let st: Vec<u64> = state.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let (o, s) = self.simulate64(&ins, &st);
        (o.iter().map(|&w| w & 1 == 1).collect(), s.iter().map(|&w| w & 1 == 1).collect())
    }

    /// Bit-parallel simulation: 64 patterns per call, one per bit lane.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from the primary-input count, if
    /// `state` is non-empty and differs from the flip-flop count, or if the
    /// combinational core is cyclic.
    pub fn simulate64(&self, inputs: &[u64], state: &[u64]) -> (Vec<u64>, Vec<u64>) {
        assert_eq!(inputs.len(), self.inputs.len(), "primary input count mismatch");
        let flops = self.flops();
        assert!(
            state.is_empty() || state.len() == flops.len(),
            "state length {} != flop count {}",
            state.len(),
            flops.len()
        );
        let mut value = vec![0u64; self.nets.len()];
        for (pi, &net) in self.inputs.iter().enumerate() {
            value[net.index()] = inputs[pi];
        }
        for (fi, &flop) in flops.iter().enumerate() {
            let out = self.instances[flop.index()].output;
            value[out.index()] = if state.is_empty() { 0 } else { state[fi] };
        }
        // One fan-in buffer for every gate: no allocation per evaluation.
        let mut ins: Vec<u64> = Vec::with_capacity(4);
        let mut eval = |inst: &Instance, value: &[u64]| {
            ins.clear();
            ins.extend(inst.inputs.iter().map(|n| value[n.index()]));
            self.library.cell(inst.cell).function.eval64(&ins)
        };
        let order = self.topo_order().expect("simulate requires an acyclic netlist");
        for id in order {
            let inst = &self.instances[id.index()];
            let f = self.library.cell(inst.cell).function;
            if f.is_sequential() || f.is_physical_only() {
                continue;
            }
            value[inst.output.index()] = eval(inst, &value);
        }
        let outs = self.outputs.iter().map(|(_, n)| value[n.index()]).collect();
        let next = flops.iter().map(|&flop| eval(&self.instances[flop.index()], &value)).collect();
        (outs, next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder() -> Netlist {
        let mut n = Netlist::new("fa");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("cin");
        let axb = n.add_gate_fn("u1", CellFunction::Xor2, &[a, b]).unwrap();
        let sum = n.add_gate_fn("u2", CellFunction::Xor2, &[axb, c]).unwrap();
        let cy = n.add_gate_fn("u3", CellFunction::Maj3, &[a, b, c]).unwrap();
        n.add_output("sum", sum);
        n.add_output("cout", cy);
        n
    }

    #[test]
    fn full_adder_truth_table() {
        let n = full_adder();
        n.validate().unwrap();
        for p in 0u32..8 {
            let ins = [(p & 1) != 0, (p & 2) != 0, (p & 4) != 0];
            let (outs, _) = n.simulate(&ins, &[]);
            let expect = ins.iter().filter(|&&b| b).count();
            let got = outs[0] as usize + 2 * outs[1] as usize;
            assert_eq!(got, expect, "pattern {p}");
        }
    }

    #[test]
    fn arity_checked_on_add() {
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let err = n.add_gate_fn("u", CellFunction::Nand(2), &[a]).unwrap_err();
        assert!(matches!(err, NetlistError::ArityMismatch { expected: 2, got: 1, .. }));
    }

    #[test]
    fn net_names_deduplicated() {
        // A repeated name takes the first free `_<k>` suffix.
        let mut n = Netlist::new("t");
        let names: Vec<String> = ["a", "a_1", "a", "a", "a_2", "b"]
            .iter()
            .map(|&name| {
                let id = n.add_net(name);
                n.net(id).name().to_string()
            })
            .collect();
        assert_eq!(names, ["a", "a_1", "a_2", "a_3", "a_2_1", "b"]);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(n.find_net(name), Some(NetId(i as u32)));
        }
        assert_eq!(n.find_net("a_4"), None);
        assert_eq!(Netlist::new("empty").find_net("a"), None);
    }

    #[test]
    fn name_lookups_hold_at_ten_to_the_fifth_names() {
        let mut n = Netlist::new("big");
        let ids: Vec<NetId> = (0..100_000).map(|i| n.add_net(format!("w{i}"))).collect();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(n.find_net(&format!("w{i}")), Some(id));
        }
        assert_eq!(n.find_net("w100000"), None);
        let again = n.add_net("w7");
        assert_eq!(n.net(again).name(), "w7_1");
        assert_eq!(n.find_net("w7_1"), Some(again));
    }

    #[test]
    fn sequential_simulation_steps_state() {
        // 1-bit toggle: q' = !q via INV -> DFF loop.
        let mut n = Netlist::new("toggle");
        let ck = n.add_input("ck");
        let loopback = n.add_net("q");
        let nq = n.add_gate_fn("u_inv", CellFunction::Inv, &[loopback]).unwrap();
        // Wire flop output to loopback by constructing flop manually:
        let q = n.add_gate_fn("u_ff", CellFunction::Dff, &[nq, ck]).unwrap();
        // Connect q to loopback via buffer (loopback needs a driver).
        // Instead: rebuild using q directly.
        let _ = (q, loopback);
        let mut n = Netlist::new("toggle2");
        let ck = n.add_input("ck");
        // Temporarily drive INV from a placeholder net, then fix up: simplest
        // is INV(q) where q is the flop output; create flop first with a
        // dummy D, not supported -> build with two-phase trick:
        // d = INV(q); q = DFF(d). Create INV reading a fresh net, then make
        // the flop output *be* that net by adding flop whose output feeds it.
        // The public API always creates fresh outputs, so model the loop as:
        // q -> inv -> d -> flop -> q2, and check q2 = !q for given state.
        let q = n.add_input("q_external"); // stand-in for present state
        let d = n.add_gate_fn("u_inv", CellFunction::Inv, &[q]).unwrap();
        let q2 = n.add_gate_fn("u_ff", CellFunction::Dff, &[d, ck]).unwrap();
        let _ = q2;
        n.add_output("dummy", d);
        let (_, next) = n.simulate(&[true, false], &[false]);
        assert_eq!(next, vec![true], "flop captures D = !q = 1");
        let (_, next) = n.simulate(&[true, true], &[true]);
        assert_eq!(next, vec![false]);
    }

    #[test]
    fn topo_detects_cycles() {
        let mut n = Netlist::new("cyc");
        let a = n.add_input("a");
        // u1 reads u2's output; u2 reads u1's output -> cycle.
        let placeholder = n.add_net("ph");
        let o1 = n.add_gate_fn("u1", CellFunction::And(2), &[a, placeholder]).unwrap();
        let o2 = n.add_gate_fn("u2", CellFunction::Inv, &[o1]).unwrap();
        // Force the cycle by making u1's second input the output of u2:
        // splice manually.
        let u1 = InstId(0);
        let n_mut = &mut n;
        n_mut.instances[u1.index()].inputs[1] = o2;
        n_mut.nets[o2.index()].sinks.push((u1, 1));
        assert!(matches!(n.topo_order(), Err(NetlistError::CombinationalCycle(_))));
        assert!(n.validate().is_err());
    }

    #[test]
    fn depth_of_chain() {
        let mut n = Netlist::new("chain");
        let mut x = n.add_input("a");
        for i in 0..10 {
            x = n.add_gate_fn(format!("u{i}"), CellFunction::Inv, &[x]).unwrap();
        }
        n.add_output("y", x);
        assert_eq!(n.logic_depth(), 10);
    }

    #[test]
    fn area_and_leakage_accumulate() {
        let n = full_adder();
        let lib = n.library();
        let expect: f64 = n.instances().map(|(_, i)| lib.cell(i.cell()).area_um2).sum();
        assert!((n.area_um2() - expect).abs() < 1e-12);
        assert!(n.leakage_nw() > 0.0);
    }

    #[test]
    fn blocks_assign_and_list() {
        let mut n = full_adder();
        n.assign_block(InstId(0), "blk_a");
        n.assign_block(InstId(1), "blk_a");
        n.assign_block(InstId(2), "blk_b");
        assert_eq!(n.block_names(), &["blk_a".to_string(), "blk_b".to_string()]);
        assert_eq!(n.instance(InstId(0)).block(), Some(0));
        assert_eq!(n.instance(InstId(2)).block(), Some(1));
    }

    #[test]
    fn flops_listed_in_order() {
        let mut n = Netlist::new("seq");
        let ck = n.add_input("ck");
        let d = n.add_input("d");
        let q1 = n.add_gate_fn("ff1", CellFunction::Dff, &[d, ck]).unwrap();
        let q2 = n.add_gate_fn("ff2", CellFunction::Dff, &[q1, ck]).unwrap();
        n.add_output("q", q2);
        assert_eq!(n.flops().len(), 2);
        // Two-stage shift register: state [a, b] -> [d, a].
        let (_, next) = n.simulate(&[false, true], &[false, false]);
        assert_eq!(next, vec![true, false]);
    }
}
