//! And-Inverter Graphs: the optimization intermediate form of modern logic
//! synthesis, with structural hashing, balancing, and cut-based refactoring.
//!
//! De Micheli's introduction argues that competitive design "can no longer be
//! thought in terms of NANDs, NORs and AOIs" — the AIG is the neutral
//! representation from which both conventional CMOS mapping and
//! functionality-enhanced-device mapping proceed.

use crate::cuts::{CutSet, K};
use crate::isop::{isop, sop_aig_cost};
use crate::tt::TruthTable;
use eda_netlist::codec::write_token;
use eda_netlist::memo::Fnv1a;
use eda_netlist::{CellFunction, NetDriver, Netlist};
use std::collections::hash_map::RandomState;
use std::fmt::Write;
use std::hash::BuildHasher;
use std::sync::OnceLock;

/// A literal: an AIG node with an optional complement flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Lit(u32);

impl Lit {
    /// Constant false.
    pub const FALSE: Lit = Lit(0);
    /// Constant true.
    pub const TRUE: Lit = Lit(1);

    fn new(node: u32, complement: bool) -> Lit {
        Lit(node << 1 | complement as u32)
    }

    /// The node index this literal refers to.
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the literal is complemented.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;

    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

/// One AIG node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AigNode {
    /// The constant node (index 0).
    Const,
    /// Primary input number `usize`.
    Pi(usize),
    /// Two-input AND of two literals.
    And(Lit, Lit),
}

/// Errors converting netlists to AIGs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AigError {
    /// The netlist contains a cell synthesis cannot absorb (clock gates,
    /// isolation cells, scan flops — these are inserted *after* synthesis).
    UnsupportedCell(String),
    /// A flip-flop clock pin is driven by logic rather than a primary input
    /// (a chain of plain buffers — a clock spine — is seen through).
    ClockNotPrimaryInput(String),
    /// The netlist failed validation.
    Invalid(String),
}

impl std::fmt::Display for AigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AigError::UnsupportedCell(c) => write!(f, "cell `{c}` is not synthesizable"),
            AigError::ClockNotPrimaryInput(n) => {
                write!(f, "flop `{n}` clock is not a primary input")
            }
            AigError::Invalid(m) => write!(f, "invalid netlist: {m}"),
        }
    }
}

impl std::error::Error for AigError {}

/// Where the sequential elements sat in the source netlist, so the mapper can
/// re-insert them around the purely combinational AIG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqBoundary {
    /// Count of genuine primary inputs (AIG PIs beyond this are flop outputs).
    pub real_pis: usize,
    /// Count of genuine primary outputs (AIG POs beyond this are flop D pins).
    pub real_pos: usize,
    /// One record per flop, in order.
    pub flops: Vec<FlopBoundary>,
}

/// One flip-flop at the sequential boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlopBoundary {
    /// Original instance name.
    pub name: String,
    /// AIG primary-input index of the clock net.
    pub clock_pi: usize,
    /// Hierarchy block of the original flop, if assigned. The mapper labels
    /// the flop and its realized input cone with this block, so hierarchy
    /// survives synthesis for the placer's benefit.
    pub block: Option<String>,
}

/// The structural hash: the ids of the AND nodes in an open-addressed
/// table, probed linearly from the operand pair's hash and at most half
/// full; 0 marks a free slot (node 0 is the constant, never an AND). A pair
/// hashes by one multiply-xorshift under a random per-process key, as in a
/// `HashMap`, because the graphs are built from netlists clients send. The
/// key only places entries: which node a pair finds never depends on it.
#[derive(Debug, Clone)]
struct Strash {
    slots: Vec<u32>,
    /// Occupied slots.
    len: usize,
    key: u64,
}

/// The per-process key of [`Strash`], drawn once from std's hasher keys.
fn strash_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0x5354_5241_5348u64))
}

impl Strash {
    /// A table with room for `ands` AND nodes before it grows.
    fn with_capacity(ands: usize, key: u64) -> Strash {
        Strash { slots: vec![0; (2 * ands).next_power_of_two().max(16)], len: 0, key }
    }

    fn hash(&self, a: Lit, b: Lit) -> usize {
        let m = ((u64::from(a.0) << 32 | u64::from(b.0)) ^ self.key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (m ^ m >> 32) as usize
    }

    /// The slot holding the AND of `(a, b)`, or the free slot where it
    /// belongs.
    fn probe(&self, nodes: &[AigNode], a: Lit, b: Lit) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = self.hash(a, b) & mask;
        while self.slots[slot] != 0 && nodes[self.slots[slot] as usize] != AigNode::And(a, b) {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Makes `nodes[id]`, an AND whose pair probed to `slot`, that pair's
    /// entry, growing the table when it would pass half full.
    fn set(&mut self, nodes: &[AigNode], slot: usize, id: u32) {
        if self.slots[slot] == 0 {
            if 2 * (self.len + 1) > self.slots.len() {
                self.rebuild(nodes, 2 * self.slots.len());
                return;
            }
            self.len += 1;
        }
        self.slots[slot] = id;
    }

    /// Re-indexes every AND of `nodes` into `size` slots, a later node
    /// taking over the entry of an earlier one with the same pair.
    fn rebuild(&mut self, nodes: &[AigNode], size: usize) {
        self.slots = vec![0; size];
        self.len = 0;
        for (id, node) in nodes.iter().enumerate() {
            if let AigNode::And(a, b) = *node {
                let slot = self.probe(nodes, a, b);
                self.len += (self.slots[slot] == 0) as usize;
                self.slots[slot] = id as u32;
            }
        }
    }
}

/// An and-inverter graph with structural hashing.
///
/// # Examples
///
/// ```
/// use eda_logic::Aig;
/// let mut g = Aig::new();
/// let a = g.add_pi("a");
/// let b = g.add_pi("b");
/// let f = g.xor(a, b);
/// g.add_po("y", f);
/// assert_eq!(g.num_ands(), 3); // XOR costs three ANDs
/// assert_eq!(g.simulate64(&[0b0110, 0b0011]), vec![0b0101]);
/// ```
#[derive(Debug, Clone)]
pub struct Aig {
    nodes: Vec<AigNode>,
    strash: Strash,
    pi_names: Vec<String>,
    pos: Vec<(String, Lit)>,
}

impl Default for Aig {
    fn default() -> Self {
        Aig::new()
    }
}

impl Aig {
    /// Creates an empty graph (just the constant node).
    pub fn new() -> Aig {
        Aig::sized(0, strash_key())
    }

    /// An empty graph whose structural hash, under `key`, has room for
    /// `ands` AND nodes. Only the table is sized: reserving the node array
    /// too raises `mesh_t1`'s peak RSS by 8 %.
    fn sized(ands: usize, key: u64) -> Aig {
        Aig {
            nodes: vec![AigNode::Const],
            strash: Strash::with_capacity(ands, key),
            pi_names: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Adds a primary input and returns its literal.
    pub fn add_pi(&mut self, name: impl Into<String>) -> Lit {
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::Pi(self.pi_names.len()));
        self.pi_names.push(name.into());
        Lit::new(id, false)
    }

    /// Registers a primary output.
    pub fn add_po(&mut self, name: impl Into<String>, lit: Lit) {
        self.pos.push((name.into(), lit));
    }

    /// AND with constant propagation, identity rules and structural hashing.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let slot = self.strash.probe(&self.nodes, a, b);
        if self.strash.slots[slot] != 0 {
            return Lit::new(self.strash.slots[slot], false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(a, b));
        self.strash.set(&self.nodes, slot, id);
        Lit::new(id, false)
    }

    /// OR via De Morgan.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        let n = self.and(!a, !b);
        !n
    }

    /// XOR (three ANDs).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let p = self.and(a, !b);
        let q = self.and(!a, b);
        self.or(p, q)
    }

    /// Multiplexer: `s ? t : e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let p = self.and(s, t);
        let q = self.and(!s, e);
        self.or(p, q)
    }

    /// N-ary AND.
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        lits.iter().fold(Lit::TRUE, |acc, &l| self.and(acc, l))
    }

    /// N-ary OR.
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        lits.iter().fold(Lit::FALSE, |acc, &l| self.or(acc, l))
    }

    /// Number of AND nodes.
    pub fn num_ands(&self) -> usize {
        self.nodes.iter().filter(|n| matches!(n, AigNode::And(..))).count()
    }

    /// Number of primary inputs.
    pub fn num_pis(&self) -> usize {
        self.pi_names.len()
    }

    /// Primary input names.
    pub fn pi_names(&self) -> &[String] {
        &self.pi_names
    }

    /// Primary outputs as `(name, literal)` pairs.
    pub fn pos(&self) -> &[(String, Lit)] {
        &self.pos
    }

    /// Per-node logic level (PIs and the constant are level 0).
    pub fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            if let AigNode::And(a, b) = n {
                lv[i] = 1 + lv[a.node()].max(lv[b.node()]);
            }
        }
        lv
    }

    /// Depth: the maximum level over the primary outputs.
    pub fn depth(&self) -> u32 {
        let lv = self.levels();
        self.pos.iter().map(|(_, l)| lv[l.node()]).max().unwrap_or(0)
    }

    /// Bit-parallel simulation: 64 patterns at once.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the PI count.
    pub fn simulate64(&self, pi_values: &[u64]) -> Vec<u64> {
        assert_eq!(pi_values.len(), self.pi_names.len(), "PI count mismatch");
        let mut val = vec![0u64; self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            val[i] = match *n {
                AigNode::Const => 0,
                AigNode::Pi(k) => pi_values[k],
                AigNode::And(a, b) => {
                    let va = val[a.node()] ^ if a.is_complemented() { !0 } else { 0 };
                    let vb = val[b.node()] ^ if b.is_complemented() { !0 } else { 0 };
                    va & vb
                }
            };
        }
        self.pos
            .iter()
            .map(|&(_, l)| val[l.node()] ^ if l.is_complemented() { !0 } else { 0 })
            .collect()
    }

    /// Fanout reference counts (from POs and internal edges).
    fn refcounts(&self) -> Vec<u32> {
        let mut refs = vec![0u32; self.nodes.len()];
        for n in &self.nodes {
            if let AigNode::And(a, b) = n {
                refs[a.node()] += 1;
                refs[b.node()] += 1;
            }
        }
        for (_, l) in &self.pos {
            refs[l.node()] += 1;
        }
        refs
    }

    /// Converts a netlist to an AIG, splitting at the sequential boundary.
    ///
    /// The AIG's PIs are the netlist's primary inputs followed by one pseudo
    /// input per flop (its `Q`); the POs are the netlist's primary outputs
    /// followed by one pseudo output per flop (its `D`).
    ///
    /// # Errors
    ///
    /// Fails on non-synthesizable cells ([`AigError::UnsupportedCell`]), on
    /// flop clocks that do not resolve to a primary input through at most a
    /// chain of plain buffers, or on invalid netlists.
    pub fn from_netlist(netlist: &Netlist) -> Result<(Aig, SeqBoundary), AigError> {
        Aig::from_netlist_keyed(netlist, strash_key())
    }

    /// [`Aig::from_netlist`] with the structural hash under `key`.
    fn from_netlist_keyed(netlist: &Netlist, key: u64) -> Result<(Aig, SeqBoundary), AigError> {
        // Validation ends in the topological order the build walks.
        let order = netlist.validate().map_err(|e| AigError::Invalid(e.to_string()))?;
        let lib = netlist.library();
        // About one AND per instance: 44 915 for the 49 221 of the 50 k mesh.
        let mut aig = Aig::sized(netlist.num_instances(), key);
        // The literal of each net, by net index, once its driver is built.
        let mut net_lit: Vec<Option<Lit>> = vec![None; netlist.num_nets()];
        for &pi in netlist.primary_inputs() {
            let lit = aig.add_pi(netlist.net(pi).name());
            net_lit[pi.index()] = Some(lit);
        }
        let real_pis = aig.num_pis();
        // Pseudo-PIs for flop outputs.
        let flops = netlist.flops();
        let mut flop_records = Vec::with_capacity(flops.len());
        for &f in &flops {
            let inst = netlist.instance(f);
            let func = lib.cell(inst.cell()).function;
            if func != CellFunction::Dff {
                return Err(AigError::UnsupportedCell(format!(
                    "{} ({:?}): only plain DFFs are synthesizable",
                    inst.name(),
                    func
                )));
            }
            let q = aig.add_pi(format!("{}__q", inst.name()));
            net_lit[inst.output().index()] = Some(q);
            // The clock must resolve to a primary input net, possibly
            // through a chain of plain buffers: scale-tier fabrics arrive
            // with a buffered clock spine (root → row → tile) to keep net
            // fanout bounded, and a buffer preserves the clock edge, so
            // synthesis can see straight through it. The spine cells
            // themselves become dead combinational logic and are swept; CTS
            // rebuilds a balanced tree from the placed flops later anyway.
            // Gated or logic-derived clocks still fail, as before.
            let mut ck_net = inst.inputs()[1];
            let clock_pi = loop {
                match netlist.net(ck_net).driver() {
                    Some(NetDriver::PrimaryInput(k)) => break k,
                    Some(NetDriver::Instance(d))
                        if lib.cell(netlist.instance(d).cell()).function
                            == CellFunction::Buf =>
                    {
                        ck_net = netlist.instance(d).inputs()[0];
                    }
                    _ => {
                        return Err(AigError::ClockNotPrimaryInput(inst.name().to_string()))
                    }
                }
            };
            let block = inst
                .block()
                .map(|b| netlist.block_names()[b as usize].clone());
            flop_records.push(FlopBoundary { name: inst.name().to_string(), clock_pi, block });
        }
        // Combinational instances in topo order.
        for id in order {
            let inst = netlist.instance(id);
            let func = lib.cell(inst.cell()).function;
            if func.is_sequential() {
                continue;
            }
            let ins: Vec<Lit> = inst
                .inputs()
                .iter()
                .map(|n| net_lit[n.index()].expect("topo order guarantees inputs"))
                .collect();
            let lit = match func {
                CellFunction::Const0 => Lit::FALSE,
                CellFunction::Const1 => Lit::TRUE,
                CellFunction::Buf => ins[0],
                CellFunction::Inv => !ins[0],
                CellFunction::And(_) => aig.and_many(&ins),
                CellFunction::Nand(_) => !aig.and_many(&ins),
                CellFunction::Or(_) => aig.or_many(&ins),
                CellFunction::Nor(_) => !aig.or_many(&ins),
                CellFunction::Xor2 => aig.xor(ins[0], ins[1]),
                CellFunction::Xnor2 => !aig.xor(ins[0], ins[1]),
                CellFunction::Aoi21 => {
                    let p = aig.and(ins[0], ins[1]);
                    !aig.or(p, ins[2])
                }
                CellFunction::Oai21 => {
                    let p = aig.or(ins[0], ins[1]);
                    !aig.and(p, ins[2])
                }
                CellFunction::Mux2 => aig.mux(ins[2], ins[1], ins[0]),
                CellFunction::Maj3 => {
                    let ab = aig.and(ins[0], ins[1]);
                    let bc = aig.and(ins[1], ins[2]);
                    let ac = aig.and(ins[0], ins[2]);
                    let t = aig.or(ab, bc);
                    aig.or(t, ac)
                }
                other => return Err(AigError::UnsupportedCell(format!("{:?}", other))),
            };
            net_lit[inst.output().index()] = Some(lit);
        }
        for (name, net) in netlist.primary_outputs() {
            let lit = net_lit[net.index()]
                .ok_or_else(|| AigError::Invalid(format!("output `{name}` undriven")))?;
            aig.add_po(name.clone(), lit);
        }
        let real_pos = aig.pos.len();
        for &f in &flops {
            let inst = netlist.instance(f);
            let d = inst.inputs()[0];
            let lit = net_lit[d.index()]
                .ok_or_else(|| AigError::Invalid(format!("flop `{}` D undriven", inst.name())))?;
            aig.add_po(format!("{}__d", inst.name()), lit);
        }
        Ok((aig, SeqBoundary { real_pis, real_pos, flops: flop_records }))
    }

    /// Depth-oriented balancing: re-associates each supergate so the deepest
    /// input feeds the shallowest position.
    ///
    /// A supergate is the AND tree one step re-associates: from its root it
    /// descends through non-complemented AND edges, and stops at any other
    /// node with more than one reference (AND fanins plus PO references).
    /// A shared node is a leaf of every supergate that reaches it and is
    /// balanced once, as its own root, so no logic is duplicated.
    pub fn balance(&self) -> Aig {
        let refs = self.refcounts();
        let mut out = Aig::sized(self.nodes.len(), self.strash.key);
        let mut map: Vec<Lit> = vec![Lit::FALSE; self.nodes.len()];
        // Levels of nodes in `out`, kept in lockstep with out.nodes.
        let mut out_levels: Vec<u32> = vec![0];
        let level_of = |out: &Aig, lv: &mut Vec<u32>, l: Lit| -> u32 {
            while lv.len() < out.nodes.len() {
                let i = lv.len();
                let v = match out.nodes[i] {
                    AigNode::Const | AigNode::Pi(_) => 0,
                    AigNode::And(a, b) => 1 + lv[a.node()].max(lv[b.node()]),
                };
                lv.push(v);
            }
            lv[l.node()]
        };
        for (i, n) in self.nodes.iter().enumerate() {
            match *n {
                AigNode::Const => map[0] = Lit::FALSE,
                AigNode::Pi(k) => map[i] = out.add_pi(self.pi_names[k].clone()),
                AigNode::And(..) => {
                    // Gather the leaves of the supergate rooted here: the
                    // root always expands, a shared node never does.
                    let mut leaves: Vec<Lit> = Vec::new();
                    let mut stack = vec![Lit::new(i as u32, false)];
                    while let Some(l) = stack.pop() {
                        let expandable = leaves.len() + stack.len() < 64
                            && (l.node() == i || refs[l.node()] <= 1);
                        match (l.is_complemented() || !expandable, self.nodes[l.node()]) {
                            (false, AigNode::And(a, b)) => {
                                stack.push(a);
                                stack.push(b);
                            }
                            _ => leaves.push(l),
                        }
                    }
                    // Map leaves into the new graph, sorted descending by
                    // level so the shallowest sit at the end.
                    let mut mapped: Vec<(u32, Lit)> = leaves
                        .iter()
                        .map(|&l| {
                            let m = map[l.node()];
                            let ml = if l.is_complemented() { !m } else { m };
                            (level_of(&out, &mut out_levels, ml), ml)
                        })
                        .collect();
                    mapped.sort_by_key(|&(lv, _)| std::cmp::Reverse(lv));
                    while mapped.len() > 1 {
                        let (_, a) = mapped.pop().expect("len > 1");
                        let (_, b) = mapped.pop().expect("len > 1");
                        let c = out.and(a, b);
                        let lv = level_of(&out, &mut out_levels, c);
                        let pos = mapped.partition_point(|&(l, _)| l > lv);
                        mapped.insert(pos, (lv, c));
                    }
                    map[i] = mapped.pop().map(|(_, l)| l).unwrap_or(Lit::TRUE);
                }
            }
        }
        for (name, l) in &self.pos {
            let m = map[l.node()];
            out.add_po(name.clone(), if l.is_complemented() { !m } else { m });
        }
        out
    }

    /// Area-oriented refactoring: covers the graph with 4-feasible cuts,
    /// resynthesizes each chosen cone from its truth table via ISOP, and
    /// rebuilds. Usually reduces AND count substantially on redundant logic.
    pub fn rewrite(&self) -> Aig {
        self.rewrite_with(&mut IsopCovers::new())
    }

    /// [`Aig::rewrite`] reading and filling `covers`: a cover is a pure
    /// function of its truth table, so one table serves every pass of a
    /// script.
    pub(crate) fn rewrite_with(&self, covers: &mut IsopCovers) -> Aig {
        let n_nodes = self.nodes.len();
        let refs = self.refcounts();
        let cuts = CutSet::enumerate(&self.nodes);
        // Choice per AND node: None = direct AND of children, Some(k) = cut k.
        let mut choice: Vec<Option<usize>> = vec![None; n_nodes];
        let mut flow: Vec<f64> = vec![0.0; n_nodes];

        for i in 0..n_nodes {
            let AigNode::And(a, b) = self.nodes[i] else { continue };
            // Cost of direct construction.
            let mut best = 1.0 + flow[a.node()] + flow[b.node()];
            for (k, c) in cuts.of(i).iter().enumerate() {
                // Skips the trivial cut (k = 0) along with any other
                // single-leaf cut.
                if c.leaves().len() < 2 {
                    continue;
                }
                let leaf_flow: f64 = c.leaves().iter().map(|&l| flow[l as usize]).sum();
                let cost = covers.cost(c.tt) as f64 + leaf_flow;
                if cost < best {
                    best = cost;
                    choice[i] = Some(k);
                }
            }
            flow[i] = best / (refs[i].max(1) as f64);
        }

        // Required set from POs.
        let mut required = vec![false; n_nodes];
        let mut stack: Vec<usize> = self.pos.iter().map(|(_, l)| l.node()).collect();
        while let Some(n) = stack.pop() {
            if required[n] {
                continue;
            }
            required[n] = true;
            match self.nodes[n] {
                AigNode::Const | AigNode::Pi(_) => {}
                AigNode::And(a, b) => match choice[n] {
                    None => {
                        stack.push(a.node());
                        stack.push(b.node());
                    }
                    Some(k) => stack.extend(cuts.of(n)[k].leaves().iter().map(|&l| l as usize)),
                },
            }
        }

        // Rebuild.
        let mut out = Aig::sized(n_nodes, self.strash.key);
        let mut map: Vec<Lit> = vec![Lit::FALSE; n_nodes];
        for i in 0..n_nodes {
            match self.nodes[i] {
                AigNode::Const => map[i] = Lit::FALSE,
                AigNode::Pi(k) => map[i] = out.add_pi(self.pi_names[k].clone()),
                AigNode::And(a, b) => {
                    if !required[i] {
                        continue;
                    }
                    map[i] = match choice[i] {
                        None => {
                            let ma = if a.is_complemented() { !map[a.node()] } else { map[a.node()] };
                            let mb = if b.is_complemented() { !map[b.node()] } else { map[b.node()] };
                            out.and(ma, mb)
                        }
                        Some(k) => {
                            let cut = &cuts.of(i)[k];
                            let cubes = covers.cubes(cut.tt);
                            let mut terms: Vec<Lit> = Vec::with_capacity(cubes.len());
                            for &cube in cubes {
                                let mut lits = Vec::with_capacity(K);
                                for (v, &l) in cut.leaves().iter().enumerate() {
                                    let leaf = map[l as usize];
                                    match cube >> (2 * v) & 0b11 {
                                        0b01 => lits.push(leaf),
                                        0b10 => lits.push(!leaf),
                                        _ => {}
                                    }
                                }
                                terms.push(out.and_many(&lits));
                            }
                            out.or_many(&terms)
                        }
                    };
                }
            }
        }
        for (name, l) in &self.pos {
            let m = map[l.node()];
            out.add_po(name.clone(), if l.is_complemented() { !m } else { m });
        }
        out
    }

    /// Stable 64-bit content digest of the exact graph structure (nodes,
    /// strash-canonical AND operands, PI names, PO bindings): FNV-1a of the
    /// line-oriented text [`Aig::write_structure`] streams into it. Two AIGs
    /// with equal digests are structurally identical.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.write_structure(&mut h).expect("hashing never fails");
        h.finish()
    }

    /// The text [`Aig::digest`] hashes: an `aig v1` header, `n` node rows,
    /// `p`/`o` boundary rows and an `end` terminator.
    fn write_structure(&self, out: &mut impl Write) -> std::fmt::Result {
        writeln!(out, "aig v1 {} {} {}", self.nodes.len(), self.pi_names.len(), self.pos.len())?;
        for n in &self.nodes {
            match *n {
                AigNode::Const => out.write_str("n c\n")?,
                AigNode::Pi(k) => writeln!(out, "n i {k}")?,
                AigNode::And(a, b) => writeln!(out, "n a {} {}", a.0, b.0)?,
            }
        }
        for name in &self.pi_names {
            out.write_str("p ")?;
            write_token(out, name)?;
            out.write_char('\n')?;
        }
        for (name, l) in &self.pos {
            out.write_str("o ")?;
            write_token(out, name)?;
            writeln!(out, " {}", l.0)?;
        }
        out.write_str("end\n")
    }

    /// The node array, in topological order, for sibling modules (the cut
    /// kernel and the technology mapper).
    pub(crate) fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }
}

/// The ISOP cover of every 4-input function the rewrite passes of one
/// script meet, and its structural cost, filled on first use: one [`isop`]
/// per distinct function instead of one per candidate cut, one more per
/// chosen cut, and again in every pass.
pub(crate) struct IsopCovers {
    /// Per truth table, `1 +` its index in `covers`, or 0 before first use.
    slot: Vec<u32>,
    covers: Vec<IsopCover>,
}

/// One function's cover: its cost and cubes, each cube the 2-bit positional
/// fields of variables 0–3 (`01` positive, `10` negative, `11` absent).
struct IsopCover {
    cost: u8,
    len: u8,
    cubes: [u8; 1 << (K - 1)],
}

impl IsopCovers {
    pub(crate) fn new() -> IsopCovers {
        IsopCovers { slot: vec![0; 1 << (1 << K)], covers: Vec::new() }
    }

    fn get(&mut self, tt: u16) -> &IsopCover {
        if self.slot[tt as usize] == 0 {
            let f = TruthTable::from_bits(K, tt as u64);
            let cover = isop(&f, &f);
            let mut cubes = [0; 1 << (K - 1)];
            for (fields, cube) in cubes.iter_mut().zip(cover.cubes()) {
                *fields = (0..K).map(|v| (cube.literal(v) as u8) << (2 * v)).sum();
            }
            let entry = IsopCover { cost: sop_aig_cost(&cover) as u8, len: cover.len() as u8, cubes };
            self.covers.push(entry);
            self.slot[tt as usize] = self.covers.len() as u32;
        }
        &self.covers[self.slot[tt as usize] as usize - 1]
    }

    /// `sop_aig_cost(&isop(f, f))` for the function with truth table `tt`.
    fn cost(&mut self, tt: u16) -> u32 {
        self.get(tt).cost as u32
    }

    /// The cubes of `isop(f, f)`, in order, for the function with truth
    /// table `tt`.
    fn cubes(&mut self, tt: u16) -> &[u8] {
        let c = self.get(tt);
        &c.cubes[..c.len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn strash_shares_structure() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        let b = g.add_pi("b");
        let x = g.and(a, b);
        let y = g.and(b, a);
        assert_eq!(x, y, "commutative inputs hash to one node");
        assert_eq!(g.num_ands(), 1);
    }

    impl Aig {
        /// An empty graph whose structural hash runs under `key`.
        fn with_key(key: u64) -> Aig {
            Aig::sized(0, key)
        }
    }

    /// The key places table entries and nothing else: the 2 k mesh builds,
    /// balances and rewrites to the same graphs under two fixed keys (and
    /// under the process key), while the tables themselves differ.
    #[test]
    fn graphs_do_not_depend_on_the_strash_key() {
        let mesh = generate::scale_mesh(2_000, 3).unwrap();
        let run = |key: Option<u64>| {
            let (g, _) = match key {
                Some(key) => Aig::from_netlist_keyed(&mesh, key).unwrap(),
                None => Aig::from_netlist(&mesh).unwrap(),
            };
            let b = g.balance();
            let r = b.rewrite();
            assert!(key.is_none_or(|k| [&g, &b, &r].iter().all(|x| x.strash.key == k)), "passes keep the key");
            ([g.digest(), b.digest(), r.digest()], g.strash.slots)
        };
        let (one, slots_one) = run(Some(0x0123_4567_89AB_CDEF));
        let (two, slots_two) = run(Some(0xFEDC_BA98_7654_3210));
        assert_eq!(one, two);
        assert_eq!(one, run(None).0);
        assert_ne!(slots_one, slots_two, "the keys place entries differently");
    }

    /// Pairs whose hashes share the table's top slot fill it, wrap past its
    /// end and keep probing from slot 0; every lookup still finds its node,
    /// before and after the table doubles.
    #[test]
    fn probing_wraps_past_the_end_of_the_table() {
        let mut g = Aig::with_key(0x5EED);
        let pis: Vec<Lit> = (0..16).map(|i| g.add_pi(format!("x{i}"))).collect();
        let mask = g.strash.slots.len() - 1;
        let lits: Vec<Lit> = pis.iter().flat_map(|&p| [p, !p]).collect();
        let last_slot: Vec<(Lit, Lit)> = lits
            .iter()
            .flat_map(|&a| lits.iter().map(move |&b| (a, b)))
            .filter(|&(a, b)| a < b && a.node() != b.node() && g.strash.hash(a, b) & mask == mask)
            .take(6)
            .collect();
        assert_eq!(last_slot.len(), 6);
        let made: Vec<Lit> = last_slot.iter().map(|&(a, b)| g.and(a, b)).collect();
        assert_eq!(g.strash.slots.len(), mask + 1, "six entries fit without growing");
        assert!(g.strash.slots[..5].iter().all(|&id| id != 0), "probing wrapped to slots 0-4");
        let ands = g.num_ands();
        for (&(a, b), &f) in last_slot.iter().zip(&made) {
            assert_eq!((g.and(a, b), g.and(b, a)), (f, f));
        }
        // Three more entries pass half full: the table doubles.
        for k in 0..3 {
            g.and(pis[k], pis[k + 8]);
        }
        assert!(g.strash.slots.len() > mask + 1);
        for (&(a, b), &f) in last_slot.iter().zip(&made) {
            assert_eq!(g.and(a, b), f);
        }
        assert_eq!(g.num_ands(), ands + 3);
    }

    #[test]
    fn constant_rules() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(g.and(a, Lit::TRUE), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.num_ands(), 0);
    }

    #[test]
    fn xor_and_mux_semantics() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        let b = g.add_pi("b");
        let s = g.add_pi("s");
        let x = g.xor(a, b);
        let m = g.mux(s, a, b);
        g.add_po("x", x);
        g.add_po("m", m);
        // a=0b0101, b=0b0011, s=0b1110 ... check truth lanes.
        let outs = g.simulate64(&[0b0101, 0b0011, 0b1110]);
        assert_eq!(outs[0] & 0xF, 0b0110);
        // mux: s?a:b per lane: s=0 -> b(1), s=1 -> a(0,1,0 lanes 1..3)
        assert_eq!(outs[1] & 0xF, 0b0101 & 0b1110 | 0b0011 & !0b1110 & 0xF);
    }

    #[test]
    fn from_netlist_equivalence() {
        let n = generate::ripple_carry_adder(6).unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        assert_eq!(bnd.flops.len(), 0);
        assert_eq!(aig.num_pis(), n.primary_inputs().len());
        let pats: Vec<u64> =
            (0..aig.num_pis()).map(|i| 0x5DEE_CE66_D715_EAD7u64.wrapping_mul(i as u64 + 3)).collect();
        let aig_out = aig.simulate64(&pats);
        let (nl_out, _) = n.simulate64(&pats, &[]);
        assert_eq!(aig_out, nl_out);
    }

    #[test]
    fn from_netlist_sequential_boundary() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        assert_eq!(bnd.flops.len(), 6);
        assert_eq!(aig.num_pis(), n.primary_inputs().len() + 6);
        assert_eq!(aig.pos().len(), n.primary_outputs().len() + 6);
        assert_eq!(bnd.real_pis, n.primary_inputs().len());
        // Clock is PI 0 in the fabric generator.
        assert!(bnd.flops.iter().all(|f| f.clock_pi == 0));
    }

    #[test]
    fn buffered_clock_spine_resolves_to_the_root_primary_input() {
        // The scale-tier mesh clocks every flop off a root → row → tile
        // buffer spine; each flop's clock must trace through the chain to
        // the `clk` primary input (PI 0 in the generator).
        let n = generate::mesh_fabric(2, 2, 30, 3, 5).unwrap();
        let (_, bnd) = Aig::from_netlist(&n).unwrap();
        assert!(!bnd.flops.is_empty(), "mesh tiles pipeline every 12th gate");
        assert!(bnd.flops.iter().all(|f| f.clock_pi == 0));
    }

    #[test]
    fn balance_preserves_function_and_reduces_depth() {
        // A long unbalanced AND chain.
        let mut g = Aig::new();
        let pis: Vec<Lit> = (0..8).map(|i| g.add_pi(format!("x{i}"))).collect();
        let mut acc = pis[0];
        for &p in &pis[1..] {
            acc = g.and(acc, p);
        }
        g.add_po("y", acc);
        assert_eq!(g.depth(), 7);
        let b = g.balance();
        assert_eq!(b.depth(), 3, "balanced 8-input AND tree has depth 3");
        let pats: Vec<u64> = (0..8).map(|i| 0x0123_4567_89AB_CDEFu64.rotate_left(i * 8)).collect();
        assert_eq!(g.simulate64(&pats), b.simulate64(&pats));
    }

    /// ANDs reachable from the primary outputs.
    fn reachable_ands(g: &Aig) -> usize {
        let mut seen = vec![false; g.nodes.len()];
        let mut stack: Vec<usize> = g.pos.iter().map(|(_, l)| l.node()).collect();
        let mut count = 0;
        while let Some(i) = stack.pop() {
            if std::mem::replace(&mut seen[i], true) {
                continue;
            }
            if let AigNode::And(a, b) = g.nodes[i] {
                count += 1;
                stack.extend([a.node(), b.node()]);
            }
        }
        count
    }

    /// A random graph of `pis` inputs and `ands` ANDs whose fanins come
    /// mostly from the last 16 nodes, ~40 % of them complemented, with
    /// `pos` outputs drawn the same way.
    fn random_aig(rng: &mut StdRng, pis: usize, ands: usize, pos: usize) -> Aig {
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..pis).map(|k| g.add_pi(format!("i{k}"))).collect();
        let pick = |rng: &mut StdRng, lits: &[Lit]| {
            let from = if rng.gen_bool(0.8) { lits.len().saturating_sub(16) } else { 0 };
            let lit = lits[rng.gen_range(from..lits.len())];
            if rng.gen_bool(0.4) { !lit } else { lit }
        };
        while g.num_ands() < ands {
            let (a, b) = (pick(rng, &lits), pick(rng, &lits));
            let f = g.and(a, b);
            if f.node() != 0 {
                lits.push(f);
            }
        }
        for k in 0..pos {
            let lit = pick(rng, &lits);
            g.add_po(format!("o{k}"), lit);
        }
        g
    }

    /// Balance's specification: the output computes the input's function,
    /// and neither the ANDs the outputs reach nor the output depth grows —
    /// a supergate stops at shared nodes, so no logic is duplicated. The
    /// earlier rule, which descended through shared nodes, grows the
    /// reachable count in 1 109 of these 2 000 cases and on the 2 k mesh
    /// (1 231 ANDs → 2 155).
    #[test]
    fn balance_never_duplicates_logic_or_deepens_outputs() {
        let mut rng = StdRng::seed_from_u64(46);
        let mut graphs: Vec<Aig> = (0..2_000)
            .map(|_| {
                let (pis, ands, pos) =
                    (rng.gen_range(2..=9), rng.gen_range(3..=199), rng.gen_range(1..=5));
                random_aig(&mut rng, pis, ands, pos)
            })
            .collect();
        graphs.push(Aig::from_netlist(&generate::scale_mesh(2_000, 3).unwrap()).unwrap().0);
        for (case, g) in graphs.iter().enumerate() {
            let b = g.balance();
            for _ in 0..4 {
                let pats: Vec<u64> = (0..g.num_pis()).map(|_| rng.gen()).collect();
                assert_eq!(b.simulate64(&pats), g.simulate64(&pats), "case {case}: function");
            }
            let (before, after) = (reachable_ands(g), reachable_ands(&b));
            assert!(after <= before, "case {case}: reachable ANDs {before} -> {after}");
            assert!(b.depth() <= g.depth(), "case {case}: depth {} -> {}", g.depth(), b.depth());
        }
        let mesh = graphs.last().expect("the mesh is the last case");
        assert_eq!((reachable_ands(mesh), reachable_ands(&mesh.balance())), (1_231, 1_222));
    }

    #[test]
    fn rewrite_preserves_function() {
        for seed in [1u64, 5, 9] {
            let n = generate::random_logic(generate::RandomLogicConfig {
                gates: 250,
                flop_fraction: 0.0,
                seed,
                ..Default::default()
            })
            .unwrap();
            let (aig, _) = Aig::from_netlist(&n).unwrap();
            let rw = aig.rewrite();
            let pats: Vec<u64> = (0..aig.num_pis())
                .map(|i| 0x9E37_79B9_97F4_A7C1u64.wrapping_mul(i as u64 + seed))
                .collect();
            assert_eq!(aig.simulate64(&pats), rw.simulate64(&pats), "seed {seed}");
            assert!(rw.num_ands() <= aig.num_ands(), "rewrite must not grow: seed {seed}");
        }
    }

    #[test]
    fn rewrite_shrinks_redundant_logic() {
        // Build (a&b)|(a&!b) = a the hard way; rewrite should see through it.
        let mut g = Aig::new();
        let a = g.add_pi("a");
        let b = g.add_pi("b");
        let p = g.and(a, b);
        let q = g.and(a, !b);
        let y = g.or(p, q);
        g.add_po("y", y);
        let rw = g.rewrite();
        assert_eq!(rw.num_ands(), 0, "function collapses to a wire");
        let pats = vec![0xF0F0, 0xCCCC];
        assert_eq!(rw.simulate64(&pats), g.simulate64(&pats));
    }

    #[test]
    fn unsupported_cells_rejected() {
        use eda_netlist::{CellFunction, Netlist};
        let mut n = Netlist::new("t");
        let a = n.add_input("a");
        let e = n.add_input("e");
        let y = n.add_gate_fn("iso", CellFunction::Isolation, &[a, e]).unwrap();
        n.add_output("y", y);
        assert!(matches!(Aig::from_netlist(&n), Err(AigError::UnsupportedCell(_))));
    }

    #[test]
    fn digests_are_pinned() {
        // Values recorded before `digest` stopped materialising its text;
        // the rewrite pins below compare against digests too.
        let pinned = [
            (generate::switch_fabric(4, 3).unwrap(), 0xb926_fdf7_4b6f_2fa0u64),
            (generate::array_multiplier(8).unwrap(), 0xea93_69bb_85cf_bddf),
        ];
        for (design, want) in pinned {
            let (aig, _) = Aig::from_netlist(&design).unwrap();
            assert_eq!(aig.digest(), want, "{}", design.name());
        }
    }

    #[test]
    fn isop_cover_table_matches_isop_for_every_function() {
        let mut covers = IsopCovers::new();
        for tt in 0..=u16::MAX {
            let f = TruthTable::from_bits(K, tt as u64);
            let cover = isop(&f, &f);
            let want = sop_aig_cost(&cover);
            assert!(want <= u8::MAX as u32);
            let cubes: Vec<u8> = cover
                .cubes()
                .iter()
                .map(|c| (0..K).map(|v| (c.literal(v) as u8) << (2 * v)).sum())
                .collect();
            for pass in ["first", "cached"] {
                assert_eq!(covers.cost(tt), want, "tt {tt:04x}, {pass}");
                assert_eq!(covers.cubes(tt), &cubes[..], "tt {tt:04x}, {pass}");
            }
        }
    }

    #[test]
    fn not_operator_involutes() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        assert_eq!(!!a, a);
        assert_ne!(!a, a);
    }
}
