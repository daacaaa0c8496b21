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
use eda_netlist::codec::{unescape, write_token};
use eda_netlist::memo::Fnv1a;
use eda_netlist::{CellFunction, NetDriver, Netlist};
use std::collections::HashMap;
use std::fmt::Write;

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
    strash: HashMap<(Lit, Lit), u32>,
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
        Aig { nodes: vec![AigNode::Const], strash: HashMap::new(), pi_names: Vec::new(), pos: Vec::new() }
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
        let key = if a <= b { (a, b) } else { (b, a) };
        if let Some(&id) = self.strash.get(&key) {
            return Lit::new(id, false);
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(AigNode::And(key.0, key.1));
        self.strash.insert(key, id);
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
        netlist.validate().map_err(|e| AigError::Invalid(e.to_string()))?;
        let lib = netlist.library();
        let mut aig = Aig::new();
        let mut net_lit: HashMap<usize, Lit> = HashMap::new();
        for &pi in netlist.primary_inputs() {
            let lit = aig.add_pi(netlist.net(pi).name());
            net_lit.insert(pi.index(), lit);
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
            net_lit.insert(inst.output().index(), q);
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
        let order = netlist.topo_order().map_err(|e| AigError::Invalid(e.to_string()))?;
        for id in order {
            let inst = netlist.instance(id);
            let func = lib.cell(inst.cell()).function;
            if func.is_sequential() {
                continue;
            }
            let ins: Vec<Lit> = inst
                .inputs()
                .iter()
                .map(|n| net_lit.get(&n.index()).copied().expect("topo order guarantees inputs"))
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
            net_lit.insert(inst.output().index(), lit);
        }
        for (name, net) in netlist.primary_outputs() {
            let lit = net_lit
                .get(&net.index())
                .copied()
                .ok_or_else(|| AigError::Invalid(format!("output `{name}` undriven")))?;
            aig.add_po(name.clone(), lit);
        }
        let real_pos = aig.pos.len();
        for &f in &flops {
            let inst = netlist.instance(f);
            let d = inst.inputs()[0];
            let lit = net_lit
                .get(&d.index())
                .copied()
                .ok_or_else(|| AigError::Invalid(format!("flop `{}` D undriven", inst.name())))?;
            aig.add_po(format!("{}__d", inst.name()), lit);
        }
        Ok((aig, SeqBoundary { real_pis, real_pos, flops: flop_records }))
    }

    /// Depth-oriented balancing: re-associates maximal AND trees so the
    /// deepest input feeds the shallowest position.
    pub fn balance(&self) -> Aig {
        let mut out = Aig::new();
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
                    // Gather conjunction leaves of the maximal AND tree rooted
                    // here (descending through non-complemented AND edges;
                    // strash re-shares any duplicated sub-structure).
                    let mut leaves: Vec<Lit> = Vec::new();
                    let mut stack = vec![Lit::new(i as u32, false)];
                    while let Some(l) = stack.pop() {
                        let expandable = leaves.len() + stack.len() < 64;
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
        let n_nodes = self.nodes.len();
        let refs = self.refcounts();
        let cuts = CutSet::enumerate(&self.nodes);
        let mut cone_costs = IsopCosts::new();
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
                let cost = cone_costs.of(c.tt) as f64 + leaf_flow;
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
        let mut out = Aig::new();
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
                            let f = TruthTable::from_bits(K, cut.tt as u64);
                            let cover = isop(&f, &f);
                            let mut terms: Vec<Lit> = Vec::with_capacity(cover.len());
                            for cube in cover.cubes() {
                                let mut lits = Vec::new();
                                for (v, &l) in cut.leaves().iter().enumerate() {
                                    let leaf = map[l as usize];
                                    match cube.literal(v) {
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
    /// strash-canonical AND operands, PI names, PO bindings). Two AIGs with
    /// equal digests are structurally identical, so a memoized pass result
    /// keyed on its input digest replays bit-identically.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        self.write_store_text(&mut h).expect("hashing never fails");
        h.finish()
    }

    /// Serializes the graph to the line-oriented store text used by the
    /// sub-stage memo (`aig v1` header, `n` node rows, `p`/`o` boundary
    /// rows). [`Aig::from_store_text`] restores the identical structure.
    pub fn to_store_text(&self) -> String {
        let mut out = String::with_capacity(16 * self.nodes.len() + 64);
        self.write_store_text(&mut out).expect("writing to a String never fails");
        out
    }

    /// The one definition of the store text: [`Aig::to_store_text`] collects
    /// it, [`Aig::digest`] hashes it as it streams by.
    fn write_store_text(&self, out: &mut impl Write) -> std::fmt::Result {
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
        // Explicit terminator so a truncated tail can never parse as a
        // complete (shorter) graph.
        out.write_str("end\n")
    }

    /// Parses the store text written by [`Aig::to_store_text`], rebuilding
    /// the structural-hash table. Returns `None` on any malformed input —
    /// memo callers treat that as a miss and recompute.
    pub fn from_store_text(text: &str) -> Option<Aig> {
        let mut lines = text.lines();
        let header = lines.next()?;
        let mut hf = header.split(' ');
        if hf.next()? != "aig" || hf.next()? != "v1" {
            return None;
        }
        let n_nodes: usize = hf.next()?.parse().ok()?;
        let n_pis: usize = hf.next()?.parse().ok()?;
        let n_pos: usize = hf.next()?.parse().ok()?;
        let mut g = Aig { nodes: Vec::with_capacity(n_nodes), strash: HashMap::new(), pi_names: Vec::with_capacity(n_pis), pos: Vec::with_capacity(n_pos) };
        for _ in 0..n_nodes {
            let line = lines.next()?;
            let mut f = line.split(' ');
            if f.next()? != "n" {
                return None;
            }
            let node = match f.next()? {
                "c" => AigNode::Const,
                "i" => AigNode::Pi(f.next()?.parse().ok()?),
                "a" => {
                    let a = Lit(f.next()?.parse().ok()?);
                    let b = Lit(f.next()?.parse().ok()?);
                    if a.node() >= g.nodes.len() || b.node() >= g.nodes.len() || a > b {
                        return None;
                    }
                    g.strash.insert((a, b), g.nodes.len() as u32);
                    AigNode::And(a, b)
                }
                _ => return None,
            };
            g.nodes.push(node);
        }
        for _ in 0..n_pis {
            let line = lines.next()?;
            let name = line.strip_prefix("p ")?;
            g.pi_names.push(unescape(name).ok()?);
        }
        for _ in 0..n_pos {
            let line = lines.next()?;
            let mut f = line.strip_prefix("o ")?.rsplitn(2, ' ');
            let lit = Lit(f.next()?.parse().ok()?);
            let name = unescape(f.next()?).ok()?;
            if lit.node() >= g.nodes.len() {
                return None;
            }
            g.pos.push((name, lit));
        }
        if lines.next()? != "end"
            || lines.next().is_some()
            || g.nodes.first() != Some(&AigNode::Const)
        {
            return None;
        }
        Some(g)
    }

    /// The node array, in topological order, for sibling modules (the cut
    /// kernel and the technology mapper).
    pub(crate) fn nodes(&self) -> &[AigNode] {
        &self.nodes
    }
}

/// ISOP structural cost of every 4-input function a rewrite pass meets,
/// filled on first use: one [`isop`] per distinct function instead of one per
/// candidate cut.
struct IsopCosts(Vec<u8>);

impl IsopCosts {
    /// No cover of a 4-input function reaches this many AIG nodes.
    const UNSET: u8 = u8::MAX;

    fn new() -> IsopCosts {
        IsopCosts(vec![Self::UNSET; 1 << (1 << K)])
    }

    /// `sop_aig_cost(&isop(f, f))` for the function with truth table `tt`.
    fn of(&mut self, tt: u16) -> u32 {
        let slot = &mut self.0[tt as usize];
        if *slot == Self::UNSET {
            let f = TruthTable::from_bits(K, tt as u64);
            *slot = sop_aig_cost(&isop(&f, &f)) as u8;
        }
        *slot as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;

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
    fn store_text_roundtrips_structure_and_digest() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let (aig, _) = Aig::from_netlist(&n).unwrap();
        let opt = aig.rewrite().balance();
        let text = opt.to_store_text();
        let back = Aig::from_store_text(&text).expect("well-formed text parses");
        assert_eq!(back.to_store_text(), text, "serialization is a fixed point");
        assert_eq!(back.digest(), opt.digest());
        assert_eq!(back.num_ands(), opt.num_ands());
        assert_eq!(back.pi_names(), opt.pi_names());
        assert_eq!(back.pos(), opt.pos());
        let pats: Vec<u64> = (0..opt.num_pis()).map(|i| 0xA5A5_5A5A_1234_9876u64.rotate_left(i as u32)).collect();
        assert_eq!(back.simulate64(&pats), opt.simulate64(&pats));
        // The restored strash keeps sharing live: AND-ing an existing pair
        // must not allocate a new node.
        let mut b2 = back.clone();
        let nodes_before = b2.nodes.len();
        if let Some((&(a, b), _)) = b2.strash.clone().iter().next() {
            b2.and(a, b);
            assert_eq!(b2.nodes.len(), nodes_before, "strash survives the roundtrip");
        }
    }

    #[test]
    fn store_text_escapes_hostile_names() {
        let mut g = Aig::new();
        let a = g.add_pi("a b%c\nd");
        g.add_po("y z%", !a);
        let back = Aig::from_store_text(&g.to_store_text()).unwrap();
        assert_eq!(back.pi_names(), g.pi_names());
        assert_eq!(back.pos(), g.pos());
        assert_eq!(back.digest(), g.digest());
    }

    #[test]
    fn malformed_store_text_is_rejected() {
        let n = generate::ripple_carry_adder(3).unwrap();
        let (aig, _) = Aig::from_netlist(&n).unwrap();
        let text = aig.to_store_text();
        assert!(Aig::from_store_text("").is_none());
        assert!(Aig::from_store_text("aig v2 1 0 0\nn c\n").is_none());
        // Truncation anywhere must fail, never panic.
        for cut in [text.len() / 4, text.len() / 2, text.len() - 2] {
            assert!(Aig::from_store_text(&text[..cut]).is_none(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        assert!(Aig::from_store_text(&format!("{text}junk\n")).is_none());
    }

    #[test]
    fn digests_are_pinned_and_equal_the_hashed_store_text() {
        // Values recorded before `digest` stopped materialising the text:
        // sub-stage store keys derive from them and must not move.
        let pinned = [
            (generate::switch_fabric(4, 3).unwrap(), 0xb926_fdf7_4b6f_2fa0u64),
            (generate::array_multiplier(8).unwrap(), 0xea93_69bb_85cf_bddf),
        ];
        for (design, want) in pinned {
            let (aig, _) = Aig::from_netlist(&design).unwrap();
            assert_eq!(aig.digest(), want, "{}", design.name());
            assert_eq!(aig.digest(), eda_netlist::memo::fnv1a(aig.to_store_text().bytes()));
        }
        let mut hostile = Aig::new();
        let a = hostile.add_pi("a b%c\nd\u{e9}");
        hostile.add_po("y z%", !a);
        assert_eq!(hostile.digest(), eda_netlist::memo::fnv1a(hostile.to_store_text().bytes()));
    }

    #[test]
    fn isop_cost_table_matches_isop_for_every_function() {
        let mut costs = IsopCosts::new();
        for tt in 0..=u16::MAX {
            let f = TruthTable::from_bits(K, tt as u64);
            let want = sop_aig_cost(&isop(&f, &f));
            assert!(want < IsopCosts::UNSET as u32);
            assert_eq!(costs.of(tt), want, "tt {tt:04x}");
            assert_eq!(costs.of(tt), want, "tt {tt:04x}, cached");
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
