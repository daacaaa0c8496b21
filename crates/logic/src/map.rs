//! Cut-based technology mapping from AIGs onto a standard-cell [`Library`],
//! plus the deliberately naive decade-old baseline mapper.
//!
//! Domic's claim C3 ("in the last ten years, we have improved advanced RTL
//! synthesis results by 30 % in terms of area") is reproduced by comparing
//! [`map_aig`] (cut matching with area-flow selection, the 2016-era flow)
//! against [`map_naive`] (per-node NAND2/INV decomposition, the 2006-era
//! baseline) on the same AIGs.
//!
//! Matching is phase-complete: every cell is tabulated under all input
//! permutations *and* input complementations, and both output phases of every
//! node are costed, so inverters appear only where they pay for themselves.
//!
//! The matches become a netlist through one serial routine: a claim walk
//! gives each gate to the first output cone that needs it, and each claimed
//! run — a hierarchical block's flop cones, then the tail of everything left —
//! is realized in claim order with the run's names, labels and tie cells.

use crate::aig::{Aig, AigNode, Lit, SeqBoundary};
use crate::cuts::{CutSet, K};
use eda_netlist::{CellFunction, CellId, InstId, Library, NetId, Netlist, NetlistError};
use std::collections::HashMap;
use std::sync::Arc;

/// Errors from technology mapping.
#[derive(Debug, Clone, PartialEq)]
pub enum MapError {
    /// The library lacks an inverter (required to realize complement edges).
    MissingInverter,
    /// The library lacks a 2-input NAND or AND (required for feasibility).
    MissingAnd2,
    /// The library lacks a sequential cell to re-insert flops.
    MissingFlop,
    /// Netlist reconstruction failed.
    Netlist(NetlistError),
    /// An internal mapping invariant broke (a bug, surfaced as an error
    /// instead of a panic so callers can degrade gracefully).
    Internal(&'static str),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::MissingInverter => write!(f, "library has no inverter cell"),
            MapError::MissingAnd2 => write!(f, "library has no 2-input NAND/AND cell"),
            MapError::MissingFlop => write!(f, "library has no D flip-flop cell"),
            MapError::Netlist(e) => write!(f, "netlist construction failed: {e}"),
            MapError::Internal(what) => write!(f, "internal mapping invariant broke: {what}"),
        }
    }
}

impl std::error::Error for MapError {}

impl From<NetlistError> for MapError {
    fn from(e: NetlistError) -> Self {
        MapError::Netlist(e)
    }
}

/// A library pattern: a cell plus the pin assignment realizing a truth table.
#[derive(Debug, Clone, Copy)]
struct Pattern {
    cell: CellId,
    arity: u8,
    /// `perm[i]` = cut-leaf position feeding cell pin `i`.
    perm: [u8; K],
    /// `neg[i]` = pin `i` reads the complemented leaf.
    neg: [bool; K],
}

struct PatternTable {
    /// Per 4-input truth table (over cut leaves): 1 + the index into
    /// `groups` of the patterns realizing it, 0 when no cell does.
    slot: Vec<u16>,
    groups: Vec<Vec<Pattern>>,
    inv: CellId,
    inv_area: f64,
    inv_delay: f64,
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn rec(acc: &mut Vec<Vec<usize>>, cur: &mut Vec<usize>, used: &mut Vec<bool>, n: usize) {
        if cur.len() == n {
            acc.push(cur.clone());
            return;
        }
        for i in 0..n {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(acc, cur, used, n);
                cur.pop();
                used[i] = false;
            }
        }
    }
    let mut acc = Vec::new();
    rec(&mut acc, &mut Vec::new(), &mut vec![false; n], n);
    acc
}

impl PatternTable {
    /// Tabulates the library in library order: every permutation ×
    /// complementation of each cell, keeping one pattern per cell per truth
    /// table (the first `(perm, mask)` hit) and at most six alternatives per
    /// truth table.
    fn build(lib: &Library) -> Result<PatternTable, MapError> {
        let inv = lib.find_function(CellFunction::Inv).ok_or(MapError::MissingInverter)?;
        let inv_def = lib.cell(inv);
        let mut slot = vec![0u16; 1 << (1 << K)];
        let mut groups: Vec<Vec<Pattern>> = Vec::new();
        for (id, def) in lib.iter() {
            let arity = def.function.num_inputs();
            if arity == 0
                || arity > K
                || def.function.is_sequential()
                || matches!(def.function, CellFunction::ClockGate | CellFunction::Decap)
            {
                continue;
            }
            let mut found: Vec<(u16, Pattern)> = Vec::new();
            for perm in permutations(arity) {
                for mask in 0..(1u32 << arity) {
                    let mut pat =
                        Pattern { cell: id, arity: arity as u8, perm: [0; K], neg: [false; K] };
                    for (pin, &leaf) in perm.iter().enumerate() {
                        pat.perm[pin] = leaf as u8;
                        pat.neg[pin] = mask >> pin & 1 == 1;
                    }
                    // Truth table over cut-leaf variables: pin i reads leaf
                    // perm[i] xor neg[i].
                    let mut bits = 0u16;
                    for row in 0..(1usize << K) {
                        let pins: Vec<bool> =
                            (0..arity).map(|i| (row >> perm[i] & 1 == 1) ^ pat.neg[i]).collect();
                        if def.function.eval(&pins) {
                            bits |= 1 << row;
                        }
                    }
                    if !found.iter().any(|&(b, _)| b == bits) {
                        found.push((bits, pat));
                    }
                }
            }
            for (bits, pat) in found {
                let at = &mut slot[bits as usize];
                if *at == 0 {
                    groups.push(Vec::new());
                    *at = u16::try_from(groups.len())
                        .map_err(|_| MapError::Internal("library realizes too many functions"))?;
                }
                // Bound the alternatives per function.
                let group = &mut groups[*at as usize - 1];
                if group.len() < 6 {
                    group.push(pat);
                }
            }
        }
        Ok(PatternTable {
            slot,
            groups,
            inv,
            inv_area: inv_def.area_um2,
            inv_delay: inv_def.delay_ps,
        })
    }

    /// The patterns realizing the 4-input function `tt`, in library order.
    fn patterns(&self, tt: u16) -> &[Pattern] {
        match self.slot[tt as usize] {
            0 => &[],
            at => &self.groups[at as usize - 1],
        }
    }
}

/// Outcome of a mapping run.
#[derive(Debug, Clone)]
pub struct MapOutcome {
    /// The mapped gate-level netlist.
    pub netlist: Netlist,
    /// Total mapped cell area (µm², reference node).
    pub area_um2: f64,
    /// Estimated critical path (intrinsic delays only, ps).
    pub delay_ps: f64,
    /// Number of mapped combinational cell instances.
    pub cells: usize,
    /// `(node, phase)` keys the netlist-construction walk expanded. Each
    /// becomes exactly one gate, so this equals the mapped cell count less
    /// tie cells; a larger number means cones are being re-walked.
    pub cone_visits: u64,
    /// Cuts the kernel kept over all nodes, trivial cuts included.
    pub cuts_enumerated: u64,
}

/// The chosen realization of one `(node, phase)`.
#[derive(Clone, Copy)]
struct Best {
    cost: f64,
    arrival: f64,
    /// Chosen cell, or `None` when realized as an inverter on the other phase
    /// (or a PI / constant).
    cell: Option<CellId>,
    via_inverter: bool,
    arity: u8,
    /// `(leaf node, phase)` per cell pin, in pin order; `arity` are in use.
    leaf_phases: [(u32, bool); K],
}

impl Best {
    const UNSET: Best = Best {
        cost: f64::INFINITY,
        arrival: f64::INFINITY,
        cell: None,
        via_inverter: false,
        arity: 0,
        leaf_phases: [(0, false); K],
    };

    fn leaves(&self) -> &[(u32, bool)] {
        &self.leaf_phases[..self.arity as usize]
    }
}

/// `(node << 1) | phase`: the identity of one realizable signal.
fn key_of(node: u32, phase: bool) -> u32 {
    node << 1 | phase as u32
}

/// Best matches for both phases of one node, reading only the `best`
/// entries of its cut leaves, which live in its fanin cone and so precede it
/// in index order.
/// Selection is area flow: the lower `cost` wins and `arrival` breaks ties;
/// a phase goes through an inverter only when that is strictly cheaper.
fn match_node(
    nodes: &[AigNode],
    cuts: &CutSet,
    best: &[[Best; 2]],
    refs: &[u32],
    table: &PatternTable,
    lib: &Library,
    i: usize,
) -> [Best; 2] {
    match nodes[i] {
        AigNode::Const => [Best { cost: 0.0, arrival: 0.0, ..Best::UNSET }; 2],
        AigNode::Pi(_) => [
            Best { cost: 0.0, arrival: 0.0, ..Best::UNSET },
            Best {
                cost: table.inv_area,
                arrival: table.inv_delay,
                via_inverter: true,
                ..Best::UNSET
            },
        ],
        AigNode::And(..) => {
            let mut out: [Best; 2] = std::array::from_fn(|ph| {
                let mut b = Best::UNSET;
                for cut in cuts.of(i) {
                    // The trivial self-cut would let phase 1 "match" an
                    // inverter fed by phase 0 of the same node, creating
                    // a realization cycle with the via-inverter path. It
                    // is self-referential for plain matching too (the
                    // leaf's best cost is still ∞).
                    if cut.leaves() == [i as u32] {
                        continue;
                    }
                    let want = if ph == 0 { cut.tt } else { !cut.tt };
                    for pat in table.patterns(want) {
                        let arity = pat.arity as usize;
                        // Every pin must address an existing leaf.
                        if pat.perm[..arity].iter().any(|&p| p as usize >= cut.leaves().len()) {
                            continue;
                        }
                        let def = lib.cell(pat.cell);
                        let mut cost = def.area_um2;
                        let mut arr: f64 = 0.0;
                        let mut leaf_phases = [(0u32, false); K];
                        let mut feasible = true;
                        for (pin, slot) in leaf_phases[..arity].iter_mut().enumerate() {
                            let leaf = cut.leaves()[pat.perm[pin] as usize] as usize;
                            let phase = pat.neg[pin];
                            let lb = &best[leaf][phase as usize];
                            if !lb.cost.is_finite() {
                                feasible = false;
                                break;
                            }
                            cost += lb.cost / refs[leaf].max(1) as f64;
                            arr = arr.max(lb.arrival);
                            *slot = (leaf as u32, phase);
                        }
                        if !feasible {
                            continue;
                        }
                        let arrival = arr + def.delay_ps;
                        if cost < b.cost || (cost == b.cost && arrival < b.arrival) {
                            b = Best {
                                cost,
                                arrival,
                                cell: Some(pat.cell),
                                via_inverter: false,
                                arity: pat.arity,
                                leaf_phases,
                            };
                        }
                    }
                }
                b
            });
            // Consider realizing each phase by inverting the other.
            for ph in 0..2 {
                let other = out[1 - ph];
                if !other.cost.is_finite() || other.via_inverter {
                    continue;
                }
                let cost = other.cost + table.inv_area;
                let arrival = other.arrival + table.inv_delay;
                if cost < out[ph].cost {
                    out[ph] = Best { cost, arrival, via_inverter: true, ..Best::UNSET };
                }
            }
            debug_assert!(
                out[0].cost.is_finite() || out[1].cost.is_finite(),
                "node {i} unmappable"
            );
            out
        }
    }
}

/// The first-owner claim walk over the chosen matches: one serial pass over
/// all output cones, in realization order, on one shared `seen` bitmap.
///
/// [`ClaimWalk::claim`] appends the not-yet-claimed `(node, phase)` keys of a
/// root's cone in post-order (children before the gates that read them) and
/// stops at any key an earlier root claimed. That prune loses nothing: a
/// key is claimed together with its whole closure, so everything below a
/// claimed key is claimed too, and removing those already-claimed subtrees
/// from a post-order leaves the order of the remaining keys untouched. Each
/// root therefore gets exactly the list "full closure of the root, minus
/// everything earlier roots own", at a total cost of one visit per distinct
/// key instead of one per (root, key in its closure) pair.
///
/// Iterative on an explicit stack: the cone of a deep chain is as deep as
/// the chain, and worker threads run on 2 MiB stacks.
struct ClaimWalk<'a> {
    nodes: &'a [AigNode],
    best: &'a [[Best; 2]],
    /// One flag per key: claimed by this or an earlier root.
    seen: Vec<bool>,
    /// `(key, next child to enter)` per open AND key.
    stack: Vec<(u32, u8)>,
    /// Gate keys expanded so far (AND keys and inverted PIs; ties excluded).
    visits: u64,
}

impl<'a> ClaimWalk<'a> {
    fn new(nodes: &'a [AigNode], best: &'a [[Best; 2]]) -> ClaimWalk<'a> {
        ClaimWalk { nodes, best, seen: vec![false; 2 * nodes.len()], stack: Vec::new(), visits: 0 }
    }

    /// Claims the unclaimed part of `root`'s cone into `order`. Positive PI
    /// references are boundary nets and never claimed; constants are claimed
    /// (as shared tie cells) only when `ties` is set — hierarchical blocks
    /// create their ties locally instead.
    fn claim(&mut self, root: Lit, ties: bool, order: &mut Vec<u32>) {
        self.enter(key_of(root.node() as u32, root.is_complemented()), ties, order);
        while let Some(top) = self.stack.last_mut() {
            let (key, next) = *top;
            top.1 += 1;
            let b = &self.best[(key >> 1) as usize][(key & 1) as usize];
            let child = if b.via_inverter {
                (next == 0).then_some(key ^ 1)
            } else {
                b.leaves().get(next as usize).map(|&(leaf, phase)| key_of(leaf, phase))
            };
            match child {
                Some(child) => self.enter(child, ties, order),
                None => {
                    self.stack.pop();
                    order.push(key);
                }
            }
        }
    }

    fn enter(&mut self, key: u32, ties: bool, order: &mut Vec<u32>) {
        let node = self.nodes[(key >> 1) as usize];
        let claimable = match node {
            AigNode::Const => ties,
            AigNode::Pi(_) => key & 1 == 1,
            AigNode::And(..) => true,
        };
        if !claimable || std::mem::replace(&mut self.seen[key as usize], true) {
            return;
        }
        match node {
            AigNode::Const => order.push(key),
            AigNode::Pi(_) => {
                self.visits += 1;
                order.push(key);
            }
            AigNode::And(..) => {
                self.visits += 1;
                self.stack.push((key, 0));
            }
        }
    }
}

/// Where a claimed run is realized: one hierarchical block or the tail.
///
/// A block names its gates `u_b{bi}_i{n}` / `u_b{bi}_c{n}`, where `n` counts
/// the block's gates ties included, labels every gate with the block, and
/// creates its own tie `u_b{bi}_t{phase}` on the first reference to a
/// constant. The tail names its gates `u_inv{n}` / `u_c{n}` (`n` from 1, ties
/// not counted); its ties `u_tie{phase}` are claimed by the claim walk and
/// shared netlist-wide.
struct Scope<'a> {
    /// `(block index, label)`; `None` for the tail.
    block: Option<(usize, &'a str)>,
    /// The naming counter `n` described above.
    gates: usize,
    /// The scope's tie net per phase, once created.
    ties: [Option<NetId>; 2],
}

impl Scope<'_> {
    /// The name of the scope's next inverter (`inv`) or cell.
    fn gate_name(&mut self, inv: bool) -> String {
        self.gates += 1;
        match self.block {
            Some((bi, _)) => format!("u_b{bi}_{}{}", if inv { "i" } else { "c" }, self.gates - 1),
            None => format!("u_{}{}", if inv { "inv" } else { "c" }, self.gates),
        }
    }

    fn tie_name(&mut self, phase: bool) -> String {
        match self.block {
            Some((bi, _)) => {
                self.gates += 1;
                format!("u_b{bi}_t{}", phase as usize)
            }
            None => format!("u_tie{}", phase as usize),
        }
    }
}

/// The mapped netlist under construction, with the net of everything
/// realized so far: boundary nets for positive PI references, one slot per
/// `(node, phase)` key for gates.
struct Builder<'a> {
    out: Netlist,
    nodes: &'a [AigNode],
    best: &'a [[Best; 2]],
    inv: CellId,
    pi_nets: Vec<NetId>,
    flop_q_nets: Vec<NetId>,
    of_key: Vec<Option<NetId>>,
}

impl Builder<'_> {
    fn of_pi(&self, k: usize) -> NetId {
        if k < self.pi_nets.len() {
            self.pi_nets[k]
        } else {
            self.flop_q_nets[k - self.pi_nets.len()]
        }
    }

    /// The net carrying `key` in `scope`: a constant is the scope's tie, any
    /// other gate must have been realized already.
    fn input(&mut self, scope: &mut Scope, key: u32) -> Result<NetId, MapError> {
        match self.nodes[(key >> 1) as usize] {
            AigNode::Const => self.tie(scope, key & 1 == 1),
            AigNode::Pi(k) if key & 1 == 0 => Ok(self.of_pi(k)),
            _ => self.of_key[key as usize]
                .ok_or(MapError::Internal("gate input realized out of order")),
        }
    }

    /// The scope's tie cell of `phase`, created on first use.
    fn tie(&mut self, scope: &mut Scope, phase: bool) -> Result<NetId, MapError> {
        if let Some(net) = scope.ties[phase as usize] {
            return Ok(net);
        }
        let f = if phase { CellFunction::Const1 } else { CellFunction::Const0 };
        let net = self.out.add_gate_fn(scope.tie_name(phase), f, &[])?;
        self.label(scope);
        scope.ties[phase as usize] = Some(net);
        Ok(net)
    }

    /// Adds the scope's next gate: `cell`, or the inverter when `None`.
    fn gate(
        &mut self,
        scope: &mut Scope,
        cell: Option<CellId>,
        ins: &[NetId],
    ) -> Result<NetId, MapError> {
        let name = scope.gate_name(cell.is_none());
        let net = self.out.add_gate(name, cell.unwrap_or(self.inv), ins)?;
        self.label(scope);
        Ok(net)
    }

    fn label(&mut self, scope: &Scope) {
        if let Some((_, label)) = scope.block {
            self.out.assign_block(InstId::from_index(self.out.num_instances() - 1), label);
        }
    }

    /// Realizes one claimed run: claims the unclaimed part of `roots`' cones,
    /// adds those gates in claim order under `scope`'s names, and returns the
    /// net of each root.
    fn realize(
        &mut self,
        walk: &mut ClaimWalk,
        scope: &mut Scope,
        roots: &[Lit],
    ) -> Result<Vec<NetId>, MapError> {
        let mut order = Vec::new();
        for &root in roots {
            walk.claim(root, scope.block.is_none(), &mut order);
        }
        let best = self.best;
        let mut ins: Vec<NetId> = Vec::with_capacity(K);
        for &key in &order {
            let (node, phase) = ((key >> 1) as usize, key & 1 == 1);
            let net = match self.nodes[node] {
                AigNode::Const => self.tie(scope, phase)?,
                AigNode::Pi(k) => {
                    let pi = self.of_pi(k);
                    self.gate(scope, None, &[pi])?
                }
                AigNode::And(..) => {
                    let b = &best[node][phase as usize];
                    if b.via_inverter {
                        let src = self.input(scope, key ^ 1)?;
                        self.gate(scope, None, &[src])?
                    } else {
                        let cell =
                            b.cell.ok_or(MapError::Internal("direct match lost its cell"))?;
                        ins.clear();
                        for &(leaf, ph) in b.leaves() {
                            ins.push(self.input(scope, key_of(leaf, ph))?);
                        }
                        self.gate(scope, Some(cell), &ins)?
                    }
                }
            };
            self.of_key[key as usize] = Some(net);
        }
        roots
            .iter()
            .map(|l| self.input(scope, key_of(l.node() as u32, l.is_complemented())))
            .collect()
    }
}

/// Enumerates cuts and selects the best match for both phases of every node
/// in index (= topological) order. Returns the matches plus the number of
/// cuts the kernel kept.
fn choose_matches(
    nodes: &[AigNode],
    table: &PatternTable,
    lib: &Library,
) -> (Vec<[Best; 2]>, u64) {
    let cuts = CutSet::enumerate(nodes);
    let mut refs = vec![1u32; nodes.len()];
    for node in nodes {
        if let AigNode::And(a, b) = node {
            refs[a.node()] += 1;
            refs[b.node()] += 1;
        }
    }
    let mut best: Vec<[Best; 2]> = vec![[Best::UNSET; 2]; nodes.len()];
    for i in 0..nodes.len() {
        best[i] = match_node(nodes, &cuts, &best, &refs, table, lib, i);
    }
    (best, cuts.total() as u64)
}

/// Splits a hierarchical design's output cones into per-block groups and a
/// tail, as indices into the AIG's POs: labelled flop D-cones by block, in
/// first-appearance order over the flop boundary; unlabelled flop cones and
/// real POs last, so shared logic is claimed by a block rather than by an
/// anonymous cone.
fn group_outputs(boundary: &SeqBoundary) -> (Vec<(&str, Vec<usize>)>, Vec<usize>) {
    let mut blocks: Vec<(&str, Vec<usize>)> = Vec::new();
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    let mut tail = Vec::new();
    for (fi, fb) in boundary.flops.iter().enumerate() {
        let poi = boundary.real_pos + fi;
        match fb.block.as_deref() {
            Some(b) => {
                let bi = *index_of.entry(b).or_insert_with(|| {
                    blocks.push((b, Vec::new()));
                    blocks.len() - 1
                });
                blocks[bi].1.push(poi);
            }
            None => tail.push(poi),
        }
    }
    tail.extend(0..boundary.real_pos);
    (blocks, tail)
}

/// Maps an AIG onto `lib` with phase-complete cut matching, serially: the
/// library is tabulated, then every node's cuts are enumerated and its
/// matches selected in index (= topological) order. Netlist construction
/// follows: one [`ClaimWalk`] hands every `(node, phase)` to the first output
/// cone that needs it, and [`Builder::realize`] adds each claimed run's gates
/// in claim order — every hierarchical block in block order, then the tail —
/// under the run's [`Scope`].
///
/// Flops recorded in `boundary` are re-inserted using the library's DFF.
///
/// # Errors
///
/// Fails if the library lacks an inverter, a 2-input NAND/AND (needed for
/// guaranteed feasibility), or — when `boundary` has flops — a D flip-flop.
pub fn map_aig(
    aig: &Aig,
    boundary: &SeqBoundary,
    lib: Arc<Library>,
) -> Result<MapOutcome, MapError> {
    if lib.find_function(CellFunction::Nand(2)).is_none()
        && lib.find_function(CellFunction::And(2)).is_none()
    {
        return Err(MapError::MissingAnd2);
    }
    let table = PatternTable::build(&lib)?;
    let nodes = aig.nodes();
    let n = nodes.len();
    let (best, cuts_enumerated) = choose_matches(nodes, &table, &lib);

    // ---- construct the mapped netlist ----
    let mut out = Netlist::with_library("mapped", lib.clone());
    let pi_nets: Vec<NetId> = aig
        .pi_names()
        .iter()
        .take(boundary.real_pis)
        .map(|name| out.add_input(name.clone()))
        .collect();
    let flop_q_nets: Vec<NetId> =
        boundary.flops.iter().map(|fb| out.add_net(format!("{}__q", fb.name))).collect();
    let mut build = Builder {
        out,
        nodes,
        best: &best,
        inv: table.inv,
        pi_nets,
        flop_q_nets,
        of_key: vec![None; 2 * n],
    };
    let mut walk = ClaimWalk::new(nodes, &best);

    // Realize the chosen matches as library gates, one claimed run at a
    // time: every block in block order, then the tail. The claim walk hands
    // logic shared between blocks to the first block that needs it; the tail
    // takes what the blocks left over — all of a flat design.
    let hierarchical = boundary.flops.iter().any(|fb| fb.block.is_some());
    let (blocks, tail) = if hierarchical {
        group_outputs(boundary)
    } else {
        (Vec::new(), (0..aig.pos().len()).collect())
    };
    let runs = blocks
        .iter()
        .enumerate()
        .map(|(bi, (label, pois))| (Some((bi, *label)), pois))
        .chain(std::iter::once((None, &tail)));
    let mut po_nets: Vec<Option<NetId>> = vec![None; aig.pos().len()];
    for (block, pois) in runs {
        let roots: Vec<Lit> = pois.iter().map(|&poi| aig.pos()[poi].1).collect();
        let mut scope = Scope { block, gates: 0, ties: [None; 2] };
        for (&poi, net) in pois.iter().zip(build.realize(&mut walk, &mut scope, &roots)?) {
            po_nets[poi] = Some(net);
        }
    }

    let po_nets: Vec<NetId> = po_nets
        .into_iter()
        .map(|n| n.ok_or(MapError::Internal("primary output cone never realized")))
        .collect::<Result<_, _>>()?;
    for (i, (name, _)) in aig.pos().iter().take(boundary.real_pos).enumerate() {
        build.out.add_output(name.clone(), po_nets[i]);
    }
    if !boundary.flops.is_empty() {
        let dff = lib.find_function(CellFunction::Dff).ok_or(MapError::MissingFlop)?;
        for (fi, fb) in boundary.flops.iter().enumerate() {
            let (d, ck) = (po_nets[boundary.real_pos + fi], build.of_pi(fb.clock_pi));
            let q = build.flop_q_nets[fi];
            build.out.add_gate_with_output(fb.name.clone(), dff, &[d, ck], q)?;
            if let Some(b) = fb.block.as_deref() {
                build.out.assign_block(InstId::from_index(build.out.num_instances() - 1), b);
            }
        }
    }
    let out = build.out;

    let area = out.area_um2();
    let cells = out
        .instances()
        .filter(|(_, i)| !out.library().cell(i.cell()).function.is_sequential())
        .count();
    let delay = aig
        .pos()
        .iter()
        .map(|(_, l)| best[l.node()][l.is_complemented() as usize].arrival)
        .fold(0.0f64, f64::max);
    Ok(MapOutcome {
        netlist: out,
        area_um2: area,
        delay_ps: delay,
        cells,
        cone_visits: walk.visits,
        cuts_enumerated,
    })
}

/// The 2006-era baseline: structural per-node decomposition into NAND2 + INV,
/// no cut matching, no phase optimization.
///
/// # Errors
///
/// Fails if the library lacks NAND2, an inverter, or a required flop.
pub fn map_naive(
    aig: &Aig,
    boundary: &SeqBoundary,
    lib: Arc<Library>,
) -> Result<MapOutcome, MapError> {
    let inv = lib.find_function(CellFunction::Inv).ok_or(MapError::MissingInverter)?;
    let nand = lib.find_function(CellFunction::Nand(2)).ok_or(MapError::MissingAnd2)?;
    let nodes = aig.nodes();
    let mut out = Netlist::with_library("mapped_naive", lib.clone());
    let mut pi_nets: Vec<NetId> = Vec::new();
    for name in aig.pi_names().iter().take(boundary.real_pis) {
        pi_nets.push(out.add_input(name.clone()));
    }
    let mut flop_q_nets: Vec<NetId> = Vec::new();
    for fb in &boundary.flops {
        flop_q_nets.push(out.add_net(format!("{}__q", fb.name)));
    }
    let real_pis = boundary.real_pis;
    let net_of_pi = |k: usize, pi_nets: &[NetId], flop_q_nets: &[NetId]| -> NetId {
        if k < real_pis {
            pi_nets[k]
        } else {
            flop_q_nets[k - real_pis]
        }
    };

    let mut pos_net: Vec<Option<NetId>> = vec![None; nodes.len()];
    let mut neg_net: Vec<Option<NetId>> = vec![None; nodes.len()];
    let mut counter = 0usize;
    let mut ties: [Option<NetId>; 2] = [None, None];

    fn tie_net(
        out: &mut Netlist,
        ties: &mut [Option<NetId>; 2],
        phase: bool,
    ) -> Result<NetId, MapError> {
        let idx = phase as usize;
        if let Some(nn) = ties[idx] {
            return Ok(nn);
        }
        let f = if phase { CellFunction::Const1 } else { CellFunction::Const0 };
        let nn = out.add_gate_fn(format!("n_tie{idx}"), f, &[]).map_err(MapError::Netlist)?;
        ties[idx] = Some(nn);
        Ok(nn)
    }

    for i in 0..nodes.len() {
        match nodes[i] {
            AigNode::Const => {}
            AigNode::Pi(k) => pos_net[i] = Some(net_of_pi(k, &pi_nets, &flop_q_nets)),
            AigNode::And(a, b) => {
                let fetch = |lit: crate::aig::Lit,
                                 out: &mut Netlist,
                                 pos_net: &mut [Option<NetId>],
                                 neg_net: &mut [Option<NetId>],
                                 counter: &mut usize,
                                 ties: &mut [Option<NetId>; 2]|
                 -> Result<NetId, MapError> {
                    let node = lit.node();
                    if matches!(nodes[node], AigNode::Const) {
                        return tie_net(out, ties, lit.is_complemented());
                    }
                    let pos = pos_net[node]
                        .ok_or(MapError::Internal("AIG fanin visited before its driver"));
                    if !lit.is_complemented() {
                        pos
                    } else if let Some(nn) = neg_net[node] {
                        Ok(nn)
                    } else {
                        *counter += 1;
                        let nn = out
                            .add_gate(format!("n_inv{counter}"), inv, &[pos?])
                            .map_err(MapError::Netlist)?;
                        neg_net[node] = Some(nn);
                        Ok(nn)
                    }
                };
                let na = fetch(a, &mut out, &mut pos_net, &mut neg_net, &mut counter, &mut ties)?;
                let nb = fetch(b, &mut out, &mut pos_net, &mut neg_net, &mut counter, &mut ties)?;
                counter += 1;
                let nand_out = out
                    .add_gate(format!("n_nand{counter}"), nand, &[na, nb])
                    .map_err(MapError::Netlist)?;
                counter += 1;
                let and_out = out
                    .add_gate(format!("n_inv{counter}"), inv, &[nand_out])
                    .map_err(MapError::Netlist)?;
                pos_net[i] = Some(and_out);
                neg_net[i] = Some(nand_out);
            }
        }
    }
    let mut po_nets = Vec::new();
    for (_, lit) in aig.pos() {
        let node = lit.node();
        let net = if matches!(nodes[node], AigNode::Const) {
            tie_net(&mut out, &mut ties, lit.is_complemented())?
        } else if !lit.is_complemented() {
            pos_net[node].ok_or(MapError::Internal("primary output driver never mapped"))?
        } else if let Some(nn) = neg_net[node] {
            nn
        } else {
            let pos =
                pos_net[node].ok_or(MapError::Internal("primary output driver never mapped"))?;
            counter += 1;
            let nn = out
                .add_gate(format!("n_inv{counter}"), inv, &[pos])
                .map_err(MapError::Netlist)?;
            neg_net[node] = Some(nn);
            nn
        };
        po_nets.push(net);
    }
    for (i, (name, _)) in aig.pos().iter().take(boundary.real_pos).enumerate() {
        out.add_output(name.clone(), po_nets[i]);
    }
    if !boundary.flops.is_empty() {
        let dff = lib.find_function(CellFunction::Dff).ok_or(MapError::MissingFlop)?;
        for (fi, fb) in boundary.flops.iter().enumerate() {
            let d = po_nets[boundary.real_pos + fi];
            let ck = net_of_pi(fb.clock_pi, &pi_nets, &flop_q_nets);
            out.add_gate_with_output(fb.name.clone(), dff, &[d, ck], flop_q_nets[fi])?;
            if let Some(b) = fb.block.as_deref() {
                out.assign_block(InstId::from_index(out.num_instances() - 1), b);
            }
        }
    }
    let area = out.area_um2();
    let cells = out
        .instances()
        .filter(|(_, i)| !out.library().cell(i.cell()).function.is_sequential())
        .count();
    let lib_ref = out.library();
    let delay = aig.depth() as f64 * (lib_ref.cell(nand).delay_ps + lib_ref.cell(inv).delay_ps);
    Ok(MapOutcome {
        netlist: out,
        area_um2: area,
        delay_ps: delay,
        cells,
        cone_visits: 0,
        cuts_enumerated: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use eda_netlist::generate;
    use std::collections::HashSet;

    fn check_equiv(original: &Netlist, mapped: &Netlist) {
        let k = original.primary_inputs().len();
        assert_eq!(k, mapped.primary_inputs().len());
        let pats: Vec<u64> =
            (0..k).map(|i| 0xA076_1D64_78BD_642Fu64.wrapping_mul(i as u64 + 1)).collect();
        let s1 = vec![0u64; original.flops().len()];
        let s2 = vec![0u64; mapped.flops().len()];
        let (o1, n1) = original.simulate64(&pats, &s1);
        let (o2, n2) = mapped.simulate64(&pats, &s2);
        assert_eq!(o1, o2, "outputs diverge");
        assert_eq!(n1, n2, "next state diverges");
    }

    #[test]
    fn area_map_preserves_adder() {
        let random = generate::RandomLogicConfig { gates: 250, seed: 11, ..Default::default() };
        for n in [generate::ripple_carry_adder(8).unwrap(), generate::random_logic(random).unwrap()] {
            let (aig, bnd) = Aig::from_netlist(&n).unwrap();
            let m = map_aig(&aig, &bnd, Library::generic()).unwrap();
            m.netlist.validate().unwrap();
            check_equiv(&n, &m.netlist);
        }
    }

    #[test]
    fn map_handles_sequential() {
        let n = generate::switch_fabric(3, 2).unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        let m = map_aig(&aig, &bnd, Library::generic()).unwrap();
        m.netlist.validate().unwrap();
        assert_eq!(m.netlist.flops().len(), n.flops().len());
        check_equiv(&n, &m.netlist);
    }

    #[test]
    fn map_works_on_impoverished_library() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 150,
            seed: 3,
            ..Default::default()
        })
        .unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        let m = map_aig(&aig, &bnd, Library::nand_inv_2006()).unwrap();
        m.netlist.validate().unwrap();
        check_equiv(&n, &m.netlist);
    }

    #[test]
    fn naive_map_equivalent_but_bigger() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 300,
            seed: 21,
            ..Default::default()
        })
        .unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        let naive = map_naive(&aig, &bnd, Library::nand_inv_2006()).unwrap();
        naive.netlist.validate().unwrap();
        check_equiv(&n, &naive.netlist);
        let advanced = map_aig(&aig.rewrite(), &bnd, Library::generic()).unwrap();
        check_equiv(&n, &advanced.netlist);
        assert!(
            advanced.area_um2 < naive.area_um2,
            "advanced {:.1} must beat naive {:.1}",
            advanced.area_um2,
            naive.area_um2
        );
    }

    #[test]
    fn xor_maps_to_single_cell_in_rich_library() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        let b = g.add_pi("b");
        let x = g.xor(a, b);
        g.add_po("y", x);
        let bnd = SeqBoundary { real_pis: 2, real_pos: 1, flops: vec![] };
        let m = map_aig(&g, &bnd, Library::generic()).unwrap();
        assert_eq!(m.cells, 1, "one XOR2 cell suffices");
        let pats = vec![0xF0F0u64, 0xCCCC];
        let (mo, _) = m.netlist.simulate64(&pats, &[]);
        assert_eq!(mo, g.simulate64(&pats));
    }

    #[test]
    fn polarity_library_wins_on_parity() {
        let n = generate::parity_tree(16).unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        let cmos = map_aig(&aig, &bnd, Library::generic()).unwrap();
        let pol = map_aig(&aig, &bnd, Library::controlled_polarity()).unwrap();
        check_equiv(&n, &pol.netlist);
        assert!(
            pol.area_um2 < cmos.area_um2,
            "polarity {:.1} must beat CMOS {:.1} on XOR-rich logic",
            pol.area_um2,
            cmos.area_um2
        );
    }

    #[test]
    fn hierarchical_block_realization_is_pinned() {
        // Block-by-block realization must stay functionally equivalent and
        // produce the exact netlist — instance names, cells, wiring, block
        // labels — the per-block fragment pipeline built (its codec text,
        // pinned).
        let n = generate::mesh_fabric(3, 3, 25, 4, 7).unwrap();
        let (aig, bnd) = Aig::from_netlist(&n).unwrap();
        assert!(bnd.flops.iter().any(|fb| fb.block.is_some()), "mesh flops carry block labels");
        let m = map_aig(&aig, &bnd, Library::generic()).unwrap();
        m.netlist.validate().unwrap();
        check_equiv(&n, &m.netlist);
        let text = eda_netlist::codec::to_text(&m.netlist);
        assert_eq!(eda_netlist::memo::fnv1a(text.bytes()), 0x814f_2399_bc2b_e453);
        // Every block-fragment gate carries its block's label; only the
        // unlabelled tail (real-PO cones) may go without one.
        let labelled = m.netlist.instances().filter(|(_, i)| i.block().is_some()).count();
        assert!(labelled * 2 > m.netlist.num_instances(), "block cones dominate a mesh netlist");
    }

    /// The definition the claim walk replaced: each block walks the *full*
    /// closure of its cones with a private visited set (recursive post-order
    /// DFS), then a serial first-owner filter in block order drops what an
    /// earlier block already holds.
    fn owned_by_full_closure_then_filter(
        nodes: &[AigNode],
        best: &[[Best; 2]],
        roots: &[Vec<Lit>],
    ) -> Vec<Vec<u32>> {
        fn visit(
            nodes: &[AigNode],
            best: &[[Best; 2]],
            seen: &mut HashSet<u32>,
            order: &mut Vec<u32>,
            node: u32,
            phase: bool,
        ) {
            let key = key_of(node, phase);
            match nodes[node as usize] {
                AigNode::Const => {}
                AigNode::Pi(_) => {
                    if phase && seen.insert(key) {
                        order.push(key);
                    }
                }
                AigNode::And(..) => {
                    if !seen.insert(key) {
                        return;
                    }
                    let b = &best[node as usize][phase as usize];
                    if b.via_inverter {
                        visit(nodes, best, seen, order, node, !phase);
                    } else {
                        for &(leaf, ph) in b.leaves() {
                            visit(nodes, best, seen, order, leaf, ph);
                        }
                    }
                    order.push(key);
                }
            }
        }
        let mut claimed: HashSet<u32> = HashSet::new();
        roots
            .iter()
            .map(|lits| {
                let (mut seen, mut cone) = (HashSet::new(), Vec::new());
                for l in lits {
                    visit(nodes, best, &mut seen, &mut cone, l.node() as u32, l.is_complemented());
                }
                cone.into_iter().filter(|&k| claimed.insert(k)).collect()
            })
            .collect()
    }

    #[test]
    fn claim_walk_equals_full_closure_then_first_owner_filter() {
        for design in [
            generate::scale_mesh(2_000, 1).unwrap(),
            generate::mesh_fabric(3, 3, 25, 4, 7).unwrap(),
        ] {
            let (aig, bnd) = Aig::from_netlist(&design).unwrap();
            let lib = Library::generic();
            let table = PatternTable::build(&lib).unwrap();
            let nodes = aig.nodes();
            let (best, _) = choose_matches(nodes, &table, &lib);
            let (blocks, tail) = group_outputs(&bnd);
            assert!(blocks.len() > 1, "hierarchical design");
            // Blocks first, the tail cones as one last pseudo-block.
            let mut roots: Vec<Vec<Lit>> = blocks
                .iter()
                .map(|(_, pois)| pois.iter().map(|&poi| aig.pos()[poi].1).collect())
                .collect();
            roots.push(tail.iter().map(|&poi| aig.pos()[poi].1).collect());

            let mut walk = ClaimWalk::new(nodes, &best);
            let owned: Vec<Vec<u32>> = roots
                .iter()
                .map(|lits| {
                    let mut order = Vec::new();
                    for &l in lits {
                        walk.claim(l, false, &mut order);
                    }
                    order
                })
                .collect();
            assert_eq!(owned, owned_by_full_closure_then_filter(nodes, &best, &roots));

            // Every key has exactly one owner and one visit, and a gate's
            // inputs are realized before the gate in splice order.
            let all: Vec<u32> = owned.iter().flatten().copied().collect();
            assert_eq!(walk.visits, all.len() as u64, "one visit per realized key");
            let mut at: HashMap<u32, usize> = HashMap::new();
            for (i, &key) in all.iter().enumerate() {
                assert!(at.insert(key, i).is_none(), "key {key} owned twice");
            }
            for (i, &key) in all.iter().enumerate() {
                let b = &best[(key >> 1) as usize][(key & 1) as usize];
                let inputs: Vec<u32> = match nodes[(key >> 1) as usize] {
                    AigNode::And(..) if b.via_inverter => vec![key ^ 1],
                    AigNode::And(..) => b.leaves().iter().map(|&(l, ph)| key_of(l, ph)).collect(),
                    _ => Vec::new(),
                };
                for input in inputs {
                    let boundary_net =
                        matches!(nodes[(input >> 1) as usize], AigNode::Pi(_)) && input & 1 == 0;
                    assert!(boundary_net || at[&input] < i, "key {key} precedes its input {input}");
                }
            }
        }
    }

    #[test]
    fn deep_chain_maps_on_a_small_stack() {
        // Cone depth equals chain depth; the claim walk and realization must
        // not recurse. 256 KiB is an eighth of a worker thread's stack.
        const DEPTH: usize = 100_000;
        let run = || {
            let mut g = Aig::new();
            let mut acc = g.add_pi("x0");
            for i in 1..=DEPTH {
                let x = g.add_pi(format!("x{i}"));
                acc = g.xor(acc, x);
            }
            g.add_po("y", acc);
            let bnd = SeqBoundary { real_pis: DEPTH + 1, real_pos: 1, flops: vec![] };
            let m = map_aig(&g, &bnd, Library::generic()).unwrap();
            (m.cells, m.cone_visits)
        };
        let (cells, visits) = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(run)
            .unwrap()
            .join()
            .expect("mapping a deep chain must not overflow the stack");
        assert!(cells >= DEPTH, "at least one cell per chain link, got {cells}");
        assert_eq!(visits, cells as u64, "one visit per realized gate");
    }

    #[test]
    fn missing_inverter_reported() {
        let mut l = Library::new("broken");
        l.add_cell(eda_netlist::CellDef {
            name: "NAND2".into(),
            function: CellFunction::Nand(2),
            area_um2: 1.0,
            delay_ps: 1.0,
            drive_ps_per_ff: 1.0,
            input_cap_ff: 1.0,
            leakage_nw: 1.0,
        });
        let g = Aig::new();
        let bnd = SeqBoundary { real_pis: 0, real_pos: 0, flops: vec![] };
        assert!(matches!(
            map_aig(&g, &bnd, Arc::new(l)),
            Err(MapError::MissingInverter)
        ));
    }

    #[test]
    fn a_constant_cone_maps_to_its_scopes_tie() {
        // AND(a, INV(a)) folds to constant 0 in a flop's D-cone. Labelled,
        // the cone is its block's: the block creates its own labelled tie.
        // Unlabelled, it is the tail's: the shared, unlabelled one.
        for (label, want) in [(Some("blk0"), "u_b0_t0"), (None, "u_tie0")] {
            let mut n = Netlist::new("fold");
            let a = n.add_input("a");
            let ck = n.add_input("clk");
            let na = n.add_gate_fn("na", CellFunction::Inv, &[a]).unwrap();
            let d = n.add_gate_fn("d", CellFunction::And(2), &[a, na]).unwrap();
            let q = n.add_gate_fn("ff", CellFunction::Dff, &[d, ck]).unwrap();
            n.add_output("q", q);
            if let Some(b) = label {
                for i in 0..3 {
                    n.assign_block(InstId::from_index(i), b);
                }
            }
            let (aig, bnd) = Aig::from_netlist(&n).unwrap();
            let m = map_aig(&aig, &bnd, Library::generic()).unwrap();
            let cells: Vec<(&str, Option<&str>)> = m
                .netlist
                .instances()
                .map(|(_, i)| {
                    (i.name(), i.block().map(|b| m.netlist.block_names()[b as usize].as_str()))
                })
                .collect();
            assert_eq!(cells, [(want, label), ("ff", label)]);
            check_equiv(&n, &m.netlist);
        }
    }

    #[test]
    fn constant_output_maps_to_tie_cell() {
        let mut g = Aig::new();
        let a = g.add_pi("a");
        let f = g.and(a, !a); // constant false
        g.add_po("y", f);
        let bnd = SeqBoundary { real_pis: 1, real_pos: 1, flops: vec![] };
        let m = map_aig(&g, &bnd, Library::generic()).unwrap();
        let (o, _) = m.netlist.simulate64(&[0xFFFF], &[]);
        assert_eq!(o, vec![0]);
    }
}
