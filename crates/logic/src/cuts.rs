//! The K=4 cut kernel shared by AIG rewriting and technology mapping.
//!
//! A cut is up to four sorted leaf nodes plus the 16-bit truth table of the
//! root over those leaves (variable `i` = leaf `i`; the table never depends
//! on variables at or above the leaf count). Cuts live by value in one flat
//! arena with a `(start, count)` span per node — no per-cut heap allocation —
//! and every node keeps its trivial cut first, followed by at most
//! `MAX_CUTS - 1` merged cuts.
//!
//! The enumeration order is part of the QoR contract: child cut lists are
//! crossed left-outer / right-inner, a merged leaf set is kept only on its
//! first appearance, and the survivors are stably ordered by leaf count before
//! truncation. Both consumers break cost ties by position in this list, so
//! changing the order changes mapped netlists.
//!
//! Each pair is first screened by 64-bit leaf signatures (bit `leaf & 63` per
//! leaf). Distinct leaves can share a bit but never add one, so a pair whose
//! OR'd signature has more than [`K`] bits set cannot merge and is dropped
//! before the union; equal leaf sets have equal signatures, so the
//! first-appearance test compares leaves only where signatures agree.
//!
//! Merged cuts are kept in one bucket per leaf count, each in generation
//! order, so the stable sort is a concatenation and the first-appearance
//! test only looks inside the candidate's own bucket (equal leaf sets have
//! equal counts). Once the kept cuts with no more leaves than a candidate
//! fill the `MAX_CUTS - 1` merged slots, the candidate could only land past
//! the truncation and is dropped — before the union when its signature's
//! bit count already says so, so neither the union nor the truth table is
//! computed for it. All three filters are exact: the lists are the ones the
//! plain crossing yields.

use crate::aig::{AigNode, Lit};

/// Maximum leaves per cut.
pub(crate) const K: usize = 4;
/// Maximum cuts kept per node, the trivial cut included.
pub(crate) const MAX_CUTS: usize = 8;

/// Truth table of variable `v` over four inputs.
const VAR: [u16; K] = [0xAAAA, 0xCCCC, 0xF0F0, 0xFF00];

/// One K-feasible cut: sorted leaves and the root's function over them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cut {
    /// Sorted leaf nodes; entries at `len..` are zero.
    leaves: [u32; K],
    len: u8,
    /// Root function over the leaves (variable `i` = `leaves[i]`).
    pub(crate) tt: u16,
}

impl Cut {
    const EMPTY: Cut = Cut { leaves: [0; K], len: 0, tt: 0 };

    /// The cut `{node}`, under which the node is its own variable 0.
    fn trivial(node: usize) -> Cut {
        Cut { leaves: [node as u32, 0, 0, 0], len: 1, tt: VAR[0] }
    }

    /// The leaf nodes, ascending.
    pub(crate) fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len as usize]
    }

    /// The leaf signature: bit `leaf & 63` set for every leaf.
    fn signature(&self) -> u64 {
        self.leaves().iter().fold(0, |sig, &l| sig | 1 << (l & 63))
    }
}

/// The merged cuts of one node, bucketed by leaf count (bucket `s` holds
/// the `s + 1`-leaf cuts), each bucket in generation order with the leaf
/// signatures alongside: the scratch [`CutSet::node_cuts`] fills and
/// [`CutSet::store`] drains, reused from node to node so nothing is
/// zero-filled per node. A bucket never holds more than `MAX_CUTS - 1` cuts:
/// one is only added while fewer than that many have as few leaves.
struct Buckets {
    cuts: [[Cut; MAX_CUTS - 1]; K],
    sigs: [[u64; MAX_CUTS - 1]; K],
    len: [u8; K],
}

impl Buckets {
    fn new() -> Buckets {
        Buckets { cuts: [[Cut::EMPTY; MAX_CUTS - 1]; K], sigs: [[0; MAX_CUTS - 1]; K], len: [0; K] }
    }

    /// Whether the kept cuts with at most `leaves` leaves already fill the
    /// merged slots, so that no cut with that many leaves or more can make
    /// the truncated list.
    fn full(&self, leaves: usize) -> bool {
        self.len[..leaves].iter().map(|&n| n as usize).sum::<usize>() >= MAX_CUTS - 1
    }

    /// Whether `cut` (signature `sig`) is already kept.
    fn holds(&self, cut: &Cut, sig: u64) -> bool {
        let b = cut.len as usize - 1;
        let n = self.len[b] as usize;
        self.sigs[b][..n].iter().zip(&self.cuts[b][..n]).any(|(&s, c)| s == sig && c.leaves == cut.leaves)
    }

    fn push(&mut self, cut: Cut, sig: u64) {
        let b = cut.len as usize - 1;
        let n = self.len[b] as usize;
        self.cuts[b][n] = cut;
        self.sigs[b][n] = sig;
        self.len[b] += 1;
    }

    /// The kept cuts by ascending leaf count, each count in generation order.
    fn sorted(&self) -> impl Iterator<Item = &Cut> {
        self.cuts.iter().zip(self.len).flat_map(|(bucket, n)| &bucket[..n as usize])
    }
}

/// Exchanges variables `i < j` of a 4-input truth table.
fn swap_vars(tt: u16, i: usize, j: usize) -> u16 {
    // Rows with x_i = 1, x_j = 0 trade places with their x_i = 0, x_j = 1
    // partners, which sit `shift` rows higher.
    let mask = VAR[i] & !VAR[j];
    let shift = (1 << j) - (1 << i);
    (tt & !(mask | mask << shift)) | (tt & mask) << shift | (tt >> shift) & mask
}

/// Re-expresses `tt`, a function of variables `0..pos.len()`, with variable
/// `i` moved to position `pos[i]`. `pos` is strictly increasing (both leaf
/// lists are sorted), so moving the highest variable first always lands on a
/// position the function does not yet depend on and one swap per variable
/// suffices.
fn expand(mut tt: u16, pos: &[u8]) -> u16 {
    for (i, &p) in pos.iter().enumerate().rev() {
        if p as usize != i {
            tt = swap_vars(tt, i, p as usize);
        }
    }
    tt
}

/// Sorted union of two cuts' leaves with each input leaf's position in it,
/// or `None` when the union exceeds [`K`] leaves.
fn union(a: &Cut, b: &Cut) -> Option<(Cut, [u8; K], [u8; K])> {
    let (la, lb) = (a.leaves(), b.leaves());
    let mut out = Cut::EMPTY;
    let (mut pa, mut pb) = ([0u8; K], [0u8; K]);
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < la.len() || j < lb.len() {
        if n == K {
            return None;
        }
        let take_a = j == lb.len() || (i < la.len() && la[i] <= lb[j]);
        let take_b = i == la.len() || (j < lb.len() && lb[j] <= la[i]);
        out.leaves[n] = if take_a { la[i] } else { lb[j] };
        if take_a {
            pa[i] = n as u8;
            i += 1;
        }
        if take_b {
            pb[j] = n as u8;
            j += 1;
        }
        n += 1;
    }
    out.len = n as u8;
    Some((out, pa, pb))
}

/// Every node's cut list in one flat arena.
pub(crate) struct CutSet {
    cuts: Vec<Cut>,
    /// `(start, count)` into `cuts` per node.
    span: Vec<(u32, u8)>,
}

impl CutSet {
    /// Reserves the arena at its bound, `MAX_CUTS` per node, so it never
    /// doubles and copies itself (the 50 k mesh stores more than 6 cuts
    /// per node). Pages past the used part are never touched.
    fn with_nodes(n: usize) -> CutSet {
        CutSet { cuts: Vec::with_capacity(n * MAX_CUTS), span: vec![(0, 0); n] }
    }

    /// Stores `node`'s list: its trivial cut, then the kept merged cuts by
    /// leaf count, truncated to the per-node budget.
    fn store(&mut self, node: usize, merged: &Buckets) {
        let start = self.cuts.len();
        self.cuts.push(Cut::trivial(node));
        self.cuts.extend(merged.sorted().take(MAX_CUTS - 1));
        self.span[node] = (start as u32, (self.cuts.len() - start) as u8);
    }

    /// The cuts of `node`: its trivial cut, then the merged cuts by
    /// ascending leaf count.
    pub(crate) fn of(&self, node: usize) -> &[Cut] {
        let (start, count) = self.span[node];
        &self.cuts[start as usize..start as usize + count as usize]
    }

    /// Total cuts stored, trivial cuts included.
    pub(crate) fn total(&self) -> usize {
        self.cuts.len()
    }

    /// Fills `merged` with the merged cuts of node `i` from the stored
    /// lists of its fanins, which index order has already filled; a node
    /// that is no AND gets none and keeps only its trivial cut.
    ///
    /// The count bound (module header) is met before the union on the
    /// signature's bit count, a lower bound on the leaf count, and after it
    /// on the count itself. Those cuts all precede the candidate in the
    /// stable order, so dropping it moves no cut that is kept, and the
    /// counts only grow, so a later candidate with the same leaves meets
    /// the same bound.
    fn node_cuts(&self, nodes: &[AigNode], i: usize, merged: &mut Buckets) {
        merged.len = [0; K];
        let AigNode::And(a, b) = nodes[i] else { return };
        let cuts_b = self.of(b.node());
        let mut sigs_b = [0u64; MAX_CUTS];
        for (sig, cb) in sigs_b.iter_mut().zip(cuts_b) {
            *sig = cb.signature();
        }
        let phase = |l: Lit, tt: u16| if l.is_complemented() { !tt } else { tt };
        for ca in self.of(a.node()) {
            let sig_a = ca.signature();
            for (cb, &sig_b) in cuts_b.iter().zip(&sigs_b) {
                let sig = sig_a | sig_b;
                let bits = sig.count_ones() as usize;
                if bits > K || merged.full(bits) {
                    continue;
                }
                let Some((mut cut, pa, pb)) = union(ca, cb) else { continue };
                if (cut.len as usize > bits && merged.full(cut.len as usize)) || merged.holds(&cut, sig) {
                    continue;
                }
                let ta = expand(ca.tt, &pa[..ca.len as usize]);
                let tb = expand(cb.tt, &pb[..cb.len as usize]);
                cut.tt = phase(a, ta) & phase(b, tb);
                merged.push(cut, sig);
            }
        }
    }

    /// Enumerates every node's cuts in index (= topological) order.
    pub(crate) fn enumerate(nodes: &[AigNode]) -> CutSet {
        let mut set = CutSet::with_nodes(nodes.len());
        let mut merged = Buckets::new();
        for i in 0..nodes.len() {
            set.node_cuts(nodes, i, &mut merged);
            set.store(i, &merged);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aig::Aig;
    use eda_netlist::generate;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// The row-by-row definition [`expand`] must equal: output row `r` reads
    /// the input row whose bit `i` is bit `pos[i]` of `r`.
    fn expand_reference(tt: u16, pos: &[u8]) -> u16 {
        let mut out = 0u16;
        for row in 0..(1usize << K) {
            let mut old_row = 0usize;
            for (i, &p) in pos.iter().enumerate() {
                if row >> p & 1 == 1 {
                    old_row |= 1 << i;
                }
            }
            if tt >> old_row & 1 == 1 {
                out |= 1 << row;
            }
        }
        out
    }

    /// Every strictly increasing position list into four slots, i.e. every
    /// sorted leaf subset of a 4-leaf superset.
    fn position_lists() -> Vec<Vec<u8>> {
        (0u8..16).map(|m| (0..K as u8).filter(|&p| m >> p & 1 == 1).collect()).collect()
    }

    #[test]
    fn expansion_equals_the_reference_for_every_function_of_every_subset() {
        for pos in position_lists() {
            // Functions of `pos.len()` variables, extended over four: all of
            // them for up to three variables, every 4-variable function too.
            let rows = 1u32 << pos.len();
            for f in 0..(1u32 << rows) {
                let mut tt = f as u16;
                let mut width = rows;
                while width < 16 {
                    tt |= tt << width;
                    width *= 2;
                }
                assert_eq!(expand(tt, &pos), expand_reference(tt, &pos), "tt {tt:04x} pos {pos:?}");
            }
        }
    }

    #[test]
    fn union_is_the_sorted_set_union_with_positions() {
        // Every pair of 1..=4-leaf subsets of eight nodes (node ids offset so
        // a real leaf never collides with the zero padding).
        let subsets: Vec<Cut> = (1u32..256)
            .filter(|m| m.count_ones() <= K as u32)
            .map(|m| {
                let mut c = Cut { len: m.count_ones() as u8, ..Cut::EMPTY };
                for (i, l) in (0..8).filter(|l| m >> l & 1 == 1).enumerate() {
                    c.leaves[i] = 10 + l;
                }
                c
            })
            .collect();
        for ca in &subsets {
            for cb in &subsets {
                let mut want: Vec<u32> = ca.leaves().iter().chain(cb.leaves()).copied().collect();
                want.sort_unstable();
                want.dedup();
                match union(ca, cb) {
                    None => assert!(want.len() > K),
                    Some((u, pa, pb)) => {
                        assert_eq!(u.leaves(), &want[..]);
                        assert!(u.leaves[want.len()..].iter().all(|&l| l == 0), "zero padding");
                        for (i, &l) in ca.leaves().iter().enumerate() {
                            assert_eq!(u.leaves[pa[i] as usize], l);
                        }
                        for (j, &l) in cb.leaves().iter().enumerate() {
                            assert_eq!(u.leaves[pb[j] as usize], l);
                        }
                    }
                }
            }
        }
    }

    /// Each cut's truth table is the root's function of its leaves on every
    /// assignment the graph can produce: simulate 64 random patterns and look
    /// each lane's leaf values up in the table. (Lanes, not free leaf
    /// variables — one leaf may sit in another's cone, and the table is only
    /// meaningful on consistent leaf values.)
    #[test]
    fn cut_truth_tables_match_simulation() {
        let n = generate::random_logic(generate::RandomLogicConfig {
            gates: 200,
            flop_fraction: 0.0,
            seed: 4,
            ..Default::default()
        })
        .unwrap();
        let (aig, _) = Aig::from_netlist(&n).unwrap();
        let nodes = aig.nodes();
        assert_tables_match_simulation(nodes, &CutSet::enumerate(nodes));
    }

    /// One node's cuts as the module header defines them (leaves only;
    /// tables are checked by simulation).
    struct Defined {
        /// Every child-cut pair crossed left-outer / right-inner, the leaf
        /// union kept at ≤ [`K`] leaves on its first appearance, then stably
        /// sorted by size and truncated behind the trivial cut.
        list: Vec<Vec<u32>>,
        /// The merged leaf sets the count bound keeps, stably sorted by
        /// size: those first seen while fewer than `MAX_CUTS - 1` kept sets
        /// have at most as many leaves.
        kept: Vec<Vec<u32>>,
        /// Whether the bound dropped a union.
        bounded: bool,
    }

    /// The module header written out with sets, node by node.
    fn cuts_by_definition(nodes: &[AigNode]) -> Vec<Defined> {
        let mut defined: Vec<Defined> = Vec::with_capacity(nodes.len());
        for (i, node) in nodes.iter().enumerate() {
            let (mut merged, mut kept) = (Vec::<Vec<u32>>::new(), Vec::<Vec<u32>>::new());
            let mut bounded = false;
            if let AigNode::And(a, b) = *node {
                for ca in &defined[a.node()].list {
                    for cb in &defined[b.node()].list {
                        let union: BTreeSet<u32> = ca.iter().chain(cb).copied().collect();
                        let union: Vec<u32> = union.into_iter().collect();
                        if union.len() > K {
                            continue;
                        }
                        if !merged.contains(&union) {
                            merged.push(union.clone());
                        }
                        if kept.iter().filter(|m| m.len() <= union.len()).count() >= MAX_CUTS - 1 {
                            bounded = true;
                        } else if !kept.contains(&union) {
                            kept.push(union);
                        }
                    }
                }
            }
            merged.sort_by_key(Vec::len);
            merged.truncate(MAX_CUTS - 1);
            merged.insert(0, vec![i as u32]);
            kept.sort_by_key(Vec::len);
            defined.push(Defined { list: merged, kept, bounded });
        }
        defined
    }

    /// A random graph of `ands` AND nodes over `pis` inputs, drawing fanins
    /// mostly from the newest nodes so it grows deep and cut lists fill up.
    fn random_aig(rng: &mut StdRng, pis: usize, ands: usize) -> Aig {
        let mut g = Aig::new();
        let mut lits: Vec<Lit> = (0..pis).map(|k| g.add_pi(format!("i{k}"))).collect();
        let pick = |rng: &mut StdRng, lits: &[Lit]| {
            let from = if rng.gen_bool(0.7) { lits.len().saturating_sub(16) } else { 0 };
            let lit = lits[rng.gen_range(from..lits.len())];
            if rng.gen_bool(0.5) { !lit } else { lit }
        };
        while g.num_ands() < ands {
            let (a, b) = (pick(rng, &lits), pick(rng, &lits));
            let f = g.and(a, b);
            if f.node() != 0 {
                lits.push(f);
            }
        }
        g
    }

    /// The specification oracle: on random graphs of 200–400 ANDs — node ids
    /// far past 64, so leaf signatures collide — the kernel's lists are the
    /// definition's, cut for cut, every table matches simulation, and the
    /// merge keeps exactly the cuts its count bound admits.
    #[test]
    fn enumeration_equals_the_definition_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(28);
        let (mut colliding_lists, mut bounded_lists) = (0, 0);
        for case in 0..40 {
            let (pis, ands) = (rng.gen_range(6..=24), rng.gen_range(200..=400));
            let aig = random_aig(&mut rng, pis, ands);
            let nodes = aig.nodes();
            // `CutSet::enumerate`, with each node's merge looked at before
            // it is truncated.
            let mut set = CutSet::with_nodes(nodes.len());
            let mut merged = Buckets::new();
            for (i, want) in cuts_by_definition(nodes).iter().enumerate() {
                let tag = format!("case {case} ({pis} inputs, {ands} ands) node {i}");
                set.node_cuts(nodes, i, &mut merged);
                let kept: Vec<Vec<u32>> = merged.sorted().map(|c| c.leaves().to_vec()).collect();
                assert_eq!(kept, want.kept, "{tag}: kept by the count bound");
                set.store(i, &merged);
                let got: Vec<Vec<u32>> = set.of(i).iter().map(|c| c.leaves().to_vec()).collect();
                assert_eq!(got, want.list, "{tag}");
                let sigs: Vec<u64> = set.of(i).iter().map(Cut::signature).collect();
                colliding_lists += (1..sigs.len()).any(|k| sigs[..k].contains(&sigs[k])) as usize;
                bounded_lists += want.bounded as usize;
            }
            assert_tables_match_simulation(nodes, &set);
        }
        // Two distinct leaf sets under one signature in one list: a
        // signature-only first-appearance test would drop one of them.
        assert!(colliding_lists > 0, "no list holds a signature collision");
        // Lists where the merge dropped a candidate on the count bound, which
        // the lists above show changes nothing.
        assert!(bounded_lists > 0, "the count bound never fires");
    }

    fn assert_tables_match_simulation(nodes: &[AigNode], set: &CutSet) {
        let mut val = vec![0u64; nodes.len()];
        for (i, node) in nodes.iter().enumerate() {
            let lit = |l: Lit| val[l.node()] ^ if l.is_complemented() { !0 } else { 0 };
            val[i] = match *node {
                AigNode::Const => 0,
                AigNode::Pi(k) => 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(k as u64 + 1).rotate_left(k as u32),
                AigNode::And(a, b) => lit(a) & lit(b),
            };
        }
        for i in 0..nodes.len() {
            let cuts = set.of(i);
            assert_eq!(cuts[0], Cut::trivial(i));
            assert!(cuts.len() <= MAX_CUTS);
            assert!(cuts[1..].windows(2).all(|w| w[0].len <= w[1].len), "sorted by size");
            for cut in cuts {
                assert!(cut.leaves().windows(2).all(|w| w[0] < w[1]), "leaves strictly ascending");
                for lane in 0..64 {
                    let row = cut
                        .leaves()
                        .iter()
                        .enumerate()
                        .fold(0, |row, (v, &l)| row | (val[l as usize] >> lane & 1) << v);
                    assert_eq!(
                        u64::from(cut.tt >> row & 1),
                        val[i] >> lane & 1,
                        "node {i} cut {:?} lane {lane}",
                        cut.leaves()
                    );
                }
            }
        }
    }
}
