//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! The verification substrate behind Domic's requirement that design intent
//! be "always correctly implemented and consistently verified throughout the
//! design flow": BDDs give canonical forms, so combinational equivalence is a
//! pointer comparison. Used by [`crate::ec`] for formal equivalence checking
//! of the synthesis/DFT/power transformations.
//!
//! A complement-edge kernel (Brace–Rudell–Bryant, as in CUDD): `f` and `!f`
//! share a node, `not` is O(1), and every then-edge is regular, which keeps
//! the form canonical. Nodes live in an open-addressed unique table; `ite`
//! takes standard triples through a direct-mapped, lossy computed table sized
//! from the node budget and capped. The budget keeps orderings from exploding.

/// A handle to a BDD function in a [`BddManager`]: node index `<< 1`, low
/// bit set on a complemented edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-1 function: the terminal node, regular.
    pub const ONE: BddRef = BddRef(0);
    /// The constant-0 function: the terminal node, complemented.
    pub const ZERO: BddRef = BddRef(1);

    fn index(self) -> usize {
        (self.0 >> 1) as usize
    }

    fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    fn neg(self) -> BddRef {
        BddRef(self.0 ^ 1)
    }

    fn neg_if(self, c: bool) -> BddRef {
        BddRef(self.0 ^ u32::from(c))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
}

/// Cap on computed-table slots (16 B each, so 4 MiB) whatever the budget.
const MAX_COMPUTED: usize = 1 << 18;

/// Multiplicative hash of a triple, for both tables.
fn hash3(a: u32, b: u32, c: u32) -> usize {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    ((((u64::from(a).wrapping_mul(K) ^ u64::from(b)).wrapping_mul(K) ^ u64::from(c)).wrapping_mul(K)) >> 32) as usize
}

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The node budget was exhausted (ordering blow-up).
    NodeLimit(usize),
}

impl std::fmt::Display for BddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BddError::NodeLimit(n) => write!(f, "BDD node limit of {n} exhausted"),
        }
    }
}

impl std::error::Error for BddError {}

/// A shared BDD store.
///
/// # Examples
///
/// ```
/// use eda_logic::bdd::{BddManager, BddRef};
///
/// # fn main() -> Result<(), eda_logic::bdd::BddError> {
/// let mut m = BddManager::new(1 << 20);
/// let a = m.var(0)?;
/// let b = m.var(1)?;
/// let ab = m.and(a, b)?;
/// let ba = m.and(b, a)?;
/// assert_eq!(ab, ba); // canonical: same function, same node
/// assert_ne!(ab, BddRef::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    /// Node 0 is the terminal.
    nodes: Vec<Node>,
    /// Node indices, linear probing, at most half full; 0 marks a free slot.
    unique: Vec<u32>,
    /// `[f, g, h, ite(f, g, h)]` per slot, overwritten on collision; all-zero
    /// is free, as a cached `f` is never constant.
    computed: Vec<[u32; 4]>,
    limit: usize,
}

impl BddManager {
    /// Creates a manager with a node budget.
    pub fn new(node_limit: usize) -> BddManager {
        // A ref holds the node index in 31 bits.
        let limit = node_limit.clamp(16, 1 << 31);
        BddManager {
            nodes: vec![Node { var: u32::MAX, low: BddRef::ONE, high: BddRef::ONE }],
            unique: vec![0; 1 << 10],
            computed: vec![[0; 4]; limit.next_power_of_two().min(MAX_COMPUTED)],
            limit,
        }
    }

    /// Number of nodes allocated (including the terminal).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the terminal exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.index()].var
    }

    /// The unique-table slot holding `n`, or the free slot where it belongs.
    fn probe(&self, n: Node) -> usize {
        let mask = self.unique.len() - 1;
        let mut slot = hash3(n.var, n.low.0, n.high.0) & mask;
        while self.unique[slot] != 0 && self.nodes[self.unique[slot] as usize] != n {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> Result<BddRef, BddError> {
        if low == high {
            return Ok(low);
        }
        // Canonical form: the then-edge is regular; its complement moves out.
        let neg = high.is_complement();
        let n = Node { var, low: low.neg_if(neg), high: high.neg_if(neg) };
        let mut slot = self.probe(n);
        if self.unique[slot] == 0 {
            if self.nodes.len() >= self.limit {
                return Err(BddError::NodeLimit(self.limit));
            }
            if 2 * self.nodes.len() > self.unique.len() {
                self.unique = vec![0; 2 * self.unique.len()];
                for i in 1..self.nodes.len() {
                    let s = self.probe(self.nodes[i]);
                    self.unique[s] = i as u32;
                }
                slot = self.probe(n);
            }
            self.unique[slot] = self.nodes.len() as u32;
            self.nodes.push(n);
        }
        Ok(BddRef(self.unique[slot] << 1).neg_if(neg))
    }

    /// The projection function of variable `v`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn var(&mut self, v: u32) -> Result<BddRef, BddError> {
        self.mk(v, BddRef::ZERO, BddRef::ONE)
    }

    /// If-then-else: the universal connective all operations reduce to.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn ite(&mut self, f: BddRef, g: BddRef, h: BddRef) -> Result<BddRef, BddError> {
        // Terminal cases, after ite(f, f, h) = ite(f, 1, h), ite(f, !f, h) =
        // ite(f, 0, h) and likewise for h.
        if f.index() == 0 {
            return Ok(if f == BddRef::ONE { g } else { h });
        }
        let g = if g == f { BddRef::ONE } else if g == f.neg() { BddRef::ZERO } else { g };
        let h = if h == f { BddRef::ZERO } else if h == f.neg() { BddRef::ONE } else { h };
        match (g, h) {
            _ if g == h => return Ok(g),
            (BddRef::ONE, BddRef::ZERO) => return Ok(f),
            (BddRef::ZERO, BddRef::ONE) => return Ok(f.neg()),
            _ => {}
        }
        // Standard triple, f and g regular: ite(!f, g, h) = ite(f, h, g) and
        // ite(f, !g, h) = !ite(f, g, !h), so one entry serves all four.
        let (f, g, h) = if f.is_complement() { (f.neg(), h, g) } else { (f, g, h) };
        let neg = g.is_complement();
        let (g, h) = (g.neg_if(neg), h.neg_if(neg));
        let slot = hash3(f.0, g.0, h.0) & (self.computed.len() - 1);
        let [cf, cg, ch, cr] = self.computed[slot];
        if (cf, cg, ch) == (f.0, g.0, h.0) {
            return Ok(BddRef(cr).neg_if(neg));
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0)?;
        let high = self.ite(f1, g1, h1)?;
        let r = self.mk(top, low, high)?;
        self.computed[slot] = [f.0, g.0, h.0, r.0];
        Ok(r.neg_if(neg))
    }

    fn cofactors(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        let (n, c) = (self.nodes[r.index()], r.is_complement());
        if n.var == var { (n.low.neg_if(c), n.high.neg_if(c)) } else { (r, r) }
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn and(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddError> {
        self.ite(a, b, BddRef::ZERO)
    }

    /// Disjunction.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn or(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddError> {
        self.ite(a, BddRef::ONE, b)
    }

    /// Negation: flips the complement bit, so it never allocates or fails.
    pub fn not(&mut self, a: BddRef) -> Result<BddRef, BddError> {
        Ok(a.neg())
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddError> {
        self.ite(a, b.neg(), b)
    }

    /// Evaluates a BDD under an assignment (indexed by variable).
    ///
    /// # Panics
    ///
    /// Panics if the BDD references a variable beyond `assignment`.
    pub fn eval(&self, r: BddRef, assignment: &[bool]) -> bool {
        let mut cur = r;
        while cur.index() != 0 {
            let var = self.var_of(cur);
            let (low, high) = self.cofactors(cur, var);
            cur = if assignment[var as usize] { high } else { low };
        }
        cur == BddRef::ONE
    }

    /// Finds a satisfying assignment over `num_vars` variables, or `None`
    /// for the constant-0 function: the least model with variable 0 most
    /// significant, so a function of `r`'s function, not of its shape.
    pub fn satisfy(&self, r: BddRef, num_vars: usize) -> Option<Vec<bool>> {
        if r == BddRef::ZERO {
            return None;
        }
        let mut assignment = vec![false; num_vars];
        let mut cur = r;
        while cur != BddRef::ONE {
            let var = self.var_of(cur);
            let (low, high) = self.cofactors(cur, var);
            assignment[var as usize] = low == BddRef::ZERO;
            cur = if low == BddRef::ZERO { high } else { low };
        }
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mgr() -> BddManager {
        BddManager::new(1 << 20)
    }

    /// One expression step: an op (`and`, `or`, `not`, `xor`, `ite`) over
    /// three picks among the values built so far.
    type Step = (u8, usize, usize, usize);

    /// `table`'s function built node by node through `mk`, variable `var`
    /// on top (entry `a` holds variable `var + v` in bit `v`): a second
    /// construction that shares no `ite` call with the expression.
    fn from_table(m: &mut BddManager, table: &[bool], var: u32) -> BddRef {
        if let [bit] = table {
            return if *bit { BddRef::ONE } else { BddRef::ZERO };
        }
        let lo: Vec<bool> = table.iter().step_by(2).copied().collect();
        let hi: Vec<bool> = table.iter().skip(1).step_by(2).copied().collect();
        let (lo, hi) = (from_table(m, &lo, var + 1), from_table(m, &hi, var + 1));
        m.mk(var, lo, hi).unwrap()
    }

    /// Runs `steps` over the constants and `n` variables through the
    /// manager and on truth tables (entry `a` is the assignment whose bit `v`
    /// is variable `v`), then checks the manager against the tables.
    fn check(n: usize, steps: &[Step]) -> Result<(), String> {
        let mut m = mgr();
        let mut refs = vec![BddRef::ZERO, BddRef::ONE];
        let mut tables = vec![vec![false; 1 << n], vec![true; 1 << n]];
        for v in 0..n {
            refs.push(m.var(v as u32).unwrap());
            tables.push((0..1usize << n).map(|a| a >> v & 1 == 1).collect());
        }
        for &(op, i, j, k) in steps {
            let (i, j, k) = (i % refs.len(), j % refs.len(), k % refs.len());
            let (f, g, h) = (refs[i], refs[j], refs[k]);
            let (tf, tg, th) = (&tables[i], &tables[j], &tables[k]);
            let (r, table): (BddRef, Vec<bool>) = match op % 5 {
                0 => (m.and(f, g).unwrap(), (0..tf.len()).map(|a| tf[a] & tg[a]).collect()),
                1 => (m.or(f, g).unwrap(), (0..tf.len()).map(|a| tf[a] | tg[a]).collect()),
                2 => (m.not(f).unwrap(), tf.iter().map(|&b| !b).collect()),
                3 => (m.xor(f, g).unwrap(), (0..tf.len()).map(|a| tf[a] ^ tg[a]).collect()),
                _ => (m.ite(f, g, h).unwrap(), (0..tf.len()).map(|a| if tf[a] { tg[a] } else { th[a] }).collect()),
            };
            refs.push(r);
            tables.push(table);
        }
        for (x, (&r, table)) in refs.iter().zip(&tables).enumerate() {
            for (a, &want) in table.iter().enumerate() {
                let assignment: Vec<bool> = (0..n).map(|v| a >> v & 1 == 1).collect();
                prop_assert_eq!(m.eval(r, &assignment), want, "value {} at assignment {:b}", x, a);
            }
            for (y, (&r2, table2)) in refs.iter().zip(&tables).enumerate().take(x) {
                prop_assert_eq!(r == r2, table == table2, "values {} and {}", y, x);
            }
            prop_assert_eq!(from_table(&mut m, table, 0), r, "node-by-node rebuild of value {}", x);
            // The least model with variable 0 most significant.
            let least = (0..1usize << n)
                .map(|k| (0..n).map(|v| k >> (n - 1 - v) & 1 == 1).collect::<Vec<bool>>())
                .find(|model| table[(0..n).filter(|&v| model[v]).map(|v| 1 << v).sum::<usize>()]);
            prop_assert_eq!(m.satisfy(r, n), least, "satisfy of value {}", x);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn kernel_matches_truth_tables(
            n in 1usize..=8,
            steps in collection::vec((any::<u8>(), any::<usize>(), any::<usize>(), any::<usize>()), 1..24),
        ) {
            check(n, &steps)?;
        }
    }

    #[test]
    fn worked_examples() {
        // Values 0 and 1 are the constants, then a, b, c, then each step.
        let (and, or, not, xor) = (0, 1, 2, 3);
        // (a & b) & c is c & (b & a).
        check(3, &[(and, 2, 3, 0), (and, 5, 4, 0), (and, 3, 2, 0), (and, 4, 7, 0)]).unwrap();
        // a | !a is 1, a & !a is 0.
        check(1, &[(not, 2, 0, 0), (or, 2, 3, 0), (and, 2, 3, 0)]).unwrap();
        // (a & b) ^ c, and a & !b, whose least model is a = 1, b = 0.
        check(3, &[(and, 2, 3, 0), (xor, 5, 4, 0)]).unwrap();
        check(2, &[(not, 3, 0, 0), (and, 2, 4, 0)]).unwrap();
    }

    #[test]
    fn parity_bdd_is_linear() {
        let mut m = mgr();
        let mut f = BddRef::ZERO;
        for v in 0..16 {
            let x = m.var(v).unwrap();
            f = m.xor(f, x).unwrap();
        }
        // Parity has a linear-size BDD; the manager also retains the
        // intermediate partial parities (no GC), still O(vars²) overall —
        // an exponential ordering pathology would allocate ~2^16 nodes.
        assert!(m.len() < 600, "parity must stay near-linear, got {} nodes", m.len());
    }

    #[test]
    fn node_limit_enforced() {
        let mut m = BddManager::new(20);
        let mut f = BddRef::ZERO;
        let mut hit_limit = false;
        // Build something wide until the budget trips.
        for v in 0..16 {
            let x = match m.var(v) {
                Ok(x) => x,
                Err(BddError::NodeLimit(_)) => {
                    hit_limit = true;
                    break;
                }
            };
            match m.xor(f, x) {
                Ok(nf) => f = nf,
                Err(BddError::NodeLimit(_)) => {
                    hit_limit = true;
                    break;
                }
            }
        }
        assert!(hit_limit, "a 20-node budget cannot hold 16-var parity");
    }
}
