//! Reduced ordered binary decision diagrams (ROBDDs).
//!
//! The verification substrate behind Domic's requirement that design intent
//! be "always correctly implemented and consistently verified throughout the
//! design flow": BDDs give canonical forms, so combinational equivalence is a
//! pointer comparison. Used by [`crate::ec`] for formal equivalence checking
//! of the synthesis/DFT/power transformations.
//!
//! Classic Bryant construction: a shared unique-table of `(var, low, high)`
//! triples with complement-free nodes, an `ite`-style `apply` with memoization,
//! and a node budget to keep pathological orderings from exploding.

use std::collections::HashMap;

/// A handle to a BDD node in a [`BddManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BddRef(u32);

impl BddRef {
    /// The constant-0 node.
    pub const ZERO: BddRef = BddRef(0);
    /// The constant-1 node.
    pub const ONE: BddRef = BddRef(1);
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
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
    nodes: Vec<Node>,
    unique: HashMap<Node, BddRef>,
    /// Memoized ITE results.
    cache: HashMap<(BddRef, BddRef, BddRef), BddRef>,
    limit: usize,
}

impl BddManager {
    /// Creates a manager with a node budget.
    pub fn new(node_limit: usize) -> BddManager {
        // Index 0/1 are the constants; they use a sentinel variable beyond
        // any real variable so terminal tests are simple.
        let terminal = Node { var: u32::MAX, low: BddRef::ZERO, high: BddRef::ZERO };
        BddManager {
            nodes: vec![terminal, terminal],
            unique: HashMap::new(),
            cache: HashMap::new(),
            limit: node_limit.max(16),
        }
    }

    /// Number of live nodes (including the two constants).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether only the constants exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    fn var_of(&self, r: BddRef) -> u32 {
        self.nodes[r.0 as usize].var
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> Result<BddRef, BddError> {
        if low == high {
            return Ok(low);
        }
        let n = Node { var, low, high };
        if let Some(&r) = self.unique.get(&n) {
            return Ok(r);
        }
        if self.nodes.len() >= self.limit {
            return Err(BddError::NodeLimit(self.limit));
        }
        let r = BddRef(self.nodes.len() as u32);
        self.nodes.push(n);
        self.unique.insert(n, r);
        Ok(r)
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
        // Terminal cases.
        if f == BddRef::ONE {
            return Ok(g);
        }
        if f == BddRef::ZERO {
            return Ok(h);
        }
        if g == h {
            return Ok(g);
        }
        if g == BddRef::ONE && h == BddRef::ZERO {
            return Ok(f);
        }
        if let Some(&r) = self.cache.get(&(f, g, h)) {
            return Ok(r);
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let low = self.ite(f0, g0, h0)?;
        let high = self.ite(f1, g1, h1)?;
        let r = self.mk(top, low, high)?;
        self.cache.insert((f, g, h), r);
        Ok(r)
    }

    fn cofactors(&self, r: BddRef, var: u32) -> (BddRef, BddRef) {
        let n = self.nodes[r.0 as usize];
        if n.var == var {
            (n.low, n.high)
        } else {
            (r, r)
        }
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

    /// Negation.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn not(&mut self, a: BddRef) -> Result<BddRef, BddError> {
        self.ite(a, BddRef::ZERO, BddRef::ONE)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the budget is exhausted.
    pub fn xor(&mut self, a: BddRef, b: BddRef) -> Result<BddRef, BddError> {
        let nb = self.not(b)?;
        self.ite(a, nb, b)
    }

    /// Evaluates a BDD under an assignment (indexed by variable).
    ///
    /// # Panics
    ///
    /// Panics if the BDD references a variable beyond `assignment`.
    pub fn eval(&self, r: BddRef, assignment: &[bool]) -> bool {
        let mut cur = r;
        loop {
            if cur == BddRef::ZERO {
                return false;
            }
            if cur == BddRef::ONE {
                return true;
            }
            let n = self.nodes[cur.0 as usize];
            cur = if assignment[n.var as usize] { n.high } else { n.low };
        }
    }

    /// Finds a satisfying assignment over `num_vars` variables, or `None`
    /// for the constant-0 function.
    pub fn satisfy(&self, r: BddRef, num_vars: usize) -> Option<Vec<bool>> {
        if r == BddRef::ZERO {
            return None;
        }
        let mut assignment = vec![false; num_vars];
        let mut cur = r;
        while cur != BddRef::ONE {
            let n = self.nodes[cur.0 as usize];
            if n.low != BddRef::ZERO {
                assignment[n.var as usize] = false;
                cur = n.low;
            } else {
                assignment[n.var as usize] = true;
                cur = n.high;
            }
        }
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> BddManager {
        BddManager::new(1 << 20)
    }

    #[test]
    fn canonicity_of_commutative_ops() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab_c = {
            let ab = m.and(a, b).unwrap();
            m.and(ab, c).unwrap()
        };
        let c_ba = {
            let ba = m.and(c, b).unwrap();
            m.and(ba, a).unwrap()
        };
        assert_eq!(ab_c, c_ba, "associativity/commutativity collapse to one node");
    }

    #[test]
    fn tautology_and_contradiction() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let na = m.not(a).unwrap();
        assert_eq!(m.or(a, na).unwrap(), BddRef::ONE);
        assert_eq!(m.and(a, na).unwrap(), BddRef::ZERO);
    }

    #[test]
    fn eval_matches_semantics() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b).unwrap();
        let f = m.xor(ab, c).unwrap(); // (a&b)^c
        for bits in 0..8u32 {
            let assignment: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = (assignment[0] & assignment[1]) ^ assignment[2];
            assert_eq!(m.eval(f, &assignment), expect, "bits {bits:03b}");
        }
    }

    #[test]
    fn satisfy_finds_a_model() {
        let mut m = mgr();
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let nb = m.not(b).unwrap();
        let f = m.and(a, nb).unwrap(); // a & !b
        let model = m.satisfy(f, 2).unwrap();
        assert!(m.eval(f, &model));
        assert_eq!(model, vec![true, false]);
        assert!(m.satisfy(BddRef::ZERO, 2).is_none());
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
