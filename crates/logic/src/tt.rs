//! Small truth tables (up to 6 variables) packed in a `u64`.
//!
//! Row `r`'s output sits in bit `r`; variable `i` of row `r` is bit `i` of
//! `r`. These are the function fingerprints used by cut-based technology
//! mapping and by the ISOP refactoring step.

/// A boolean function of up to 6 variables.
///
/// # Examples
///
/// ```
/// use eda_logic::TruthTable;
/// let a = TruthTable::var(3, 0);
/// let b = TruthTable::var(3, 1);
/// let f = a.and(&b).xor(&TruthTable::var(3, 2));
/// assert_eq!(f.num_vars(), 3);
/// assert!(f.eval(&[true, true, false]));
/// assert!(!f.eval(&[true, true, true]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TruthTable {
    bits: u64,
    num_vars: u8,
}

/// Masks of variable `i`'s positive cofactor rows, for 6-var tables.
const VAR_MASK: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// Maximum supported variable count.
    pub const MAX_VARS: usize = 6;

    /// Creates a table from raw bits.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 6`.
    pub fn from_bits(num_vars: usize, bits: u64) -> TruthTable {
        assert!(num_vars <= Self::MAX_VARS, "at most {} variables", Self::MAX_VARS);
        let mask = Self::row_mask(num_vars);
        TruthTable { bits: bits & mask, num_vars: num_vars as u8 }
    }

    fn row_mask(num_vars: usize) -> u64 {
        if num_vars == 6 {
            !0
        } else {
            (1u64 << (1usize << num_vars)) - 1
        }
    }

    /// The constant-0 function.
    pub fn zero(num_vars: usize) -> TruthTable {
        TruthTable::from_bits(num_vars, 0)
    }

    /// The constant-1 function.
    pub fn one(num_vars: usize) -> TruthTable {
        TruthTable::from_bits(num_vars, !0)
    }

    /// The projection onto variable `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars` or `num_vars > 6`.
    pub fn var(num_vars: usize, i: usize) -> TruthTable {
        assert!(i < num_vars, "variable {i} out of range for {num_vars} vars");
        TruthTable::from_bits(num_vars, VAR_MASK[i])
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Raw bits (masked to the valid rows).
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// Logical AND.
    pub fn and(&self, other: &TruthTable) -> TruthTable {
        self.binop(other, |a, b| a & b)
    }

    /// Logical OR.
    pub fn or(&self, other: &TruthTable) -> TruthTable {
        self.binop(other, |a, b| a | b)
    }

    /// Logical XOR.
    pub fn xor(&self, other: &TruthTable) -> TruthTable {
        self.binop(other, |a, b| a ^ b)
    }

    /// Logical NOT.
    pub fn not(&self) -> TruthTable {
        TruthTable::from_bits(self.num_vars(), !self.bits)
    }

    fn binop(&self, other: &TruthTable, f: impl Fn(u64, u64) -> u64) -> TruthTable {
        assert_eq!(self.num_vars, other.num_vars, "mixed variable counts");
        TruthTable::from_bits(self.num_vars(), f(self.bits, other.bits))
    }

    /// Evaluates on an assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars(), "assignment length");
        let mut row = 0usize;
        for (i, &b) in assignment.iter().enumerate() {
            if b {
                row |= 1 << i;
            }
        }
        self.bits >> row & 1 == 1
    }

    /// Positive cofactor with respect to variable `i`.
    pub fn cofactor1(&self, i: usize) -> TruthTable {
        assert!(i < self.num_vars(), "variable out of range");
        let m = VAR_MASK[i];
        let hi = self.bits & m;
        let shift = 1u32 << i;
        TruthTable::from_bits(self.num_vars(), hi | (hi >> shift))
    }

    /// Negative cofactor with respect to variable `i`.
    pub fn cofactor0(&self, i: usize) -> TruthTable {
        assert!(i < self.num_vars(), "variable out of range");
        let m = !VAR_MASK[i];
        let lo = self.bits & m;
        let shift = 1u32 << i;
        TruthTable::from_bits(self.num_vars(), lo | (lo << shift))
    }

    /// Whether the function depends on variable `i`.
    pub fn depends_on(&self, i: usize) -> bool {
        self.cofactor0(i) != self.cofactor1(i)
    }

    /// The set of variables the function actually depends on.
    pub fn support(&self) -> Vec<usize> {
        (0..self.num_vars()).filter(|&i| self.depends_on(i)).collect()
    }

    /// Whether the function is constant (0 or 1).
    pub fn is_constant(&self) -> bool {
        self.bits == 0 || self.bits == Self::row_mask(self.num_vars())
    }

    /// Number of ON-set rows.
    pub fn count_ones(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Extends to `new_vars` variables (new variables are don't-cares).
    ///
    /// # Panics
    ///
    /// Panics if `new_vars` is smaller than the current count or above 6.
    pub fn extend(&self, new_vars: usize) -> TruthTable {
        let n = self.num_vars();
        assert!(new_vars >= n && new_vars <= Self::MAX_VARS, "bad extension");
        let mut bits = self.bits;
        let mut width = 1usize << n;
        for _ in n..new_vars {
            bits |= bits << width;
            width *= 2;
        }
        TruthTable::from_bits(new_vars, bits)
    }
}

impl std::fmt::Display for TruthTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let rows = 1usize << self.num_vars();
        write!(f, "{:0width$b}", self.bits & TruthTable::row_mask(self.num_vars()), width = rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_eval_matches_definition() {
        for n in 1..=6 {
            for i in 0..n {
                let t = TruthTable::var(n, i);
                for row in 0..(1usize << n) {
                    let assignment: Vec<bool> = (0..n).map(|k| row >> k & 1 == 1).collect();
                    assert_eq!(t.eval(&assignment), assignment[i]);
                }
            }
        }
    }

    #[test]
    fn cofactors_shannon_expand() {
        // f = x0 & x1 | x2 ; f = x2' ? (x0&x1) : 1... check via identity
        let n = 3;
        let f = TruthTable::var(n, 0).and(&TruthTable::var(n, 1)).or(&TruthTable::var(n, 2));
        for i in 0..n {
            let c0 = f.cofactor0(i);
            let c1 = f.cofactor1(i);
            let x = TruthTable::var(n, i);
            let rebuilt = x.and(&c1).or(&x.not().and(&c0));
            assert_eq!(rebuilt, f, "Shannon expansion on var {i}");
            assert!(!c0.depends_on(i));
            assert!(!c1.depends_on(i));
        }
    }

    #[test]
    fn support_detects_dependencies() {
        let n = 4;
        let f = TruthTable::var(n, 1).xor(&TruthTable::var(n, 3));
        assert_eq!(f.support(), vec![1, 3]);
        assert!(TruthTable::one(4).support().is_empty());
    }

    #[test]
    fn extend_keeps_function() {
        let f = TruthTable::var(2, 1).xor(&TruthTable::var(2, 0));
        let g = f.extend(4);
        assert_eq!(g.num_vars(), 4);
        for row in 0..16usize {
            let a: Vec<bool> = (0..4).map(|k| row >> k & 1 == 1).collect();
            assert_eq!(g.eval(&a), a[0] ^ a[1]);
        }
        assert_eq!(g.support(), vec![0, 1]);
    }

    #[test]
    fn constants() {
        assert!(TruthTable::zero(4).is_constant());
        assert!(TruthTable::one(6).is_constant());
        assert!(!TruthTable::var(2, 0).is_constant());
        assert_eq!(TruthTable::one(2).count_ones(), 4);
    }

    #[test]
    fn six_var_edge_cases() {
        let f = TruthTable::var(6, 5);
        assert_eq!(f.bits(), VAR_MASK[5]);
        assert!(f.depends_on(5));
        assert!(!f.depends_on(0));
        let g = f.not();
        assert_eq!(g.cofactor1(5), TruthTable::zero(6));
    }

    #[test]
    #[should_panic(expected = "at most 6")]
    fn too_many_vars_panics() {
        let _ = TruthTable::zero(7);
    }
}
