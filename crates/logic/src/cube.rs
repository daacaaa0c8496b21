//! Cubes and covers in positional-cube notation (PCN), the sum-of-products
//! form [`crate::isop`] emits and AIG rewriting prices cuts with.
//!
//! Each variable occupies 2 bits of a `u64`: `01` = positive literal, `10` =
//! negative literal, `11` = don't-care, `00` = contradiction. Up to 32
//! variables per cube.

/// A product term over up to 32 boolean variables.
///
/// # Examples
///
/// ```
/// use eda_logic::Cube;
/// // x0 & !x2 over 3 variables
/// let c = Cube::full(3).with_literal(0, true).with_literal(2, false);
/// assert!(c.eval(&[true, false, false]));
/// assert!(!c.eval(&[true, false, true]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cube {
    bits: u64,
    num_vars: u8,
}

impl Cube {
    /// Maximum supported variable count.
    pub const MAX_VARS: usize = 32;

    /// The universal cube (all don't-cares).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 32`.
    pub fn full(num_vars: usize) -> Cube {
        assert!(num_vars <= Self::MAX_VARS, "at most {} variables", Self::MAX_VARS);
        let bits = if num_vars == 32 { !0u64 } else { (1u64 << (2 * num_vars)) - 1 };
        Cube { bits, num_vars: num_vars as u8 }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    /// Returns a copy with variable `v` constrained to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vars`.
    pub fn with_literal(mut self, v: usize, value: bool) -> Cube {
        assert!(v < self.num_vars(), "variable out of range");
        let field = if value { 0b01u64 } else { 0b10u64 };
        self.bits = (self.bits & !(0b11u64 << (2 * v))) | (field << (2 * v));
        self
    }

    /// The 2-bit field of variable `v`: `0b01`, `0b10`, `0b11`, or `0b00`.
    pub fn literal(&self, v: usize) -> u64 {
        self.bits >> (2 * v) & 0b11
    }

    /// Whether any variable field is `00` (the cube denotes the empty set).
    pub fn is_empty(&self) -> bool {
        let odd = self.bits & 0xAAAA_AAAA_AAAA_AAAA;
        let even = self.bits & 0x5555_5555_5555_5555;
        let present = (odd >> 1) | even; // 1 where field != 00
        let mask = if self.num_vars() == 32 { !0u64 } else { (1u64 << (2 * self.num_vars())) - 1 };
        let all = mask & 0x5555_5555_5555_5555;
        present & all != all
    }

    /// Whether every variable is a don't-care.
    pub fn is_full(&self) -> bool {
        *self == Cube::full(self.num_vars())
    }

    /// Whether `self` covers `other` (as sets of minterms).
    pub fn contains(&self, other: &Cube) -> bool {
        assert_eq!(self.num_vars, other.num_vars, "mixed variable counts");
        self.bits | other.bits == self.bits
    }

    /// Number of bound literals (non-don't-care variables).
    pub fn literal_count(&self) -> u32 {
        let odd = self.bits & 0xAAAA_AAAA_AAAA_AAAA;
        let even = self.bits & 0x5555_5555_5555_5555;
        let dc = (odd >> 1) & even; // 1 where field == 11
        let mask = if self.num_vars() == 32 { !0u64 } else { (1u64 << (2 * self.num_vars())) - 1 };
        let all = mask & 0x5555_5555_5555_5555;
        (all & !dc).count_ones()
    }

    /// Evaluates membership of a minterm.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != num_vars`.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.num_vars(), "assignment length");
        for (v, &b) in assignment.iter().enumerate() {
            let f = self.literal(v);
            if f == 0b00 {
                return false;
            }
            if b && f == 0b10 {
                return false;
            }
            if !b && f == 0b01 {
                return false;
            }
        }
        true
    }
}

impl std::fmt::Display for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for v in 0..self.num_vars() {
            let c = match self.literal(v) {
                0b01 => '1',
                0b10 => '0',
                0b11 => '-',
                _ => '!',
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A sum-of-products: a list of cubes over a shared variable count.
///
/// # Examples
///
/// ```
/// use eda_logic::{Cover, Cube};
/// let mut f = Cover::new(2);
/// f.push(Cube::full(2).with_literal(0, true));  // x0
/// f.push(Cube::full(2).with_literal(1, true));  // x1
/// assert!(f.eval(&[false, true]));
/// assert!(!f.eval(&[false, false]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cover {
    num_vars: usize,
    cubes: Vec<Cube>,
}

impl Cover {
    /// An empty (constant-0) cover.
    pub fn new(num_vars: usize) -> Cover {
        assert!(num_vars <= Cube::MAX_VARS, "at most {} variables", Cube::MAX_VARS);
        Cover { num_vars, cubes: Vec::new() }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Adds a cube, ignoring empty cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cube's variable count differs.
    pub fn push(&mut self, cube: Cube) {
        assert_eq!(cube.num_vars(), self.num_vars, "cube arity mismatch");
        if !cube.is_empty() {
            self.cubes.push(cube);
        }
    }

    /// The cubes.
    pub fn cubes(&self) -> &[Cube] {
        &self.cubes
    }

    /// Number of cubes.
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the cover has no cubes (constant 0).
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Evaluates the disjunction on a minterm.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.cubes.iter().any(|c| c.eval(assignment))
    }
}

impl FromIterator<Cube> for Cover {
    /// Collects cubes into a cover.
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty (the variable count is unknown) —
    /// use [`Cover::new`] for empty covers.
    fn from_iter<T: IntoIterator<Item = Cube>>(iter: T) -> Self {
        let cubes: Vec<Cube> = iter.into_iter().collect();
        let n = cubes.first().expect("cannot infer variable count from empty iterator").num_vars();
        let mut c = Cover::new(n);
        for cube in cubes {
            c.push(cube);
        }
        c
    }
}

impl Extend<Cube> for Cover {
    fn extend<T: IntoIterator<Item = Cube>>(&mut self, iter: T) {
        for cube in iter {
            self.push(cube);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_fields() {
        let c = Cube::full(4).with_literal(1, true).with_literal(3, false);
        assert_eq!(c.literal(0), 0b11);
        assert_eq!(c.literal(1), 0b01);
        assert_eq!(c.literal(3), 0b10);
        assert_eq!(c.literal_count(), 2);
        assert_eq!(c.to_string(), "-1-0");
    }

    /// The cube with variable 0's field `00` (a contradiction) and every
    /// other variable a don't-care.
    fn contradiction(num_vars: usize) -> Cube {
        let full = Cube::full(num_vars);
        Cube { bits: full.bits & !0b11, ..full }
    }

    #[test]
    fn empty_detection() {
        let a = Cube::full(3).with_literal(0, true);
        assert!(!a.is_empty());
        assert!(!Cube::full(3).is_empty());
        assert!(contradiction(3).is_empty());
        assert!(contradiction(32).is_empty());
    }

    #[test]
    fn containment() {
        let big = Cube::full(3).with_literal(0, true);
        let small = big.with_literal(1, false);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        assert!(big.contains(&big));
    }

    #[test]
    fn cover_eval_is_disjunction() {
        let minterm = |m: usize| (0..3).fold(Cube::full(3), |c, v| c.with_literal(v, m >> v & 1 == 1));
        let f: Cover = [minterm(1), minterm(6)].into_iter().collect();
        assert!(f.eval(&[true, false, false])); // minterm 1
        assert!(f.eval(&[false, true, true])); // minterm 6
        assert!(!f.eval(&[true, true, true]));
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn push_drops_empty() {
        let mut f = Cover::new(2);
        f.push(contradiction(2));
        assert!(f.is_empty());
    }

    #[test]
    fn collect_and_extend() {
        let a = Cube::full(2).with_literal(0, true);
        let b = Cube::full(2).with_literal(1, true);
        let mut f: Cover = [a].into_iter().collect();
        f.extend([b]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn thirty_two_vars() {
        let c = Cube::full(32).with_literal(31, true);
        assert_eq!(c.literal(31), 0b01);
        assert_eq!(c.literal_count(), 1);
        assert!(!c.is_empty());
    }
}
