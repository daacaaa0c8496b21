//! The global-routing grid: g-cells with directed edge capacities derived
//! from the metal stack and rule deck.

use crate::maze::COST_SCALE;
use crate::rules::RuleDeck;

/// A cell coordinate on the routing grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GCell {
    /// Column.
    pub x: u32,
    /// Row.
    pub y: u32,
}

impl GCell {
    /// Creates a g-cell coordinate.
    pub fn new(x: u32, y: u32) -> GCell {
        GCell { x, y }
    }

    /// Manhattan distance between g-cells.
    pub fn manhattan(&self, other: &GCell) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

/// 4-neighbours of a cell on a `width × height` grid, in the fixed
/// left/right/down/up order every search expands in.
pub fn neighbours4(width: u32, height: u32, c: GCell) -> impl Iterator<Item = GCell> {
    [
        (c.x > 0).then(|| GCell::new(c.x - 1, c.y)),
        (c.x + 1 < width).then(|| GCell::new(c.x + 1, c.y)),
        (c.y > 0).then(|| GCell::new(c.x, c.y - 1)),
        (c.y + 1 < height).then(|| GCell::new(c.x, c.y + 1)),
    ]
    .into_iter()
    .flatten()
}

/// A read-only congestion-demand view a search can cost edges against.
///
/// Implemented by [`RoutingGrid`] (the committed picture every route
/// searches against). Searches are generic over this trait so tests can
/// hand them a synthetic view.
pub trait DemandGrid {
    /// Grid width in g-cells.
    fn width(&self) -> u32;
    /// Grid height in g-cells.
    fn height(&self) -> u32;
    /// PathFinder cost of stepping between two adjacent cells.
    fn step_cost(&self, a: GCell, b: GCell) -> f64;
    /// [`DemandGrid::step_cost`] in 1/[`COST_SCALE`] units, rounded: the
    /// edge weight A* adds. Always equal to this definition; views override
    /// it only to price the edge in integers.
    fn step_units(&self, a: GCell, b: GCell) -> u64 {
        (self.step_cost(a, b) * COST_SCALE as f64).round() as u64
    }
    /// Whether the edge between adjacent cells is at or over capacity.
    fn is_full(&self, a: GCell, b: GCell) -> bool;
    /// The maximal run of cells through `origin` along one axis that can be
    /// walked without crossing a full edge, clipped to `min..=max` on the
    /// varying coordinate (x when `horizontal`, else y, with `min <= origin
    /// <= max` inside the grid). Returns the inclusive `(lo, hi)` — a
    /// line-search probe. Always equal to [`free_run_by_edge`]; views
    /// override it only to scan their own storage instead of paying
    /// [`DemandGrid::is_full`]'s per-edge addressing.
    fn free_run(&self, origin: GCell, horizontal: bool, min: u32, max: u32) -> (u32, u32) {
        free_run_by_edge(self, origin, horizontal, min, max)
    }
}

/// [`DemandGrid::free_run`] by asking [`DemandGrid::is_full`] about every
/// edge — the definition the overriding scans are tested against. From the
/// origin's coordinate it extends down to `min`, then up to `max`, until
/// the edge from `v` to `v + 1` is full.
pub fn free_run_by_edge<G: DemandGrid + ?Sized>(
    grid: &G,
    origin: GCell,
    horizontal: bool,
    min: u32,
    max: u32,
) -> (u32, u32) {
    let cell = |v| if horizontal { GCell::new(v, origin.y) } else { GCell::new(origin.x, v) };
    let full = |v: u32| grid.is_full(cell(v), cell(v + 1));
    let at = if horizontal { origin.x } else { origin.y };
    let (mut lo, mut hi) = (at, at);
    while lo > min && !full(lo - 1) {
        lo -= 1;
    }
    while hi < max && !full(hi) {
        hi += 1;
    }
    (lo, hi)
}

/// Words of a bit string holding one bit per edge of a row (or column)
/// with `edges` edges.
fn words_for(edges: u32) -> usize {
    edges.div_ceil(64) as usize
}

/// Sets bit `bit` of a word-packed bit string to `on`.
pub(crate) fn put_bit(words: &mut [u64], bit: usize, on: bool) {
    let mask = 1u64 << (bit % 64);
    if on {
        words[bit / 64] |= mask;
    } else {
        words[bit / 64] &= !mask;
    }
}

/// [`DemandGrid::free_run`] over one row's (or column's) full-edge bits:
/// `word(k)` holds the edges `64k..64k + 64`, bit `v % 64` set when the
/// edge from `v` to `v + 1` is full. The run ends just above the highest
/// full edge in `min..at` and on the lowest one in `at..max`.
pub(crate) fn free_run_in(word: impl Fn(usize) -> u64, at: u32, min: u32, max: u32) -> (u32, u32) {
    let lo = highest_set(&word, min, at).map_or(min, |v| v + 1);
    let hi = lowest_set(&word, at, max).unwrap_or(max);
    (lo, hi)
}

/// Bits `0..=(v % 64)` of a word: the mask that ends a scan at bit `v`.
fn through(v: u32) -> u64 {
    u64::MAX >> (63 - v % 64)
}

/// The highest set bit in `from..to`, scanning down a word at a time.
fn highest_set(word: &impl Fn(usize) -> u64, from: u32, to: u32) -> Option<u32> {
    if from >= to {
        return None;
    }
    let first = (from / 64) as usize;
    let mut k = ((to - 1) / 64) as usize;
    let mut bits = word(k) & through(to - 1);
    loop {
        if k == first {
            bits &= u64::MAX << (from % 64);
        }
        if bits != 0 {
            return Some(k as u32 * 64 + 63 - bits.leading_zeros());
        }
        if k == first {
            return None;
        }
        k -= 1;
        bits = word(k);
    }
}

/// The lowest set bit in `from..to`, scanning up a word at a time.
fn lowest_set(word: &impl Fn(usize) -> u64, from: u32, to: u32) -> Option<u32> {
    if from >= to {
        return None;
    }
    let last = ((to - 1) / 64) as usize;
    let mut k = (from / 64) as usize;
    let mut bits = word(k) & (u64::MAX << (from % 64));
    loop {
        if k == last {
            bits &= through(to - 1);
        }
        if bits != 0 {
            return Some(k as u32 * 64 + bits.trailing_zeros());
        }
        if k == last {
            return None;
        }
        k += 1;
        bits = word(k);
    }
}

/// The routing grid with per-edge usage tracking and PathFinder-style
/// history costs.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingGrid {
    /// Grid width in g-cells.
    pub width: u32,
    /// Grid height in g-cells.
    pub height: u32,
    /// Capacity of each horizontal edge (tracks).
    pub cap_h: u32,
    /// Capacity of each vertical edge (tracks).
    pub cap_v: u32,
    /// Usage of horizontal edges: index `y * (width-1) + x` for the edge
    /// between `(x, y)` and `(x+1, y)`.
    usage_h: Vec<u32>,
    /// Usage of vertical edges: index `x * (height-1) + y` for the edge
    /// between `(x, y)` and `(x, y+1)`.
    usage_v: Vec<u32>,
    /// One bit per horizontal edge, set when `usage >= cap_h`: row `y`
    /// takes `words_for(width - 1)` words, edge `x` is bit `x % 64` of its
    /// word `x / 64`. What a line-search probe scans.
    full_h: Vec<u64>,
    /// The same for vertical edges, column-major: column `x` takes
    /// `words_for(height - 1)` words, edge `y` is bit `y % 64` of word `y / 64`.
    full_v: Vec<u64>,
    /// Congestion history: how many rip-up rounds found the edge
    /// overflowed (same indexing as usage).
    history_h: Vec<u32>,
    history_v: Vec<u32>,
}

impl RoutingGrid {
    /// Builds a grid from dimensions and a rule deck.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is below 2.
    pub fn new(width: u32, height: u32, deck: &RuleDeck) -> RoutingGrid {
        assert!(width >= 2 && height >= 2, "grid must be at least 2x2");
        let (cap_h, cap_v) = deck.edge_capacities();
        // Both capacities are at least 1, so no edge of an empty grid is full.
        RoutingGrid {
            width,
            height,
            cap_h,
            cap_v,
            usage_h: vec![0; ((width - 1) * height) as usize],
            usage_v: vec![0; (width * (height - 1)) as usize],
            full_h: vec![0; words_for(width - 1) * height as usize],
            full_v: vec![0; words_for(height - 1) * width as usize],
            history_h: vec![0; ((width - 1) * height) as usize],
            history_v: vec![0; (width * (height - 1)) as usize],
        }
    }

    fn h_index(&self, x: u32, y: u32) -> usize {
        (y * (self.width - 1) + x) as usize
    }

    fn v_index(&self, x: u32, y: u32) -> usize {
        (x * (self.height - 1) + y) as usize
    }

    /// Bit of `full_h` for the horizontal edge from `(x, y)`.
    fn h_bit(&self, x: u32, y: u32) -> usize {
        y as usize * words_for(self.width - 1) * 64 + x as usize
    }

    /// Bit of `full_v` for the vertical edge from `(x, y)`.
    fn v_bit(&self, x: u32, y: u32) -> usize {
        x as usize * words_for(self.height - 1) * 64 + y as usize
    }

    /// Row `y`'s full-edge words: bit `x` is the edge from `(x, y)` to
    /// `(x+1, y)`.
    pub(crate) fn full_h_row(&self, y: u32) -> &[u64] {
        let n = words_for(self.width - 1);
        &self.full_h[y as usize * n..][..n]
    }

    /// Column `x`'s full-edge words: bit `y` is the edge from `(x, y)` to
    /// `(x, y+1)`.
    pub(crate) fn full_v_col(&self, x: u32) -> &[u64] {
        let n = words_for(self.height - 1);
        &self.full_v[x as usize * n..][..n]
    }

    /// Usage of the horizontal edge from `(x, y)` to `(x+1, y)`.
    pub fn usage_h(&self, x: u32, y: u32) -> u32 {
        self.usage_h[self.h_index(x, y)]
    }

    /// Usage of the vertical edge from `(x, y)` to `(x, y+1)`.
    pub fn usage_v(&self, x: u32, y: u32) -> u32 {
        self.usage_v[self.v_index(x, y)]
    }

    /// Adds (or removes, `delta < 0`) usage on every edge of the straight
    /// run between two cells on one row or column — the contiguous
    /// `usage_h` row (or `usage_v` column) slice and its full-edge bits.
    /// The only usage mutator, so it keeps the full-edge bits. A run from a
    /// cell to itself has no edges.
    ///
    /// # Panics
    ///
    /// Panics if the cells share neither a row nor a column, or usage would
    /// underflow.
    pub fn add_run(&mut self, a: GCell, b: GCell, delta: i32) {
        let apply = |u: &mut u32| {
            *u = u32::try_from(*u as i64 + delta as i64).expect("usage underflow");
            *u
        };
        if a.y == b.y {
            let (lo, len) = (a.x.min(b.x), a.x.abs_diff(b.x) as usize);
            let (i, bit) = (self.h_index(lo, a.y), self.h_bit(lo, a.y));
            for (k, u) in self.usage_h[i..i + len].iter_mut().enumerate() {
                put_bit(&mut self.full_h, bit + k, apply(u) >= self.cap_h);
            }
        } else if a.x == b.x {
            let (lo, len) = (a.y.min(b.y), a.y.abs_diff(b.y) as usize);
            let (i, bit) = (self.v_index(a.x, lo), self.v_bit(a.x, lo));
            for (k, u) in self.usage_v[i..i + len].iter_mut().enumerate() {
                put_bit(&mut self.full_v, bit + k, apply(u) >= self.cap_v);
            }
        } else {
            panic!("cells {a:?} and {b:?} share no row or column");
        }
    }

    /// [`RoutingGrid::add_run`] on the one edge between two adjacent cells.
    ///
    /// # Panics
    ///
    /// Panics if the cells are not 4-neighbours or usage would underflow.
    pub fn add_usage(&mut self, a: GCell, b: GCell, delta: i32) {
        assert!(a.manhattan(&b) == 1, "cells {a:?} and {b:?} are not adjacent");
        self.add_run(a, b, delta);
    }

    /// Whether any edge of the straight run between two cells on one row or
    /// column carries at least its capacity plus `excess`: `0` asks for an
    /// at-capacity edge, `1` for a strictly overflowed one. Scans the run's
    /// contiguous usage slice.
    pub fn run_reaches(&self, a: GCell, b: GCell, excess: u32) -> bool {
        if a.y == b.y {
            let (i, len) = (self.h_index(a.x.min(b.x), a.y), a.x.abs_diff(b.x) as usize);
            self.usage_h[i..i + len].iter().any(|&u| u >= self.cap_h + excess)
        } else {
            debug_assert_eq!(a.x, b.x, "a run lies on one row or column");
            let (i, len) = (self.v_index(a.x, a.y.min(b.y)), a.y.abs_diff(b.y) as usize);
            self.usage_v[i..i + len].iter().any(|&u| u >= self.cap_v + excess)
        }
    }

    /// Usage, capacity and history of the edge between adjacent cells.
    fn edge(&self, a: GCell, b: GCell) -> (u32, u32, u32) {
        if a.y == b.y {
            let i = self.h_index(a.x.min(b.x), a.y);
            (self.usage_h[i], self.cap_h, self.history_h[i])
        } else {
            let i = self.v_index(a.x, a.y.min(b.y));
            (self.usage_v[i], self.cap_v, self.history_v[i])
        }
    }

    /// PathFinder cost of stepping from `a` to adjacent `b`: base 1 plus
    /// congestion and history penalties. The definition that
    /// [`DemandGrid::step_units`] prices in integers.
    pub fn step_cost(&self, a: GCell, b: GCell) -> f64 {
        let (usage, cap, hist) = self.edge(a, b);
        let over = if usage >= cap { 1.0 + (usage - cap) as f64 } else { 0.0 };
        let density = usage as f64 / cap.max(1) as f64;
        1.0 + hist as f64 + 4.0 * over + 0.5 * density
    }

    /// Whether the edge between adjacent cells is at or over capacity.
    pub fn is_full(&self, a: GCell, b: GCell) -> bool {
        if a.y == b.y {
            let x = a.x.min(b.x);
            self.usage_h(x, a.y) >= self.cap_h
        } else {
            let y = a.y.min(b.y);
            self.usage_v(a.x, y) >= self.cap_v
        }
    }

    /// Increments history cost on every currently-overflowed edge (called
    /// between rip-up iterations).
    pub fn bump_history(&mut self) {
        for (i, &u) in self.usage_h.iter().enumerate() {
            if u > self.cap_h {
                self.history_h[i] += 1;
            }
        }
        for (i, &u) in self.usage_v.iter().enumerate() {
            if u > self.cap_v {
                self.history_v[i] += 1;
            }
        }
    }

    /// Total edge overflow (usage above capacity, summed).
    pub fn total_overflow(&self) -> u64 {
        let h: u64 =
            self.usage_h.iter().map(|&u| u.saturating_sub(self.cap_h) as u64).sum();
        let v: u64 =
            self.usage_v.iter().map(|&u| u.saturating_sub(self.cap_v) as u64).sum();
        h + v
    }

    /// Total used track-segments (wirelength in g-cell units).
    pub fn total_usage(&self) -> u64 {
        self.usage_h.iter().map(|&u| u as u64).sum::<u64>()
            + self.usage_v.iter().map(|&u| u as u64).sum::<u64>()
    }

    /// 4-neighbours of a cell.
    pub fn neighbours(&self, c: GCell) -> impl Iterator<Item = GCell> + '_ {
        neighbours4(self.width, self.height, c)
    }
}

impl DemandGrid for RoutingGrid {
    fn width(&self) -> u32 {
        self.width
    }

    fn height(&self) -> u32 {
        self.height
    }

    fn step_cost(&self, a: GCell, b: GCell) -> f64 {
        RoutingGrid::step_cost(self, a, b)
    }

    /// In integers: `S + S·history + 4S·over + ⌊(S·usage + cap) / (2·cap)⌋`
    /// with `S = COST_SCALE`. History and overflow are integral, so only the
    /// density term `S·usage / (2·cap)` has a fraction, and the floor of it
    /// plus one half is the rounding — the same value bit for bit
    /// (`integer_step_weights_equal_the_rounded_float_cost` holds it over
    /// every deck's capacities).
    fn step_units(&self, a: GCell, b: GCell) -> u64 {
        let (usage, cap, hist) = self.edge(a, b);
        let over = if usage >= cap { 1 + (usage - cap) as u64 } else { 0 };
        let (usage, cap) = (usage as u64, cap.max(1) as u64);
        COST_SCALE * (1 + hist as u64 + 4 * over) + (COST_SCALE * usage + cap) / (2 * cap)
    }

    fn is_full(&self, a: GCell, b: GCell) -> bool {
        RoutingGrid::is_full(self, a, b)
    }

    fn free_run(&self, origin: GCell, horizontal: bool, min: u32, max: u32) -> (u32, u32) {
        if horizontal {
            let row = self.full_h_row(origin.y);
            free_run_in(|k| row[k], origin.x, min, max)
        } else {
            let col = self.full_v_col(origin.x);
            free_run_in(|k| col[k], origin.y, min, max)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maze::via_units;
    use crate::rules::RuleDeck;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(8, 8, &RuleDeck::simple(6))
    }

    #[test]
    fn usage_roundtrip() {
        let mut g = grid();
        let a = GCell::new(2, 3);
        let b = GCell::new(3, 3);
        assert_eq!(g.usage_h(2, 3), 0);
        g.add_usage(a, b, 1);
        assert_eq!(g.usage_h(2, 3), 1);
        g.add_usage(b, a, -1);
        assert_eq!(g.usage_h(2, 3), 0);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn non_adjacent_panics() {
        let mut g = grid();
        g.add_usage(GCell::new(0, 0), GCell::new(2, 0), 1);
    }

    #[test]
    fn cost_rises_with_congestion() {
        let mut g = grid();
        let a = GCell::new(1, 1);
        let b = GCell::new(2, 1);
        let base = g.step_cost(a, b);
        for _ in 0..g.cap_h + 2 {
            g.add_usage(a, b, 1);
        }
        assert!(g.step_cost(a, b) > base + 4.0);
        assert!(g.is_full(a, b));
        assert!(g.total_overflow() > 0);
    }

    #[test]
    fn history_accumulates_on_overflow_only() {
        let mut g = grid();
        let a = GCell::new(1, 1);
        let b = GCell::new(2, 1);
        for _ in 0..g.cap_h + 1 {
            g.add_usage(a, b, 1);
        }
        let before = g.step_cost(a, b);
        g.bump_history();
        assert!(g.step_cost(a, b) > before);
        // Non-overflowed edge unchanged.
        let c = GCell::new(5, 5);
        let d = GCell::new(6, 5);
        let cd_before = g.step_cost(c, d);
        g.bump_history();
        assert_eq!(g.step_cost(c, d), cd_before);
    }

    /// The integer step weight plus the bend's equals what A* paid when it
    /// priced steps in `f64` — `round(64 × (step_cost + via))` — on every
    /// capacity a deck yields, usage up to 45 × capacity, history up to 8
    /// bumps, and every via cost a deck has (0 is the unweighted case).
    #[test]
    fn integer_step_weights_equal_the_rounded_float_cost() {
        let simple = (2..=8).map(RuleDeck::simple);
        let patterned = (2..=8).flat_map(|l| (1..=4).map(move |e| RuleDeck::multi_patterned(l, e)));
        let mut checked = 0usize;
        for deck in simple.chain(patterned) {
            let (src, right, up) = (GCell::new(0, 0), GCell::new(1, 0), GCell::new(0, 1));
            for bumps in 0..=8 {
                let mut g = RoutingGrid::new(2, 2, &deck);
                for (nb, cap) in [(right, g.cap_h), (up, g.cap_v)] {
                    g.add_usage(src, nb, cap as i32 + 1);
                }
                for _ in 0..bumps {
                    g.bump_history();
                }
                for (nb, cap) in [(right, g.cap_h), (up, g.cap_v)] {
                    g.add_usage(src, nb, -(cap as i32 + 1));
                    for usage in 0..=45 * cap {
                        for via in [0.0, 1.0, 1.5, 2.0, 2.5] {
                            for bend in [false, true] {
                                let mut cost = g.step_cost(src, nb);
                                let mut units = g.step_units(src, nb);
                                if bend {
                                    cost += via;
                                    units += via_units(via);
                                }
                                let want = (cost * 64.0).round() as u64;
                                assert_eq!(
                                    units, want,
                                    "{} cap {cap} usage {usage} history {bumps} via {via} bend {bend}",
                                    deck.name
                                );
                                checked += 1;
                            }
                        }
                        g.add_usage(src, nb, 1);
                    }
                }
            }
        }
        assert!(checked > 1_000_000, "{checked} weights checked");
    }

    #[test]
    fn neighbours_respect_bounds() {
        let g = grid();
        assert_eq!(g.neighbours(GCell::new(0, 0)).count(), 2);
        assert_eq!(g.neighbours(GCell::new(3, 3)).count(), 4);
        assert_eq!(g.neighbours(GCell::new(7, 7)).count(), 2);
    }

    #[test]
    fn manhattan_distance() {
        assert_eq!(GCell::new(0, 0).manhattan(&GCell::new(3, 4)), 7);
    }
}
