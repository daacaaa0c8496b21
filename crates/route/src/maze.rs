//! Maze routing: Lee's breadth-first wavefront and congestion-aware A*,
//! both on a reusable [`MazeScratch`]. Their one public way in is
//! [`SearchScratch::lee_bfs_in`](crate::SearchScratch::lee_bfs_in) /
//! [`SearchScratch::astar_in`](crate::SearchScratch::astar_in).

use crate::grid::{neighbours4, DemandGrid, GCell, RoutingGrid};
use std::collections::BinaryHeap;
use std::mem::size_of;

/// A routed 2-pin path as its canonical corner list: the source, every cell
/// where the route changes direction, and the target (a single cell when
/// they coincide). Each consecutive pair of corners shares a row or column
/// and is a non-empty straight run; consecutive runs turn. Every search
/// returns this form, and the router stores, commits and scans it run by
/// run.
pub type Path = Vec<GCell>;

/// Statistics from one search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Cells expanded during the search.
    pub expanded: usize,
    /// Scratch cells materialized for the search: the window area the
    /// per-cell arrays (`prev`, `visited`, `best_g`, line-search `seen`
    /// bitmaps) were sized to. With a full-grid window this is
    /// `width × height`; with a bounded window it is the window area —
    /// the router's memory bar.
    pub scratch_cells: usize,
}

/// A rectangular sub-grid (inclusive bounds) that bounds one maze search.
///
/// Per-cell scratch arrays are sized to the window, not the grid, so a
/// search over a small window never materializes the full grid — the
/// bounded-memory mode the scale tier routes in. A window is always a
/// pure function of the connection (bbox plus a fixed margin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchWindow {
    /// Inclusive low column.
    pub x0: u32,
    /// Inclusive low row.
    pub y0: u32,
    /// Inclusive high column.
    pub x1: u32,
    /// Inclusive high row.
    pub y1: u32,
}

impl SearchWindow {
    /// The whole grid (classic full-grid search).
    pub fn full(grid: &RoutingGrid) -> SearchWindow {
        SearchWindow { x0: 0, y0: 0, x1: grid.width - 1, y1: grid.height - 1 }
    }

    /// The bounding box of `src`/`dst` expanded by `margin` g-cells on
    /// every side, clamped to the grid.
    pub fn around(src: GCell, dst: GCell, margin: u32, grid: &RoutingGrid) -> SearchWindow {
        SearchWindow::around_dims(src, dst, margin, grid.width, grid.height)
    }

    /// [`SearchWindow::around`] from raw grid dimensions — the window is a
    /// pure function of the connection and dims, usable on any
    /// [`DemandGrid`](crate::DemandGrid) view (line-search probe windows).
    pub fn around_dims(src: GCell, dst: GCell, margin: u32, w: u32, h: u32) -> SearchWindow {
        SearchWindow {
            x0: src.x.min(dst.x).saturating_sub(margin),
            y0: src.y.min(dst.y).saturating_sub(margin),
            x1: (src.x.max(dst.x) + margin).min(w - 1),
            y1: (src.y.max(dst.y) + margin).min(h - 1),
        }
    }

    /// Window width in g-cells.
    pub fn width(&self) -> u32 {
        self.x1 - self.x0 + 1
    }

    /// Window height in g-cells.
    pub fn height(&self) -> u32 {
        self.y1 - self.y0 + 1
    }

    /// Window area in g-cells — the scratch a windowed search needs.
    pub fn area(&self) -> usize {
        self.width() as usize * self.height() as usize
    }

    /// Whether the window contains `c`.
    pub fn contains(&self, c: GCell) -> bool {
        c.x >= self.x0 && c.x <= self.x1 && c.y >= self.y0 && c.y <= self.y1
    }

    /// Window-local index of a contained cell (row-major within the window).
    pub fn local_index(&self, c: GCell) -> usize {
        debug_assert!(self.contains(c));
        ((c.y - self.y0) * self.width() + (c.x - self.x0)) as usize
    }

    /// The cell at a window-local index — inverse of
    /// [`SearchWindow::local_index`].
    pub(crate) fn cell_at(&self, local: u32) -> GCell {
        GCell::new(self.x0 + local % self.width(), self.y0 + local / self.width())
    }
}

/// Fixed-point scale of A*'s integer costs: a step weighs
/// [`DemandGrid::step_units`] — [`RoutingGrid::step_cost`] in
/// 1/`COST_SCALE` units, rounded, priced without floating point — plus
/// [`via_units`] on a bend. `step_cost` is at least 1.0, so every step
/// weighs at least `COST_SCALE` and the `COST_SCALE × manhattan` heuristic
/// never overestimates. The sum is `round(COST_SCALE × (step_cost + via))`,
/// the weight the reference kernel pays, bit for bit, whenever
/// `COST_SCALE × via` is whole: every deck's via cost is a multiple of 0.5.
pub(crate) const COST_SCALE: u64 = 64;

/// A bend's extra weight in 1/[`COST_SCALE`] units: the via cost, rounded
/// on its own (exact for every deck's via cost).
pub(crate) fn via_units(via_cost: f64) -> u64 {
    (via_cost * COST_SCALE as f64).round() as u64
}

/// `best_g` of a cell the running search has not reached.
const UNREACHED: u64 = u64::MAX;
/// `prev` of the source cell.
const NO_PREV: u32 = u32::MAX;

/// One A* open-list entry, packed into one integer so that the heap
/// compares entries in one step: `!f` in the high 64 bits, then the push
/// number, then the window-local cell (see [`open_entry`]). The order
/// contract — rip-up trajectories and every QoR golden depend on it — is
/// *smallest `f` first, and among equal `f` the entry pushed last* (what a
/// Dial bucket popped from its tail does). On the max-heap that is exactly
/// this integer's order, the order the tuple `(Reverse(f), push, cell)`
/// derives; push numbers are unique, so the cell index never decides. `g`
/// is not stored: it is `f − h(cell)`.
type Open = u128;

/// The open-list entry of `cell`, pushed as number `push` with estimate `f`.
fn open_entry(f: u64, push: u32, cell: u32) -> Open {
    (!f as u128) << 64 | (push as u128) << 32 | cell as u128
}

/// The estimate and the cell of an open-list entry.
fn open_parts(entry: Open) -> (u64, u32) {
    (!((entry >> 64) as u64), entry as u32)
}

/// Reusable per-cell state of the maze searches, indexed by window-local
/// cell. Sized to the largest window searched so far and reset by walking
/// the cells the search reached, so a search costs what it touches — not
/// what its window or its edge costs could hold.
#[derive(Default)]
pub(crate) struct MazeScratch {
    /// Best known cost from the source; [`UNREACHED`] everywhere between
    /// searches.
    best_g: Vec<u64>,
    /// Predecessor of every reached cell ([`NO_PREV`] for the source);
    /// stale wherever `best_g` is [`UNREACHED`].
    prev: Vec<u32>,
    /// Cells reached by the running search in first-reach order: the reset
    /// list, and Lee's FIFO wavefront.
    reached: Vec<u32>,
    open: BinaryHeap<Open>,
    /// The corners of the latest route found.
    path: Vec<GCell>,
}

impl MazeScratch {
    /// Bytes of heap this scratch holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.best_g.capacity() * size_of::<u64>()
            + (self.prev.capacity() + self.reached.capacity()) * size_of::<u32>()
            + self.open.capacity() * size_of::<Open>()
            + self.path.capacity() * size_of::<GCell>()
    }

    /// Grows the per-cell arrays to cover `win`; returns its area.
    fn begin(&mut self, win: SearchWindow) -> usize {
        let n = win.area();
        assert!(n < NO_PREV as usize, "window of {n} cells overflows u32 cell indices");
        if self.best_g.len() < n {
            self.best_g.resize(n, UNREACHED);
            self.prev.resize(n, NO_PREV);
        }
        debug_assert!(self.reached.is_empty() && self.open.is_empty());
        debug_assert!(self.best_g.iter().all(|&g| g == UNREACHED), "previous search not reset");
        n
    }

    fn reach(&mut self, cell: u32, g: u64, from: u32) {
        if self.best_g[cell as usize] == UNREACHED {
            self.reached.push(cell);
        }
        self.best_g[cell as usize] = g;
        self.prev[cell as usize] = from;
    }

    /// Walks `prev` back from `dst` (if it was reached), leaving the
    /// route's corners in `path`, and resets the scratch for the next
    /// search. Returns whether `dst` was reached. A `prev` chain never
    /// revisits a cell, so it never reverses, and a cell is a corner where
    /// the steps into and out of it differ — as window-index differences,
    /// ±1 along a row and ±width along a column.
    fn finish(&mut self, win: SearchWindow, dst: u32) -> bool {
        let found = self.best_g[dst as usize] != UNREACHED;
        if found {
            self.path.clear();
            self.path.push(win.cell_at(dst));
            let (mut at, mut out_step) = (dst, None);
            while self.prev[at as usize] != NO_PREV {
                let from = self.prev[at as usize];
                let step = at.wrapping_sub(from);
                if out_step.is_some_and(|s| s != step) {
                    self.path.push(win.cell_at(at));
                }
                (at, out_step) = (from, Some(step));
            }
            self.path.push(win.cell_at(at));
            self.path.reverse();
        }
        for cell in self.reached.drain(..) {
            self.best_g[cell as usize] = UNREACHED;
        }
        self.open.clear();
        found
    }

    /// The single-cell route of a search whose pins coincide.
    fn same_cell(&mut self, c: GCell) -> (&[GCell], SearchStats) {
        self.path.clear();
        self.path.push(c);
        (&self.path, SearchStats { expanded: 0, scratch_cells: 0 })
    }

    /// See [`SearchScratch::lee_bfs_in`](crate::SearchScratch::lee_bfs_in);
    /// the corners are read in place.
    pub(crate) fn lee_bfs<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        win: SearchWindow,
    ) -> Option<(&[GCell], SearchStats)> {
        debug_assert!(win.contains(src) && win.contains(dst));
        if src == dst {
            return Some(self.same_cell(src));
        }
        let scratch_cells = self.begin(win);
        let dst = win.local_index(dst) as u32;
        self.reach(win.local_index(src) as u32, 0, NO_PREV);
        // `reached` is the FIFO; cells popped so far == cells expanded.
        let mut expanded = 0usize;
        while let Some(&cell) = self.reached.get(expanded) {
            expanded += 1;
            if cell == dst {
                break;
            }
            for n in neighbours4(grid.width(), grid.height(), win.cell_at(cell)) {
                if win.contains(n) && self.best_g[win.local_index(n)] == UNREACHED {
                    self.reach(win.local_index(n) as u32, 0, cell);
                }
            }
        }
        self.finish(win, dst).then(|| (&self.path[..], SearchStats { expanded, scratch_cells }))
    }

    /// See [`SearchScratch::astar_in`](crate::SearchScratch::astar_in); the
    /// corners are read in place.
    pub(crate) fn astar<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        via_cost: f64,
        win: SearchWindow,
    ) -> Option<(&[GCell], SearchStats)> {
        debug_assert!(win.contains(src) && win.contains(dst));
        if src == dst {
            return Some(self.same_cell(src));
        }
        let scratch_cells = self.begin(win);
        let via = via_units(via_cost);
        let h = |c: GCell| c.manhattan(&dst) as u64 * COST_SCALE;
        let dst = win.local_index(dst) as u32;
        let start = win.local_index(src) as u32;
        self.reach(start, 0, NO_PREV);
        let mut pushes = 0u32;
        self.open.push(open_entry(h(src), pushes, start));
        let mut expanded = 0usize;
        while let Some(entry) = self.open.pop() {
            let (f, at) = open_parts(entry);
            let cell = win.cell_at(at);
            let g = f - h(cell);
            if g > self.best_g[at as usize] {
                continue;
            }
            expanded += 1;
            if at == dst {
                break;
            }
            let came_from = self.prev[at as usize];
            let came_from = (came_from != NO_PREV).then(|| win.cell_at(came_from));
            for nb in neighbours4(grid.width(), grid.height(), cell) {
                if !win.contains(nb) {
                    continue;
                }
                let mut ng = g + grid.step_units(cell, nb);
                // Bend penalty: direction change relative to the incoming edge.
                if let Some(p) = came_from {
                    let straight = (p.x == nb.x) || (p.y == nb.y);
                    if !straight {
                        ng += via;
                    }
                }
                let to = win.local_index(nb) as u32;
                if ng < self.best_g[to as usize] {
                    self.reach(to, ng, at);
                    pushes = pushes.checked_add(1).expect("fewer than 2^32 pushes per search");
                    self.open.push(open_entry(ng + h(nb), pushes, to));
                }
            }
        }
        self.finish(win, dst).then(|| (&self.path[..], SearchStats { expanded, scratch_cells }))
    }
}

/// Number of bends in a path (proxy for via count in the 2-D model): the
/// interior points whose two neighbours share neither a row nor a column.
/// Equal on a unit-step polyline and on its canonical corner list, where it
/// is O(corners).
pub fn count_bends(path: &[GCell]) -> u32 {
    path.windows(3).filter(|w| w[0].x != w[2].x && w[0].y != w[2].y).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{assert_corner_form, expand};
    use crate::rules::RuleDeck;
    use crate::scratch::SearchScratch;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(16, 16, &RuleDeck::simple(6))
    }

    /// Full-grid Lee search on a fresh scratch.
    fn lee(g: &RoutingGrid, src: GCell, dst: GCell) -> Option<(Path, SearchStats)> {
        SearchScratch::new().lee_bfs_in(g, src, dst, SearchWindow::full(g))
    }

    /// Full-grid A* on a fresh scratch.
    fn astar(g: &RoutingGrid, src: GCell, dst: GCell, via: f64) -> Option<(Path, SearchStats)> {
        SearchScratch::new().astar_in(g, src, dst, via, SearchWindow::full(g))
    }

    #[test]
    fn bfs_finds_shortest_path() {
        let g = grid();
        let (src, dst) = (GCell::new(0, 0), GCell::new(5, 7));
        let (path, _) = lee(&g, src, dst).unwrap();
        assert_corner_form(&path, src, dst, &SearchWindow::full(&g));
        assert_eq!(expand(&path).len() as u32, 5 + 7 + 1, "BFS path must be shortest");
    }

    #[test]
    fn astar_matches_bfs_length_on_empty_grid() {
        let g = grid();
        let (p1, _) = lee(&g, GCell::new(2, 3), GCell::new(12, 9)).unwrap();
        let (p2, _) = astar(&g, GCell::new(2, 3), GCell::new(12, 9), 0.0).unwrap();
        assert_eq!(expand(&p1).len(), expand(&p2).len());
    }

    #[test]
    fn astar_expands_fewer_cells_than_bfs() {
        let g = grid();
        let (_, s1) = lee(&g, GCell::new(0, 0), GCell::new(15, 15)).unwrap();
        let (_, s2) = astar(&g, GCell::new(0, 0), GCell::new(15, 15), 1.0).unwrap();
        assert!(s2.expanded <= s1.expanded, "A* must not expand more than BFS");
    }

    #[test]
    fn astar_avoids_congested_edges() {
        let mut g = grid();
        // Saturate the straight corridor between the pins.
        for x in 0..15 {
            for _ in 0..g.cap_h + 3 {
                g.add_usage(GCell::new(x, 8), GCell::new(x + 1, 8), 1);
            }
        }
        let (path, _) = astar(&g, GCell::new(0, 8), GCell::new(15, 8), 1.0).unwrap();
        // The route must detour off row 8 somewhere.
        assert!(path.iter().any(|c| c.y != 8), "A* should detour around congestion");
    }

    #[test]
    fn paths_are_canonical_corner_lists() {
        let g = grid();
        let (src, dst) = (GCell::new(3, 3), GCell::new(10, 12));
        let (path, _) = astar(&g, src, dst, 1.0).unwrap();
        assert_corner_form(&path, src, dst, &SearchWindow::full(&g));
    }

    /// The packed entries pop in the order the tuple `(Reverse(f), push,
    /// cell)` derives: smallest `f` first, the last pushed first among
    /// equal `f` — also at the ends of each field's range.
    #[test]
    fn open_entries_order_like_the_tuple_they_pack() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::cmp::Reverse;
        let mut rng = StdRng::seed_from_u64(123);
        let edge_f = [0, 1, 63, 64, u64::MAX - 1, u64::MAX];
        let edge_u = [0, 1, u32::MAX - 1, u32::MAX];
        let mut parts: Vec<(u64, u32, u32)> = Vec::new();
        for &f in &edge_f {
            for &push in &edge_u {
                parts.push((f, push, edge_u[(f % 4) as usize]));
            }
        }
        // Small ranges, so equal estimates and equal pushes are common.
        parts.extend((0..300).map(|_| (rng.gen_range(0..8), rng.gen_range(0..8), rng.gen())));
        for &(fa, pa, ca) in &parts {
            assert_eq!(open_parts(open_entry(fa, pa, ca)), (fa, ca));
            for &(fb, pb, cb) in &parts {
                let tuple = (Reverse(fa), pa, ca).cmp(&(Reverse(fb), pb, cb));
                assert_eq!(open_entry(fa, pa, ca).cmp(&open_entry(fb, pb, cb)), tuple);
            }
        }
    }

    #[test]
    fn bend_counting() {
        let straight = vec![GCell::new(0, 0), GCell::new(1, 0), GCell::new(2, 0)];
        assert_eq!(count_bends(&straight), 0);
        let l_shape = vec![GCell::new(0, 0), GCell::new(1, 0), GCell::new(1, 1)];
        assert_eq!(count_bends(&l_shape), 1);
        let zigzag = vec![
            GCell::new(0, 0),
            GCell::new(1, 0),
            GCell::new(1, 1),
            GCell::new(2, 1),
            GCell::new(2, 2),
        ];
        assert_eq!(count_bends(&zigzag), 3);
    }

    #[test]
    fn degenerate_single_cell() {
        let g = grid();
        let (p, s) = lee(&g, GCell::new(4, 4), GCell::new(4, 4)).unwrap();
        assert_eq!(p, vec![GCell::new(4, 4)]);
        assert_eq!(s.expanded, 0);
    }

    #[test]
    fn full_window_search_on_a_grown_scratch_matches_a_fresh_one() {
        // A scratch that searched a small window first grows to the full
        // grid and answers exactly like a fresh one.
        let g = grid();
        let (src, dst) = (GCell::new(1, 2), GCell::new(13, 11));
        let (near, full) = (GCell::new(2, 3), SearchWindow::full(&g));
        let small = SearchWindow::around(src, near, 0, &g);
        let mut grown = SearchScratch::new();
        grown.lee_bfs_in(&g, src, near, small);
        let (p1, s1) = lee(&g, src, dst).unwrap();
        let (p2, s2) = grown.lee_bfs_in(&g, src, dst, full).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        grown.astar_in(&g, src, near, 1.0, small);
        let (p3, s3) = astar(&g, src, dst, 1.0).unwrap();
        let (p4, s4) = grown.astar_in(&g, src, dst, 1.0, full).unwrap();
        assert_eq!(p3, p4);
        assert_eq!(s3, s4);
        assert_eq!(s2.scratch_cells, 16 * 16);
    }

    #[test]
    fn windowed_search_bounds_scratch_and_still_routes() {
        let g = grid();
        let src = GCell::new(2, 3);
        let dst = GCell::new(6, 5);
        let win = SearchWindow::around(src, dst, 1, &g);
        assert_eq!((win.x0, win.y0, win.x1, win.y1), (1, 2, 7, 6));
        let mut scratch = SearchScratch::new();
        let searches = [
            scratch.lee_bfs_in(&g, src, dst, win),
            scratch.astar_in(&g, src, dst, 1.0, win),
        ];
        for found in searches {
            let (path, stats) = found.unwrap();
            assert_corner_form(&path, src, dst, &win);
            assert_eq!(stats.scratch_cells, win.area());
            assert!(stats.scratch_cells < (g.width * g.height) as usize);
            // Shortest path is still found: the window contains the bbox.
            assert_eq!(expand(&path).len() as u32, src.manhattan(&dst) + 1);
        }
    }

    #[test]
    fn window_clamps_to_grid_edges() {
        let g = grid();
        let win = SearchWindow::around(GCell::new(0, 0), GCell::new(15, 15), 9, &g);
        assert_eq!(win, SearchWindow::full(&g));
        assert_eq!(win.area(), 256);
        assert!(win.contains(GCell::new(0, 15)));
        assert_eq!(win.local_index(GCell::new(0, 0)), 0);
        assert_eq!(win.local_index(GCell::new(15, 15)), 255);
    }
}
