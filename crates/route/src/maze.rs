//! Maze routing: Lee's breadth-first wavefront and congestion-aware A*,
//! both on a reusable [`MazeScratch`]. Their one public way in is
//! [`SearchScratch::lee_bfs_in`](crate::SearchScratch::lee_bfs_in) /
//! [`SearchScratch::astar_in`](crate::SearchScratch::astar_in).

use crate::grid::{neighbours4, DemandGrid, GCell, RoutingGrid};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::mem::size_of;

/// A routed 2-pin path (sequence of adjacent g-cells).
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
/// pure function of the connection (bbox plus a fixed margin), never of
/// the thread count, so windowed outcomes stay bit-identical under any
/// parallel schedule.
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
    /// pure function of the connection and dims, usable without a grid
    /// reference (the region scheduler computes windows before any search).
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

/// Fixed-point scale for quantized search costs: [`RoutingGrid::step_cost`]
/// is at least 1.0, so every quantized edge weighs at least `COST_SCALE` and
/// the `COST_SCALE × manhattan` heuristic never overestimates.
const COST_SCALE: f64 = 64.0;

/// `best_g` of a cell the running search has not reached.
const UNREACHED: u64 = u64::MAX;
/// `prev` of the source cell.
const NO_PREV: u32 = u32::MAX;

/// One A* open-list entry: `(Reverse(f), push number, window-local cell)`.
/// The order contract — rip-up trajectories and every QoR golden depend on
/// it — is *smallest `f` first, and among equal `f` the entry pushed last*
/// (what a Dial bucket popped from its tail does). On the max-heap that is
/// exactly this tuple's derived order; push numbers are unique, so the cell
/// index never decides. `g` is not stored: it is `f − h(cell)`.
type Open = (Reverse<u64>, u32, u32);

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

    /// Walks `prev` back from `dst` (if it was reached), resets the scratch
    /// for the next search, and returns the path with exact capacity.
    fn finish(&mut self, win: SearchWindow, dst: u32) -> Option<Path> {
        let found = self.best_g[dst as usize] != UNREACHED;
        if found {
            self.path.clear();
            let mut cur = dst;
            while cur != NO_PREV {
                self.path.push(win.cell_at(cur));
                cur = self.prev[cur as usize];
            }
            self.path.reverse();
        }
        for cell in self.reached.drain(..) {
            self.best_g[cell as usize] = UNREACHED;
        }
        self.open.clear();
        found.then(|| self.path.to_vec())
    }

    /// See [`SearchScratch::lee_bfs_in`](crate::SearchScratch::lee_bfs_in).
    pub(crate) fn lee_bfs<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        win: SearchWindow,
    ) -> Option<(Path, SearchStats)> {
        debug_assert!(win.contains(src) && win.contains(dst));
        if src == dst {
            return Some((vec![src], SearchStats { expanded: 0, scratch_cells: 0 }));
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
        let path = self.finish(win, dst)?;
        Some((path, SearchStats { expanded, scratch_cells }))
    }

    /// See [`SearchScratch::astar_in`](crate::SearchScratch::astar_in).
    pub(crate) fn astar<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        via_cost: f64,
        win: SearchWindow,
    ) -> Option<(Path, SearchStats)> {
        debug_assert!(win.contains(src) && win.contains(dst));
        if src == dst {
            return Some((vec![src], SearchStats { expanded: 0, scratch_cells: 0 }));
        }
        let scratch_cells = self.begin(win);
        let quant = |c: f64| (c * COST_SCALE).round() as u64;
        let h = |c: GCell| c.manhattan(&dst) as u64 * COST_SCALE as u64;
        let dst = win.local_index(dst) as u32;
        let start = win.local_index(src) as u32;
        self.reach(start, 0, NO_PREV);
        let mut pushes = 0u32;
        self.open.push((Reverse(h(src)), pushes, start));
        let mut expanded = 0usize;
        while let Some((Reverse(f), _, at)) = self.open.pop() {
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
                let mut cost = grid.step_cost(cell, nb);
                // Bend penalty: direction change relative to the incoming edge.
                if let Some(p) = came_from {
                    let straight = (p.x == nb.x) || (p.y == nb.y);
                    if !straight {
                        cost += via_cost;
                    }
                }
                let ng = g + quant(cost);
                let to = win.local_index(nb) as u32;
                if ng < self.best_g[to as usize] {
                    self.reach(to, ng, at);
                    pushes = pushes.checked_add(1).expect("fewer than 2^32 pushes per search");
                    self.open.push((Reverse(ng + h(nb)), pushes, to));
                }
            }
        }
        let path = self.finish(win, dst)?;
        Some((path, SearchStats { expanded, scratch_cells }))
    }
}

/// Number of bends in a path (proxy for via count in the 2-D model).
pub fn count_bends(path: &[GCell]) -> u32 {
    if path.len() < 3 {
        return 0;
    }
    let mut bends = 0;
    for w in path.windows(3) {
        let straight = (w[0].x == w[2].x) || (w[0].y == w[2].y);
        if !straight {
            bends += 1;
        }
    }
    bends
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let (path, _) = lee(&g, GCell::new(0, 0), GCell::new(5, 7)).unwrap();
        assert_eq!(path.len() as u32, 5 + 7 + 1, "BFS path must be shortest");
        assert_eq!(path[0], GCell::new(0, 0));
        assert_eq!(*path.last().unwrap(), GCell::new(5, 7));
    }

    #[test]
    fn astar_matches_bfs_length_on_empty_grid() {
        let g = grid();
        let (p1, _) = lee(&g, GCell::new(2, 3), GCell::new(12, 9)).unwrap();
        let (p2, _) = astar(&g, GCell::new(2, 3), GCell::new(12, 9), 0.0).unwrap();
        assert_eq!(p1.len(), p2.len());
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
    fn paths_are_connected() {
        let g = grid();
        let (path, _) = astar(&g, GCell::new(3, 3), GCell::new(10, 12), 1.0).unwrap();
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(&w[1]), 1, "path must step between neighbours");
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
            assert_eq!(path[0], src);
            assert_eq!(*path.last().unwrap(), dst);
            assert!(path.iter().all(|&c| win.contains(c)), "path stays inside the window");
            assert_eq!(stats.scratch_cells, win.area());
            assert!(stats.scratch_cells < (g.width * g.height) as usize);
            // Shortest path is still found: the window contains the bbox.
            assert_eq!(path.len() as u32, src.manhattan(&dst) + 1);
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
