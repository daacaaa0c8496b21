//! Search scratch: the reusable working memory of the three per-connection
//! searches, and the pool a route call hands it out from. One entry per
//! search: [`SearchScratch::mikami_tabuchi_in`], [`SearchScratch::astar_in`]
//! and [`SearchScratch::lee_bfs_in`] are the only public way into the
//! kernels; a one-shot search is a method call on [`SearchScratch::new`].
//!
//! A search needs window-sized per-cell state — per probe tree a row-major
//! and a column-major seen map for line search, `best_g` / `prev` for the
//! maze searches — plus line lists and an open list. Allocating and zeroing
//! that per call costs more than most searches do, so a [`SearchScratch`]
//! owns all of it once, grows lazily to the largest window actually
//! searched, and is reset by each kernel in time proportional to what the
//! search touched. The only heap allocation per connection is the returned
//! path. It also holds the delta buffers and masks the router lends to each
//! interior wave task's region overlay and to each seam victim's window
//! overlay, handed back all-zero by undoing the task's commits and
//! uncommits — O(path cells), not O(region).
//!
//! Ownership: a scratch belongs to one *route call*. [`ScratchPool`] is
//! created by the router when routing starts and dropped when it returns;
//! every parallel task checks one scratch out for its duration. Nothing is
//! `static` or thread-local, so a long-lived daemon worker holds no routing
//! memory between requests, and the per-dispatch worker threads of
//! `eda-par` reuse what earlier dispatches grew.

use crate::grid::{DemandGrid, GCell};
use crate::linesearch::LineScratch;
use crate::maze::{MazeScratch, Path, SearchStats, SearchWindow};
use crate::region::OverlayBuffers;
use std::sync::Mutex;

/// Reusable working memory for the line search and the two maze searches.
/// Results never depend on what a scratch was used for before.
#[derive(Default)]
pub struct SearchScratch {
    line: LineScratch,
    maze: MazeScratch,
    /// Delta buffers the router lends to one overlay at a time (a region's,
    /// or a seam victim's window); all-zero between tasks.
    pub(crate) overlay: OverlayBuffers,
}

impl SearchScratch {
    /// An empty scratch; it allocates on first use.
    pub fn new() -> SearchScratch {
        SearchScratch::default()
    }

    /// Bytes of heap currently held. Bounded by the largest window searched
    /// and the most lines / open entries one search generated — never by
    /// the magnitude of edge costs.
    pub fn heap_bytes(&self) -> usize {
        self.line.heap_bytes() + self.maze.heap_bytes() + self.overlay.heap_bytes()
    }

    /// Mikami–Tabuchi line search between two cells, its probes clipped to
    /// `win` ([`probe_window`](crate::probe_window) is the default clip).
    ///
    /// Returns the path and the number of line-cells generated (the
    /// analogue of "cells expanded"), or `None` when the expansion level
    /// limit is hit or a tighter window leaves no crossing — callers fall
    /// back to maze routing.
    pub fn mikami_tabuchi_in<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        max_levels: usize,
        win: SearchWindow,
    ) -> Option<(Path, SearchStats)> {
        self.line.search(grid, src, dst, max_levels, win)
    }

    /// Congestion-aware A* inside `win`: edge costs from
    /// [`DemandGrid::step_cost`] plus a via (bend) penalty, with the
    /// Manhattan-distance admissible heuristic; costs are quantized to
    /// 1/64ths. With [`SearchWindow::full`] this is the classic full-grid
    /// search; with a bounded window the route may accept congestion it
    /// cannot detour around, which rip-up negotiation then repairs.
    pub fn astar_in<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        via_cost: f64,
        win: SearchWindow,
    ) -> Option<(Path, SearchStats)> {
        self.maze.astar(grid, src, dst, via_cost, win)
    }

    /// Lee's algorithm inside `win`: uniform-cost BFS ignoring congestion
    /// weights (the decade-old baseline). The grid has no hard obstacles,
    /// so any window containing both pins yields a path — a window only
    /// trades detour room for memory.
    pub fn lee_bfs_in<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        win: SearchWindow,
    ) -> Option<(Path, SearchStats)> {
        self.maze.lee_bfs(grid, src, dst, win)
    }
}

/// The scratches of one route call: at most one per concurrently running
/// task, created on demand and reused by later tasks.
#[derive(Default)]
pub(crate) struct ScratchPool {
    idle: Mutex<Vec<SearchScratch>>,
}

impl ScratchPool {
    /// Runs `task` with a scratch checked out of the pool.
    pub(crate) fn with<R>(&self, task: impl FnOnce(&mut SearchScratch) -> R) -> R {
        let idle = || self.idle.lock().expect("no task panics while holding the pool lock");
        let mut scratch = idle().pop().unwrap_or_default();
        let out = task(&mut scratch);
        idle().push(scratch);
        out
    }

    /// The scratches the pool holds, for tests that inspect them after a
    /// route.
    #[cfg(test)]
    pub(crate) fn into_idle(self) -> Vec<SearchScratch> {
        self.idle.into_inner().expect("no task panics while holding the pool lock")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::RoutingGrid;
    use crate::rules::RuleDeck;

    /// A Dial queue — a bucket array indexed by absolute quantised `f` —
    /// is the tempting open list here, and the wrong one: on a saturated
    /// grid one step costs hundreds, so a ten-step search sizes ~10^5
    /// buckets (megabytes) and sweeps them all. Whatever the open list is,
    /// its memory must follow the search — not the size of the numbers.
    #[test]
    fn astar_memory_is_bounded_by_the_window_not_by_edge_costs() {
        let mut grid = RoutingGrid::new(16, 16, &RuleDeck::simple(3));
        for y in 0..16 {
            for x in 0..16 {
                if x + 1 < 16 {
                    grid.add_usage(GCell::new(x, y), GCell::new(x + 1, y), 40 * grid.cap_h as i32);
                }
                if y + 1 < 16 {
                    grid.add_usage(GCell::new(x, y), GCell::new(x, y + 1), 40 * grid.cap_v as i32);
                }
            }
        }
        for _ in 0..6 {
            grid.bump_history();
        }
        let step = grid.step_cost(GCell::new(0, 0), GCell::new(1, 0));
        assert!(step * 64.0 * 10.0 > 1e5, "ten steps span > 10^5 quantised cost units ({step}/step)");
        let win = SearchWindow::full(&grid);
        let mut scratch = SearchScratch::new();
        for i in 0..1_000u32 {
            let src = GCell::new(i % 16, (i / 16) % 16);
            let dst = GCell::new((i * 7 + 3) % 16, (i * 5 + 11) % 16);
            let (path, _) = scratch.astar_in(&grid, src, dst, 1.0, win).expect("no hard obstacles");
            assert_eq!((path[0], path[path.len() - 1]), (src, dst));
        }
        let per_cell = scratch.heap_bytes() / win.area();
        assert!(per_cell <= 128, "{per_cell} bytes per window cell after 1000 saturated searches");
    }
}
