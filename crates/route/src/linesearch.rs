//! Mikami–Tabuchi line-search routing.
//!
//! Instead of flooding cells like a maze router, line search grows maximal
//! horizontal/vertical probe lines from both pins, alternating levels until
//! a source line crosses a target line. On sparse ("simpler") rule decks it
//! explores far fewer cells and produces paths with very few bends — the
//! behaviour behind Domic's claim C5.

use crate::grid::{DemandGrid, GCell};
use crate::maze::{Path, SearchStats, SearchWindow as Window};
use std::mem::size_of;

/// `parent` of a level-0 line.
const NO_PARENT: u32 = u32::MAX;

/// One probe line in the arena.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// The cell this line was spawned from.
    origin: GCell,
    /// Horizontal (varying x) or vertical.
    horizontal: bool,
    /// Inclusive low bound of the varying coordinate.
    lo: u32,
    /// Inclusive high bound of the varying coordinate.
    hi: u32,
    /// Arena index of the parent line ([`NO_PARENT`] for level-0 lines).
    parent: u32,
}

impl Line {
    fn len(&self) -> usize {
        (self.hi - self.lo + 1) as usize
    }

    fn contains(&self, c: GCell) -> bool {
        if self.horizontal {
            c.y == self.origin.y && c.x >= self.lo && c.x <= self.hi
        } else {
            c.x == self.origin.x && c.y >= self.lo && c.y <= self.hi
        }
    }

    /// The cell at varying coordinate `v`.
    fn cell(&self, v: u32) -> GCell {
        if self.horizontal {
            GCell::new(v, self.origin.y)
        } else {
            GCell::new(self.origin.x, v)
        }
    }

    /// Intersection cell with a perpendicular line, if any.
    fn crosses(&self, other: &Line) -> Option<GCell> {
        if self.horizontal == other.horizontal {
            // Parallel lines: only touch if collinear and overlapping; treat
            // the shared cell case via containment of the origin.
            return None;
        }
        let (h, v) = if self.horizontal { (self, other) } else { (other, self) };
        let x = v.origin.x;
        let y = h.origin.y;
        (x >= h.lo && x <= h.hi && y >= v.lo && y <= v.hi).then(|| GCell::new(x, y))
    }
}

/// Grows the maximal unblocked line through `origin`, clipped to `win`.
fn grow<G: DemandGrid>(grid: &G, origin: GCell, horizontal: bool, win: Window, parent: u32) -> Line {
    let (min, max) = if horizontal { (win.x0, win.x1) } else { (win.y0, win.y1) };
    let (lo, hi) = grid.free_run(origin, horizontal, min, max);
    Line { origin, horizontal, lo, hi, parent }
}

/// Which window cells one probe tree's lines cover, split by orientation so
/// that every line marks, tests and clears one contiguous run of its own
/// map: horizontal lines write `rows` (row-major), vertical lines `cols`
/// (column-major). A cell is seen when either map holds it. Both maps are
/// all `false` between searches.
#[derive(Default)]
struct Seen {
    rows: Vec<bool>,
    cols: Vec<bool>,
}

impl Seen {
    /// Grows both maps to cover a window of `n` cells.
    fn cover(&mut self, n: usize) {
        for map in [&mut self.rows, &mut self.cols] {
            if map.len() < n {
                map.resize(n, false);
            }
            debug_assert!(!map.contains(&true), "previous search not cleared");
        }
    }

    /// Where `l` starts in its own map, where its first cell sits in the
    /// other map, and the stride between its cells there.
    fn place(l: &Line, win: &Window) -> (usize, usize, usize) {
        let (w, h) = (win.width() as usize, win.height() as usize);
        let (along, across, own, other) = if l.horizontal {
            ((l.lo - win.x0) as usize, (l.origin.y - win.y0) as usize, w, h)
        } else {
            ((l.lo - win.y0) as usize, (l.origin.x - win.x0) as usize, h, w)
        };
        (across * own + along, along * other + across, other)
    }

    /// Whether some cell of `l` is in neither map: each cell is tested
    /// against `l`'s own map first, then against the other one.
    fn any_unseen(&self, l: &Line, win: &Window) -> bool {
        let (own, other) = if l.horizontal { (&self.rows, &self.cols) } else { (&self.cols, &self.rows) };
        let (at, other_at, stride) = Seen::place(l, win);
        own[at..at + l.len()].iter().enumerate().any(|(k, &seen)| !seen && !other[other_at + k * stride])
    }

    /// Marks (or clears) `l`'s run of its own map.
    fn set(&mut self, l: &Line, win: &Window, value: bool) {
        let (at, _, _) = Seen::place(l, win);
        let own = if l.horizontal { &mut self.rows } else { &mut self.cols };
        own[at..at + l.len()].fill(value);
    }

    fn heap_bytes(&self) -> usize {
        self.rows.capacity() + self.cols.capacity()
    }
}

/// Walks from `cell` on line `li` back to the search root, appending the
/// cells after `cell` up to and including the root pin.
fn trace(arena: &[Line], mut li: u32, mut cell: GCell, out: &mut Vec<GCell>) {
    loop {
        let line = arena[li as usize];
        push_segment(cell, line.origin, out);
        if line.parent == NO_PARENT {
            break;
        }
        cell = line.origin;
        li = line.parent;
    }
}

/// Appends the cells strictly after `from` up to and including `to`, along
/// one axis.
fn push_segment(from: GCell, to: GCell, out: &mut Vec<GCell>) {
    if from.x == to.x {
        let (a, b) = (from.y, to.y);
        if a < b {
            out.extend((a + 1..=b).map(|y| GCell::new(from.x, y)));
        } else {
            out.extend((b..a).rev().map(|y| GCell::new(from.x, y)));
        }
    } else {
        let (a, b) = (from.x, to.x);
        if a < b {
            out.extend((a + 1..=b).map(|x| GCell::new(x, from.y)));
        } else {
            out.extend((b..a).rev().map(|x| GCell::new(x, from.y)));
        }
    }
}

/// Mikami–Tabuchi search between two cells.
///
/// Returns the path and the number of line-cells generated (the analogue of
/// "cells expanded"), or `None` when the expansion level limit is hit —
/// callers fall back to maze routing. Probes are clipped to
/// [`probe_window`]: the connection's own extent.
pub fn mikami_tabuchi<G: DemandGrid>(
    grid: &G,
    src: GCell,
    dst: GCell,
    max_levels: usize,
) -> Option<(Path, SearchStats)> {
    mikami_tabuchi_in(grid, src, dst, max_levels, probe_window(grid, src, dst))
}

/// The window [`mikami_tabuchi`] clips its probes to: the pins' bounding
/// box with margin `3 + distance/2`.
pub(crate) fn probe_window<G: DemandGrid>(grid: &G, src: GCell, dst: GCell) -> Window {
    let margin = 3 + src.manhattan(&dst) / 2;
    Window::around_dims(src, dst, margin, grid.width(), grid.height())
}

/// [`mikami_tabuchi`] with an explicit clipping [`Window`](SearchWindow) —
/// the bounded-memory entry point: probes never leave the window. A
/// tighter window fails (returns `None`) more often; callers fall back to
/// windowed maze routing. One-shot form of
/// [`SearchScratch::mikami_tabuchi_in`](crate::SearchScratch::mikami_tabuchi_in).
pub fn mikami_tabuchi_in<G: DemandGrid>(
    grid: &G,
    src: GCell,
    dst: GCell,
    max_levels: usize,
    win: Window,
) -> Option<(Path, SearchStats)> {
    LineScratch::default().search(grid, src, dst, max_levels, win)
}

/// How a search ended: where the two probe trees met.
enum Hit {
    /// Source line `.0` crosses target line `.1` at the cell.
    Cross(u32, u32, GCell),
    /// Target line passes exactly through the source pin.
    TargetThroughSrc(u32),
    /// Source line passes exactly through the target pin.
    SourceThroughDst(u32),
}

/// The two probe trees: `SRC` grows from the source pin, `DST` from the
/// target.
const SRC: usize = 0;
const DST: usize = 1;

/// Reusable state of the line search. Everything is sized by what searches
/// actually generated; the seen maps cover the largest window searched so
/// far and are cleared by re-walking the arena, so a search costs its own
/// lines — not its window.
#[derive(Default)]
pub(crate) struct LineScratch {
    arena: Vec<Line>,
    /// Arena indices of each tree's lines, in spawn order. The lines
    /// spawned by the latest expansion are always a suffix.
    lines: [Vec<u32>; 2],
    /// Per tree: which window-local cells its lines cover.
    seen: [Seen; 2],
    path: Vec<GCell>,
}

impl LineScratch {
    /// Bytes of heap this scratch holds.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.arena.capacity() * size_of::<Line>()
            + self.lines.iter().map(|l| l.capacity() * size_of::<u32>()).sum::<usize>()
            + self.seen.iter().map(Seen::heap_bytes).sum::<usize>()
            + self.path.capacity() * size_of::<GCell>()
    }

    /// See [`mikami_tabuchi_in`].
    pub(crate) fn search<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        max_levels: usize,
        win: Window,
    ) -> Option<(Path, SearchStats)> {
        if src == dst {
            return Some((vec![src], SearchStats { expanded: 0, scratch_cells: 0 }));
        }
        debug_assert!(win.contains(src) && win.contains(dst));
        // Probes are clipped to `win`, so the seen maps only need the
        // window — line search never materializes the full grid.
        let n = win.area();
        for seen in &mut self.seen {
            seen.cover(n);
        }
        let expanded = self.probe(grid, src, dst, max_levels, win);
        for (lines, seen) in self.lines.iter_mut().zip(&mut self.seen) {
            for li in lines.drain(..) {
                seen.set(&self.arena[li as usize], &win, false);
            }
        }
        self.arena.clear();
        // `to_vec` sizes the committed path exactly: the router keeps
        // every path alive until it returns.
        expanded.map(|expanded| (self.path.to_vec(), SearchStats { expanded, scratch_cells: n }))
    }

    /// Runs the search proper; on success leaves the route in `self.path`
    /// and returns the line-cells generated.
    fn probe<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        max_levels: usize,
        win: Window,
    ) -> Option<usize> {
        let mut expanded = 0usize;
        for (tree, origin) in [(SRC, src), (DST, dst)] {
            for horizontal in [true, false] {
                self.admit(tree, grow(grid, origin, horizontal, win, NO_PARENT), &win, &mut expanded);
            }
        }
        // Per tree, where the lines not yet offered to `first_hit` start.
        let mut fresh = [0usize; 2];
        for _level in 0..max_levels {
            if let Some(hit) = self.first_hit(src, dst, fresh) {
                self.build_path(hit, src, dst);
                return Some(expanded);
            }
            // Expand: spawn perpendicular lines from every cell of the
            // lines the previous level spawned.
            for tree in [SRC, DST] {
                let frontier = fresh[tree]..self.lines[tree].len();
                fresh[tree] = frontier.end;
                for at in frontier {
                    let li = self.lines[tree][at];
                    let parent = self.arena[li as usize];
                    for v in parent.lo..=parent.hi {
                        let l = grow(grid, parent.cell(v), !parent.horizontal, win, li);
                        // Skip degenerate or fully-seen lines.
                        if self.seen[tree].any_unseen(&l, &win) {
                            self.admit(tree, l, &win, &mut expanded);
                        }
                    }
                }
            }
            if fresh[SRC] == self.lines[SRC].len() && fresh[DST] == self.lines[DST].len() {
                break;
            }
        }
        None
    }

    /// Adds `l` to `tree`.
    fn admit(&mut self, tree: usize, l: Line, win: &Window, expanded: &mut usize) {
        *expanded += l.len();
        self.seen[tree].set(&l, win, true);
        self.lines[tree].push(self.arena.len() as u32);
        self.arena.push(l);
    }

    /// The first meeting of the two trees in source-order × target-order,
    /// looking only at pairs with a line at or after `fresh` on either
    /// side. Lines never change once admitted, and every pair of older
    /// lines was examined — and found not to meet — by the previous level's
    /// call, so skipping those pairs returns the same hit the full scan
    /// would.
    fn first_hit(&self, src: GCell, dst: GCell, fresh: [usize; 2]) -> Option<Hit> {
        for (at, &si) in self.lines[SRC].iter().enumerate() {
            let s = &self.arena[si as usize];
            let skip = if at < fresh[SRC] { fresh[DST] } else { 0 };
            for &di in &self.lines[DST][skip..] {
                let d = &self.arena[di as usize];
                if let Some(x) = s.crosses(d) {
                    return Some(Hit::Cross(si, di, x));
                }
                if d.contains(src) {
                    return Some(Hit::TargetThroughSrc(di));
                }
                if s.contains(dst) {
                    return Some(Hit::SourceThroughDst(si));
                }
            }
        }
        None
    }

    /// Assembles the route for `hit` in `self.path`.
    fn build_path(&mut self, hit: Hit, src: GCell, dst: GCell) {
        let (arena, path) = (&self.arena, &mut self.path);
        path.clear();
        // The source half: trace from the meeting cell back to `src`, then
        // turn it around so it reads `src → meet`. The trace ends on `src`
        // (possibly more than once through degenerate pivots) unless the
        // meeting cell is `src` itself; normalise to exactly one.
        let source_half = |path: &mut Vec<GCell>, si: u32, meet: GCell| {
            trace(arena, si, meet, path);
            while path.last() == Some(&src) {
                path.pop();
            }
            path.push(src);
            path.reverse();
            if path.last() != Some(&meet) {
                path.push(meet);
            }
        };
        match hit {
            Hit::Cross(si, di, x) => {
                source_half(path, si, x);
                trace(arena, di, x, path);
            }
            Hit::TargetThroughSrc(di) => {
                path.push(src);
                trace(arena, di, src, path);
            }
            Hit::SourceThroughDst(si) => source_half(path, si, dst),
        }
        dedup_path(path);
    }
}

/// Removes consecutive duplicates and immediate backtracks (A-B-A stutters
/// introduced by pivot tracing), in one in-place pass: `kept` is a stack,
/// and a cell that equals the one two below the top cancels the top.
pub(crate) fn dedup_path(path: &mut Vec<GCell>) {
    let mut kept = 0;
    for at in 0..path.len() {
        let c = path[at];
        if kept >= 1 && path[kept - 1] == c {
            continue;
        }
        if kept >= 2 && path[kept - 2] == c {
            kept -= 1;
            continue;
        }
        path[kept] = c;
        kept += 1;
    }
    path.truncate(kept);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::RoutingGrid;
    use crate::maze::count_bends;
    use crate::rules::RuleDeck;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(24, 24, &RuleDeck::simple(6))
    }

    fn check_path(path: &[GCell], src: GCell, dst: GCell) {
        assert_eq!(path[0], src, "path starts at source");
        assert_eq!(*path.last().unwrap(), dst, "path ends at target");
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(&w[1]), 1, "adjacent steps: {:?} -> {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn routes_on_empty_grid_with_one_bend() {
        let g = grid();
        let src = GCell::new(2, 3);
        let dst = GCell::new(18, 15);
        let (path, stats) = mikami_tabuchi(&g, src, dst, 10).unwrap();
        check_path(&path, src, dst);
        assert!(count_bends(&path) <= 1, "level-0 crossing gives an L route");
        assert!(stats.expanded > 0);
    }

    #[test]
    fn collinear_pins_route_straight() {
        let g = grid();
        let src = GCell::new(2, 7);
        let dst = GCell::new(20, 7);
        let (path, _) = mikami_tabuchi(&g, src, dst, 10).unwrap();
        check_path(&path, src, dst);
        assert_eq!(count_bends(&path), 0);
        assert_eq!(path.len(), 19);
    }

    #[test]
    fn detours_around_blocked_wall() {
        let mut g = grid();
        // Vertical wall of full horizontal edges at x=10..11 except row 10
        // (inside the search window around the pins).
        for y in 0..24 {
            if y == 10 {
                continue;
            }
            for _ in 0..g.cap_h {
                g.add_usage(GCell::new(10, y), GCell::new(11, y), 1);
            }
        }
        let src = GCell::new(2, 3);
        let dst = GCell::new(20, 3);
        let (path, _) = mikami_tabuchi(&g, src, dst, 20).unwrap();
        check_path(&path, src, dst);
        assert!(path.iter().any(|c| c.y == 10), "must pass through the gap");
    }

    #[test]
    fn expands_fewer_cells_than_maze_on_sparse_grid() {
        let g = grid();
        let src = GCell::new(1, 1);
        let dst = GCell::new(22, 22);
        let (_, ls) = mikami_tabuchi(&g, src, dst, 10).unwrap();
        let (_, bfs) = crate::maze::lee_bfs(&g, src, dst).unwrap();
        assert!(
            ls.expanded < bfs.expanded / 2,
            "line search ({}) should explore far less than BFS ({})",
            ls.expanded,
            bfs.expanded
        );
    }

    #[test]
    fn gives_up_when_boxed_in() {
        let mut g = grid();
        // Seal off the source completely.
        let src = GCell::new(5, 5);
        for nb in [GCell::new(4, 5), GCell::new(6, 5)] {
            for _ in 0..g.cap_h {
                g.add_usage(src.min(nb), src.max(nb), 1);
            }
        }
        for nb in [GCell::new(5, 4), GCell::new(5, 6)] {
            for _ in 0..g.cap_v {
                g.add_usage(src.min(nb), src.max(nb), 1);
            }
        }
        let out = mikami_tabuchi(&g, src, GCell::new(20, 20), 8);
        assert!(out.is_none(), "boxed-in pin cannot be line-routed");
    }

    #[test]
    fn single_cell_route() {
        let g = grid();
        let (p, _) = mikami_tabuchi(&g, GCell::new(3, 3), GCell::new(3, 3), 4).unwrap();
        assert_eq!(p.len(), 1);
    }
}
