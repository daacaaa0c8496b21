//! Mikami–Tabuchi line-search routing.
//!
//! Instead of flooding cells like a maze router, line search grows maximal
//! horizontal/vertical probe lines from both pins, alternating levels until
//! a source line crosses a target line. On sparse ("simpler") rule decks it
//! explores far fewer cells and produces paths with very few bends — the
//! behaviour behind Domic's claim C5. The one public way in is
//! [`SearchScratch::mikami_tabuchi_in`](crate::SearchScratch::mikami_tabuchi_in).

use crate::grid::{DemandGrid, GCell};
use crate::maze::{SearchStats, SearchWindow as Window};
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

    /// Whether a line of orientation `horizontal` holds `c` — then that
    /// line is the maximal run through `c`.
    fn holds(&self, c: GCell, horizontal: bool, win: &Window) -> bool {
        let (x, y) = ((c.x - win.x0) as usize, (c.y - win.y0) as usize);
        if horizontal {
            self.rows[y * win.width() as usize + x]
        } else {
            self.cols[x * win.height() as usize + y]
        }
    }

    /// Whether some cell of `l` is in neither map. `l` is a maximal run that
    /// [`Seen::holds`] found in no line of its orientation, so its own map
    /// holds none of its cells, and only the other map is tested.
    fn any_unseen(&self, l: &Line, win: &Window) -> bool {
        let (own, other) = if l.horizontal { (&self.rows, &self.cols) } else { (&self.cols, &self.rows) };
        let (at, other_at, stride) = Seen::place(l, win);
        debug_assert!(!own[at..at + l.len()].contains(&true), "{l:?} overlaps a line of its own orientation");
        (0..l.len()).any(|k| !other[other_at + k * stride])
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

/// Walks from the last corner of `path`, a cell of line `li`, back to the
/// search root through each line's origin, reducing as it goes (see
/// [`push_corner`]).
fn trace(arena: &[Line], mut li: u32, path: &mut Vec<GCell>) {
    loop {
        let line = arena[li as usize];
        push_corner(path, line.origin);
        if line.parent == NO_PARENT {
            break;
        }
        li = line.parent;
    }
}

/// Extends the canonical corner list `path` by the straight run from its
/// last corner to `c`, which shares a row or column with it. A run that
/// continues or backs up along the last one merges into it, and one that
/// cancels it exactly removes its corner; runs that turn add `c`. So the
/// list stays the corners of the unit-step walk with every A-B-A stutter
/// cancelled (the walk's free reduction, which does not depend on the
/// order its cancellations are made in) without visiting a cell in
/// between, and after each push no two consecutive runs share an axis.
pub(crate) fn push_corner(path: &mut Vec<GCell>, c: GCell) {
    let n = path.len();
    if path[n - 1] == c {
        return;
    }
    if n >= 2 {
        let (a, b) = (path[n - 2], path[n - 1]);
        if (a.x == b.x && b.x == c.x) || (a.y == b.y && b.y == c.y) {
            if a == c {
                path.pop();
            } else {
                path[n - 1] = c;
            }
            return;
        }
    }
    path.push(c);
}

/// The default window a line search clips its probes to: the pins'
/// bounding box with margin `3 + distance/2`, the connection's own extent.
/// The router uses it when it routes without search windows.
pub fn probe_window<G: DemandGrid>(grid: &G, src: GCell, dst: GCell) -> Window {
    let margin = 3 + src.manhattan(&dst) / 2;
    Window::around_dims(src, dst, margin, grid.width(), grid.height())
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

    /// See [`SearchScratch::mikami_tabuchi_in`](crate::SearchScratch::mikami_tabuchi_in);
    /// the corners are read in place.
    pub(crate) fn search<G: DemandGrid>(
        &mut self,
        grid: &G,
        src: GCell,
        dst: GCell,
        max_levels: usize,
        win: Window,
    ) -> Option<(&[GCell], SearchStats)> {
        if src == dst {
            self.path.clear();
            self.path.push(src);
            return Some((&self.path, SearchStats { expanded: 0, scratch_cells: 0 }));
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
        expanded.map(|expanded| (&self.path[..], SearchStats { expanded, scratch_cells: n }))
    }

    /// Runs the search proper; on success leaves the route in `self.path`
    /// and returns the line-cells generated.
    ///
    /// The search fails as soon as one tree's expansion spawns no line,
    /// which is exact — it returns `None` in exactly the cases that
    /// expanding the other tree on to the level limit would:
    /// - the perpendicular run through every cell of an exhausted tree's
    ///   lines is covered by the tree (grown and admitted, grown and found
    ///   seen, or skipped as one of its lines), and the cell's parallel
    ///   neighbours across free edges lie on its own line, so the tree
    ///   covers its pin's whole free-edge component inside the window;
    /// - every one of its lines has been offered to [`Self::first_hit`]
    ///   (the latest ones at the start of this level), so none contains the
    ///   other pin, which is therefore outside that component;
    /// - so no line of the other tree, connected to the other pin, can ever
    ///   reach a cell of it: no crossing can occur.
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
                        let (c, horizontal) = (parent.cell(v), !parent.horizontal);
                        // Maximal runs of one orientation are equal or
                        // disjoint: a line of the tree through `c` is the
                        // run this probe would grow.
                        if self.seen[tree].holds(c, horizontal, &win) {
                            continue;
                        }
                        let l = grow(grid, c, horizontal, win, li);
                        // Skip degenerate or fully-seen lines.
                        if self.seen[tree].any_unseen(&l, &win) {
                            self.admit(tree, l, &win, &mut expanded);
                        }
                    }
                }
                // An exhausted tree ends the search: see `probe`'s doc.
                if fresh[tree] == self.lines[tree].len() {
                    return None;
                }
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

    /// Assembles the route for `hit` in `self.path` as its canonical corner
    /// list. The route walks from `src` through the origins of the source
    /// lines to the meeting cell and on through the target lines' origins
    /// to `dst`; a source half is reduced from the meeting cell back to
    /// `src` and turned around, which reduces the same walk reversed.
    fn build_path(&mut self, hit: Hit, src: GCell, dst: GCell) {
        let (arena, path) = (&self.arena, &mut self.path);
        path.clear();
        match hit {
            Hit::Cross(si, di, x) => {
                path.push(x);
                trace(arena, si, path);
                path.reverse();
                trace(arena, di, path);
            }
            Hit::TargetThroughSrc(di) => {
                path.push(src);
                trace(arena, di, path);
            }
            Hit::SourceThroughDst(si) => {
                path.push(dst);
                trace(arena, si, path);
                path.reverse();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::RoutingGrid;
    use crate::maze::{count_bends, Path};
    use crate::reference::{assert_corner_form, expand};
    use crate::rules::RuleDeck;
    use crate::scratch::SearchScratch;

    fn grid() -> RoutingGrid {
        RoutingGrid::new(24, 24, &RuleDeck::simple(6))
    }

    /// Line search in the default probe window on a fresh scratch.
    fn line(g: &RoutingGrid, src: GCell, dst: GCell, levels: usize) -> Option<(Path, SearchStats)> {
        SearchScratch::new().mikami_tabuchi_in(g, src, dst, levels, probe_window(g, src, dst))
    }

    #[test]
    fn routes_on_empty_grid_with_one_bend() {
        let g = grid();
        let src = GCell::new(2, 3);
        let dst = GCell::new(18, 15);
        let (path, stats) = line(&g, src, dst, 10).unwrap();
        assert_corner_form(&path, src, dst, &Window::full(&g));
        assert!(count_bends(&path) <= 1, "level-0 crossing gives an L route");
        assert!(stats.expanded > 0);
    }

    #[test]
    fn collinear_pins_route_straight() {
        let g = grid();
        let src = GCell::new(2, 7);
        let dst = GCell::new(20, 7);
        let (path, _) = line(&g, src, dst, 10).unwrap();
        assert_corner_form(&path, src, dst, &Window::full(&g));
        assert_eq!(path, vec![src, dst], "one run, no bend");
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
        let (path, _) = line(&g, src, dst, 20).unwrap();
        assert_corner_form(&path, src, dst, &Window::full(&g));
        assert!(expand(&path).iter().any(|c| c.y == 10), "must pass through the gap");
    }

    #[test]
    fn expands_fewer_cells_than_maze_on_sparse_grid() {
        let g = grid();
        let src = GCell::new(1, 1);
        let dst = GCell::new(22, 22);
        let (_, ls) = line(&g, src, dst, 10).unwrap();
        let (_, bfs) = SearchScratch::new().lee_bfs_in(&g, src, dst, Window::full(&g)).unwrap();
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
        let out = line(&g, src, GCell::new(20, 20), 8);
        assert!(out.is_none(), "boxed-in pin cannot be line-routed");
    }

    /// A fixed view of a grid that counts the probes grown on it.
    struct Counting {
        grid: RoutingGrid,
        free_runs: std::cell::Cell<usize>,
    }

    impl DemandGrid for Counting {
        fn width(&self) -> u32 {
            self.grid.width
        }
        fn height(&self) -> u32 {
            self.grid.height
        }
        fn step_cost(&self, _: GCell, _: GCell) -> f64 {
            unreachable!("line search prices no edge")
        }
        fn is_full(&self, a: GCell, b: GCell) -> bool {
            self.grid.is_full(a, b)
        }
        fn free_run(&self, origin: GCell, horizontal: bool, min: u32, max: u32) -> (u32, u32) {
            self.free_runs.set(self.free_runs.get() + 1);
            self.grid.free_run(origin, horizontal, min, max)
        }
    }

    #[test]
    fn a_walled_in_pin_ends_the_search_without_flooding_the_other_tree() {
        // The source's tree is exhausted by its first expansion. Waiting for
        // the target's tree to run out too floods the whole open grid (1 195
        // probes) with lines that can never meet the source.
        let mut grid = RoutingGrid::new(28, 28, &RuleDeck::simple(6));
        let src = GCell::new(9, 13);
        for nb in grid.neighbours(src).collect::<Vec<_>>() {
            let cap = if nb.y == src.y { grid.cap_h } else { grid.cap_v };
            grid.add_usage(src, nb, cap as i32);
        }
        let view = Counting { grid, free_runs: std::cell::Cell::new(0) };
        let win = Window::full(&view.grid);
        let mut scratch = LineScratch::default();
        assert!(scratch.search(&view, src, GCell::new(21, 4), 12, win).is_none());
        let probes = view.free_runs.get();
        assert!(probes < 100, "{probes} probes grown for a walled-in pin");
    }

    #[test]
    fn single_cell_route() {
        let g = grid();
        let (p, _) = line(&g, GCell::new(3, 3), GCell::new(3, 3), 4).unwrap();
        assert_eq!(p.len(), 1);
    }
}
